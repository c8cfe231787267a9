"""State and process reconstruction tests.

Exact-moment tables must invert to the source state, the solver trace must
be monotone, parametric resampling must respect Hermitian pairing and the
1/N variance law, the direct fidelity estimate must be exact on exact
tables, its closed-form interval must match the spread of replica estimates
and cover the true fidelity at its nominal rate, and
the process fitter must recover a known gate with its local-Z frame gauge
fixed.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from slowlight import qops, tomography
from slowlight.noise import ChannelStack, apply_channels
from slowlight.protocol import target_state
from slowlight.shots import MomentTable, estimate_moments, synthesize_shots
from slowlight.tomography import (
    _TP_A,
    _TP_B,
    PROCESS_STOP_TOL,
    STOP_TOL,
    PrepModel,
    _curvature_step,
    _design_for_modes,
    _process_design,
    _StateProblem,
    bootstrap_ci,
    chi_from_unitary,
    chi_to_superop,
    compose_local_z,
    cptp_residual,
    depolarized_chi,
    gauge_fix_local_z,
    ideal_cz_chi,
    mle_process,
    mle_state,
    moment_objective,
    moments_from_state,
    prep_states,
    process_fidelity,
    project_cptp,
    resample_moments,
    simulate_process_measurements,
    superop_to_chi,
)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def cluster_states():
    ideal = target_state("cluster4_2d").photon_density()
    noisy = apply_channels(ideal, ChannelStack(), fed_back_photons=(1,), cz_gates=1)
    return ideal, noisy


@pytest.fixture(scope="module")
def noisy_table(cluster_states):
    _, noisy = cluster_states
    batch, dark = synthesize_shots(noisy, n_noise=1.0, count=150_000, seed=11)
    return estimate_moments(batch, dark)


# ---------------------------------------------------------------------------
# state reconstruction from exact moments
# ---------------------------------------------------------------------------


def test_single_photon_exact_recovery():
    one = np.array([0.0, 1.0], dtype=complex)
    rho, info = mle_state(moments_from_state(one))
    assert qops.fidelity(rho.matrix, np.outer(one, one.conj())) > 1.0 - 1e-8
    assert info["objective"] < 1e-10


def test_five_mode_exact_recovery():
    ideal = target_state("ring5").photon_density()
    rho, info = mle_state(moments_from_state(ideal))
    assert qops.fidelity(rho.matrix, ideal.matrix) >= 1.0 - 1e-6
    assert info["kkt_residual"] < 1e-6


def test_random_four_mode_pure_state_recovery():
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    rho, info = mle_state(moments_from_state(psi))
    assert qops.fidelity(rho.matrix, np.outer(psi, psi.conj())) > 0.999
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho.matrix).min() > -1e-10
    assert info["kkt_residual"] < 1e-6


def test_cluster_exact_recovery_and_monotone_trace(cluster_states):
    ideal, _ = cluster_states
    rho, info = mle_state(moments_from_state(ideal))
    assert qops.fidelity(rho.matrix, ideal.matrix) > 0.9999
    trace = info["objective_trace"]
    assert np.all(np.diff(trace) <= 1e-15)


def test_degradation_is_monotone_in_depolarization(cluster_states):
    ideal, _ = cluster_states
    eye = np.eye(16, dtype=complex) / 16.0
    fids = []
    for p in (0.0, 0.2, 0.5):
        mixed = (1.0 - p) * ideal.matrix + p * eye
        rho, _ = mle_state(moments_from_state(mixed))
        fids.append(qops.fidelity(rho.matrix, ideal.matrix))
    assert fids[0] > fids[1] > fids[2]


def test_objective_zero_at_truth_positive_elsewhere(cluster_states):
    ideal, noisy = cluster_states
    table = moments_from_state(noisy)
    assert moment_objective(table, noisy) < 1e-12
    assert moment_objective(table, ideal) > 1e-3


def test_noisy_shot_table_reconstruction(cluster_states, noisy_table):
    ideal, noisy = cluster_states
    f_true = qops.fidelity(noisy.matrix, ideal.matrix)
    rho, _ = mle_state(noisy_table)
    f_est = qops.fidelity(rho.matrix, ideal.matrix)
    assert abs(f_est - f_true) < 0.05


def test_state_fit_input_validation(cluster_states):
    """An incomplete, negative-variance or zero-count table cannot be built,
    so no fit ever sees one; a table of the right size over qubit modes is
    refused by the fit."""
    ideal, _ = cluster_states
    table = moments_from_state(ideal)
    # one signature missing
    with pytest.raises(ValueError, match=r"holds 256 moments, not \(255,\) means"):
        MomentTable(table.mode_bases, table.means[1:], table.variances[1:], 1)
    qubits = MomentTable(("z",) * 4, np.ones(16), np.ones(16), 1)
    with pytest.raises(ValueError, match="heterodyne"):
        mle_state(qubits)
    bad = table.variances.copy()
    bad[5] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        MomentTable(table.mode_bases, table.means, bad, 1)
    # the moments of another mode count do not stand in for this layout's
    two = moments_from_state(BELL)
    with pytest.raises(ValueError, match=r"mode_bases \('', '', ''\) holds 64 moments, not \(16,\)"):
        MomentTable(("", "", ""), two.means, two.variances, two.count)
    with pytest.raises(ValueError, match="has shot count 0; every mean needs"):
        MomentTable(table.mode_bases, table.means, table.variances, 0)


def _random_pure_table():
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return moments_from_state(psi / np.linalg.norm(psi))


def _state_fit(scale):
    table = _random_pure_table()
    rho, info = mle_state(MomentTable(table.mode_bases, table.means,
                                      scale * table.variances, table.count))
    return rho.matrix, info


def _process_fit(scale):
    means, variances = simulate_process_measurements(ideal_cz_chi())
    return mle_process(means, scale * variances)


@pytest.mark.parametrize("fit", [_state_fit, _process_fit], ids=["state", "process"])
def test_fits_do_not_depend_on_the_variance_scale(fit):
    """Scaling every variance by 4, exact in binary, scales the weights and
    the objective by 1/4 and the step length by 4, so the iterates and the
    step-size stop do not move.  A stop on the absolute objective change
    did move with it: these two fits took 178 -> 169 and 169 -> 159
    iterations."""
    state, info = fit(1.0)
    scaled, info_scaled = fit(4.0)
    assert info_scaled["iterations"] == info["iterations"]
    assert np.array_equal(scaled, state)
    assert info_scaled["objective"] == info["objective"] / 4.0


def test_reported_objective_is_a_fresh_evaluation(noisy_table):
    """The momentum point's residual is carried, not recomputed; the
    objective the fit reports must still be that of the state it returns,
    and the step that ended the fit is below the stop."""
    rho, info = mle_state(noisy_table)
    fresh = moment_objective(noisy_table, rho)
    assert abs(info["objective"] - fresh) <= 1e-9 * fresh
    assert info["step_norm"] < STOP_TOL
    assert info["kkt_residual"] < 10.0 * STOP_TOL
    prep = PrepModel(loss=0.1, thermal_pop=0.01, readout_fidelity=0.97)
    means, variances = simulate_process_measurements(
        depolarized_chi(ideal_cz_chi(), 0.05), prep, noise=0.01, seed=1)
    chi, info = mle_process(means, variances, prep)
    resid = _process_design(prep) @ chi.reshape(-1) - means.reshape(-1)
    fresh = float(np.sum(np.abs(resid) ** 2 / variances.reshape(-1)))
    assert abs(info["objective"] - fresh) <= 1e-9 * fresh
    assert info["step_norm"] < PROCESS_STOP_TOL
    assert info["kkt_residual"] < 10.0 * PROCESS_STOP_TOL


def _recomputing_apg(problem):
    """The state fit's loop with every residual formed afresh from its
    point, two design products and one adjoint product per iteration: the
    reference for the carried momentum residual."""
    design, weights, targets, dim = (problem.design, problem.weights,
                                     problem.targets, problem.dim)
    step = _curvature_step(design, weights)

    def project(v):
        return qops.project_density(v.reshape(dim, dim)).reshape(-1)

    def objective(v):
        return float(np.sum(weights * np.abs(design @ v - targets) ** 2))

    x = project((np.eye(dim, dtype=complex) / dim).reshape(-1))
    fx, y, t, stalled = objective(x), x, 1.0, False
    for iterations in range(1, 100_000):
        z = project(y - 2.0 * step * (design.conj().T @ (weights * (design @ y - targets))))
        fz = objective(z)
        if fz <= fx:
            moved = np.linalg.norm(z - y)
            if np.real(np.vdot(y - z, z - x)) > 0.0:
                t = 1.0
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_next) * (z - x)
            x, fx, t, stalled = z, fz, t_next, False
            if moved < STOP_TOL:
                return x.reshape(dim, dim), iterations
        elif stalled:
            return x.reshape(dim, dim), iterations
        else:
            y, t, stalled = x, 1.0, True
    raise AssertionError("reference loop did not stop")


def test_carried_residual_takes_the_recomputed_iterates(noisy_table):
    """A momentum residual carried wrongly still converges, only more
    slowly, so the fits are checked against the loop that recomputes it:
    dropping the carried term cost 9 more iterations on the pure-state
    table, and dropping its reset on a rejected step moved the noisy fit by
    7e-12."""
    for table in (_random_pure_table(), noisy_table):
        expected, iterations = _recomputing_apg(_StateProblem(table))
        rho, info = mle_state(table)
        assert info["iterations"] == iterations
        assert np.abs(rho.matrix - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# sparse moment design and curvature step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
def test_sparse_design_matches_dense_moment_rows(n_modes):
    """The design is square, in the table's layout, with 5^n nonzeros; row j
    is vec of signature j's moment operator, and row 0 is vec(I)."""
    design = _design_for_modes(n_modes)
    assert sp.issparse(design)
    assert design.shape == (4**n_modes, 4**n_modes)
    assert design.nnz == 5**n_modes
    assert not design.data.flags.writeable
    assert np.array_equal(design[0].toarray()[0], np.eye(2**n_modes).reshape(-1))
    if n_modes <= 5:
        signatures = qops.moment_layout(("",) * n_modes)[0]
        dense = np.array([qops.moment_operator(sig, n_modes).T.reshape(-1)
                          for sig in signatures])
        assert np.array_equal(design.toarray(), dense)


def test_curvature_step_is_reproducible_and_exact(noisy_table):
    problem = _StateProblem(noisy_table)
    process = _process_design(PrepModel(loss=0.1, thermal_pop=0.02,
                                        readout_fidelity=0.97))
    weights = np.linspace(0.5, 2.0, process.shape[0])
    for design, w in ((problem.design, problem.weights), (process, weights)):
        step = _curvature_step(design, w)
        assert _curvature_step(design, w) == step
        dense = design.toarray() if sp.issparse(design) else design
        lam = np.linalg.eigvalsh(dense.conj().T @ (dense * w[:, None])).max()
        assert abs(1.0 / (2.0 * step) - lam) <= 1e-12 * lam


# ---------------------------------------------------------------------------
# parametric resampling of moment tables
# ---------------------------------------------------------------------------


def test_moments_from_state_variance_source(noisy_table, cluster_states):
    _, noisy = cluster_states
    scaled = moments_from_state(noisy, count=4_000_000, variance_source=noisy_table)
    sig = ((1, 1), (0, 0), (0, 0), (0, 0))
    assert scaled.variance(sig) == noisy_table.variance(sig)
    assert scaled.count == 4_000_000
    ratio = (noisy_table.variance(sig) / noisy_table.count) / (
        scaled.variance(sig) / scaled.count)
    assert abs(ratio - 4_000_000 / 150_000) < 1e-9
    assert scaled.mode_bases == noisy_table.mode_bases


def test_resample_is_seeded_and_hermitian():
    table = moments_from_state(BELL, variance=0.01, count=100)
    rep_a = resample_moments(table, seed=5)
    rep_b = resample_moments(table, seed=5)
    rep_c = resample_moments(table, seed=6)
    sig = ((1, 0), (0, 1))
    conj = ((0, 1), (1, 0))
    assert rep_a.mean(sig) == rep_b.mean(sig)
    assert rep_a.mean(sig) != rep_c.mean(sig)
    for rep in (rep_a, rep_c):
        assert rep.mean(conj) == np.conj(rep.mean(sig))
        self_sig = ((1, 1), (0, 0))
        assert rep.mean(self_sig).imag == 0.0
        assert rep.variance(sig) == table.variance(sig)
        assert rep.count == table.count


def test_resample_rejects_a_zero_shot_count():
    # the table itself refuses the count, so no replica can be drawn from it
    with pytest.raises(ValueError, match="has shot count 0; every mean needs"):
        resample_moments(moments_from_state(BELL, count=0), seed=1)


def _per_signature_draw(signatures, means, variances, resamples, rng):
    """The earlier draw loop, one signature at a time: the reference for the
    vectorised draw."""
    index = {sig: j for j, sig in enumerate(signatures)}
    drawn = np.tile(np.asarray(means, dtype=complex), (resamples, 1))
    for j, sig in enumerate(signatures):
        partner = index[tuple(e[::-1] if isinstance(e, tuple) else e for e in sig)]
        if partner < j:
            continue
        var = variances[j]
        if partner == j:
            drawn[:, j] = (np.real(means[j])
                           + np.sqrt(var) * rng.standard_normal(resamples))
        else:
            scale = np.sqrt(var / 2.0)
            drawn[:, j] = means[j] + scale * (
                rng.standard_normal(resamples)
                + 1j * rng.standard_normal(resamples))
            drawn[:, partner] = drawn[:, j].conj()
    return drawn


@pytest.mark.parametrize("bases", [("",), ("x",), ("", ""), ("", "z"), ("y", ""),
                                   ("", "", ""), ("", "x", ""), ("z", "", "y"),
                                   ("", "", "", ""), ("", "x", "", "z")],
                         ids=lambda bases: "-".join(b or "het" for b in bases))
def test_draws_equal_the_per_signature_loop_bit_for_bit(bases):
    """resample_moments draws exactly the normals, in the same order, that
    the per-signature loop drew."""
    rng = np.random.Generator(np.random.Philox(key=[len(bases), 41]))
    signatures = qops.moment_layout(bases)[0]
    size = len(signatures)
    table = MomentTable(bases, rng.standard_normal(size) + 1j * rng.standard_normal(size),
                        rng.random(size), 250)
    for seed in (0, 7):
        replica = resample_moments(table, seed=seed)
        expected = _per_signature_draw(
            signatures, table.means, table.variances / table.count, 1,
            np.random.Generator(np.random.Philox(key=[seed, 0x5EED])))[0]
        assert replica.means.tobytes() == expected.tobytes()


def test_resample_spread_follows_variance_of_mean():
    table = moments_from_state(BELL, variance=0.04, count=250)
    pair = ((1, 0), (0, 1))
    self_sig = ((1, 1), (0, 0))
    pair_re, self_vals = [], []
    for seed in range(400):
        rep = resample_moments(table, seed=seed)
        pair_re.append(rep.mean(pair).real)
        self_vals.append(rep.mean(self_sig).real)
    var_of_mean = 0.04 / 250
    # a conjugate pair splits its variance over the two quadratures
    assert abs(np.var(pair_re) / (var_of_mean / 2.0) - 1.0) < 0.3
    assert abs(np.var(self_vals) / var_of_mean - 1.0) < 0.3


# ---------------------------------------------------------------------------
# direct-fidelity intervals
# ---------------------------------------------------------------------------


def test_bootstrap_se_is_the_replica_spread_and_draws_nothing(cluster_states, noisy_table):
    """The closed-form se is the spread of the linear estimate over replica
    tables: 4,000 replicas know their sd to about 1.1 percent, so 5 percent
    is about 4 sigma.  Nothing is drawn, so neither `resamples` nor `seed`
    moves a figure."""
    ideal, noisy = cluster_states
    table = moments_from_state(noisy, count=200_000, variance_source=noisy_table)
    report = bootstrap_ci(table, ideal)
    estimates = [bootstrap_ci(resample_moments(table, seed=k), ideal)["estimate"]
                 for k in range(4000)]
    assert abs(np.std(estimates, ddof=1) / report["se"] - 1.0) < 0.05
    assert report["low"] == report["estimate"] - tomography.Z_95 * report["se"]
    assert report["high"] == report["estimate"] + tomography.Z_95 * report["se"]
    assert report["width"] == report["high"] - report["low"]
    for resamples, seed in ((1, 0), (40, 7), (100_000, 123)):
        other = bootstrap_ci(table, ideal, resamples=resamples, seed=seed)
        assert other["resamples"] == resamples and other["seed"] == seed
        for key in ("estimate", "low", "high", "width", "se"):
            assert other[key] == report[key], key


def test_bootstrap_interval_holds_its_estimate():
    # the state sits on the edge of the state space here, where an MLE
    # would be biased; the linear estimate is not, and may pass 1
    table = moments_from_state(BELL, variance=0.01, count=400)
    rep = bootstrap_ci(table, np.outer(BELL, BELL.conj()))
    assert rep["low"] <= rep["estimate"] <= rep["high"]


def test_bootstrap_estimate_is_the_exact_fidelity(cluster_states):
    ideal, noisy = cluster_states
    report = bootstrap_ci(moments_from_state(noisy), ideal)
    assert abs(report["estimate"] - qops.fidelity(noisy.matrix, ideal.matrix)) < 1e-12


def test_bootstrap_interval_scales_with_budget():
    bell_rho = np.outer(BELL, BELL.conj())
    widths = []
    for count in (100, 10_000):
        table = moments_from_state(BELL, variance=0.04, count=count)
        widths.append(bootstrap_ci(table, bell_rho)["width"])
    assert widths[1] < widths[0] / 3.0


def test_bootstrap_coverage_on_exact_tables(cluster_states):
    ideal, _ = cluster_states
    # (target, weight of the maximally mixed state, per-shot variance, shots,
    # replicas, fewest and most hits); the four-mode bounds are the 3-sigma
    # binomial band around 95 percent of 200 replicas
    cases = ((np.outer(BELL, BELL.conj()), 0.1, 0.04, 40_000, 10, 8, 10),
             (ideal.matrix, 0.25, 1.0, 20_000, 200, 181, 199))
    for target, p, variance, count, replicas, least, most in cases:
        dim = target.shape[0]
        mixed = (1.0 - p) * target + p * np.eye(dim) / dim
        f_true = qops.fidelity(mixed, target)
        base = moments_from_state(mixed, variance=variance, count=count)
        hits = 0
        for k in range(replicas):
            report = bootstrap_ci(resample_moments(base, seed=k), target)
            hits += report["low"] <= f_true <= report["high"]
        assert least <= hits <= most, (dim, hits)


def test_bootstrap_coverage_on_shot_tables():
    """Coverage from heterodyne shots: each replica is its own seeded batch
    and dark batch, so the table's variances are estimated, not given.  The
    bounds are the 3-sigma binomial band around 95 percent of 200 replicas.
    The table leaves out the covariances between signatures that the shots
    carry, so here the interval runs wider than the replicas' spread."""
    target = target_state("cluster2").photon_density().matrix
    mixed = 0.9 * target + 0.1 * np.eye(4) / 4.0
    f_true = qops.fidelity(mixed, target)
    hits = 0
    for seed in range(200):
        table = estimate_moments(*synthesize_shots(mixed, 1.0, 10_000, seed=seed))
        report = bootstrap_ci(table, target)
        hits += report["low"] <= f_true <= report["high"]
    assert 181 <= hits <= 199, hits


def test_bootstrap_argument_screens():
    table = moments_from_state(BELL, variance=0.01, count=100)
    with pytest.raises(ValueError, match="dimension 2, .* dimension 4"):
        bootstrap_ci(table, np.array([1.0, 0.0]))


def test_bootstrap_width_collapses_with_variance():
    table = moments_from_state(BELL, variance=1e-10, count=1000)
    report = bootstrap_ci(table, np.outer(BELL, BELL.conj()))
    assert report["width"] < 1e-3


# ---------------------------------------------------------------------------
# chi-matrix algebra
# ---------------------------------------------------------------------------


def _pauli(index):
    singles = (np.eye(2), np.array([[0, 1], [1, 0]]),
               np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    return np.kron(singles[index // 4], singles[index % 4]).astype(complex)


def test_chi_superop_round_trip_and_action():
    rng = np.random.Generator(np.random.Philox(key=[21, 0]))
    chi = depolarized_chi(ideal_cz_chi(), 0.2)
    assert np.abs(superop_to_chi(chi_to_superop(chi)) - chi).max() < 1e-12
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    via_super = (chi_to_superop(chi) @ rho.reshape(-1)).reshape(4, 4)
    direct = sum(chi[n, m_] * _pauli(n) @ rho @ _pauli(m_)
                 for n in range(16) for m_ in range(16))
    assert np.abs(via_super - direct).max() < 1e-12


def test_ideal_cz_chi_is_rank_one_unit_trace():
    chi = ideal_cz_chi()
    vals = np.linalg.eigvalsh(chi)
    assert abs(vals[-1] - 1.0) < 1e-12
    assert np.abs(vals[:-1]).max() < 1e-12
    assert abs(np.trace(chi) - 1.0) < 1e-12
    assert cptp_residual(chi) < 1e-12
    assert abs(process_fidelity(chi, chi_from_unitary(CZ)) - 1.0) < 1e-12


def test_depolarized_fidelity_closed_form():
    for p in (0.03, 0.2, 0.8):
        chi = depolarized_chi(ideal_cz_chi(), p)
        expect = 1.0 - p + p / 16.0
        assert abs(process_fidelity(chi, ideal_cz_chi()) - expect) < 1e-9
        assert abs(process_fidelity(ideal_cz_chi(), chi) - expect) < 1e-9
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        depolarized_chi(ideal_cz_chi(), 1.2)


def test_frame_advance_fidelity_closed_form():
    chi = ideal_cz_chi()
    rng = np.random.Generator(np.random.Philox(key=[4, 0]))
    for _ in range(5):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        rotated = compose_local_z(chi, a, b)
        expect = (np.cos(a / 2.0) * np.cos(b / 2.0)) ** 2
        assert abs(process_fidelity(rotated, chi) - expect) < 1e-9
    restored = compose_local_z(compose_local_z(chi, 0.7, -0.4), -0.7, 0.4)
    assert np.abs(restored - chi).max() < 1e-12


def test_project_cptp_lands_in_the_set():
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    noise = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    chi = project_cptp(ideal_cz_chi() + 0.05 * (noise + noise.conj().T))
    assert cptp_residual(chi) < 1e-6
    assert np.linalg.eigvalsh(chi).min() > -1e-8
    again = project_cptp(chi)
    assert np.abs(again - chi).max() < 1e-6


def _dykstra_cptp(chi, tol=1e-13):
    """Dykstra alternation between the PSD cone and the affine
    trace-preserving subspace, run to a tight tolerance."""
    gram_inv = np.linalg.inv(_TP_A @ _TP_A.conj().T)
    x = chi.reshape(-1)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(100_000):
        m = (x + p).reshape(16, 16)
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        y = ((vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T).reshape(-1)
        p = x + p - y
        x = y + q - _TP_A.conj().T @ (gram_inv @ (_TP_A @ (y + q) - _TP_B))
        q = y + q - x
        if np.linalg.norm(x - y) < tol:
            return x.reshape(16, 16)
    raise AssertionError("Dykstra oracle did not converge")


def test_project_cptp_matches_a_tight_dykstra():
    rng = np.random.Generator(np.random.Philox(key=[9, 1]))
    noise = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    inputs = [noise + noise.conj().T, ideal_cz_chi(),
              depolarized_chi(ideal_cz_chi(), 0.2)]
    assert np.linalg.eigvalsh(inputs[0]).min() < -5.0
    assert cptp_residual(inputs[2]) < 1e-12
    for chi in inputs:
        got = project_cptp(chi)
        assert np.abs(got - _dykstra_cptp(chi)).max() <= 1e-10
        assert np.linalg.eigvalsh(got).min() >= -1e-12
        assert cptp_residual(got) <= 1e-12


def test_project_cptp_raises_when_it_cannot_converge():
    rng = np.random.Generator(np.random.Philox(key=[9, 2]))
    noise = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    with pytest.raises(RuntimeError, match="did not reach"):
        project_cptp(noise + noise.conj().T, max_iters=1)


# ---------------------------------------------------------------------------
# process reconstruction
# ---------------------------------------------------------------------------


def test_prep_states_are_physical_and_ideal_when_clean():
    states = prep_states()
    assert states.shape == (16, 4, 4)
    for rho in states:
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert np.linalg.eigvalsh(rho).max() > 1.0 - 1e-12
    lossy = prep_states(PrepModel(loss=0.3))
    excited = lossy[5]  # both qubits flipped to |1>
    assert abs(excited[3, 3].real - 0.7) < 1e-12


def test_prep_model_validation():
    with pytest.raises(ValueError, match="loss"):
        PrepModel(loss=1.0)
    with pytest.raises(ValueError, match="thermal"):
        PrepModel(thermal_pop=-0.1)
    with pytest.raises(ValueError, match="readout"):
        PrepModel(readout_fidelity=0.5)


def test_process_design_matches_a_per_entry_trace_loop():
    """Row (prep i, correlator j), column 16 n + m of the process design is
    the shrunk trace Tr(O_j P_n rho_i P_m+), formed one entry at a time."""
    model = PrepModel(loss=0.1, thermal_pop=0.02, readout_fidelity=0.97)
    states = prep_states(model)
    paulis = tomography._PAULIS_2Q
    expected = np.empty((16, 15, 16, 16), dtype=complex)
    for i in range(16):
        for j, (p, op) in enumerate(tomography.CORRELATOR_LABELS):
            measure = np.kron(qops.PAULIS[p], qops.single_mode_moment(*op))
            shrink = 2.0 * model.readout_fidelity - 1.0 if p != "I" else 1.0
            for n in range(16):
                for m in range(16):
                    expected[i, j, n, m] = shrink * np.trace(
                        measure @ paulis[n] @ states[i] @ paulis[m].conj().T)
    design = _process_design(model)
    assert design.shape == (240, 256)
    assert np.abs(design - expected.reshape(240, 256)).max() < 1e-14


def test_measurement_grid_is_linear_in_the_process():
    cz = ideal_cz_chi()
    identity = chi_from_unitary(np.eye(4, dtype=complex))
    mix = 0.7 * cz + 0.3 * identity
    m_cz, _ = simulate_process_measurements(cz)
    m_id, _ = simulate_process_measurements(identity)
    m_mix, _ = simulate_process_measurements(mix)
    assert np.abs(m_mix - 0.7 * m_cz - 0.3 * m_id).max() < 1e-12


def test_process_fit_recovers_ideal_gate():
    cz = ideal_cz_chi()
    means, variances = simulate_process_measurements(cz)
    chi_hat, info = mle_process(means, variances)
    assert process_fidelity(chi_hat, cz) > 0.999
    assert info["cptp_residual"] < 1e-6
    assert info["min_eigenvalue"] > -1e-8


@pytest.mark.parametrize("seed", [1, 2])
def test_process_fit_needs_few_eigendecompositions_per_iteration(seed):
    chi = depolarized_chi(ideal_cz_chi(), 0.05)
    prep = PrepModel(loss=0.1, thermal_pop=0.01, readout_fidelity=0.97)
    means, variances = simulate_process_measurements(chi, prep, noise=0.01,
                                                     seed=seed)
    _, info = mle_process(means, variances, prep)
    assert info["projection_steps"] <= 4 * info["iterations"]


def test_process_fit_input_validation():
    with pytest.raises(ValueError, match="16 preparations"):
        mle_process(np.zeros(100), np.ones(100))
    with pytest.raises(ValueError, match="non-negative"):
        mle_process(np.zeros(240), -np.ones(240))


def _spoiled(array, value):
    array = np.array(array)
    array.reshape(-1)[7] = value
    return array


_GRID = simulate_process_measurements(ideal_cz_chi())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, call", [
    ("chi", lambda bad: project_cptp(_spoiled(ideal_cz_chi(), bad))),
    ("chi", lambda bad: gauge_fix_local_z(_spoiled(ideal_cz_chi(), bad))),
    ("means", lambda bad: mle_process(_spoiled(_GRID[0], bad), _GRID[1])),
    ("variances", lambda bad: mle_process(_GRID[0], _spoiled(_GRID[1], bad))),
    ("rho", lambda bad: qops.fidelity(_spoiled(ideal_cz_chi(), bad), ideal_cz_chi())),
    ("sigma", lambda bad: qops.fidelity(ideal_cz_chi(), _spoiled(ideal_cz_chi(), bad))),
    ("chi", lambda bad: compose_local_z(_spoiled(ideal_cz_chi(), bad), 0.3, -0.2)),
    ("theta", lambda bad: compose_local_z(ideal_cz_chi(), 0.3, bad)),
    ("chi", lambda bad: chi_to_superop(_spoiled(ideal_cz_chi(), bad))),
    ("superoperator", lambda bad: superop_to_chi(
        _spoiled(chi_to_superop(ideal_cz_chi()), bad))),
    ("chi", lambda bad: cptp_residual(_spoiled(ideal_cz_chi(), bad))),
], ids=["project_cptp", "gauge_fix_local_z", "mle_process-means",
        "mle_process-variances", "fidelity-rho", "fidelity-sigma",
        "compose_local_z-chi", "compose_local_z-theta", "chi_to_superop",
        "superop_to_chi", "cptp_residual"])
def test_non_finite_input_is_refused_by_name(name, call, value):
    """These once raised LinAlgError or ArpackError from deep inside a
    solver, or, for gauge_fix_local_z, returned angles (-pi, -pi) with a NaN
    fidelity."""
    with pytest.raises(ValueError, match=f"^{name} is not finite: 1 of"):
        call(value)


# ---------------------------------------------------------------------------
# local-Z gauge fixing
# ---------------------------------------------------------------------------


def test_gauge_fix_recovers_planted_frame():
    chi_true = depolarized_chi(ideal_cz_chi(), 0.05)
    planted = compose_local_z(chi_true, 0.7, -1.3)
    fixed, (t1, t2), fval = gauge_fix_local_z(planted)
    assert abs(np.angle(np.exp(1j * (t1 + 0.7)))) < 1e-3
    assert abs(np.angle(np.exp(1j * (t2 - 1.3)))) < 1e-3
    ceiling = process_fidelity(chi_true, ideal_cz_chi())
    assert abs(fval - ceiling) < 1e-6
    assert abs(process_fidelity(fixed, ideal_cz_chi()) - ceiling) < 1e-6


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3])
def test_gauge_fix_pins_planted_frames_to_roundoff(p):
    chi_true = depolarized_chi(ideal_cz_chi(), p)
    ceiling = process_fidelity(chi_true, ideal_cz_chi())
    for theta1, theta2 in ((0.7, -1.3), (0.0, 0.0), (3.1, -2.9), (-2.2, 0.4)):
        planted = compose_local_z(chi_true, theta1, theta2)
        _, (t1, t2), fval = gauge_fix_local_z(planted)
        assert abs(np.angle(np.exp(1j * (t1 + theta1)))) < 1e-12
        assert abs(np.angle(np.exp(1j * (t2 + theta2)))) < 1e-12
        assert abs(fval - ceiling) < 1e-12


def test_gauge_fix_leaves_aligned_process_alone():
    chi_true = depolarized_chi(ideal_cz_chi(), 0.1)
    fixed, (t1, t2), fval = gauge_fix_local_z(chi_true)
    assert abs(np.angle(np.exp(1j * t1))) < 1e-3
    assert abs(np.angle(np.exp(1j * t2))) < 1e-3
    assert abs(fval - process_fidelity(chi_true, ideal_cz_chi())) < 1e-9
