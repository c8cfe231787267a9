"""State and process reconstruction tests.

Exact-moment tables must invert to the source state, the solver trace must
be monotone, batched refits must agree with the scalar path, parametric
resampling must respect Hermitian pairing and the 1/N variance law, the
bootstrap must be seeded and correctly ranked, and the process fitter must
recover a known gate with its local-Z frame gauge fixed.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from slowlight import qops
from slowlight.noise import ChannelStack, apply_channels
from slowlight.protocol import target_state
from slowlight.shots import MomentTable, estimate_moments, synthesize_shots
from slowlight.tomography import (
    PrepModel,
    _curvature_step,
    _design_for_modes,
    _process_design,
    _solve_state_batch,
    _StateProblem,
    bootstrap_ci,
    chi_from_json,
    chi_from_unitary,
    chi_to_json,
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
    state_from_json,
    state_to_json,
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
    ideal, _ = cluster_states
    table = moments_from_state(ideal)
    pruned = dict(table.entries)
    pruned.pop(((1, 0), (0, 0), (0, 0), (0, 0)))
    with pytest.raises(ValueError, match="missing"):
        mle_state(MomentTable(entries=pruned, mode_bases=table.mode_bases))
    with pytest.raises(ValueError, match="heterodyne"):
        mle_state(MomentTable(entries=dict(table.entries), mode_bases=("z",) * 4))
    bad = dict(table.entries)
    sig = ((1, 1), (0, 0), (0, 0), (0, 0))
    bad[sig] = (bad[sig][0], -1.0, 1)
    with pytest.raises(ValueError, match="non-negative"):
        mle_state(MomentTable(entries=bad, mode_bases=table.mode_bases))


# ---------------------------------------------------------------------------
# sparse moment design and curvature step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
def test_sparse_design_matches_dense_moment_rows(n_modes):
    signatures, design = _design_for_modes(n_modes)
    assert sp.issparse(design)
    assert design.shape == (4**n_modes - 1, 4**n_modes)
    assert design.nnz == 5**n_modes - 2**n_modes
    assert not design.data.flags.writeable
    if n_modes <= 5:
        dense = np.array([qops.moment_operator(sig, n_modes).T.reshape(-1)
                          for sig in signatures])
        assert np.array_equal(design.toarray(), dense)
        assert list(signatures) == qops.all_moment_signatures(n_modes)[1:]


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
# batched refits against the scalar solver
# ---------------------------------------------------------------------------


def test_batch_solver_matches_scalar(noisy_table):
    problem = _StateProblem(noisy_table)
    base, _ = problem.solve()
    rng = np.random.Generator(np.random.Philox(key=[0, 1]))
    targets = np.tile(problem.targets, (3, 1))
    targets = targets + 0.002 * (rng.standard_normal(targets.shape)
                                 + 1j * rng.standard_normal(targets.shape))
    mats, sweeps = _solve_state_batch(problem, targets, base.matrix,
                                      stop_tol=1e-9)
    assert sweeps < 5000
    for r in range(3):
        rho, _ = problem.solve(targets=targets[r], x0=base)
        assert np.abs(mats[r] - rho.matrix).max() < 1e-5
        assert abs(np.trace(mats[r]) - 1.0) < 1e-8
        assert np.linalg.eigvalsh(mats[r]).min() > -1e-10


# ---------------------------------------------------------------------------
# parametric resampling of moment tables
# ---------------------------------------------------------------------------


def test_moments_from_state_variance_source(noisy_table, cluster_states):
    _, noisy = cluster_states
    scaled = moments_from_state(noisy, count=4_000_000, variance_source=noisy_table)
    sig = ((1, 1), (0, 0), (0, 0), (0, 0))
    assert scaled.variance(sig) == noisy_table.variance(sig)
    assert scaled.count(sig) == 4_000_000
    ratio = (noisy_table.variance(sig) / noisy_table.count(sig)) / (
        scaled.variance(sig) / scaled.count(sig))
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
        assert rep.count(sig) == table.count(sig)


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
# bootstrap intervals
# ---------------------------------------------------------------------------


def test_bootstrap_is_deterministic_and_ranked():
    table = moments_from_state(BELL, variance=0.01, count=400)
    bell_rho = np.outer(BELL, BELL.conj())
    rep_a = bootstrap_ci(table, bell_rho, resamples=200, seed=3)
    rep_b = bootstrap_ci(table, bell_rho, resamples=200, seed=3)
    assert rep_a["low"] == rep_b["low"] and rep_a["high"] == rep_b["high"]
    assert np.array_equal(rep_a["fidelities"], rep_b["fidelities"])
    assert rep_a["sweeps"] == rep_b["sweeps"] < 5000
    ordered = np.sort(rep_a["fidelities"])
    assert rep_a["low"] == ordered[int(np.ceil(0.025 * 200)) - 1] - rep_a["bias"]
    assert rep_a["high"] == ordered[int(np.ceil(0.975 * 200)) - 1] - rep_a["bias"]
    assert len(rep_a["fidelities"]) == 200


def test_bootstrap_interval_holds_its_estimate():
    # the estimate sits on the edge of the state space here, so plain
    # percentiles of the refits fall short of it
    table = moments_from_state(BELL, variance=0.01, count=400)
    rep = bootstrap_ci(table, np.outer(BELL, BELL.conj()), resamples=200, seed=3)
    assert rep["low"] <= rep["estimate"] <= rep["high"]
    assert rep["bias"] == np.median(rep["fidelities"]) - rep["estimate"]


def test_bootstrap_interval_scales_with_budget():
    bell_rho = np.outer(BELL, BELL.conj())
    widths = []
    for count in (100, 10_000):
        table = moments_from_state(BELL, variance=0.04, count=count)
        widths.append(bootstrap_ci(table, bell_rho, resamples=300,
                                   seed=1)["width"])
    assert widths[1] < widths[0] / 3.0


def test_bootstrap_coverage_on_exact_tables():
    bell_rho = np.outer(BELL, BELL.conj())
    mixed = 0.9 * bell_rho + 0.1 * np.eye(4) / 4.0
    f_true = qops.fidelity(mixed, bell_rho)
    base = moments_from_state(mixed, variance=0.04, count=40_000)
    hits = 0
    for k in range(10):
        rep_table = resample_moments(base, seed=k)
        report = bootstrap_ci(rep_table, bell_rho, resamples=300, seed=k)
        hits += report["low"] <= f_true <= report["high"]
    assert hits >= 8


def test_bootstrap_argument_screens():
    table = moments_from_state(BELL, variance=0.01, count=100)
    bell_rho = np.outer(BELL, BELL.conj())
    with pytest.raises(ValueError, match="at least 1"):
        bootstrap_ci(table, bell_rho, resamples=0)
    with pytest.warns(UserWarning, match="fewer than 100"):
        bootstrap_ci(table, bell_rho, resamples=40, seed=0)


def test_bootstrap_width_collapses_with_variance():
    table = moments_from_state(BELL, variance=1e-10, count=1000)
    report = bootstrap_ci(table, np.outer(BELL, BELL.conj()),
                          resamples=150, seed=2)
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


def test_process_fit_input_validation():
    with pytest.raises(ValueError, match="16 preparations"):
        mle_process(np.zeros(100), np.ones(100))
    with pytest.raises(ValueError, match="non-negative"):
        mle_process(np.zeros(240), -np.ones(240))


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_state_json_round_trip(cluster_states):
    _, noisy = cluster_states
    text = state_to_json(noisy, extra={"seed": 11})
    payload = json.loads(text)
    assert payload["seed"] == 11
    assert payload["dim"] == 16
    back = state_from_json(text)
    assert np.abs(back.matrix - noisy.matrix).max() < 1e-12
    with pytest.raises(ValueError, match="density matrix"):
        state_from_json(json.dumps({"kind": "other"}))


def test_chi_json_round_trip():
    chi = depolarized_chi(ideal_cz_chi(), 0.07)
    text = chi_to_json(chi, extra={"gate": "feedback-cz"})
    payload = json.loads(text)
    assert payload["gate"] == "feedback-cz"
    back = chi_from_json(text)
    assert np.abs(back - chi).max() < 1e-12
    with pytest.raises(ValueError, match="chi matrix"):
        chi_from_json(json.dumps({"kind": "other"}))
    wrong = json.loads(text)
    wrong["basis"] = wrong["basis"][::-1]
    with pytest.raises(ValueError, match="basis"):
        chi_from_json(json.dumps(wrong))
