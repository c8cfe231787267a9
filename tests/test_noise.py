"""Noise-layer tests.

The phase structure function is checked against quadrature of its spectrum,
the envelopes and calibration against their closed forms, the exact
dephased state against an average over sampled Gaussian kicks, the Kraus
channels against closed-form actions, and the composed budget against the
device-scale infidelity bands plus a frozen regression point.
"""

import math

import numpy as np
import pytest

from slowlight import dynamics, fluxcontrol, noise, protocol, qops, shots, tomography, waveguide

T2_STAR = noise.DEFAULT_T2_STAR


@pytest.fixture(scope="module")
def calibrated():
    return noise.calibrate_dephasing()


@pytest.fixture(scope="module")
def budget(calibrated):
    return noise.error_budget(noise=calibrated)


def _quadrature_structure(tau, f_min, f_max):
    """D(tau) as tau^2 / ln(f_max / f_min) times the integral of
    sin^2(x) / x^3 over [pi f_min tau, pi f_max tau], by 30-point
    Gauss-Legendre panels: unit width in ln x below x = 1, width 1/2 above."""
    nodes, weights = np.polynomial.legendre.leggauss(30)
    lo, hi = math.pi * f_min * tau, math.pi * f_max * tau
    total = 0.0
    for edges, in_log in ((np.linspace(math.log(lo), math.log(min(hi, 1.0)),
                                       int(math.log(min(hi, 1.0) / lo)) + 2), True),
                          (np.linspace(1.0, hi, int(2.0 * (hi - 1.0)) + 2), False)):
        if edges[-1] <= edges[0]:
            continue
        for a, b in zip(edges[:-1], edges[1:]):
            u = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            x = np.exp(u) if in_log else u
            # sin^2(x) / x^3 dx is sin^2(x) / x^2 d(ln x)
            integrand = np.sin(x) ** 2 / x ** (2 if in_log else 3)
            total += 0.5 * (b - a) * float(np.sum(weights * integrand))
    return tau * tau * total / math.log(f_max / f_min)


@pytest.mark.parametrize("f_min, f_max", [(noise.DEFAULT_F_MIN, noise.DEFAULT_F_MAX),
                                          (1.0, 3e7)], ids=["50Hz-100MHz", "1Hz-30MHz"])
def test_structure_function_matches_quadrature_of_its_spectrum(f_min, f_max):
    taus = np.array([1e-10, 5e-9, 16e-9, 1e-7, T2_STAR, 2e-6])
    closed = noise.phase_structure(taus, f_min, f_max)
    for tau, value in zip(taus, closed):
        assert value == pytest.approx(_quadrature_structure(tau, f_min, f_max), rel=1e-12)
    # a unit-RMS detuning turns the phase by tau while it is quasi-static
    assert noise.phase_structure(1e-12, f_min, f_max) / 1e-24 == pytest.approx(1.0, rel=1e-6)
    assert noise.phase_structure(0.0, f_min, f_max) == 0.0


def test_negative_delays_rejected(calibrated):
    for envelope in (noise.ramsey_envelope, noise.echo_envelope):
        with pytest.raises(ValueError, match="delays"):
            envelope(calibrated, [20e-9, -20e-9])


def test_gaussian_fit_oracle(calibrated):
    """A Gaussian fitted to the Ramsey envelope over the span where it
    exceeds 1/e, the calibration's former definition of T2*, lands within
    0.5 % of the 1/e time the calibration now solves for."""
    delays = np.linspace(0.0, 2.5 * T2_STAR, 41)[1:]
    envelope = noise.ramsey_envelope(calibrated, delays)
    keep = envelope > math.exp(-1.0)
    slope, _ = np.polyfit(delays[keep] ** 2, np.log(envelope[keep]), 1)
    assert abs(1.0 / math.sqrt(-slope) - T2_STAR) < 0.005 * T2_STAR


def test_calibration_hits_target_t2(calibrated):
    assert calibrated.calibrated_t2 == T2_STAR
    assert calibrated.amplitude > 0.0
    for t2 in (T2_STAR, 2.0 * T2_STAR, 40e-9):
        spec = noise.calibrate_dephasing(t2_target=t2)
        assert noise.ramsey_envelope(spec, [t2])[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    for bad in (0.0, -T2_STAR, math.nan, math.inf):
        with pytest.raises(ValueError, match="t2_target"):
            noise.calibrate_dephasing(t2_target=bad)


def test_echo_refocuses_slow_noise(calibrated):
    delays = np.linspace(0.2, 2.0, 10) * T2_STAR
    ramsey = noise.ramsey_envelope(calibrated, delays)
    echo = noise.echo_envelope(calibrated, delays)
    assert np.all(echo > ramsey)
    assert float(np.mean(echo - ramsey)) > 0.2


def test_longer_t2_dephases_less(calibrated):
    slower = noise.calibrate_dephasing(t2_target=2.0 * T2_STAR)
    steps = protocol.published_circuit("cluster4_2d")
    target = protocol.target_state("cluster4_2d").photons()
    infid = []
    for spec in (calibrated, slower):
        rho = noise.dephased_protocol_run(steps, spec).matrix
        infid.append(1.0 - float(np.real(target.conj() @ rho @ target)))
    assert infid[1] < 0.5 * infid[0]


def test_zero_amplitude_leaves_state_ideal():
    silent = noise.OneOverFSpec(amplitude=0.0, calibrated_t2=T2_STAR)
    for name in protocol.TARGET_NAMES:
        steps = protocol.published_circuit(name)
        rho = noise.dephased_protocol_run(steps, silent)
        vec = protocol.compile_and_run(steps).photons()
        # to roundoff: fused multiply-adds in the matrix products may differ
        np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()), rtol=0.0, atol=1e-16)
        ideal = protocol.target_state(name).photon_density()
        assert np.max(np.abs(rho.matrix - ideal.matrix)) < 1e-12


def test_uncalibrated_amplitude_rejected():
    raw = noise.OneOverFSpec(amplitude=1.0)
    with pytest.raises(ValueError, match="uncalibrated"):
        noise.dephased_protocol_run(protocol.published_circuit("ghz2"), raw)


def test_dephased_run_requires_disentangled_emitter():
    silent = noise.OneOverFSpec(amplitude=0.0, calibrated_t2=T2_STAR)
    dangling = [protocol.rotation("ge", np.pi / 2.0), protocol.emit(1)]
    with pytest.raises(ValueError, match="disentangling"):
        noise.dephased_protocol_run(dangling, silent)


def _sampled_rows(steps, spec, draws, seed):
    """Photon-register vectors of `draws` runs, each history turned by the
    phase its levels pick up from kicks K^(1/2) z with z standard normal.
    K has zero rows for zero-length steps, so its root comes from eigh."""
    vals, vecs = np.linalg.eigh(noise._step_covariance(steps, spec))
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    kicks = np.random.default_rng(seed).standard_normal((draws, len(vals))) @ root.T
    levels, columns, amplitudes, n = protocol._histories(steps)
    turned = amplitudes * np.exp(1j * (kicks @ levels.T))
    psi = np.zeros((draws, 3 * 2 ** n), dtype=complex)
    for h, column in enumerate(columns):
        psi[:, column] += turned[:, h]
    assert np.max(np.abs(psi[:, 2 ** n:])) < 1e-12
    return psi[:, :2 ** n]


@pytest.mark.parametrize("name", ["cluster4_2d", "ring5"])
def test_exact_state_matches_sampled_kicks(calibrated, name):
    """The fidelity and every vertex stabilizer of the exact average agree
    with their means over 4000 sampled noise runs to within 4 standard
    errors."""
    steps = protocol.published_circuit(name)
    rho = noise.dephased_protocol_run(steps, calibrated).matrix
    rows = _sampled_rows(steps, calibrated, 4000, seed=11)
    n, edges = protocol.target_graph(name)
    target = protocol.target_state(name).photons()
    observables = [np.outer(target, target.conj())]
    observables += [qops.stabilizer_operator(v, n, [(a - 1, b - 1) for a, b in edges])
                    for v in range(n)]
    for op in observables:
        samples = np.real(np.einsum("ri,ij,rj->r", rows.conj(), op, rows))
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - np.real(np.trace(rho @ op))) < 4.0 * se


def test_history_count_is_bounded(calibrated):
    """The pair form is quadratic in the history count: 2^11 histories are
    refused by name, and every published circuit stays within the bound."""
    with pytest.raises(ValueError, match="2048 emitter-level histories"):
        noise.dephased_protocol_run([protocol.rotation("ge", 1.0)] * 11, calibrated)
    for name in protocol.TARGET_NAMES:
        steps = protocol.published_circuit(name)
        assert len(protocol._histories(steps)[2]) <= 32
        noise.dephased_protocol_run(steps, calibrated)


def test_budget_is_the_same_for_every_seed():
    for name in ("cluster4_2d", "ring5"):
        assert noise.error_budget(name, seed=1) == noise.error_budget(name, seed=2)
    assert noise.calibrate_dephasing(seed=1) == noise.calibrate_dephasing(seed=1009)


def test_kraus_sets_are_trace_preserving():
    for kraus in (noise.amplitude_damping_kraus(0.13),
                  noise.depolarizing_kraus(0.04, 1),
                  noise.depolarizing_kraus(0.03, 2)):
        dim = kraus[0].shape[0]
        total = sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-12


def test_damping_action_closed_form():
    loss = 0.13
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    out = noise.apply_kraus_single(rho, noise.amplitude_damping_kraus(loss), 2, 2)
    expect = np.zeros((4, 4), dtype=complex)
    expect[3, 3] = 1.0 - loss
    expect[2, 2] = loss
    assert np.max(np.abs(out - expect)) < 1e-12


def test_pauli_twirl_equals_depolarizer():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    p = 0.2
    out = sum(k @ rho @ k.conj().T for k in noise.depolarizing_kraus(p, 2))
    expect = (1.0 - p) * rho + p * np.eye(4) / 4.0
    assert np.max(np.abs(out - expect)) < 1e-12


def test_loss_only_fidelity_closed_form():
    loss = 0.13
    stack = noise.ChannelStack(loss=loss, thermal_pop=0.0, residual_f=0.0, cz_depol=0.0)
    ideal = protocol.target_state("cluster4_2d").photon_density()
    target = protocol.target_state("cluster4_2d").photons()
    rho = noise.apply_channels(ideal, stack, fed_back_photons=(1,))
    f = float(np.real(target.conj() @ rho.matrix @ target))
    assert abs(f - noise.loss_only_fidelity(loss)) < 1e-12
    assert abs(noise.loss_only_fidelity(loss) - (1.0 + math.sqrt(0.87)) ** 2 / 4.0) < 1e-15


def test_apply_channels_noop_and_range_check():
    stack = noise.ChannelStack(loss=0.0, thermal_pop=0.0, residual_f=0.0, cz_depol=0.0)
    ideal = protocol.target_state("cluster3_1d").photon_density()
    rho = noise.apply_channels(ideal, stack, fed_back_photons=(1,))
    assert np.max(np.abs(rho.matrix - ideal.matrix)) < 1e-14
    with pytest.raises(ValueError, match="outside 1..3"):
        noise.apply_channels(ideal, stack, fed_back_photons=(5,))


def test_budget_matches_device_bands(budget):
    assert set(budget) == {"state", "realizations", "t2_star_s", "monte_carlo_se",
                           "dephasing_infidelity", "loss_infidelity", "control_infidelity",
                           "combined_fidelity", "standalone", "channels"}
    assert budget["state"] == "cluster4_2d"
    assert abs(budget["dephasing_infidelity"] - 0.15) <= 0.03
    assert abs(budget["loss_infidelity"] - 0.05) <= 0.01
    assert abs(budget["combined_fidelity"] - 0.76) <= 0.03
    assert budget["realizations"] == 0
    assert budget["monte_carlo_se"] == 0.0
    assert budget["t2_star_s"] == T2_STAR
    assert budget["channels"]["cz_gates"] == 1
    assert budget["channels"]["fed_back_photons"] == [1]


def test_budget_frozen_regression(budget):
    # exact values, so silent drift in D, the step covariance or the schedule shows up
    assert abs(budget["dephasing_infidelity"] - 0.141738848) < 1e-9
    assert abs(budget["loss_infidelity"] - 0.056644116) < 1e-9
    assert abs(budget["control_infidelity"] - 0.022173511) < 1e-9
    assert abs(budget["combined_fidelity"] - 0.779443525) < 1e-9


def test_budget_nearly_additive(budget):
    total = sum(budget["standalone"].values())
    assert abs(budget["combined_fidelity"] - (1.0 - total)) < 0.03
    assert abs(budget["standalone"]["loss"] - (1.0 - noise.loss_only_fidelity(0.13))) < 1e-12


def test_confusion_identity_and_round_trip():
    """Flipping each outcome with probability 1 - F scales the mean outcome
    by the 2F - 1 that the process design applies, within 4 binomial sd."""
    rng = np.random.default_rng(9)
    true = np.where(rng.random(200_000) < 0.7, 1, -1)
    assert np.array_equal(noise.confuse_readout(true, 1.0, seed=5), true)
    f = noise.READOUT_FIDELITY
    # the factor by which the design at F scales the ideal design's rows
    # with a nontrivial Pauli
    shaded = tomography._process_design(tomography.PrepModel(readout_fidelity=f))
    ideal = tomography._process_design(tomography.PrepModel())
    rows = np.tile([p != "I" for p, _ in tomography.CORRELATOR_LABELS], 16)
    shrink = np.vdot(ideal[rows], shaded[rows]).real / np.vdot(ideal[rows], ideal[rows]).real
    assert abs(shrink - (2.0 * f - 1.0)) < 1e-12
    for seed in (5, 6):
        flipped = noise.confuse_readout(true, f, seed=seed)
        assert set(np.unique(flipped)) == {-1, 1}
        sd = math.sqrt(4.0 * f * (1.0 - f) / true.size)
        assert abs(np.mean(flipped) - shrink * np.mean(true)) < 4.0 * sd


def test_confuse_readout_stream_is_pinned():
    """One Philox draw per outcome, keyed (seed, 1): the stream the symmetric
    confusion matrix diag(0.976) drew before the fidelity form replaced it."""
    x = np.where(np.random.default_rng(3).random(5000) < 0.4, 1, -1)
    draws = np.random.Generator(np.random.Philox(key=[5, 1])).random(x.shape)
    expected = np.where(draws < 1 - 0.976, -x, x)
    assert np.array_equal(noise.confuse_readout(x, noise.READOUT_FIDELITY, seed=5), expected)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 0.5, 1.2, -0.1])
def test_confusion_must_hold_probabilities(entry):
    """A NaN readout error once returned labels without an error; the shot
    form and the design form refuse the same fidelities."""
    message = r"readout fidelity must lie in \(0\.5, 1\]"
    with pytest.raises(ValueError, match=message):
        noise.confuse_readout(np.ones(8, dtype=int), entry)
    with pytest.raises(ValueError, match=message):
        tomography.PrepModel(readout_fidelity=entry)


def test_spec_validation_errors():
    with pytest.raises(ValueError, match=r"\(0, 50\]"):
        noise.OneOverFSpec(amplitude=1.0, f_min=0.0)
    with pytest.raises(ValueError, match=r"\(0, 50\]"):
        noise.OneOverFSpec(amplitude=1.0, f_min=60.0)
    with pytest.raises(ValueError, match="f_max must exceed"):
        noise.OneOverFSpec(amplitude=1.0, f_max=noise.DEFAULT_F_MIN)
    with pytest.raises(ValueError, match="amplitude"):
        noise.OneOverFSpec(amplitude=-1.0)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        noise.ChannelStack(loss=1.0)


@pytest.mark.parametrize("field", ["amplitude", "f_min", "f_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_fields(field, value):
    kwargs = {"amplitude": 1.0, field: value}
    with pytest.raises(ValueError, match=f"noise.{field} must be finite"):
        noise.OneOverFSpec(**kwargs)


ENVELOPE = {"t_r": 15e-9, "delta": 0.33, "xi_max": 0.22, "window": 140e-9, "dt": 1e-9}
TONE = {"phi_bias": 0.2, "phi_ac": 0.05, "omega_mod": 2.0 * math.pi * 300e6, "phi_dc": 0.0}
DRIVE = {"spec": fluxcontrol.TransmonSpec.emitter(), "phi_bias": 0.2,
         "omega_mod": 2.0 * math.pi * 450e6, "t": np.arange(3) * 1e-9,
         "xi_target": np.array([0.0, 0.05, 0.1])}
WAVEGUIDE = waveguide.WaveguideSpec.device()
G = 2.0 * math.pi * 50e6
LATTICE = dynamics.LatticeSystem(WAVEGUIDE, G)
# inside the passband and off its center, where end_reflection reads the coupling
OMEGA = WAVEGUIDE.center + 0.5 * WAVEGUIDE.hop_j
# a one-mode heterodyne batch and its dark batch
SHOTS = shots.ShotBatch(np.full((8, 1), 1.0 + 1.0j), ("",))
DARK = shots.ShotBatch(np.full((8, 1), 0.5j), ("",), dark=True)
CLUSTER2 = protocol.target_state("cluster2").photon_density()


def _drive(**bad):
    return fluxcontrol.drive_from_envelope(**{**DRIVE, **bad})


# entry -> (the argument its error must name, a call with that argument bad)
NON_FINITE_ENTRIES = {
    "phase_structure": ("tau", lambda bad: noise.phase_structure([1e-6, bad])),
    **{f"phase_structure.{label}": (label, lambda bad, label=label: noise.phase_structure(
        [1e-6], **{label: bad})) for label in ("f_min", "f_max")},
    "amplitude_damping_kraus": ("loss", noise.amplitude_damping_kraus),
    "loss_only_fidelity": ("loss", noise.loss_only_fidelity),
    "apply_channels.cz_gates": ("cz_gates", lambda bad: noise.apply_channels(
        CLUSTER2, noise.ChannelStack(), (1,), bad)),
    **{f"erf_envelope.{label}": (label, lambda bad, label=label: fluxcontrol.erf_envelope(
        **{**ENVELOPE, label: bad})) for label in ENVELOPE},
    **{f"FluxTone.{label}": (label, lambda bad, label=label: fluxcontrol.FluxTone(
        **{**TONE, label: bad})) for label in TONE},
    "drive_from_envelope": ("xi_target", lambda bad: _drive(xi_target=np.array([0.0, bad, 0.1]))),
    **{f"drive_from_envelope.{label}": (label, lambda bad, label=label: _drive(**{label: bad}))
       for label in ("phi_bias", "omega_mod")},
    "drive_from_envelope.t": ("t", lambda bad: _drive(t=np.array([0.0, bad, 2e-9]))),
    "estimate_moments.gain": ("gain", lambda bad: shots.estimate_moments(SHOTS, DARK, {1: bad})),
    "simulate_process_measurements": ("chi", lambda bad: tomography.simulate_process_measurements(
        np.full((16, 16), bad, dtype=complex))),
    "simulate_process_measurements.noise": ("noise", lambda bad: (
        tomography.simulate_process_measurements(tomography.ideal_cz_chi(), noise=bad))),
    "evolve.horizon": ("horizon", lambda bad: dynamics.evolve(LATTICE, "emitter", bad)),
    "evolve.dt": ("dt", lambda bad: dynamics.evolve(LATTICE, "emitter", 1e-9, dt=bad)),
    "wavenumber": ("omega", lambda bad: waveguide.wavenumber(WAVEGUIDE, bad)),
    "group_delay_per_cell": ("omega", lambda bad: waveguide.group_delay_per_cell(WAVEGUIDE, bad)),
    "gamma_1d.g": ("g", lambda bad: waveguide.gamma_1d(bad, WAVEGUIDE.hop_j)),
    "gamma_1d.hop_j": ("hop_j", lambda bad: waveguide.gamma_1d(G, bad)),
    "taper_reflection": ("omega", lambda bad: dynamics.taper_reflection(WAVEGUIDE, bad)),
    "taper_transmittance": ("bandwidth", lambda bad: dynamics.taper_transmittance(WAVEGUIDE, bad)),
    "taper_echo_train": ("n_echoes", lambda bad: dynamics.taper_echo_train(WAVEGUIDE, bad)),
    "end_reflection.omega": ("omega", lambda bad: dynamics.end_reflection(WAVEGUIDE, bad, G)),
    "end_reflection.coupling": ("coupling", lambda bad: (
        dynamics.end_reflection(WAVEGUIDE, OMEGA, bad))),
    "OneOverFSpec.calibrated_t2": ("calibrated_t2", lambda bad: (
        noise.OneOverFSpec(amplitude=1e6, calibrated_t2=bad))),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRIES))
def test_entry_points_refuse_non_finite_inputs_by_name(entry, bad):
    """A NaN or infinite input is refused with a ValueError that names the
    argument and says it is not finite, instead of passing through as NaN
    samples, NaN Kraus operators, NaN means, NaN wavenumbers, rates or
    reflections, or an infinite bandwidth read as a flat spectrum, or being
    refused as out of range."""
    name, call = NON_FINITE_ENTRIES[entry]
    with pytest.raises(ValueError, match=rf"\b{name}\b.*\bfinite\b"):
        call(bad)


@pytest.mark.parametrize("loss", [-0.1, 1.5])
@pytest.mark.parametrize("entry", [noise.amplitude_damping_kraus, noise.loss_only_fidelity])
def test_a_loss_outside_the_unit_interval_is_refused(entry, loss):
    with pytest.raises(ValueError, match=r"loss must lie in \[0, 1\]"):
        entry(loss)


# case -> (the message its error must match, a call with an input out of range)
OUT_OF_RANGE = {
    "estimate_moments.gain=0": ("gain must be finite and positive", lambda: (
        shots.estimate_moments(SHOTS, DARK, {1: 0.0}))),
    "estimate_moments.gain=-1": ("gain must be finite and positive", lambda: (
        shots.estimate_moments(SHOTS, DARK, {1: -1.0}))),
    "apply_channels.cz_gates=-3": ("cz_gates must be a finite, non-negative whole number", lambda: (
        noise.apply_channels(CLUSTER2, noise.ChannelStack(), (1,), -3))),
    "apply_channels.cz_gates=1.5": ("cz_gates must be a finite, non-negative whole number", lambda: (
        noise.apply_channels(CLUSTER2, noise.ChannelStack(), (1,), 1.5))),
    "apply_channels.cz_gates=200": (r"cz_gates = 2\.02 exceeds 1", lambda: (
        noise.apply_channels(CLUSTER2, noise.ChannelStack(), (1,), 200))),
    "phase_structure.f_max<f_min": (r"0 < f_min < f_max", lambda: (
        noise.phase_structure([1e-6], f_min=50.0, f_max=10.0))),
    "phase_structure.f_max=f_min": (r"0 < f_min < f_max", lambda: (
        noise.phase_structure([1e-6], f_min=50.0, f_max=50.0))),
    "simulate_process_measurements.noise<0": ("noise must be finite and non-negative", lambda: (
        tomography.simulate_process_measurements(tomography.ideal_cz_chi(), noise=-0.01))),
    "drive_from_envelope.t short": (r"t has shape \(2,\), not xi_target's \(3,\)", lambda: (
        _drive(t=np.arange(2) * 1e-9))),
    "evolve.samples=0": ("samples must be a whole number of at least 1", lambda: (
        dynamics.evolve(LATTICE, "emitter", 1e-9, samples=0))),
    "evolve.horizon<0": ("horizon must be finite and non-negative", lambda: (
        dynamics.evolve(LATTICE, "emitter", -1e-9))),
    "evolve.dt<0": ("dt must be finite and positive", lambda: (
        dynamics.evolve(LATTICE, "emitter", 1e-9, dt=-1e-11))),
    "gamma_1d.hop_j=0": ("hop_j must be finite and positive", lambda: (
        waveguide.gamma_1d(G, 0.0))),
    "gamma_1d.hop_j<0": ("hop_j must be finite and positive", lambda: (
        waveguide.gamma_1d(G, -WAVEGUIDE.hop_j))),
    "taper_transmittance.bandwidth<0": ("bandwidth must be finite and non-negative", lambda: (
        dynamics.taper_transmittance(WAVEGUIDE, -1e6))),
    "taper_transmittance.bandwidth=41MHz": ("bandwidth .* outside the passband", lambda: (
        dynamics.taper_transmittance(WAVEGUIDE, 41e6))),
    "taper_transmittance.bandwidth=1GHz": ("bandwidth .* outside the passband", lambda: (
        dynamics.taper_transmittance(WAVEGUIDE, 1e9))),
    "taper_echo_train.n_echoes=-1": ("n_echoes must be a finite, non-negative whole number",
                                     lambda: dynamics.taper_echo_train(WAVEGUIDE, -1)),
    "taper_echo_train.n_echoes=2.5": ("n_echoes must be a finite, non-negative whole number",
                                      lambda: dynamics.taper_echo_train(WAVEGUIDE, 2.5)),
    "emit.photon=1.5": ("photon must be an integer", lambda: protocol.emit(1.5)),
    "cz_feedback.photon=2.7": ("photon must be an integer", lambda: protocol.cz_feedback(2.7)),
    "ProtocolStep.duration<0": ("step.duration must be non-negative", lambda: (
        protocol.emit(1, duration=-1e-9))),
    "MomentTable.count=7.8": ("count must be an integer", lambda: (
        shots.MomentTable(("",), np.zeros(4), np.ones(4), 7.8))),
    "OneOverFSpec.calibrated_t2<0": ("calibrated_t2 must be None or finite and positive", lambda: (
        noise.OneOverFSpec(amplitude=1e6, calibrated_t2=-1.0))),
    "confuse_readout.outcome=0": ("outcomes must be", lambda: (
        noise.confuse_readout(np.array([1, 0, -1]), noise.READOUT_FIDELITY))),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_entry_points_refuse_out_of_range_inputs_by_name(case):
    """A gain of -1 once raised "math domain error" and one of 0 gave a table
    of zero S moments; cz_gates -3 skipped the depolarizer and 200 raised
    "negative eigenvalue"; a band with f_max below f_min gave 1e-12; a
    negative process noise gave noise-free means; a short t gave tracks of
    another length than t; evolve raised ZeroDivisionError or numpy's
    "negative dimensions"; gamma_1d raised ZeroDivisionError at hop_j 0 and
    gave a negative rate below it; a negative bandwidth read as 0, and one
    past 40 MHz averaged over a window clipped to the passband;
    taper_echo_train gave no echoes for -1 and four for 2.5; emit(1.5) and
    cz_feedback(2.7) compiled as photons 1 and 2; a negative emission window
    gave negative step times; a table count of 7.8 read as 7; a calibrated
    T2* of -1 was reported as the budget's t2_star_s; and an outcome of 0
    read as -1."""
    message, call = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=message):
        call()
