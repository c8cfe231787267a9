"""Noise-layer tests.

The 1/f generator is checked against its own periodogram, the Ramsey
calibration against a synthetic Gaussian oracle and the echo sequence,
the Kraus channels against closed-form actions, and the composed budget
against the device-scale infidelity bands plus a frozen seeded regression
point.
"""

import math

import numpy as np
import pytest

from slowlight import noise, protocol

T2_STAR = noise.DEFAULT_T2_STAR


@pytest.fixture(scope="module")
def calibrated():
    return noise.calibrate_dephasing(seed=0)


@pytest.fixture(scope="module")
def budget(calibrated):
    return noise.error_budget(realizations=2000, noise=calibrated)


def test_record_is_unit_rms_and_seeded():
    spec = noise.OneOverFSpec(amplitude=2.5, seed=4)
    rec = noise.noise_record(spec)
    assert abs(rec.std() - 1.0) < 1e-12
    assert np.array_equal(rec, noise.noise_record(spec))
    assert not np.array_equal(rec, noise.noise_record(noise.OneOverFSpec(amplitude=2.5, seed=5)))
    # slicing the whole record scales it to the requested RMS exactly
    n = int(round(spec.sample_rate / spec.f_min))
    sliced = noise.gen_one_over_f(spec, 1, n)
    assert sliced.shape == (1, n)
    assert abs(sliced.std() - spec.amplitude) < 1e-9 * spec.amplitude


def _record_before_caching(spec):
    """Out-of-place record synthesis, the bit-for-bit reference for the
    in-place one behind noise_record."""
    n = int(round(spec.sample_rate / spec.f_min))
    rng = np.random.Generator(np.random.Philox(key=np.array([spec.seed, 0], dtype=np.uint64)))
    freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate)
    weights = np.zeros_like(freqs)
    weights[1:] = freqs[1:] ** (-0.5 * spec.exponent)
    coefs = weights * (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs)))
    record = np.fft.irfft(coefs, n=n)
    return record / record.std()


@pytest.mark.parametrize("exponent", [0.0, 1.0, 1.7])
def test_record_matches_the_uncached_synthesis_bit_for_bit(exponent):
    # an even, an odd and the default record length
    for sample_rate in (2e5, 3.0005e5, noise.DEFAULT_SAMPLE_RATE):
        spec = noise.OneOverFSpec(amplitude=0.3, exponent=exponent, seed=7,
                                  sample_rate=sample_rate)
        assert np.array_equal(noise.noise_record(spec), _record_before_caching(spec))


def test_record_is_read_only_and_built_once_per_seed():
    rec = noise.noise_record(noise.OneOverFSpec(amplitude=1.0, seed=6))
    assert not rec.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rec[0] = 0.0
    noise._unit_record.cache_clear()
    spec = noise.calibrate_dephasing(seed=6)
    noise.dephased_protocol_run(protocol.published_circuit("ghz2"), spec, realizations=8)
    # probe pass, confirmation pass and the run share one synthesis
    assert noise._unit_record.cache_info().misses == 1


def test_negative_delays_rejected(calibrated):
    for envelope in (noise.ramsey_envelope, noise.echo_envelope):
        with pytest.raises(ValueError, match="delays"):
            envelope(calibrated, [20e-9, -20e-9])


def test_zero_realizations_rejected(calibrated):
    steps = protocol.published_circuit("ghz2")
    with pytest.raises(ValueError, match="realizations"):
        noise.dephased_protocol_run(steps, calibrated, realizations=0)
    with pytest.raises(ValueError, match="realizations"):
        noise.ramsey_envelope(calibrated, [20e-9], realizations=0)


def test_budget_needs_two_realizations_for_its_error(calibrated):
    """One realization has no sample spread: the budget refuses it instead
    of reporting a nan Monte Carlo SE."""
    for realizations in (0, 1):
        with pytest.raises(ValueError, match="at least 2 realizations"):
            noise.error_budget("ghz2", noise=calibrated, realizations=realizations)


def test_segment_budget_error():
    spec = noise.OneOverFSpec(amplitude=1.0)
    n = int(round(spec.sample_rate / spec.f_min))
    with pytest.raises(ValueError, match="exceed"):
        noise.gen_one_over_f(spec, 2, n)


def test_periodogram_recovers_exponent():
    white = noise.OneOverFSpec(amplitude=1.0, exponent=0.0, seed=2)
    pink = noise.OneOverFSpec(amplitude=1.0, exponent=1.0, seed=2)
    assert abs(noise.periodogram_exponent(white)) < 0.1
    assert abs(noise.periodogram_exponent(pink) - 1.0) < 0.1


def test_gaussian_fit_oracle():
    tau = 300e-9
    delays = np.linspace(0.0, 2.5 * tau, 41)[1:]
    t_fit, r2 = noise.fit_gaussian_decay(delays, np.exp(-((delays / tau) ** 2)))
    assert abs(t_fit - tau) < 1e-12 * tau
    assert r2 > 1.0 - 1e-12


def test_gaussian_fit_errors():
    delays = np.linspace(1e-9, 5e-9, 5)
    with pytest.raises(ValueError, match="decays too fast"):
        noise.fit_gaussian_decay(delays, np.full(5, 0.1))
    with pytest.raises(ValueError, match="does not decay"):
        noise.fit_gaussian_decay(delays[:4], np.array([0.5, 0.6, 0.7, 0.8]))


def test_calibration_hits_target_t2(calibrated):
    assert calibrated.calibrated_t2 == T2_STAR
    assert calibrated.amplitude > 0.0
    delays = np.linspace(0.0, 2.5 * T2_STAR, 41)[1:]
    t2_fit, r2 = noise.fit_gaussian_decay(delays, noise.ramsey_envelope(calibrated, delays))
    assert abs(t2_fit - T2_STAR) < 0.1 * T2_STAR
    assert r2 > 0.99


def test_echo_refocuses_slow_noise(calibrated):
    delays = np.linspace(0.2, 2.0, 10) * T2_STAR
    ramsey = noise.ramsey_envelope(calibrated, delays)
    echo = noise.echo_envelope(calibrated, delays)
    # same record slices, so the comparison is paired
    assert np.all(echo > ramsey)
    assert float(np.mean(echo - ramsey)) > 0.2


def test_longer_t2_dephases_less(calibrated):
    slower = noise.calibrate_dephasing(t2_target=2.0 * T2_STAR, seed=0)
    steps = protocol.published_circuit("cluster4_2d")
    target = protocol.target_state("cluster4_2d").photons()
    infid = []
    for spec in (calibrated, slower):
        vec = noise._dephased_vectors(steps, spec, 400)
        infid.append(1.0 - float(np.mean(np.abs(vec @ target.conj()) ** 2)))
    assert infid[1] < 0.5 * infid[0]


def test_zero_amplitude_leaves_state_ideal():
    silent = noise.OneOverFSpec(amplitude=0.0, calibrated_t2=T2_STAR)
    steps = protocol.published_circuit("cluster4_2d")
    rho = noise.dephased_protocol_run(steps, silent, realizations=16)
    ideal = protocol.target_state("cluster4_2d").photon_density()
    assert np.max(np.abs(rho.matrix - ideal.matrix)) < 1e-12


def test_uncalibrated_amplitude_rejected():
    raw = noise.OneOverFSpec(amplitude=1.0)
    with pytest.raises(ValueError, match="uncalibrated"):
        noise.dephased_protocol_run(protocol.published_circuit("ghz2"), raw, realizations=4)


def test_dephased_run_requires_disentangled_emitter():
    silent = noise.OneOverFSpec(amplitude=0.0, calibrated_t2=T2_STAR)
    dangling = [protocol.rotation("ge", np.pi / 2.0), protocol.emit(1)]
    with pytest.raises(ValueError, match="disentangling"):
        noise.dephased_protocol_run(dangling, silent, realizations=4)


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
    assert set(budget) == {"state", "seed", "realizations", "t2_star_s", "monte_carlo_se",
                           "dephasing_infidelity", "loss_infidelity", "control_infidelity",
                           "combined_fidelity", "standalone", "channels"}
    assert budget["state"] == "cluster4_2d"
    assert abs(budget["dephasing_infidelity"] - 0.15) <= 0.03
    assert abs(budget["loss_infidelity"] - 0.05) <= 0.01
    assert abs(budget["combined_fidelity"] - 0.76) <= 0.03
    assert budget["monte_carlo_se"] < 0.005
    assert budget["t2_star_s"] == T2_STAR
    assert budget["channels"]["cz_gates"] == 1
    assert budget["channels"]["fed_back_photons"] == [1]


def test_budget_frozen_regression(budget):
    # seed-0 pin so silent drift in the record, slicing or schedule shows up
    assert abs(budget["dephasing_infidelity"] - 0.166369) < 1e-3
    assert abs(budget["loss_infidelity"] - 0.054979) < 1e-3
    assert abs(budget["control_infidelity"] - 0.021485) < 1e-3
    assert abs(budget["combined_fidelity"] - 0.757167) < 1e-3


def test_budget_nearly_additive(budget):
    total = sum(budget["standalone"].values())
    assert abs(budget["combined_fidelity"] - (1.0 - total)) < 0.03
    assert abs(budget["standalone"]["loss"] - (1.0 - noise.loss_only_fidelity(0.13))) < 1e-12


def test_confusion_identity_and_round_trip():
    rng = np.random.default_rng(9)
    true = np.where(rng.random(200_000) < 0.7, 1, -1)
    assert np.array_equal(noise.confuse_readout(true, np.eye(2), seed=5), true)
    flipped = noise.confuse_readout(true, noise.READOUT_CONFUSION, seed=5)
    assert np.mean(flipped == true) > 0.9
    measured = np.array([np.mean(flipped > 0), np.mean(flipped < 0)])
    corrected = noise.correct_readout(measured, noise.READOUT_CONFUSION)
    assert abs(corrected[0] - 0.7) < 0.01
    assert abs(corrected[1] - 0.3) < 0.01


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1.2, -0.1])
def test_confusion_must_hold_probabilities(entry):
    """A NaN confusion matrix once returned labels, and corrected moments
    with a NaN, without an error."""
    confusion = noise.READOUT_CONFUSION.copy()
    confusion[0, 0] = entry
    with pytest.raises(ValueError, match=r"confusion must hold probabilities in \[0, 1\]"):
        noise.confuse_readout(np.ones(8, dtype=int), confusion)
    with pytest.raises(ValueError, match=r"confusion must hold probabilities in \[0, 1\]"):
        noise.correct_readout(np.array([0.5, 0.5]), confusion)


def test_readout_correction_algebra():
    c = np.array([[0.95, 0.08], [0.05, 0.92]])
    true = np.array([[0.42, -0.1, 0.3], [0.18, 0.05, -0.2]])
    corrected = noise.correct_readout(c @ true, c)
    assert np.max(np.abs(corrected - true)) < 1e-12
    with pytest.raises(ValueError, match="singular"):
        noise.correct_readout(np.array([0.5, 0.5]), np.full((2, 2), 0.5))


def test_spec_validation_errors():
    with pytest.raises(ValueError, match=r"\(0, 50\]"):
        noise.OneOverFSpec(amplitude=1.0, f_min=0.0)
    with pytest.raises(ValueError, match=r"\(0, 50\]"):
        noise.OneOverFSpec(amplitude=1.0, f_min=60.0)
    with pytest.raises(ValueError, match="sample_rate"):
        noise.OneOverFSpec(amplitude=1.0, sample_rate=-1.0)
    with pytest.raises(ValueError, match="exponent"):
        noise.OneOverFSpec(amplitude=1.0, exponent=-0.5)
    with pytest.raises(ValueError, match="amplitude"):
        noise.OneOverFSpec(amplitude=-1.0)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        noise.ChannelStack(loss=1.0)


@pytest.mark.parametrize("field", ["amplitude", "f_min", "sample_rate", "exponent"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_fields(field, value):
    kwargs = {"amplitude": 1.0, field: value}
    with pytest.raises(ValueError, match=f"noise.{field} must be finite"):
        noise.OneOverFSpec(**kwargs)
