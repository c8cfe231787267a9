"""Measurement-chain tests.

Sampled moments are checked against direct trace computations on the source
state, the noise deconvolution against dark-batch statistics, the Stark
model against second-order perturbation theory, and the bandwidth split
against the taper transmittance computed by the dynamics layer.
"""

import json

import numpy as np
import pytest

from slowlight import qops, shots
from slowlight.dynamics import emit_shaped, pulse_bandwidth, taper_transmittance
from slowlight.fluxcontrol import erf_envelope
from slowlight.waveguide import WaveguideSpec

TWO_PI = 2.0 * np.pi
DELTA = TWO_PI * 740e6
ETA = -TWO_PI * 277e6
GAMMA_1D = TWO_PI * 145.6e6

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1.0 / np.sqrt(2.0)


def sigma(table, signature):
    return np.sqrt(table.variance(signature) / table.count(signature))


@pytest.fixture(scope="module")
def bell_run():
    batch, dark = shots.synthesize_shots(BELL, 1.0, 1_000_000, seed=3)
    return batch, dark, shots.estimate_moments(batch, dark)


def test_vacuum_carries_the_commutator_unit():
    vac = np.array([1.0, 0.0], dtype=complex)
    batch, dark = shots.synthesize_shots(vac, 0.0, 200_000, seed=1)
    values = batch.values.astype(complex)[:, 0]
    power = np.abs(values) ** 2
    assert abs(power.mean() - 1.0) < 3.0 * power.std() / np.sqrt(len(power))
    assert abs(values.mean()) < 3.0 * values.std() / np.sqrt(len(values))
    assert batch.values.dtype == np.complex64


def test_single_photon_power_at_paper_noise():
    one = np.array([0.0, 1.0], dtype=complex)
    batch, dark = shots.synthesize_shots(one, 3.5, 1_000_000, seed=2)
    table = shots.estimate_moments(batch, dark)
    n_est = table.mean(((1, 1),)).real
    assert abs(n_est - 1.0) < 3.0 * sigma(table, ((1, 1),))
    noise_est = float(shots.dark_noise_power(dark)[0])
    assert abs(noise_est - 3.5) < 0.05


def test_bell_moments_match_trace_oracle(bell_run):
    _, _, table = bell_run
    rho = np.outer(BELL, BELL.conj())
    for sig in qops.all_moment_signatures(2):
        truth = complex(np.trace(rho @ qops.moment_operator(sig, 2)))
        if table.variance(sig) == 0.0:
            assert abs(table.mean(sig) - truth) < 1e-12
        else:
            assert abs(table.mean(sig) - truth) < 3.0 * sigma(table, sig)
    assert abs(table.mean(((0, 1), (0, 1))) - 0.5) < 3.0 * sigma(table, ((0, 1), (0, 1)))
    assert abs(table.mean(((1, 1), (0, 0))) - 0.5) < 3.0 * sigma(table, ((1, 1), (0, 0)))


def test_hermitian_pairing_is_exact(bell_run):
    _, _, table = bell_run
    for sig in qops.all_moment_signatures(2):
        swapped = tuple((m, n) for n, m in sig)
        assert abs(table.mean(swapped) - np.conj(table.mean(sig))) < 1e-9
        assert table.variance(swapped) == pytest.approx(table.variance(sig), abs=1e-9)


def test_single_photon_purity_moment():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    batch, dark = shots.synthesize_shots(plus, 0.5, 400_000, seed=6)
    # any single-excitation state has no same-mode two-photon component
    assert abs(shots.two_photon_moment(batch, dark)) < 0.08


def test_dark_batch_statistics():
    batch, dark = shots.synthesize_shots(BELL, 2.0, 150_000, seed=7)
    vals = dark.values.astype(complex)
    for column in (vals[:, 0], vals[:, 1], vals[:, 0] ** 2, vals[:, 0] * vals[:, 1]):
        assert abs(column.mean()) < 3.0 * column.std() / np.sqrt(len(column))
    for nu in shots.dark_noise_power(dark):
        assert abs(nu - 2.0) < 0.05


def test_estimator_error_scales_as_root_shots():
    counts = [4_000, 40_000, 400_000]
    sig = ((0, 1), (0, 1))
    rms = []
    for count in counts:
        errs = []
        for seed in range(6):
            batch, dark = shots.synthesize_shots(BELL, 1.0, count, seed=20 + seed)
            table = shots.estimate_moments(batch, dark)
            errs.append(abs(table.mean(sig) - 0.5) ** 2)
        rms.append(np.sqrt(np.mean(errs)))
    slope = np.polyfit(np.log10(counts), np.log10(rms), 1)[0]
    assert abs(slope + 0.5) < 0.15


def test_qubit_correlated_moments():
    batch, dark = shots.synthesize_shots(BELL, 0.5, 200_000, seed=4,
                                         qubit_bases={1: "z"})
    table = shots.estimate_moments(batch, dark)
    assert batch.outcomes.shape == (200_000, 1)
    assert set(np.unique(batch.outcomes)) == {-1, 1}
    # populations are balanced and the photon rides the -1 branch
    assert abs(table.mean((1, (0, 0)))) < 3.0 * sigma(table, (1, (0, 0)))
    assert abs(table.mean((1, (1, 1))) + 0.5) < 3.0 * sigma(table, (1, (1, 1)))
    x_batch, x_dark = shots.synthesize_shots(BELL, 0.5, 200_000, seed=5,
                                             qubit_bases={1: "x"})
    x_table = shots.estimate_moments(x_batch, x_dark)
    assert abs(x_table.mean((1, (0, 1))) - 0.5) < 3.0 * sigma(x_table, (1, (0, 1)))


def test_moment_products_match_a_per_signature_loop():
    """Every signature's per-shot product, formed one signature at a time as a
    product of its mode factors, has the table's variance, and its mean where
    no (1, 1) entry calls for dark deconvolution.  Mixed heterodyne and qubit
    modes, over two chunks."""
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    batch, dark = shots.synthesize_shots(psi / np.linalg.norm(psi), 0.5, 70_000,
                                         seed=6, qubit_bases={2: "x"})
    table = shots.estimate_moments(batch, dark)
    values = batch.values.astype(complex)
    factors = {(0, 0): lambda s: 1.0, (1, 0): np.conj, (0, 1): lambda s: s,
               (1, 1): lambda s: np.abs(s) ** 2}
    for sig in table.signatures():
        product = np.ones(batch.count, dtype=complex)
        het = iter(range(values.shape[1]))
        for entry in sig:
            if isinstance(entry, tuple):
                product = product * factors[entry](values[:, next(het)])
            elif entry:
                product = product * batch.outcomes[:, 0]
        var = np.var(product, ddof=1)
        assert abs(table.variance(sig) - var) <= 1e-10 * var
        if (1, 1) not in sig:
            assert abs(table.mean(sig) - product.mean()) < 1e-12
        assert table.count(sig) == batch.count


def test_reported_variance_matches_bootstrap(bell_run):
    batch, dark, table = bell_run
    rng = np.random.default_rng(11)
    values = batch.values.astype(complex)[:100_000]
    dark_power = float(shots.dark_noise_power(dark)[0]) + 1.0
    for sig, monomial in ((((1, 1), (0, 0)), np.abs(values[:, 0]) ** 2),
                          (((0, 1), (0, 1)), values[:, 0] * values[:, 1])):
        correction = dark_power if sig == ((1, 1), (0, 0)) else 0.0
        boots = []
        for _ in range(200):
            idx = rng.integers(0, len(monomial), len(monomial))
            boots.append(monomial[idx].mean() - correction)
        boot_var = float(np.var(np.array(boots)))
        reported = np.var(monomial, ddof=1) / len(monomial)
        assert abs(boot_var - reported) < 0.2 * reported


def test_synthesis_is_chunk_deterministic():
    for count in (70_000, 2 * 65_536):
        a, _ = shots.synthesize_shots(BELL, 1.0, count, seed=9)
        b, _ = shots.synthesize_shots(BELL, 1.0, count, seed=9)
        assert np.array_equal(a.values, b.values)
    c, _ = shots.synthesize_shots(BELL, 1.0, 70_000, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_batch_io_round_trip(tmp_path):
    batch, dark = shots.synthesize_shots(BELL, 0.5, 5_000, seed=8,
                                         qubit_bases={2: "y"})
    path = tmp_path / "batch.shot"
    shots.save_shots(batch, path)
    loaded = shots.load_shots(path)
    assert np.array_equal(loaded.values, batch.values)
    assert np.array_equal(loaded.outcomes, batch.outcomes)
    assert loaded.mode_bases == batch.mode_bases
    assert loaded.dark == batch.dark
    dark_path = tmp_path / "dark.shot"
    shots.save_shots(dark, dark_path)
    assert shots.load_shots(dark_path).dark

    bad = tmp_path / "bad.shot"
    bad.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError, match="not a shot batch"):
        shots.load_shots(bad)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        shots.load_shots(bad)


def test_load_shots_rejects_a_truncated_file(tmp_path):
    batch, _ = shots.synthesize_shots(BELL, 0.5, 1_000, seed=8)
    path = tmp_path / "batch.shot"
    shots.save_shots(batch, path)
    short = tmp_path / "short.shot"
    short.write_bytes(path.read_bytes()[:-13])
    with pytest.raises(ValueError, match="short.shot is 13 bytes short"):
        shots.load_shots(short)


def test_load_shots_rejects_trailing_bytes(tmp_path):
    batch, _ = shots.synthesize_shots(BELL, 0.5, 1_000, seed=8)
    path = tmp_path / "batch.shot"
    shots.save_shots(batch, path)
    path.write_bytes(path.read_bytes() + bytes(5))
    with pytest.raises(ValueError, match="5 bytes longer than"):
        shots.load_shots(path)


def test_moment_table_json_round_trip(bell_run):
    _, _, table = bell_run
    text = table.to_json()
    back = shots.MomentTable.from_json(text)
    assert back.mode_bases == table.mode_bases
    assert back.signatures() == table.signatures()
    for sig in table.signatures():
        assert back.mean(sig) == pytest.approx(table.mean(sig), abs=1e-12)
    assert json.loads(text)["mode_bases"] == ["", ""]


def test_synthesis_validation():
    with pytest.raises(ValueError, match="n_noise"):
        shots.synthesize_shots(BELL, -0.1, 100)
    with pytest.raises(ValueError, match="count"):
        shots.synthesize_shots(BELL, 0.0, 0)
    with pytest.raises(ValueError, match="outside 1..2"):
        shots.synthesize_shots(BELL, 0.0, 100, qubit_bases={3: "z"})
    with pytest.raises(ValueError, match="basis"):
        shots.synthesize_shots(BELL, 0.0, 100, qubit_bases={1: "q"})


def test_estimation_validation():
    batch, dark = shots.synthesize_shots(BELL, 0.5, 2_000, seed=1, dark_count=100)
    with pytest.raises(ValueError, match="tenth"):
        shots.estimate_moments(batch, dark)
    one = np.array([0.0, 1.0], dtype=complex)
    _, other_dark = shots.synthesize_shots(one, 0.5, 2_000, seed=1)
    with pytest.raises(ValueError, match="dark data"):
        shots.estimate_moments(batch, other_dark)
    with pytest.raises(ValueError, match="dark batch"):
        shots.dark_noise_power(batch)


def test_stark_shift_zero_drive_and_perturbative_limit():
    assert shots.stark_shift(0.0, DELTA, ETA) == 0.0
    for omega in (0.02 * DELTA, 0.05 * DELTA, 0.1 * DELTA):
        full = shots.stark_shift(omega, DELTA, ETA)
        pt = shots.stark_shift_perturbative(omega, DELTA, ETA)
        assert abs(full - pt) < 0.05 * abs(pt)


def test_stark_needs_five_levels_at_device_point():
    omega = 0.15 * DELTA
    by_level = {n: shots.stark_shift(omega, DELTA, ETA, levels=n)
                for n in (3, 4, 5, 6)}
    gap54 = abs(by_level[5] - by_level[4])
    # the fifth level still moves the answer, the sixth barely does
    assert gap54 > 1e-3 * abs(by_level[5])
    assert abs(by_level[3] - by_level[5]) > 10.0 * gap54
    assert abs(by_level[6] - by_level[5]) < 0.2 * gap54


def test_stark_validation_and_dispersive_warning():
    with pytest.raises(ValueError, match="detuned"):
        shots.stark_shift(1.0, 0.0, ETA)
    with pytest.raises(ValueError, match="levels"):
        shots.stark_shift(1.0, DELTA, ETA, levels=1)
    with pytest.warns(UserWarning, match="dispersive"):
        shots.stark_shift(0.6 * DELTA, DELTA, ETA)


def test_power_calibration_recovers_scale():
    g_true = 2.3e3
    volts = np.linspace(0.01, 0.05, 8)
    shifts = np.array([shots.stark_shift(g_true * v * np.sqrt(4.0 * GAMMA_1D),
                                         DELTA, ETA) for v in volts])
    rng = np.random.default_rng(0)
    shifts = shifts * (1.0 + 1e-4 * rng.standard_normal(len(volts)))
    cal = shots.ac_stark_calibration(volts, shifts, DELTA, ETA, GAMMA_1D,
                                     n_noise=3.5)
    assert abs(cal.g_scale - g_true) < 0.01 * g_true
    assert cal.eta_det == pytest.approx(1.0 / 4.5, abs=1e-12)
    with pytest.raises(ValueError, match="length"):
        shots.ac_stark_calibration([1.0], [1.0], DELTA, ETA, GAMMA_1D)


def test_bandwidth_split_identity_and_alarm():
    one = np.array([0.0, 1.0], dtype=complex)
    batch, dark = shots.synthesize_shots(one, 1.0, 100_000, seed=12)
    table = shots.estimate_moments(batch, dark)
    assert shots.bandwidth_gain_split(table, table) == 1.0
    half = shots.MomentTable({((1, 1),): (0.5 + 0.0j, 1.0, 1000)}, ("",))
    with pytest.raises(ValueError, match="alarm"):
        shots.bandwidth_gain_split(table, half)


def test_bandwidth_split_reproduces_taper_gap():
    spec = WaveguideSpec.device()
    t_slow = taper_transmittance(spec, 13.2e6)[0]
    t_fast = taper_transmittance(spec, 17.9e6)[0]
    tables = []
    for t_class, seed in ((t_slow, 13), (t_fast, 14)):
        rho = np.diag([1.0 - t_class, t_class]).astype(complex)
        batch, dark = shots.synthesize_shots(rho, 1.0, 300_000, seed=seed)
        tables.append(shots.estimate_moments(batch, dark))
    factor = shots.bandwidth_gain_split(tables[0], tables[1])
    expected = t_slow / t_fast
    relative = np.sqrt(sum((sigma(t, ((1, 1),)) / t.mean(((1, 1),)).real) ** 2
                           for t in tables))
    assert abs(factor - expected) < 3.0 * factor * relative
    assert 0.95 < factor < 1.05
    # correcting the fast table pulls its occupation onto the slow one
    corrected = shots.estimate_moments(
        *shots.synthesize_shots(np.diag([1.0 - t_fast, t_fast]).astype(complex),
                                1.0, 300_000, seed=14), gain={1: factor})
    assert abs(corrected.mean(((1, 1),)).real - t_slow) < 0.01


def test_mode_matching_function_normalization():
    waveguide = WaveguideSpec.device()
    envelope = erf_envelope(80e-9, 0.0, np.sqrt(40.8 / 145.6), 216e-9, 0.2e-9)
    record = emit_shaped(waveguide, *envelope,
                         emitter_g=np.sqrt(2.0) * TWO_PI * 35.16e6)
    bandwidth = pulse_bandwidth(record, window=(50e-9, 350e-9))
    grid, f = shots.mode_matching_function(record, bandwidth)
    assert abs(np.trapezoid(np.abs(f) ** 2, grid) - 1.0) < 1e-9
    a = np.interp(grid, record.t, record.a_out.real) + \
        1j * np.interp(grid, record.t, record.a_out.imag)
    efficiency = abs(np.trapezoid(f.conj() * a, grid)) ** 2 / \
        np.trapezoid(np.abs(a) ** 2, grid)
    assert efficiency > 0.95
    windowed_grid, _ = shots.mode_matching_function(record, bandwidth,
                                                    window=(0.0, 300e-9))
    assert windowed_grid[0] >= 0.0 and windowed_grid[-1] <= 300e-9
    with pytest.raises(ValueError, match="bandwidth"):
        shots.mode_matching_function(record, 0.0)
