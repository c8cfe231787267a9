"""Measurement-chain tests.

Sampled moments are checked against direct trace computations on the source
state, the noise deconvolution against dark-batch statistics, and the
bandwidth split against the taper transmittance computed by the dynamics
layer.
"""

import hashlib
import itertools
import math
import struct
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from slowlight import protocol, qops, shots
from slowlight.tomography import moments_from_state
from slowlight.dynamics import taper_transmittance
from slowlight.waveguide import WaveguideSpec

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1.0 / np.sqrt(2.0)


def sigma(table, signature):
    return np.sqrt(table.variance(signature) / table.count)


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


def _antinormal_moment(rho, p, q):
    """Tr(rho a^p (a^dag)^q) for a {|0>, |1>} density matrix, taken in a Fock
    space deep enough for (a^dag)^q to act exactly."""
    dim = 2 + q
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    full = np.zeros((dim, dim), dtype=complex)
    full[:2, :2] = rho
    return complex(np.trace(full @ np.linalg.matrix_power(a, p)
                            @ np.linalg.matrix_power(a.conj().T, q)))


_COHERENT_MIXTURE = np.array([[0.6, 0.25 - 0.15j], [0.25 + 0.15j, 0.4]])


@pytest.mark.parametrize("state", [
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
    *(np.array([math.sqrt(0.4), math.sqrt(0.6) * np.exp(1j * phase)])
      for phase in (0.0, 0.5 * np.pi, 2.0 * np.pi / 3.0)),
    _COHERENT_MIXTURE,
], ids=["vacuum", "one", "phase0", "phase90", "phase120", "mixed"])
def test_husimi_draws_have_the_antinormal_moments(state):
    """At n_noise 0 each shot is one Husimi draw, so E[a^p a*^q] over the
    shots is Tr(rho a^p (a^dag)^q), within 4 SE, for E[a], E[a^2], E[|a|^2],
    E[|a|^2 a] and E[|a|^4].  |1> has q01 = 0, where no cardioid draw may
    occur; at the complex phases a conjugated rotation moves E[a] and
    E[|a|^2 a] to their conjugates, many SE away."""
    state = np.asarray(state, dtype=complex)
    rho = state if state.ndim == 2 else np.outer(state, state.conj())
    batch, _ = shots.synthesize_shots(state, 0.0, 200_000, seed=23, dark_count=1)
    alpha = batch.values[:, 0].astype(complex)
    power = np.abs(alpha) ** 2
    for (p, q), sample in (((1, 0), alpha), ((2, 0), alpha ** 2), ((1, 1), power),
                           ((2, 1), power * alpha), ((2, 2), power ** 2)):
        truth = _antinormal_moment(rho, p, q)
        se = np.std(sample) / math.sqrt(len(sample))
        assert abs(sample.mean() - truth) < 4.0 * se, (p, q)


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
    for sig in table.signatures():
        truth = complex(np.trace(rho @ qops.moment_operator(sig, 2)))
        if table.variance(sig) == 0.0:
            assert abs(table.mean(sig) - truth) < 1e-12
        else:
            assert abs(table.mean(sig) - truth) < 3.0 * sigma(table, sig)
    assert abs(table.mean(((0, 1), (0, 1))) - 0.5) < 3.0 * sigma(table, ((0, 1), (0, 1)))
    assert abs(table.mean(((1, 1), (0, 0))) - 0.5) < 3.0 * sigma(table, ((1, 1), (0, 0)))


def test_hermitian_pairing_is_exact(bell_run):
    _, _, table = bell_run
    for sig in table.signatures():
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


def _deconvolved_factors(batch, dark_power, gain=None):
    """Per mode, its per-shot factor for each signature entry: 1, S*, S and
    |S|^2 - d for a heterodyne mode, times gain^(n + m)/2, and 1 or the +-1
    outcome for a qubit mode."""
    gain = gain or {}
    values = batch.values.astype(complex)
    het = iter(range(values.shape[1]))
    qub = iter(range(len(batch.qubit_modes)))
    factors = []
    for mode, basis in enumerate(batch.mode_bases, start=1):
        if basis:
            factors.append({0: 1.0, 1: batch.outcomes[:, next(qub)]})
            continue
        i = next(het)
        s, g, d = values[:, i], gain.get(mode, 1.0), dark_power[i]
        factors.append({(0, 0): 1.0, (1, 0): np.sqrt(g) * np.conj(s),
                        (0, 1): np.sqrt(g) * s, (1, 1): g * (np.abs(s) ** 2 - d)})
    return factors


def _deconvolved_product(factors, sig, count):
    """One signature's per-shot product, formed from its mode factors."""
    product = np.ones(count, dtype=complex)
    for mode_factors, entry in zip(factors, sig):
        product = product * mode_factors[entry]
    return product


def test_moment_products_match_a_per_signature_loop():
    """Every signature's per-shot deconvolved product, formed one signature
    at a time as a product of its mode factors, has the table's mean and
    variance.  Mixed heterodyne and qubit modes, over two chunks."""
    batch, dark = _mixed_batch()
    table = shots.estimate_moments(batch, dark)
    factors = _deconvolved_factors(batch, shots.dark_noise_power(dark) + 1.0)
    for sig in table.signatures():
        product = _deconvolved_product(factors, sig, batch.count)
        var = np.var(product, ddof=1)
        assert abs(table.variance(sig) - var) <= 1e-10 * var
        assert abs(table.mean(sig) - product.mean()) < 1e-12
    assert table.count == batch.count


def test_variances_are_those_of_the_deconvolved_products():
    """With gains on both heterodyne modes of a small mixed batch, each
    variance is np.var of the per-shot product the mean averages, with
    |S|^2 - d in each (1, 1) entry, not of the raw product with |S|^2."""
    batch, dark = shots.synthesize_shots(_mixed_three_mode_state(), 0.5, 3_000,
                                         seed=4, qubit_bases={2: "y"})
    gain = {1: 1.07, 3: 0.93}
    table = shots.estimate_moments(batch, dark, gain=gain)
    factors = _deconvolved_factors(batch, shots.dark_noise_power(dark) + 1.0, gain)
    for sig in table.signatures():
        product = _deconvolved_product(factors, sig, batch.count)
        var = np.var(product, ddof=1)
        assert abs(table.variance(sig) - var) <= 1e-10 * var, sig
        assert abs(table.mean(sig) - product.mean()) <= 1e-12 * max(1.0, np.sqrt(var))


def _complex_path_table(batch, dark, gain):
    """The complex factor path that the real factors replaced, kept as an
    oracle: per 2^13-shot block, stacks of [1, g^1/2 S, g^1/2 S*,
    g (|S|^2 - d)] and [1, outcome] rows over each half of the register, one
    complex GEMM for the sums and one of the squared moduli for the squares."""
    het, qub = batch.heterodyne_modes, batch.qubit_modes
    dark_power = shots.dark_noise_power(dark) + 1.0
    split = (batch.n_modes + 1) // 2

    def half_products(modes, values, outcomes):
        ones = np.ones(values.shape[1], dtype=complex)
        stack = ones[None, :]
        for mode in modes:
            if mode in het:
                i = het.index(mode)
                g = gain.get(mode, 1.0)
                col = math.sqrt(g) * values[i]
                power = g * (np.abs(values[i]) ** 2 - dark_power[i])
                rows = np.stack([ones, col, col.conj(), power.astype(complex)])
            else:
                rows = np.stack([ones, outcomes[qub.index(mode)]])
            stack = (stack[:, None, :] * rows[None, :, :]).reshape(-1, ones.size)
        return stack

    sum_prod = sum_sq = 0.0
    for lo in range(0, batch.count, 1 << 13):
        values = batch.values[lo:lo + (1 << 13)].T.astype(complex)
        outcomes = batch.outcomes[lo:lo + (1 << 13)].T.astype(complex) if qub else None
        left = half_products(range(1, split + 1), values, outcomes)
        right = half_products(range(split + 1, batch.n_modes + 1), values, outcomes)
        sum_prod = sum_prod + left @ right.T
        sum_sq = sum_sq + np.abs(left) ** 2 @ (np.abs(right) ** 2).T
    means = sum_prod.reshape(-1) / batch.count
    variances = (sum_sq.reshape(-1) - batch.count * np.abs(means) ** 2) / (batch.count - 1)
    return means, np.maximum(variances, 0.0)


def test_real_factor_sums_match_the_complex_products():
    """The real factor rows, mapped mode by mode to the complex table, give
    the complex path's means and variances at roundoff, with gains on both
    heterodyne modes of a mixed layout.  Errors are taken as in
    test_moment_blocks_agree_with_whole_chunks."""
    batch, dark = _mixed_batch()
    gain = {1: 1.07, 3: 0.93}
    table = shots.estimate_moments(batch, dark, gain=gain)
    means, variances = _complex_path_table(batch, dark, gain)
    scale = np.maximum(np.abs(means), np.sqrt(variances))
    assert np.all(np.abs(table.means - means) <= 1e-12 * scale)
    assert np.all(np.abs(table.variances - variances) <= 1e-12 * variances)


@pytest.mark.parametrize("name", ["ring5", "cluster4_2d"])
def test_moment_blocks_agree_with_whole_chunks(name, monkeypatch):
    """Blocking the moment sums by 2^13 shots instead of 2^16 changes the
    tables at roundoff only.  A deconvolved mean can lie far below the
    products it is summed from, so its error is taken relative to the larger
    of |mean| and the per-shot spread."""
    psi = protocol.target_state(name).photons()
    batch, dark = shots.synthesize_shots(psi, 0.5, 140_000, seed=2)
    blocked = shots.estimate_moments(batch, dark)
    monkeypatch.setattr(shots, "_MOMENT_BLOCK", 1 << 16)
    whole = shots.estimate_moments(batch, dark)
    for sig in whole.signatures():
        mean, var = whole.mean(sig), whole.variance(sig)
        assert abs(blocked.mean(sig) - mean) <= 1e-12 * max(abs(mean), np.sqrt(var))
        assert abs(blocked.variance(sig) - var) <= 1e-12 * var


def _mixed_batch():
    """The batch of test_moment_products_match_a_per_signature_loop."""
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return shots.synthesize_shots(psi / np.linalg.norm(psi), 0.5, 70_000,
                                  seed=6, qubit_bases={2: "x"})


def _recursive_back_end(raw, dark_power, gain, factors, count):
    """The earlier deconvolution, signature by signature: each mean drops,
    for every subset of its (1, 1) modes, the dark power of that subset times
    the already-deconvolved lower moment; then each entry scales by
    gain^(n + m)/2 of every gained mode.  Each variance is np.var of the
    per-shot deconvolved product, from `factors`."""
    het_col = {m: i for i, m in enumerate(
        k + 1 for k, b in enumerate(raw.mode_bases) if not b)}
    deconvolved = {}
    for sig in sorted(raw.signatures(), key=lambda s: sum(1 for e in s if e == (1, 1))):
        both = [k for k, e in enumerate(sig) if e == (1, 1)]
        value = raw.mean(sig)
        for mask in range(1, 1 << len(both)):
            subset = [both[b] for b in range(len(both)) if mask >> b & 1]
            lower = tuple((0, 0) if k in subset else e for k, e in enumerate(sig))
            weight = math.prod(dark_power[het_col[k + 1]] for k in subset)
            value = value - weight * deconvolved[lower]
        deconvolved[sig] = value
    entries = {}
    for sig in raw.signatures():
        scale = 1.0
        for mode, factor in gain.items():
            entry = sig[mode - 1]
            if isinstance(entry, tuple):
                scale *= factor ** (0.5 * sum(entry))
        product = _deconvolved_product(factors, sig, count)
        entries[sig] = (deconvolved[sig] * scale, np.var(product, ddof=1))
    return entries


def _zero_dark(batch):
    """A dark batch of zero power, so the table keeps the raw shot means."""
    n_qubit = len(batch.qubit_modes)
    return shots.ShotBatch(np.zeros_like(batch.values), batch.mode_bases,
                           np.ones((batch.count, n_qubit), np.int8) if n_qubit else None,
                           dark=True)


@pytest.mark.parametrize("case", ["ring5", "cluster4_2d", "mixed"])
def test_mode_maps_match_the_subset_recursion(case):
    """The per-mode factor maps give the means of the subset recursion and
    the per-signature gain loop, at roundoff, with and without gain.  The
    recursion starts from the raw shot means (a zero-power dark batch leaves
    them undeconvolved); the variances are those of the per-shot
    deconvolved products.  Errors are taken as in
    test_moment_blocks_agree_with_whole_chunks."""
    if case == "mixed":
        batch, dark = _mixed_batch()
        gained = {1: 1.07, 3: 0.93}
    else:
        psi = protocol.target_state(case).photons()
        batch, dark = shots.synthesize_shots(psi, 0.5, 140_000, seed=2)
        gained = {1: 1.07, len(batch.mode_bases): 0.93}
    raw = shots.estimate_moments(batch, _zero_dark(batch))
    dark_power = shots.dark_noise_power(dark) + 1.0
    for gain in (None, gained):
        table = shots.estimate_moments(batch, dark, gain=gain)
        factors = _deconvolved_factors(batch, dark_power, gain)
        oracle = _recursive_back_end(raw, dark_power, gain or {}, factors, batch.count)
        assert set(oracle) == set(table.signatures())
        for sig, (mean, var) in oracle.items():
            assert abs(table.mean(sig) - mean) <= 1e-12 * max(abs(mean), np.sqrt(var))
            assert abs(table.variance(sig) - var) <= 1e-12 * var
        assert table.count == batch.count


def test_gain_scales_moments_by_their_order(bell_run):
    """A gain g on mode 1 scales that mode's (0, 1) and (1, 0) entries by
    sqrt(g) and its (1, 1) entries by g, and their variances by the square."""
    batch, dark, plain = bell_run
    g = 1.13
    table = shots.estimate_moments(batch, dark, gain={1: g})
    for sig in plain.signatures():
        scale = g ** (0.5 * sum(sig[0]))
        mean, var = plain.mean(sig), plain.variance(sig)
        assert abs(table.mean(sig) - scale * mean) <= 1e-12 * scale * max(abs(mean), np.sqrt(var))
        assert abs(table.variance(sig) - scale**2 * var) <= 1e-12 * scale**2 * var


def test_gain_is_refused_off_the_heterodyne_modes():
    batch, dark = shots.synthesize_shots(_mixed_three_mode_state(), 0.5, 2_000,
                                         seed=1, qubit_bases={2: "z"})
    for mode in (2, 0, 4):
        with pytest.raises(ValueError, match=rf"mode\(s\) \[{mode}\]"):
            shots.estimate_moments(batch, dark, gain={mode: 1.1})


def test_signature_orders_are_the_earlier_ones():
    """qops.moment_layout and MomentTable.signatures list the product of each
    mode's entries, first mode slowest: the binary codes in counting order
    for heterodyne modes, which is also the sorted order, heterodyne or
    mixed.  conjugates index each signature's conjugate."""
    def table(bases):
        size = len(qops.moment_layout(bases)[0])
        return shots.MomentTable(bases, np.zeros(size), np.ones(size), 1)

    for n in range(1, 6):
        codes = [tuple(((c >> 2 * (n - 1 - k) + 1) & 1, (c >> 2 * (n - 1 - k)) & 1)
                       for k in range(n)) for c in range(4 ** n)]
        assert list(qops.moment_layout(("",) * n)[0]) == codes == sorted(codes)
        assert table(("",) * n).signatures() == codes
    for bases in (("", "x", "", "z"), ("y", "", "z", "", "x", "")):
        product = list(itertools.product(*((0, 1) if b else qops.MODE_ORDERS for b in bases)))
        signatures, conjugates = qops.moment_layout(bases)
        assert table(bases).signatures() == product == list(signatures) == sorted(product)
        assert [signatures[k] for k in conjugates] == [
            tuple(e[::-1] if isinstance(e, tuple) else e for e in sig) for sig in signatures]
        assert not conjugates.flags.writeable


def test_table_lookup_raises_key_error_off_the_layout():
    """mean and variance raise KeyError for any signature outside the
    layout: an entry of the wrong kind for its mode, an entry outside the
    n, m <= 1 set, or the wrong length, heterodyne or mixed."""
    for bases, outside in (
            (("", ""), [(1, 1), ((0, 0), 1), (0, (1, 1)), ((2, 0), (0, 0)),
                        ((0, 0),), ((0, 0), (0, 0), (0, 0))]),
            (("", "x"), [((0, 0), (0, 0)), (1, 1), (0, 0), ((0, 0), 2), ((0, 0),),
                         ((0, 0), 1, 0)])):
        size = len(qops.moment_layout(bases)[0])
        table = shots.MomentTable(bases, np.zeros(size), np.ones(size), 1)
        for sig in outside:
            with pytest.raises(KeyError):
                table.mean(sig)
            with pytest.raises(KeyError):
                table.variance(sig)


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


def _mixed_three_mode_state():
    """Rank-3 mixture of three random (hence entangled) three-mode vectors."""
    rng = np.random.Generator(np.random.Philox(key=[13, 0]))
    vecs, _ = np.linalg.qr(rng.standard_normal((8, 3))
                           + 1j * rng.standard_normal((8, 3)))
    return sum(w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), vecs.T))


def test_mixed_state_moments_match_trace_oracle_with_a_qubit_mode():
    """Per-shot mixture labels on a rank-3 state: every joint moment, with
    mode 2 read in x, lies within 4 SE of the trace.  A qubit entry 1 is the
    X = a + a^dag factor of that mode."""
    rho = _mixed_three_mode_state()
    assert np.sum(np.linalg.eigvalsh(rho) > 1e-9) == 3
    batch, dark = shots.synthesize_shots(rho, 0.5, 300_000, seed=31,
                                         qubit_bases={2: "x"})
    table = shots.estimate_moments(batch, dark)
    exact = moments_from_state(rho)
    assert len(table.signatures()) == 32
    for sig in table.signatures():
        q = sig[1]
        parts = [(0, 0)] if q == 0 else [(1, 0), (0, 1)]
        truth = sum(exact.mean((sig[0], e, sig[2])) for e in parts)
        if table.variance(sig) == 0.0:
            assert abs(table.mean(sig) - truth) < 1e-12
        else:
            assert abs(table.mean(sig) - truth) < 4.0 * sigma(table, sig), sig


def test_dark_batch_is_the_vacuum_reading():
    """A qubit mode in vacuum reads +1 in z and a fair +-1 in x and y; the
    heterodyne dark column is circular with power 1 + n_noise."""
    plus = np.full(16, 0.25, dtype=complex)
    count = 100_000
    _, dark = shots.synthesize_shots(plus, 1.5, count, seed=17,
                                     qubit_bases={1: "z", 2: "x", 3: "y"})
    assert dark.dark and dark.outcomes.shape == (count, 3)
    assert np.all(dark.outcomes[:, 0] == 1)
    for column in (dark.outcomes[:, 1], dark.outcomes[:, 2]):
        assert set(np.unique(column)) == {-1, 1}
        assert abs(column.mean()) < 3.0 / np.sqrt(count)
    values = dark.values[:, 0].astype(complex)
    power = np.abs(values) ** 2
    assert abs(power.mean() - 2.5) < 3.0 * power.std() / np.sqrt(count)
    for moment in (values, values ** 2):
        assert abs(moment.mean()) < 3.0 * moment.std() / np.sqrt(count)


def test_chunks_do_not_depend_on_the_batch_size():
    rho = _mixed_three_mode_state()
    short = shots.synthesize_shots(rho, 1.0, 70_000, seed=19, qubit_bases={3: "y"})
    long = shots.synthesize_shots(rho, 1.0, 131_072, seed=19, qubit_bases={3: "y"})
    head = slice(0, 65_536)
    for a, b in zip(short, long):
        assert np.array_equal(a.values[head], b.values[head])
        assert np.array_equal(a.outcomes[head], b.outcomes[head])
    assert not np.array_equal(short[0].values[65_536:], long[0].values[65_536:70_000])


def _stream_digest(batches) -> str:
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(batch.values.tobytes())
        digest.update(batch.outcomes.tobytes())
    return digest.hexdigest()


# layout -> (qubit_bases, sha256 of the shot and dark streams of a call of
# three shot chunks and three dark chunks, the last of each partial, as drawn
# by serial per-chunk synthesis with numpy 2.4)
GOLDEN_STREAMS = {
    "2": ({2: "x"}, "60b4dfccb6e846ce19868245a086ba29ded0b2818a19da97eda06dbda097afad"),
    "1": ({1: "y"}, "47b98c40c09ae9d6d5ef363a7935a30dfa57d2acb00a094253779f08756b560a"),
    "1z2x": ({1: "z", 2: "x"},
             "ce550dfc63fe55b6ad0a58dc3c9b71370fa2eb84514e18660b78f2d9e42dc975"),
    "2y3z": ({2: "y", 3: "z"},
             "7ca57d05cada9815ab4d4d1078e2bdc9c8f1bb81b6bdb1d4b15c1ba06749d362"),
    "1x2y3z": ({1: "x", 2: "y", 3: "z"},
               "3532962bdbceb3e288d8e34582cbefd65d66513a7a745f8bfba7ebfc7df6fc78"),
}


@pytest.mark.parametrize("layout", sorted(GOLDEN_STREAMS))
def test_shot_streams_match_their_golden_digest(layout):
    """A heterodyne-first (mode 2 read in x) and a qubit-first (mode 1 read
    in y) layout, a qubit mode after another qubit mode, and a z read that
    conditions the later modes keep every bit of both streams."""
    bases, golden = GOLDEN_STREAMS[layout]
    batches = shots.synthesize_shots(_mixed_three_mode_state(), 0.5, 150_000, seed=23,
                                     qubit_bases=bases, dark_count=140_000)
    assert _stream_digest(batches) == golden


def test_two_workers_match_one_bit_for_bit(monkeypatch):
    """Forcing two workers (and four, more than the CPUs of a small host),
    whatever the host's CPU count, gives the one-worker streams on every one
    of ten runs, with threads switching as often as the interpreter allows
    and more than one of them drawing shot chunks."""
    rho = _mixed_three_mode_state()

    def draw():
        return _stream_digest(shots.synthesize_shots(rho, 1.0, 200_001, seed=29,
                                                     qubit_bases={3: "y"},
                                                     dark_count=131_073))

    monkeypatch.setattr(shots, "_cpu_count", lambda: 1)
    serial = draw()
    threads = set()
    sample_chunk = shots._sample_chunk

    def traced(*args):
        threads.add(threading.get_ident())
        sample_chunk(*args)

    monkeypatch.setattr(shots, "_sample_chunk", traced)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4) * 5:
            monkeypatch.setattr(shots, "_cpu_count", lambda: workers)
            assert draw() == serial
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) >= 2


def test_estimation_workers_give_the_one_worker_tables(monkeypatch):
    """Tables and dark powers from 2 and 4 workers equal the one-worker ones
    bit for bit on every one of ten runs, on a layout with a qubit mode and
    gains, with 11 moment blocks and 3 dark chunks (a multiple of neither
    worker count) and threads switching as often as the interpreter allows."""
    batch, dark = shots.synthesize_shots(_mixed_three_mode_state(), 1.0,
                                         10 * shots._MOMENT_BLOCK + 1, seed=31,
                                         qubit_bases={2: "x"}, dark_count=2 * shots._CHUNK + 1)
    gain = {1: 0.9, 3: 1.1}

    def estimate():
        table = shots.estimate_moments(batch, dark, gain)
        return table.means, table.variances, shots.dark_noise_power(dark)

    monkeypatch.setattr(shots, "_cpu_count", lambda: 1)
    serial = estimate()
    threads = set()
    run_workers = shots._run_workers

    def traced(work, tasks, scratch=None):
        def observed(task, buffer):
            threads.add(threading.get_ident())
            work(task, buffer)
        run_workers(observed, tasks, scratch)

    monkeypatch.setattr(shots, "_run_workers", traced)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4) * 5:
            monkeypatch.setattr(shots, "_cpu_count", lambda: workers)
            for got, want in zip(estimate(), serial):
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) >= 2


def test_a_helper_worker_error_reaches_the_caller(monkeypatch):
    """An exception raised on a helper thread is raised by the call, after
    every task has run.  Four workers each hold one of four tasks at once;
    which of them holds task 2 is up to the scheduler, so of twenty calls at
    least one must have raised it on a helper thread."""
    monkeypatch.setattr(shots, "_cpu_count", lambda: 4)
    helper_raised = False
    for _ in range(20):
        done = []
        together = threading.Barrier(4, timeout=30)
        failed_on = []

        def work(task, buffer):
            together.wait()
            if task == 2:
                failed_on.append(threading.current_thread())
                raise ArithmeticError(f"task {task} on a helper thread")
            done.append(task)

        with pytest.raises(ArithmeticError, match="task 2 on a helper thread"):
            shots._run_workers(work, 4)
        assert sorted(done) == [0, 1, 3]
        helper_raised |= failed_on != [threading.main_thread()]
    assert helper_raised


def test_the_lowest_bad_block_names_the_error_at_any_worker_count(monkeypatch):
    """Blocks 1 and 5 of six hold stray qubit outcomes, 7 and 3; 1, 2 and 4
    workers all raise block 1's message, whichever block fails first."""
    batch, dark = shots.synthesize_shots(BELL, 0.5, 6 * shots._MOMENT_BLOCK, seed=4,
                                         qubit_bases={2: "z"})
    broken = shots.ShotBatch(batch.values, batch.mode_bases, batch.outcomes.copy())
    broken.outcomes[5 * shots._MOMENT_BLOCK + 3, 0] = 3
    broken.outcomes[shots._MOMENT_BLOCK + 7, 0] = 7
    for workers in (1, 2, 4):
        monkeypatch.setattr(shots, "_cpu_count", lambda: workers)
        with pytest.raises(ValueError, match=r"shots batch holds qubit outcomes \[7\]"):
            shots.estimate_moments(broken, dark)


def test_the_pool_runs_every_task_and_raises_the_lowest_failure(monkeypatch):
    """One worker runs the tasks after a failed one; on two workers task 0
    fails only after task 1 has failed, and the call still raises task 0's
    error."""
    done = []

    def serial(task, buffer):
        if task == 1:
            raise ArithmeticError("task 1")
        done.append(task)

    monkeypatch.setattr(shots, "_cpu_count", lambda: 1)
    with pytest.raises(ArithmeticError, match="^task 1$"):
        shots._run_workers(serial, 4)
    assert done == [0, 2, 3]

    monkeypatch.setattr(shots, "_cpu_count", lambda: 2)
    task_1_failed = threading.Event()

    def late(task, buffer):
        if task == 0:
            assert task_1_failed.wait(timeout=30)
            raise ArithmeticError("task 0")
        task_1_failed.set()
        raise ArithmeticError("task 1")

    with pytest.raises(ArithmeticError, match="^task 0$"):
        shots._run_workers(late, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("kind", ["shots", "dark"])
def test_noise_power_and_two_photon_moment_refuse_non_finite_values(kind, bad):
    """dark_noise_power and two_photon_moment refuse a NaN or infinite
    reading with estimate_moments' error instead of returning NaN or inf."""
    batch, dark = shots.synthesize_shots(BELL, 0.5, 2_000, seed=1)
    broken = [shots.ShotBatch(b.values.copy(), b.mode_bases, dark=b.dark) for b in (batch, dark)]
    broken[kind == "dark"].values[17, 1] = bad
    message = f"{kind} batch holds values that are not finite"
    with pytest.raises(ValueError, match=message):
        shots.two_photon_moment(*broken, mode=1)
    if kind == "dark":
        with pytest.raises(ValueError, match=message):
            shots.dark_noise_power(broken[1])


def test_one_worker_needs_less_than_a_whole_chunk_gather(monkeypatch):
    """At six modes one worker's transient memory stays below the 64 MiB
    (2^6 amplitudes x 2^16 shots x 16 B) that gathering each shot's whole
    eigenvector took."""
    rng = np.random.Generator(np.random.Philox(key=[6, 0]))
    vecs = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    rho = vecs @ vecs.conj().T
    rho /= np.trace(rho)
    monkeypatch.setattr(shots, "_cpu_count", lambda: 1)
    tracemalloc.start()
    try:
        batch, dark = shots.synthesize_shots(rho, 1.0, 1 << 16, seed=2, dark_count=1 << 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    transient = peak - batch.values.nbytes - dark.values.nbytes
    assert transient < 64 * (1 << 16) * 16


def test_qubit_first_worker_needs_less_than_a_whole_chunk_gather(monkeypatch):
    """With mode 1 read as a qubit, one worker's transient memory over two
    six-mode chunks also stays below 64 MiB: the branch statistics are taken
    per eigenvector, and the drawn branch goes straight into the state
    buffer.  Gathering every shot's eigenvector and both of its branches
    took about 160 MiB."""
    rng = np.random.Generator(np.random.Philox(key=[6, 1]))
    vecs = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    rho = vecs @ vecs.conj().T
    rho /= np.trace(rho)
    monkeypatch.setattr(shots, "_cpu_count", lambda: 1)
    tracemalloc.start()
    try:
        batch, dark = shots.synthesize_shots(rho, 1.0, 1 << 17, seed=2, qubit_bases={1: "x"},
                                             dark_count=1 << 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(b.values.nbytes + b.outcomes.nbytes for b in (batch, dark))
    assert peak - kept < 64 * (1 << 16) * 16


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


def test_load_shots_rejects_an_unknown_basis_code(tmp_path):
    batch, _ = shots.synthesize_shots(BELL, 0.5, 1_000, seed=8, qubit_bases={2: "z"})
    path = tmp_path / "coded.shot"
    shots.save_shots(batch, path)
    data = bytearray(path.read_bytes())
    data[struct.calcsize(shots._HEADER) + 1] = 7
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=r"coded\.shot has unknown basis code\(s\) \[7\]"):
        shots.load_shots(path)


def test_loaded_batch_is_writable_and_owns_its_data(tmp_path):
    batch, _ = shots.synthesize_shots(BELL, 0.5, 1_000, seed=8, qubit_bases={1: "x"})
    path = tmp_path / "batch.shot"
    shots.save_shots(batch, path)
    loaded = shots.load_shots(path)
    for arr in (loaded.values, loaded.outcomes):
        assert arr.flags.writeable and arr.flags.owndata


def test_load_shots_rejects_a_file_that_shrinks_while_read(tmp_path, monkeypatch):
    batch, _ = shots.synthesize_shots(BELL, 0.5, 1_000, seed=8)
    path = tmp_path / "batch.shot"
    shots.save_shots(batch, path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-24])
    # the size check passes on the declared size; the read itself comes short
    monkeypatch.setattr(shots.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
    with pytest.raises(ValueError, match="24 bytes short of a 16000-byte array"):
        shots.load_shots(path)


def test_zero_shot_batches_are_refused(tmp_path):
    """A batch of no shots, as read back from a file, raises instead of
    giving NaN moments or noise powers."""
    batch, dark = shots.synthesize_shots(BELL, 0.5, 1_000, seed=8)
    empty = []
    for kind in (batch, dark):
        path = tmp_path / f"empty{kind.dark}.shot"
        shots.save_shots(shots.ShotBatch(kind.values[:0], kind.mode_bases, dark=kind.dark), path)
        empty.append(shots.load_shots(path))
    assert empty[0].values.shape == (0, 2) and empty[1].dark
    with pytest.raises(ValueError, match="holds no shots"):
        shots.estimate_moments(empty[0], dark)
    with pytest.raises(ValueError, match="holds no shots"):
        shots.estimate_moments(*empty)
    with pytest.raises(ValueError, match="holds no shots"):
        shots.dark_noise_power(empty[1])


def test_synthesis_validation():
    with pytest.raises(ValueError, match="n_noise"):
        shots.synthesize_shots(BELL, -0.1, 100)
    with pytest.raises(ValueError, match="count"):
        shots.synthesize_shots(BELL, 0.0, 0)
    with pytest.raises(ValueError, match="outside 1..2"):
        shots.synthesize_shots(BELL, 0.0, 100, qubit_bases={3: "z"})
    with pytest.raises(ValueError, match="basis"):
        shots.synthesize_shots(BELL, 0.0, 100, qubit_bases={1: "q"})
    for dark_count in (0, -5):
        with pytest.raises(ValueError, match="dark_count"):
            shots.synthesize_shots(BELL, 0.0, 100, dark_count=dark_count)


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


def test_synthesis_refuses_non_finite_noise_and_fractional_counts():
    for n_noise in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="n_noise"):
            shots.synthesize_shots(BELL, n_noise, 100)
    with pytest.raises(ValueError, match="shot count must be an integer"):
        shots.synthesize_shots(BELL, 0.5, 1000.7)
    with pytest.raises(ValueError, match="dark_count must be an integer"):
        shots.synthesize_shots(BELL, 0.5, 1000, dark_count=1000.7)
    batch, dark = shots.synthesize_shots(BELL, 0.5, np.int64(100), dark_count=np.int32(50))
    assert (batch.count, dark.count) == (100, 50)


def test_estimation_refuses_non_finite_values_and_stray_outcomes():
    """A NaN or infinite reading names its batch instead of surfacing as
    matmul warnings and a variance error; a qubit outcome must be +-1."""
    batch, dark = shots.synthesize_shots(BELL, 0.5, 2_000, seed=1)
    for kind, bad in (("shots", math.nan), ("dark", math.inf), ("shots", complex(0, -math.inf))):
        broken = [shots.ShotBatch(b.values.copy(), b.mode_bases, dark=b.dark) for b in (batch, dark)]
        broken[kind == "dark"].values[17, 1] = bad
        with pytest.raises(ValueError, match=f"{kind} batch holds values that are not finite"):
            shots.estimate_moments(*broken)
    batch, dark = shots.synthesize_shots(BELL, 0.5, 2_000, seed=1, qubit_bases={1: "z"})
    for kind in ("shots", "dark"):
        broken = [shots.ShotBatch(b.values, b.mode_bases, b.outcomes.copy(), dark=b.dark)
                  for b in (batch, dark)]
        broken[kind == "dark"].outcomes[5, 0] = 3
        with pytest.raises(ValueError, match=rf"{kind} batch holds qubit outcomes \[3\]"):
            shots.estimate_moments(*broken)


def test_moment_table_refuses_non_finite_entries():
    bases = ("", "")
    size = len(qops.moment_layout(bases)[0])
    means, variances = np.zeros(size, dtype=complex), np.ones(size)
    shots.MomentTable(bases, means, variances, 1)
    for name, array, bad in (("means", means, complex(math.nan, 0.0)),
                             ("variances", variances, math.inf)):
        broken = array.copy()
        broken[3] = bad
        entries = {"means": means, "variances": variances, name: broken}
        with pytest.raises(ValueError, match=f"moment {name} are not finite"):
            shots.MomentTable(bases, entries["means"], entries["variances"], 1)


def test_bandwidth_split_identity_and_alarm():
    one = np.array([0.0, 1.0], dtype=complex)
    batch, dark = shots.synthesize_shots(one, 1.0, 100_000, seed=12)
    table = shots.estimate_moments(batch, dark)
    assert shots.bandwidth_gain_split(table, table) == 1.0
    means = np.zeros(4, dtype=complex)
    means[table.signatures().index(((1, 1),))] = 0.5
    half = shots.MomentTable(("",), means, np.ones(4), 1000)
    with pytest.raises(ValueError, match="alarm"):
        shots.bandwidth_gain_split(table, half)


def test_bandwidth_split_and_two_photon_moment_on_qubit_read_modes():
    """On a layout with a qubit-read mode, the gain split reads <a+a> of a
    heterodyne mode with the qubit mode's entry 0, and both it and
    two_photon_moment refuse a qubit mode or one outside 1..n by name."""
    bases = ("", "x", "")
    signatures = qops.moment_layout(bases)[0]
    means = np.zeros(len(signatures), dtype=complex)
    means[signatures.index(((0, 0), 0, (1, 1)))] = 0.8
    slow = shots.MomentTable(bases, means, np.ones(len(signatures)), 1000)
    means = means.copy()
    means[signatures.index(((0, 0), 0, (1, 1)))] = 0.75
    fast = shots.MomentTable(bases, means, np.ones(len(signatures)), 1000)
    assert shots.bandwidth_gain_split(slow, fast, mode=3) == 0.8 / 0.75
    for mode in (2, 0, 4):
        with pytest.raises(ValueError, match=rf"mode {mode} is not a heterodyne mode"):
            shots.bandwidth_gain_split(slow, fast, mode=mode)
    batch, dark = shots.synthesize_shots(_mixed_three_mode_state(), 0.5, 2_000,
                                         seed=1, qubit_bases={2: "x"})
    assert np.isfinite(shots.two_photon_moment(batch, dark, mode=3))
    for mode in (2, 0, 4):
        with pytest.raises(ValueError, match=rf"mode {mode} is not one of the heterodyne"):
            shots.two_photon_moment(batch, dark, mode=mode)


def test_bandwidth_split_reproduces_taper_gap():
    # 2^21 shots per table put the absolute 0.01 on the corrected occupation
    # at more than 4 sd of its seed-to-seed error
    spec = WaveguideSpec.device()
    t_slow = taper_transmittance(spec, 13.2e6)[0]
    t_fast = taper_transmittance(spec, 17.9e6)[0]
    tables = []
    for t_class, seed in ((t_slow, 13), (t_fast, 14)):
        rho = np.diag([1.0 - t_class, t_class]).astype(complex)
        batch, dark = shots.synthesize_shots(rho, 1.0, 2**21, seed=seed)
        tables.append(shots.estimate_moments(batch, dark))
    factor = shots.bandwidth_gain_split(tables[0], tables[1])
    expected = t_slow / t_fast
    relative = np.sqrt(sum((sigma(t, ((1, 1),)) / t.mean(((1, 1),)).real) ** 2
                           for t in tables))
    assert abs(factor - expected) < 3.0 * factor * relative
    assert 0.95 < factor < 1.05
    # correcting the fast table's shots, the seed-14 batch drawn last, pulls
    # its occupation onto the slow one
    corrected = shots.estimate_moments(batch, dark, gain={1: factor})
    assert abs(corrected.mean(((1, 1),)).real - t_slow) < 0.01
