"""Synthetic measurement chain: heterodyne shot records and their moments.

Each shot yields one complex number per photonic mode, S_k = a_k + h_k^dag,
where h_k is an independent thermal noise mode of occupation n_noise.  Shots
are drawn from the state's exact Husimi distribution, one mode at a time
(radius from the diagonal mixture, angle by rejection against the off-diagonal
term, then conditioning on the drawn amplitude), so every sampled moment
matches the quantum prediction in expectation, not only the n, m <= 1 set the
estimator reports.  The vacuum unit of h^dag is carried by the Husimi kernel;
the added Gaussian noise has variance n_noise only, which lands the stated
convention <S^dag S> = <a^dag a> + n_noise + 1.

Selected modes can instead be read out as qubits (probability-exact projective
outcomes in a chosen Pauli basis), which is how matter-qubit correlators enter
joint moment tables.

Synthesis is chunked with per-chunk counter-mode RNG keys and estimation uses
numpy's fixed pairwise reductions, so results are reproducible bit for bit
regardless of how the chunks would be scheduled.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from . import protocol

_CHUNK = 1 << 16
_MAGIC = b"SHOT"
_VERSION = 1
_BASIS_CODES = {"": 0, "x": 1, "y": 2, "z": 3}
_BASIS_VECTORS = {
    "x": (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
          np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)),
    "y": (np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
          np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)),
    "z": (np.array([1.0, 0.0], dtype=complex),
          np.array([0.0, 1.0], dtype=complex)),
}


@dataclass
class ShotBatch:
    """Single-shot records: one complex S per heterodyne mode per shot.

    mode_bases has one entry per mode of the source state: "" for a
    heterodyne mode (a column of `values`) or a Pauli label for a mode read
    out as a qubit (a +-1 column of `outcomes`).  Column order follows mode
    order within each kind.
    """

    values: np.ndarray
    mode_bases: tuple
    outcomes: np.ndarray | None = None
    dark: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex64)
        if self.values.ndim != 2:
            raise ValueError("shot values must be a (count, modes) array")
        n_qubit = sum(1 for b in self.mode_bases if b)
        if len(self.mode_bases) != self.values.shape[1] + n_qubit:
            raise ValueError("mode_bases length must cover every mode")
        if n_qubit:
            if self.outcomes is None or self.outcomes.shape != (self.count, n_qubit):
                raise ValueError("qubit outcomes missing or misshapen")
            self.outcomes = np.asarray(self.outcomes, dtype=np.int8)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.mode_bases)

    @property
    def heterodyne_modes(self) -> tuple:
        return tuple(k + 1 for k, b in enumerate(self.mode_bases) if not b)

    @property
    def qubit_modes(self) -> tuple:
        return tuple(k + 1 for k, b in enumerate(self.mode_bases) if b)


def save_shots(batch: ShotBatch, path) -> None:
    """Flat little-endian binary layout; see load_shots."""
    flags = (1 if batch.dark else 0) | (2 if batch.outcomes is not None else 0)
    header = struct.pack("<4sIQHH", _MAGIC, _VERSION, batch.count,
                         batch.n_modes, flags)
    codes = np.array([_BASIS_CODES[b] for b in batch.mode_bases], dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(codes.tobytes())
        fh.write(np.ascontiguousarray(batch.values, dtype="<c8").tobytes())
        if batch.outcomes is not None:
            fh.write(np.ascontiguousarray(batch.outcomes, dtype="<i1").tobytes())


def load_shots(path) -> ShotBatch:
    with open(path, "rb") as fh:
        raw = fh.read()
    head = struct.calcsize("<4sIQHH")
    if len(raw) < head:
        raise ValueError(f"shot file {path} is {head - len(raw)} bytes short of its header")
    magic, version, count, n_modes, flags = struct.unpack("<4sIQHH", raw[:head])
    if magic != _MAGIC:
        raise ValueError("not a shot batch file")
    if version != _VERSION:
        raise ValueError(f"unsupported shot batch version {version}")
    codes = np.frombuffer(raw[head:head + n_modes], dtype=np.uint8)
    labels = {v: k for k, v in _BASIS_CODES.items()}
    bases = tuple(labels[int(c)] for c in codes)
    n_qubit = sum(1 for b in bases if b)
    offset = head + n_modes
    n_het = n_modes - n_qubit
    size = offset + count * (8 * n_het + (n_qubit if flags & 2 else 0))
    if len(raw) != size:
        gap = (f"{size - len(raw)} bytes short of" if len(raw) < size
               else f"{len(raw) - size} bytes longer than")
        raise ValueError(f"shot file {path} is {gap} the {size} its header declares")
    values = np.frombuffer(raw, dtype="<c8", count=count * n_het,
                           offset=offset).reshape(count, n_het)
    outcomes = None
    if flags & 2:
        offset += count * n_het * 8
        outcomes = np.frombuffer(raw, dtype="<i1", count=count * n_qubit,
                                 offset=offset).reshape(count, n_qubit)
    return ShotBatch(values.copy(), bases, None if outcomes is None else outcomes.copy(),
                     dark=bool(flags & 1))


def _sample_husimi_mode(q00, q11, q01, rng):
    """Amplitude draws from Q(a) ~ e^-|a|^2 (q00 + 2 Re(q01 a) + q11 |a|^2).

    Radius: exponential / Gamma(2) mixture of the diagonal part; angle by
    rejection with envelope 2x the angle-free density (|q01| <= sqrt(q00 q11)
    bounds the ratio below 2).
    """
    n = len(q00)
    alpha = np.empty(n, dtype=complex)
    todo = np.arange(n)
    while todo.size:
        r2 = rng.standard_exponential(todo.size)
        excited = rng.random(todo.size) < q11[todo]
        r2 = np.where(excited, r2 + rng.standard_exponential(todo.size), r2)
        theta = rng.uniform(0.0, 2.0 * np.pi, todo.size)
        trial = np.sqrt(r2) * np.exp(1j * theta)
        base = q00[todo] + q11[todo] * r2
        accept = 0.5 * (1.0 + 2.0 * np.real(q01[todo] * trial) / (base + 1e-300))
        ok = rng.random(todo.size) < accept
        alpha[todo[ok]] = trial[ok]
        todo = todo[~ok]
    return alpha


def _sample_chunk(psi, n_modes, bases, count, rng, n_noise):
    """Sequentially sample every mode of `count` copies of pure state psi."""
    cond = np.broadcast_to(psi.reshape((1,) + (2,) * n_modes),
                           (count,) + (2,) * n_modes)
    values = np.empty((count, sum(1 for b in bases if not b)), dtype=complex)
    outcomes = np.empty((count, sum(1 for b in bases if b)), dtype=np.int8)
    i_het = i_qub = 0
    for mode in range(n_modes):
        flat = cond.reshape(count, 2, -1)
        if bases[mode]:
            plus, minus = _BASIS_VECTORS[bases[mode]]
            branch_p = plus[0].conj() * flat[:, 0] + plus[1].conj() * flat[:, 1]
            branch_m = minus[0].conj() * flat[:, 0] + minus[1].conj() * flat[:, 1]
            p_plus = np.einsum("sr,sr->s", branch_p, branch_p.conj()).real
            total = p_plus + np.einsum("sr,sr->s", branch_m, branch_m.conj()).real
            hit = rng.random(count) < p_plus / total
            outcomes[:, i_qub] = np.where(hit, 1, -1)
            i_qub += 1
            cond = np.where(hit[:, None], branch_p, branch_m)
        else:
            p0 = np.einsum("sr,sr->s", flat[:, 0], flat[:, 0].conj()).real
            p1 = np.einsum("sr,sr->s", flat[:, 1], flat[:, 1].conj()).real
            cross = np.einsum("sr,sr->s", flat[:, 0], flat[:, 1].conj())
            total = p0 + p1
            alpha = _sample_husimi_mode(p0 / total, p1 / total, cross / total, rng)
            if n_noise > 0.0:
                scale = math.sqrt(0.5 * n_noise)
                noise = scale * (rng.standard_normal(count)
                                 + 1j * rng.standard_normal(count))
            else:
                noise = 0.0
            values[:, i_het] = alpha + noise
            i_het += 1
            cond = flat[:, 0] + alpha[:, None].conj() * flat[:, 1]
        norm = np.linalg.norm(cond, axis=1, keepdims=True)
        cond = cond / np.maximum(norm, 1e-300)
        cond = cond.reshape((count,) + (2,) * (n_modes - mode - 1))
    return values, outcomes


def _state_ensemble(rho):
    """(probabilities, pure-state vectors) of the sampled state."""
    arr = protocol.coerce_state(rho)
    if arr.ndim == 1:
        return np.array([1.0]), arr[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    keep = vals > 1e-12
    probs = vals[keep] / vals[keep].sum()
    return probs, vecs[:, keep].T


def synthesize_shots(rho, n_noise: float, count: int, seed: int = 0,
                     qubit_bases: dict | None = None,
                     dark_count: int | None = None):
    """Draw `count` shots of rho plus a matched dark (vacuum-input) batch.

    qubit_bases maps 1-based mode indices to "x"/"y"/"z" for modes read out
    projectively instead of by heterodyne.  Chunks of 2^16 shots use
    independent counter-derived RNG keys, so any parallel chunk schedule
    reproduces the same batch.
    """
    if n_noise < 0.0:
        raise ValueError("n_noise must be non-negative")
    if count < 1:
        raise ValueError("shot count must be at least 1")
    probs, vecs = _state_ensemble(rho)
    n_modes = int(round(math.log2(vecs.shape[1])))
    bases = [""] * n_modes
    for mode, label in (qubit_bases or {}).items():
        if not 1 <= mode <= n_modes:
            raise ValueError(f"qubit basis given for mode {mode} outside 1..{n_modes}")
        if label not in ("x", "y", "z"):
            raise ValueError(f"unknown qubit basis {label!r}")
        bases[mode - 1] = label
    bases = tuple(bases)

    def run(total, stream, state_probs, state_vecs):
        vals = []
        outs = []
        for chunk_index in range(0, (total + _CHUNK - 1) // _CHUNK):
            size = min(_CHUNK, total - chunk_index * _CHUNK)
            key = np.array([seed, (stream << 32) + chunk_index], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            counts = rng.multinomial(size, state_probs)
            v = np.empty((size, sum(1 for b in bases if not b)), dtype=complex)
            o = np.empty((size, sum(1 for b in bases if b)), dtype=np.int8)
            start = 0
            for weight, vec in zip(counts, state_vecs):
                if weight == 0:
                    continue
                v_i, o_i = _sample_chunk(vec, n_modes, bases, weight, rng, n_noise)
                v[start:start + weight] = v_i
                o[start:start + weight] = o_i
                start += weight
            perm = rng.permutation(size)
            vals.append(v[perm])
            outs.append(o[perm])
        return np.concatenate(vals), np.concatenate(outs)

    values, outcomes = run(count, 1, probs, vecs)
    batch = ShotBatch(values, bases, outcomes if outcomes.shape[1] else None)

    vacuum = np.zeros(2 ** n_modes, dtype=complex)
    vacuum[0] = 1.0
    dark_total = count if dark_count is None else dark_count
    dark_values, dark_outcomes = run(dark_total, 2, np.array([1.0]), vacuum[None, :])
    dark = ShotBatch(dark_values, bases,
                     dark_outcomes if dark_outcomes.shape[1] else None, dark=True)
    return batch, dark


def dark_noise_power(dark: ShotBatch) -> np.ndarray:
    """Per-mode thermal occupation n_noise, the dark power less the vacuum unit."""
    if not dark.dark:
        raise ValueError("noise power must be read from a dark batch")
    return np.mean(np.abs(dark.values.astype(complex)) ** 2, axis=0) - 1.0


@dataclass
class MomentTable:
    """Deconvolved joint moments keyed by per-mode signature.

    A signature entry is an (n, m) pair for a heterodyne mode (the moment
    (a^dag)^n a^m) or 0/1 for a qubit mode (whether its +-1 outcome
    multiplies the product).  Each value is (mean, per-shot sample variance,
    shot count); the variance of the mean is variance / count.
    """

    entries: dict
    mode_bases: tuple

    def mean(self, signature) -> complex:
        return self.entries[tuple(signature)][0]

    def variance(self, signature) -> float:
        return self.entries[tuple(signature)][1]

    def count(self, signature) -> int:
        return self.entries[tuple(signature)][2]

    def signatures(self):
        return sorted(self.entries, key=_signature_order)

    def to_json(self) -> str:
        rows = []
        for sig in self.signatures():
            mean, var, count = self.entries[sig]
            rows.append({"signature": [list(s) if isinstance(s, tuple) else s
                                       for s in sig],
                         "mean": [mean.real, mean.imag],
                         "variance": var, "count": count})
        return json.dumps({"mode_bases": list(self.mode_bases), "moments": rows},
                          indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MomentTable":
        data = json.loads(text)
        entries = {}
        for row in data["moments"]:
            sig = tuple(tuple(s) if isinstance(s, list) else s
                        for s in row["signature"])
            entries[sig] = (complex(row["mean"][0], row["mean"][1]),
                            float(row["variance"]), int(row["count"]))
        return MomentTable(entries, tuple(data["mode_bases"]))


def _signature_order(sig):
    total = sum(sum(e) if isinstance(e, tuple) else e for e in sig)
    return (total, str(sig))


def estimate_moments(batch: ShotBatch, dark: ShotBatch,
                     gain: dict | None = None) -> MomentTable:
    """Means, variances and counts of every n, m <= 1 joint moment.

    Thermal noise is removed recursively: each signature's measured mean
    drops, for every subset of its (1, 1) modes, the dark power of that
    subset times the already-deconvolved lower moment.  gain maps 1-based
    heterodyne mode indices to a power correction factor (amplitudes scale
    by its square root), the bandwidth-class fix from bandwidth_gain_split.
    """
    if dark.mode_bases != batch.mode_bases:
        raise ValueError("dark batch modes do not match; moments of this "
                         "signature order have no dark data")
    if dark.count * 10 < batch.count:
        raise ValueError("dark batch must hold at least a tenth of the shot count")
    het = batch.heterodyne_modes
    qub = batch.qubit_modes
    dark_power = dark_noise_power(dark) + 1.0

    options = [((0, 0), (1, 0), (0, 1), (1, 1)) if not batch.mode_bases[m - 1]
               else (0, 1) for m in range(1, batch.n_modes + 1)]
    signatures = [()]
    for opts in options:
        signatures = [sig + (o,) for sig in signatures for o in opts]

    # split the register in half so every signature product is one entry of a
    # left-half times right-half matrix product, letting BLAS accumulate the
    # means and second moments instead of a python loop over signatures
    split = (batch.n_modes + 1) // 2
    left_sigs = [()]
    for opts in options[:split]:
        left_sigs = [sig + (o,) for sig in left_sigs for o in opts]
    right_sigs = [()]
    for opts in options[split:]:
        right_sigs = [sig + (o,) for sig in right_sigs for o in opts]

    het_col = {mode: i for i, mode in enumerate(het)}
    qub_col = {mode: i for i, mode in enumerate(qub)}

    def half_products(modes, values, outcomes):
        """Products of every half signature, first mode slowest as in *_sigs.

        Each mode contributes one factor row per option, [1, S*, S, |S|^2] for
        a heterodyne mode and [1, outcome] for a qubit mode, so the stack
        grows by broadcasting; a factor of 1 multiplies exactly.
        """
        ones = np.ones(values.shape[1], dtype=complex)
        stack = ones[None, :]
        for mode in modes:
            if mode in het_col:
                col = values[het_col[mode]]
                rows = np.stack([ones, col.conj(), col,
                                 (col.real**2 + col.imag**2).astype(complex)])
            else:
                rows = np.stack([ones, outcomes[qub_col[mode]]])
            stack = (stack[:, None, :] * rows[None, :, :]).reshape(-1, ones.size)
        return stack

    n_left, n_right = len(left_sigs), len(right_sigs)
    sum_prod = np.zeros((n_left, n_right), dtype=complex)
    sum_sq = np.zeros((n_left, n_right))
    left_modes = range(1, split + 1)
    right_modes = range(split + 1, batch.n_modes + 1)
    for lo in range(0, batch.count, _CHUNK):
        hi = min(lo + _CHUNK, batch.count)
        values = np.ascontiguousarray(batch.values[lo:hi].T, dtype=complex)
        outcomes = (np.ascontiguousarray(batch.outcomes[lo:hi].T, dtype=complex)
                    if qub else None)
        left = half_products(left_modes, values, outcomes)
        right = half_products(right_modes, values, outcomes)
        sum_prod += left @ right.T
        # rebinding frees the complex stacks before the squares are formed
        left, right = np.abs(left), np.abs(right)
        sum_sq += (left * left) @ (right * right).T

    raw = {}
    variances = {}
    count = batch.count
    for li, lsig in enumerate(left_sigs):
        for ri, rsig in enumerate(right_sigs):
            mean = sum_prod[li, ri] / count
            raw[lsig + rsig] = complex(mean)
            spread = sum_sq[li, ri] - count * abs(mean) ** 2
            variances[lsig + rsig] = max(float(spread), 0.0) / max(count - 1, 1)

    het_index = {mode: i for i, mode in enumerate(het)}
    deconvolved = {}
    for sig in sorted(signatures, key=lambda s: sum(1 for e in s if e == (1, 1))):
        both = [k for k, e in enumerate(sig) if e == (1, 1)]
        value = raw[sig]
        for mask in range(1, 1 << len(both)):
            subset = [both[b] for b in range(len(both)) if mask >> b & 1]
            lower = tuple((0, 0) if k in subset else e for k, e in enumerate(sig))
            weight = math.prod(dark_power[het_index[k + 1]] for k in subset)
            value = value - weight * deconvolved[lower]
        deconvolved[sig] = value

    entries = {}
    for sig in signatures:
        scale = 1.0
        if gain:
            for mode, factor in gain.items():
                entry = sig[mode - 1]
                if isinstance(entry, tuple):
                    scale *= factor ** (0.5 * sum(entry))
        entries[sig] = (deconvolved[sig] * scale,
                        variances[sig] * scale * scale, batch.count)
    return MomentTable(entries, batch.mode_bases)


def two_photon_moment(batch: ShotBatch, dark: ShotBatch, mode: int = 1) -> float:
    """Same-mode <(a^dag)^2 a^2>, the single-photon-purity diagnostic.

    Beyond the n, m <= 1 table, but the closed-form deconvolution
    raw<|S|^4> - 4 d <|S|^2> + 2 d^2 (d the raw dark power) is exact because
    the sampler reproduces all Husimi moments; any single-excitation state
    gives zero.
    """
    i = batch.heterodyne_modes.index(mode)
    d = float(dark_noise_power(dark)[i]) + 1.0
    power = np.abs(batch.values[:, i].astype(complex)) ** 2
    return float(np.mean(power ** 2) - 4.0 * d * np.mean(power) + 2.0 * d * d)


@dataclass(frozen=True)
class CalibrationG:
    """Absolute power calibration of the measurement chain.

    g_scale converts recorded drive amplitude (ADC volts) to the field
    amplitude |alpha| in sqrt(photons/s); eta_det = 1/(1 + n_noise) is the
    implied quantum measurement efficiency; fast_correction is the
    bandwidth-class gain fix applied to fast-pulse moments.
    """

    g_scale: float
    n_noise: float
    fast_correction: float = 1.0

    def __post_init__(self):
        if self.g_scale <= 0.0:
            raise ValueError("calibration scale must be positive")
        if self.n_noise < 0.0:
            raise ValueError("n_noise must be non-negative")

    @property
    def eta_det(self) -> float:
        return 1.0 / (1.0 + self.n_noise)


def stark_shift(omega: float, delta: float, anharmonicity: float,
                levels: int = 5) -> float:
    """Drive-induced shift of the lowest transition of a weakly anharmonic ladder.

    In the drive frame the bare ladder is j*delta + j(j-1)/2*anharmonicity and
    the drive couples neighbours with sqrt(j)*omega/2.  The shift is the
    dressed g-e splitting minus delta, with dressed levels identified by
    largest bare overlap.  All arguments in rad/s.
    """
    if levels < 2:
        raise ValueError("need at least two ladder levels")
    if delta == 0.0:
        raise ValueError("drive must be detuned from the transition")
    if abs(omega) > 0.5 * abs(delta):
        warnings.warn("drive beyond the dispersive regime: omega > |delta|/2",
                      stacklevel=2)
    j = np.arange(levels, dtype=float)
    h = np.diag(j * delta + 0.5 * j * (j - 1.0) * anharmonicity)
    coupling = 0.5 * omega * np.sqrt(j[1:])
    h += np.diag(coupling, 1) + np.diag(coupling, -1)
    vals, vecs = np.linalg.eigh(h)
    g_idx = int(np.argmax(np.abs(vecs[0, :])))
    e_idx = int(np.argmax(np.abs(vecs[1, :])))
    if g_idx == e_idx:
        raise RuntimeError("dressed levels are not resolvable at this drive")
    return float((vals[e_idx] - vals[g_idx]) - delta)


def stark_shift_perturbative(omega: float, delta: float,
                             anharmonicity: float) -> float:
    """Second-order weak-drive limit of stark_shift (three-level physics)."""
    return 0.5 * omega ** 2 * (1.0 / delta - 1.0 / (delta + anharmonicity))


def ac_stark_calibration(volts, shifts, delta: float, anharmonicity: float,
                         gamma_1d: float, levels: int = 5,
                         n_noise: float = 0.0) -> CalibrationG:
    """Fit the volts-to-amplitude scale from a measured shift-vs-drive curve.

    The model drive is omega = |alpha| sqrt(4 gamma_1d) with |alpha| =
    g_scale * V; the single free parameter is g_scale.
    """
    volts = np.asarray(volts, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if volts.ndim != 1 or volts.shape != shifts.shape or len(volts) < 2:
        raise ValueError("need matching drive and shift arrays of length >= 2")

    def model(v, g_scale):
        omegas = np.abs(g_scale) * v * math.sqrt(4.0 * gamma_1d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.array([stark_shift(w, delta, anharmonicity, levels)
                             for w in omegas])

    # weak-drive closed form seeds the single-parameter fit
    slope = shifts[-1] / (volts[-1] ** 2)
    curvature = 0.5 * (1.0 / delta - 1.0 / (delta + anharmonicity))
    omega0 = math.sqrt(abs(slope / curvature)) if curvature != 0.0 else 1.0
    p0 = omega0 / math.sqrt(4.0 * gamma_1d)
    try:
        popt, _ = curve_fit(model, volts, shifts, p0=[p0], maxfev=2000)
    except RuntimeError as err:
        raise RuntimeError(f"power calibration fit did not converge: {err}") from err
    g_scale = float(abs(popt[0]))
    if np.max(np.abs(g_scale * volts * math.sqrt(4.0 * gamma_1d))) > 0.5 * abs(delta):
        warnings.warn("strongest calibration point is beyond the dispersive "
                      "regime: omega > |delta|/2", stacklevel=2)
    return CalibrationG(g_scale=g_scale, n_noise=n_noise)


def bandwidth_gain_split(slow: MomentTable, fast: MomentTable,
                         mode: int = 1) -> float:
    """Fast-class power correction from matched full-excitation preparations.

    Both tables must estimate the same nominally-one-photon emission, slow
    and fast pulse class respectively; the ratio of their <a^dag a> readings
    is the correction factor for fast-class moments.
    """
    sig_slow = tuple((1, 1) if m == mode else (0, 0)
                     for m in range(1, len(slow.mode_bases) + 1))
    sig_fast = tuple((1, 1) if m == mode else (0, 0)
                     for m in range(1, len(fast.mode_bases) + 1))
    ratio = float(np.real(slow.mean(sig_slow)) / np.real(fast.mean(sig_fast)))
    if not 0.8 <= ratio <= 1.2:
        raise ValueError(f"calibration alarm: bandwidth gain split {ratio:.3f} "
                         "outside [0.8, 1.2]")
    return ratio


def mode_matching_function(record, bandwidth: float, window=None,
                           grid_points: int = 4096):
    """Matched filter f(t) for one emitted pulse: smoothed field, unit norm.

    Resamples the record's mean field on a uniform grid, applies a Gaussian
    low-pass of width 3x the photon bandwidth, and normalizes to
    integral |f|^2 dt = 1, mirroring the demodulate-filter-normalize chain.
    """
    if bandwidth <= 0.0:
        raise ValueError("photon bandwidth must be positive")
    t, a = record.t, record.a_out
    if window is not None:
        keep = (t >= window[0]) & (t <= window[1])
        t, a = t[keep], a[keep]
    grid = np.linspace(t[0], t[-1], grid_points)
    field = np.interp(grid, t, a.real) + 1j * np.interp(grid, t, a.imag)
    spectrum = np.fft.fft(field)
    freqs = np.fft.fftfreq(grid_points, grid[1] - grid[0])
    spectrum *= np.exp(-0.5 * (freqs / (3.0 * bandwidth)) ** 2)
    smoothed = np.fft.ifft(spectrum)
    norm = np.trapezoid(np.abs(smoothed) ** 2, grid)
    if norm <= 0.0:
        raise ValueError("record carries no field in the matching window")
    return grid, smoothed / math.sqrt(norm)
