"""Synthetic measurement chain: heterodyne shot records and their moments.

Each shot yields one complex number per photonic mode, S_k = a_k + h_k^dag,
where h_k is an independent thermal noise mode of occupation n_noise, or, for
a mode read out as a qubit, a +-1 outcome in a chosen Pauli basis (how
matter-qubit correlators enter joint moment tables).  Each shot draws an
eigenvector of the state from its eigenvalue mixture as its own conditional
state, then takes each mode in three steps: reduced-state statistics, a draw,
and the update that conditions the state on it.  Only the draw depends on
the readout: a probability-exact projective outcome, or an amplitude from the
exact Husimi distribution, its radius from the diagonal mixture and its phase
from a uniform / cardioid mixture set by the off-diagonal term (Gaussian and
exponential variates, no trigonometric function).  So every sampled moment
matches the quantum prediction in expectation, not only the n, m <= 1 set the
estimator reports.  The Husimi kernel carries the vacuum unit of h^dag; the
added Gaussian noise has variance n_noise only, which lands the stated
convention <S^dag S> = <a^dag a> + n_noise + 1.  The dark (vacuum-input)
batch is drawn as a circular complex Gaussian of power d = 1 + n_noise.

estimate_moments sums products of real per-shot factor rows, [1, x, y,
|S|^2 - d] for S = x + iy, with one real matrix product per block of 2^13
shots, and maps the sums mode by mode to those of the deconvolved factors
[1, S, S*, |S|^2 - d], which a gain g scales by 1, g^1/2, g^1/2, g.  It
reports the mean and variance of the products of these deconvolved factors
in a MomentTable (flat arrays in the product layout of qops.moment_layout,
as the sums come out, and one shot count).

Synthesis runs in chunks of 2^16 shots, each drawn in one vectorised pass from
its own PCG64 stream, keyed by a SeedSequence spawn key, into its own rows of
the output arrays.  Each worker conditions its shots in its own state buffer
of 2^(n-1) * 2^16 complex128 amplitudes (8 MB at four modes, 32 MB at six);
its other temporaries come to about 10 MB.

Synthesis chunks, estimate_moments' blocks and the 2^16-shot chunks of the
dark power all run on one worker pool, _run_workers.  A reduction checks
each block for values that are not finite and qubit outcomes other than +-1
before that block's arithmetic, and adds the blocks' sums in block order,
starting from 0, the additions a serial pass makes.  So the shot streams,
the tables, the dark powers and the error a bad batch raises are the same
bit for bit whatever the number of workers or the timing of their threads.

Shot files are written from the arrays' own buffers and read straight into
new arrays, with no intermediate bytes copy either way.
"""

from __future__ import annotations

import bisect
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import protocol, qops

_CHUNK = 1 << 16
# estimate_moments' shots per block: its per-block stacks (a few MB) stay in
# cache, where whole chunks would not
_MOMENT_BLOCK = 1 << 13
# synthesis' shots per block of a pass over the conditional states
_STATE_BLOCK = 1 << 13
_MAGIC = b"SHOT"
_HEADER = "<4sIQHH"
_VERSION = 1
_BASIS_CODES = {"": 0, "x": 1, "y": 2, "z": 3}
# rows: the conjugated +1 and -1 eigenvectors, taking (|0>, |1>) to branches
_BASIS_ROWS = {
    "x": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "y": np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2.0),
    "z": np.eye(2, dtype=complex),
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
    """Flat little-endian binary layout; see load_shots.

    The arrays are written from their own buffers, without a bytes copy.
    """
    flags = (1 if batch.dark else 0) | (2 if batch.outcomes is not None else 0)
    header = struct.pack(_HEADER, _MAGIC, _VERSION, batch.count,
                         batch.n_modes, flags)
    codes = np.array([_BASIS_CODES[b] for b in batch.mode_bases], dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(codes)
        fh.write(np.ascontiguousarray(batch.values, dtype="<c8"))
        if batch.outcomes is not None:
            fh.write(np.ascontiguousarray(batch.outcomes, dtype="<i1"))


def _read_array(fh, path, shape, dtype) -> np.ndarray:
    """A new array of the given shape filled from the file's next bytes."""
    out = np.empty(shape, dtype=dtype)
    got = fh.readinto(out)
    if got != out.nbytes:
        raise ValueError(f"shot file {path} ended {out.nbytes - got} bytes short of "
                         f"a {out.nbytes}-byte array")
    return out


def load_shots(path) -> ShotBatch:
    """Read a save_shots file: a 20-byte header (magic, version, shot count,
    mode count, flags), one basis code per mode, then the complex64 values
    and, if flagged, the int8 qubit outcomes, each row-major.

    The file size is checked against the header before the arrays are read
    straight into new writable arrays.
    """
    head = struct.calcsize(_HEADER)
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if file_size < head:
            raise ValueError(f"shot file {path} is {head - file_size} bytes short of its header")
        magic, version, count, n_modes, flags = struct.unpack(_HEADER, fh.read(head))
        if magic != _MAGIC:
            raise ValueError("not a shot batch file")
        if version != _VERSION:
            raise ValueError(f"unsupported shot batch version {version}")
        codes = fh.read(n_modes)
        labels = {v: k for k, v in _BASIS_CODES.items()}
        unknown = sorted(set(codes) - set(labels))
        if unknown:
            raise ValueError(f"shot file {path} has unknown basis code(s) {unknown}")
        bases = tuple(labels[c] for c in codes)
        n_qubit = sum(1 for b in bases if b)
        n_het = n_modes - n_qubit
        size = head + n_modes + count * (8 * n_het + (n_qubit if flags & 2 else 0))
        if file_size != size:
            gap = (f"{size - file_size} bytes short of" if file_size < size
                   else f"{file_size - size} bytes longer than")
            raise ValueError(f"shot file {path} is {gap} the {size} its header declares")
        values = _read_array(fh, path, (count, n_het), "<c8")
        outcomes = _read_array(fh, path, (count, n_qubit), "<i1") if flags & 2 else None
    return ShotBatch(values, bases, outcomes, dark=bool(flags & 1))


def _mode_stats(flat):
    """(p0, p1, q01) of the sampled mode for each column of flat, the
    (2, rest, columns) amplitudes with that mode in |0> and |1>: the reduced
    state's diagonal and its <0|q|1> entry, unnormalised.  Each column's sums
    are its own, so they are taken over blocks of columns, whose temporaries
    stay small."""
    size = flat.shape[2]
    p0, p1 = np.empty((2, size))
    q01 = np.empty(size, dtype=flat.dtype)
    for lo in range(0, size, _STATE_BLOCK):
        block = flat[:, :, lo:lo + _STATE_BLOCK]
        power = np.square(block.real)
        power += np.square(block.imag)
        p0[lo:lo + _STATE_BLOCK], p1[lo:lo + _STATE_BLOCK] = power.sum(axis=1)
        cross = block[1].conj()
        cross *= block[0]
        q01[lo:lo + _STATE_BLOCK] = cross.sum(axis=0)
    return p0, p1, q01


def _husimi_draw(p0, p1, q01, rng):
    """One amplitude per entry of p0 from the Husimi function of the reduced
    state q with diagonal (p0, p1) and <0|q|1> = q01 (unnormalised).

    Q(a) ~ e^-|a|^2 (q00 + 2 Re(q01 a) + q11 |a|^2).  |a|^2 is an
    exponential / Gamma(2) mixture weighted q00 : q11, and given the radius
    r the angle density is (1 + c cos(theta + arg q01)) / 2pi with
    c = 2 r |q01| / (q00 + q11 r^2) <= 1: the uniform density with weight
    1 - c and the cardioid (1 + cos psi) / 2pi with weight c.  No angle is
    formed.  A complex Gaussian z with E|z|^2 = 1 gives the radius and the
    uniform phase at once (|z|^2 ~ Exp(1), independent of its phase); the
    Gamma(2) branch rescales z by sqrt(1 + E / |z|^2), E ~ Exp(1).  The
    cardioid phase is e^(i psi) = (x + iy)^2 / (x^2 + y^2) with
    x = sqrt(chi^2_3) and y ~ N(0, 1), as tan(psi / 2) is Student t_3 over
    sqrt 3.  Only the cardioid draws are rotated, by q01* / |q01|; where
    q01 = 0 the weight c is 0, so none is drawn.
    """
    size = len(p0)
    alpha = rng.standard_normal(2 * size).view(complex)
    alpha *= math.sqrt(0.5)  # the z above, with E|z|^2 = 1
    u = rng.random((2, size))
    z2 = np.square(alpha.real)
    z2 += np.square(alpha.imag)
    r2 = rng.standard_exponential(size)
    r2 *= u[0] * (p0 + p1) < p1
    r2 += z2
    alpha *= np.sqrt(r2 / z2)
    mod2 = np.square(q01.real)
    mod2 += np.square(q01.imag)
    # u c < 1 as (u (q00 + q11 r^2))^2 < 4 r^2 |q01|^2, free of square roots
    w = p1 * r2
    w += p0
    w *= u[1]
    card = np.flatnonzero(w * w < 4.0 * r2 * mod2)
    if card.size:
        x2 = rng.chisquare(3.0, card.size)
        y = rng.standard_normal(card.size)
        half = np.sqrt(x2) + 1j * y
        half *= half
        half *= np.take(q01, card).conj()
        half *= np.sqrt(np.take(r2, card) / np.take(mod2, card)) / (x2 + y * y)
        np.put(alpha, card, half)
    return alpha


def _qubit_draw(rows, p0, p1, q01, rng):
    """Outcomes +-1 of a projective read of _husimi_draw's reduced state in the
    basis whose conjugated +1 and -1 eigenvectors are the rows, and the drawn
    rows (c0, c1); row (r0, r1) has weight |r0|^2 p0 + |r1|^2 p1 + 2 Re(r0* r1 q01*)."""
    plus, minus = (abs(r0) ** 2 * p0 + abs(r1) ** 2 * p1
                   + 2.0 * (r0.conjugate() * r1 * q01.conj()).real for r0, r1 in rows)
    pick = np.where(rng.random(len(p0)) * (plus + minus) < plus, 0, 1)
    return 1 - 2 * pick, rows.T[:, pick]


def _sample_chunk(rng, values, outcomes, probs, vecs, bases, n_noise, state):
    """Fill one chunk of shots in one pass over the modes.

    Each shot draws its mixture label, starts from that eigenvector and is
    conditioned mode by mode, in place, on its own outcomes; the amplitudes
    stay unnormalised, as every draw uses only their ratios, and are held as
    (amplitudes, shots).  Each mode takes its statistics (_mode_stats; for
    mode 1 the eigenvectors', taken by label), draws from them (_husimi_draw's
    alpha, with c = (1, alpha*); or _qubit_draw's outcome and row c) and
    updates the state to c0 v0 + c1 v1 from its |0> and |1> halves,
    multiplying by c0 only for a qubit mode.  Mode 1 forms it block by block
    from each shot's eigenvector into `state` (at least 2^(n-1) * len(values)
    amplitudes); later modes write it over v0.  The thermal noise of every
    heterodyne mode is one float32 fill of the values buffer, to which each
    mode then adds its Husimi amplitude.
    """
    size = len(values)
    labels = rng.choice(len(probs), size, p=probs)
    noise = values.view(np.float32)
    rng.standard_normal(dtype=np.float32, out=noise)
    noise *= np.float32(math.sqrt(0.5 * n_noise))
    columns = vecs.T
    half = len(columns) // 2
    het_columns, qubit_columns = iter(values.T), iter(outcomes.T)
    for k, basis in enumerate(bases):
        if k == 0:
            stats = [np.take(x, labels) for x in _mode_stats(columns.reshape(2, -1, len(probs)))]
        else:
            flat = cond.reshape(2, -1, size)
            stats = _mode_stats(flat)
        if basis:
            next(qubit_columns)[:], (head, tail) = _qubit_draw(_BASIS_ROWS[basis], *stats, rng)
        else:
            alpha = _husimi_draw(*stats, rng)
            next(het_columns)[:] += alpha
            head, tail = None, alpha.conj()
        if k == 0:
            cond = state[:half * size].reshape(half, size)
            for lo in range(0, size, _STATE_BLOCK):
                block = slice(lo, lo + _STATE_BLOCK)
                v1 = np.take(columns[half:], labels[block], axis=1)
                v1 *= tail[block]
                v0 = np.take(columns[:half], labels[block], axis=1)
                if head is not None:
                    v0 *= head[block]
                np.add(v0, v1, out=cond[:, block])
                del v0, v1  # so no block's temporaries are alive with the next one's
        else:
            v0, v1 = flat
            v1 *= tail
            if head is not None:
                v0 *= head
            v0 += v1
            cond = v0


def _dark_chunk(rng, values, outcomes, bases, n_noise):
    """Fill one chunk of vacuum-input shots directly.

    The vacuum Husimi function plus thermal noise is a circular complex
    Gaussian with E|S|^2 = 1 + n_noise; a qubit mode in vacuum reads +1 in
    "z" and a fair +-1 in "x" or "y".
    """
    size = len(values)
    noise = values.view(np.float32)
    rng.standard_normal(dtype=np.float32, out=noise)
    noise *= np.float32(math.sqrt(0.5 * (1.0 + n_noise)))
    for i, basis in enumerate(b for b in bases if b):
        outcomes[:, i] = 1 if basis == "z" else np.where(rng.random(size) < 0.5, 1, -1)


def _state_ensemble(rho):
    """(probabilities, pure-state vectors) of the sampled state."""
    arr = protocol.coerce_state(rho)
    if arr.ndim == 1:
        return np.array([1.0]), arr[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    keep = vals > 1e-12
    probs = vals[keep] / vals[keep].sum()
    return probs, vecs[:, keep].T


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_workers(work, tasks: int, scratch=None) -> None:
    """Call work(task, buffer) for every task in range(tasks) on
    min(CPUs available to the process, tasks) workers: the calling thread
    plus helper threads (none on one CPU or for one task), all taking task
    indices from one shared counter.  buffer is the worker's own scratch(),
    or None; the calling thread allocates it, so that its memory returns to
    the calling thread's heap and not to a helper's malloc arena.  Every
    task runs even after another has failed; once all have ended, the error
    of the lowest-numbered failed task is raised, so it does not depend on
    the number of workers."""
    counter = iter(range(tasks))
    taking = threading.Lock()
    errors = {}

    def worker(buffer):
        while True:
            with taking:
                task = next(counter, None)
            if task is None:
                return
            try:
                work(task, buffer)
            except Exception as err:
                errors[task] = err

    buffers = [scratch() if scratch else None for _ in range(min(_cpu_count(), tasks))]
    helpers = [threading.Thread(target=worker, args=(buffer,)) for buffer in buffers[1:]]
    for helper in helpers:
        helper.start()
    worker(buffers[0])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]


def _check_block(kind: str, batch: ShotBatch, rows: slice) -> None:
    """Refuse a batch whose shots in rows hold a NaN or infinite value or a
    qubit outcome other than +-1, which would otherwise surface as NaN
    moments or negative variances."""
    parts = np.ascontiguousarray(batch.values[rows]).view(np.float32)
    # min and max carry any NaN and reach any inf, with no temporary array
    if parts.size and not (np.isfinite(parts.min()) and np.isfinite(parts.max())):
        raise ValueError(f"the {kind} batch holds values that are not finite (NaN or inf)")
    if batch.outcomes is not None:
        outcomes = batch.outcomes[rows]
        if np.any(np.abs(outcomes) != 1):
            stray = sorted(set(np.unique(outcomes).tolist()) - {-1, 1})
            raise ValueError(f"the {kind} batch holds qubit outcomes {stray}; "
                             "each must be +1 or -1")


def _block_sums(kind: str, batch: ShotBatch, block: int, sums) -> np.ndarray:
    """sums(rows), a float64 array, summed over the blocks of `block` shots
    of batch, rows being a block's slice.  Each block is checked by
    _check_block before its sums are taken, and the blocks' sums are added
    in block order, starting from 0."""
    parts = [None] * -(-batch.count // block)

    def work(b, _):
        rows = slice(b * block, (b + 1) * block)
        _check_block(kind, batch, rows)
        parts[b] = sums(rows)

    _run_workers(work, len(parts))
    total = 0.0
    for part in parts:
        total = total + part
    return total


def _shot_count(name: str, value) -> int:
    value = qops.require_index(value, name)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def synthesize_shots(rho, n_noise: float, count: int, seed: int = 0,
                     qubit_bases: dict | None = None,
                     dark_count: int | None = None):
    """Draw `count` shots of rho plus a dark (vacuum-input) batch of
    `dark_count` shots (default `count`).

    qubit_bases maps 1-based mode indices to "x"/"y"/"z" for modes read out
    projectively instead of by heterodyne.  Each shot draws its own mixture
    label, so no shot is tied to its neighbours.  Shot i of either batch lies
    in chunk i // 2^16, which is drawn from
    PCG64(SeedSequence(seed, spawn_key=(stream, chunk))) alone, stream 1 for
    the shots and 2 for the dark batch, and written only to its own rows:
    the same seed gives the same shot i, bit for bit, whatever the batch size
    or the order in which chunks are computed.
    """
    if not math.isfinite(n_noise) or n_noise < 0.0:
        raise ValueError(f"n_noise must be finite and non-negative, got {n_noise}")
    count = _shot_count("shot count", count)
    dark_count = count if dark_count is None else _shot_count("dark_count", dark_count)
    probs, vecs = _state_ensemble(rho)
    n_modes = protocol._photon_count(vecs.shape[1])
    bases = [""] * n_modes
    for mode, label in (qubit_bases or {}).items():
        if not 1 <= mode <= n_modes:
            raise ValueError(f"qubit basis given for mode {mode} outside 1..{n_modes}")
        if label not in ("x", "y", "z"):
            raise ValueError(f"unknown qubit basis {label!r}")
        bases[mode - 1] = label
    bases = tuple(bases)
    n_qub = sum(1 for b in bases if b)

    batches = []
    chunks = []
    for total, stream in ((count, 1), (dark_count, 2)):
        values = np.empty((total, n_modes - n_qub), dtype=np.complex64)
        outcomes = np.empty((total, n_qub), dtype=np.int8)
        batches.append(ShotBatch(values, bases, outcomes if n_qub else None, dark=stream == 2))
        chunks += [(stream, i, values[lo:lo + _CHUNK], outcomes[lo:lo + _CHUNK])
                   for i, lo in enumerate(range(0, total, _CHUNK))]

    def work(task, state):
        stream, i, values, outcomes = chunks[task]
        key = np.random.SeedSequence(seed, spawn_key=(stream, i))
        rng = np.random.Generator(np.random.PCG64(key))
        if stream == 2:
            _dark_chunk(rng, values, outcomes, bases, n_noise)
        else:
            _sample_chunk(rng, values, outcomes, probs, vecs, bases, n_noise, state)

    size = len(vecs[0]) // 2 * _CHUNK
    _run_workers(work, len(chunks), lambda: np.empty(size, dtype=vecs.dtype))
    return tuple(batches)


def dark_noise_power(dark: ShotBatch) -> np.ndarray:
    """Per-mode thermal occupation n_noise, the dark power less the vacuum unit.

    A batch with a NaN or infinite value or a qubit outcome other than +-1
    is refused with a ValueError.  The squared float32 parts are summed in
    float64, where their squares are exact, over chunks of 2^16 shots.
    """
    if not dark.dark:
        raise ValueError("noise power must be read from a dark batch")
    if dark.count < 1:
        raise ValueError("dark batch holds no shots to read the noise power from")

    def sums(rows):
        pairs = np.ascontiguousarray(dark.values[rows]).view(np.float32).astype(np.float64)
        pairs *= pairs
        return pairs.sum(axis=0).reshape(-1, 2).sum(axis=1)

    return _block_sums("dark", dark, _CHUNK, sums) / dark.count - 1.0


@dataclass(eq=False)
class MomentTable:
    """Deconvolved joint moments of every signature of one mode layout.

    A signature entry is an (n, m) pair for a heterodyne mode (the moment
    (a^dag)^n a^m) or 0/1 for a qubit mode (whether its +-1 outcome
    multiplies the product).  means and the per-shot sample variances hold
    one value per signature in signatures() order, qops.moment_layout's
    product layout, which is also tuple order; every mean averages count
    shots, so its variance is variance / count.  The constructor checks the
    lengths, finite means and variances, variances >= 0 and an integer
    count >= 1; mean() and variance() raise KeyError for a signature outside
    the layout.
    """

    mode_bases: tuple
    means: np.ndarray
    variances: np.ndarray
    count: int

    def __post_init__(self):
        self.mode_bases = tuple(self.mode_bases)
        self.means = np.asarray(self.means, dtype=complex)
        self.variances = np.asarray(self.variances, dtype=float)
        self.count = qops.require_index(self.count, "moment table count")
        size = len(qops.moment_layout(self.mode_bases)[0])
        if self.means.shape != (size,) or self.variances.shape != (size,):
            raise ValueError(f"a table over mode_bases {self.mode_bases} holds {size} moments, "
                             f"not {self.means.shape} means and {self.variances.shape} variances")
        for name, array in (("means", self.means), ("variances", self.variances)):
            if not np.isfinite(array).all():
                raise ValueError(f"moment {name} are not finite: {np.sum(~np.isfinite(array))} "
                                 f"of {array.size} are NaN or inf")
        if not np.all(self.variances >= 0.0):
            raise ValueError("moment variances must be non-negative")
        if self.count < 1:
            raise ValueError(f"moment table has shot count {self.count}; "
                             "every mean needs at least one shot")

    def _index(self, signature) -> int:
        signatures = qops.moment_layout(self.mode_bases)[0]
        sig = tuple(signature)
        try:
            j = bisect.bisect_left(signatures, sig)
        except TypeError:
            # an entry of the wrong kind for its mode: a pair on a qubit mode
            # or an integer on a heterodyne one
            raise KeyError(sig) from None
        if j == len(signatures) or signatures[j] != sig:
            raise KeyError(sig)
        return j

    def mean(self, signature) -> complex:
        return complex(self.means[self._index(signature)])

    def variance(self, signature) -> float:
        return float(self.variances[self._index(signature)])

    def signatures(self):
        return list(qops.moment_layout(self.mode_bases)[0])


def estimate_moments(batch: ShotBatch, dark: ShotBatch,
                     gain: dict | None = None) -> MomentTable:
    """Means and variances of every n, m <= 1 joint moment, over batch.count shots.

    Per shot, a heterodyne mode gives the deconvolved factors [1, g^1/2 S,
    g^1/2 S*, g (|S|^2 - d)] (entries qops.MODE_ORDERS), with d its dark
    power and g its gain (1 where absent), and a qubit mode [1, outcome]
    (entries 0, 1).  Each table entry is the shot mean and per-shot sample
    variance of one product of one factor per mode, so the variances are
    those of the deconvolved products the means average.  gain maps 1-based
    heterodyne mode indices to the power correction from
    bandwidth_gain_split; a gain that is not finite and positive raises.

    The products are summed over real factor rows: [1, x, y, |S|^2 - d] per
    heterodyne mode (S = x + iy) and [1, outcome] per qubit mode, and for the
    squares the distinct squared moduli [1, x^2 + y^2, (|S|^2 - d)^2] per
    heterodyne mode (a qubit mode's are all 1).  The sums are then mapped mode
    by mode: the products to [1, g^1/2 S, g^1/2 S*, g (|S|^2 - d)], and the
    squares by index (0, 1, 1, 2) times (1, g, g, g^2).  The sums run over
    blocks of 2^13 shots, whose product stacks stay small (a few MB at five
    modes); the dark power is summed in float64 by dark_noise_power.

    Both batches are refused, block by block, if they hold a value that is
    not finite or a qubit outcome other than +-1.
    """
    if dark.mode_bases != batch.mode_bases:
        raise ValueError("dark batch modes do not match; moments of this "
                         "signature order have no dark data")
    if dark.count * 10 < batch.count:
        raise ValueError("dark batch must hold at least a tenth of the shot count")
    het = batch.heterodyne_modes
    qub = batch.qubit_modes
    gain = gain or {}
    stray = sorted(set(gain) - set(het))
    if stray:
        raise ValueError(f"gain given for mode(s) {stray}, outside the heterodyne modes {het}")
    bad = {mode: g for mode, g in gain.items() if not (math.isfinite(g) and g > 0.0)}
    if bad:
        raise ValueError(f"gain must be finite and positive, got {bad} by mode")
    if batch.count < 1:
        raise ValueError("shot batch holds no shots; every mean needs at least one")
    dark_power = dark_noise_power(dark) + 1.0

    # split the register in half so every signature product is one entry of a
    # left-half times right-half matrix product, letting BLAS accumulate the
    # sums instead of a python loop over signatures
    split = (batch.n_modes + 1) // 2
    het_col = {mode: i for i, mode in enumerate(het)}
    qub_col = {mode: i for i, mode in enumerate(qub)}

    def half_products(modes, factors, width):
        """Products of one factor row per mode, first mode slowest, over the
        modes `factors` has rows for (one row of ones if none).  The stack
        grows by broadcasting."""
        rows = [factors[mode] for mode in modes if mode in factors]
        if not rows:
            return np.ones((1, width))
        stack = rows[0]
        for more in rows[1:]:
            stack = (stack[:, None, :] * more[None, :, :]).reshape(-1, width)
        return stack

    halves = (range(1, split + 1), range(split + 1, batch.n_modes + 1))
    shape = [2 if basis else 4 for basis in batch.mode_bases]
    square_shape = [1 if basis else 3 for basis in batch.mode_bases]

    def sums(rows):
        block = batch.values[rows].T
        width = block.shape[1]
        # per heterodyne mode [1, x, y, |S|^2 - d] and its distinct squares
        # [1, x^2 + y^2, (|S|^2 - d)^2]; per qubit mode [1, outcome], whose
        # squares are all 1
        real = np.empty((len(het), 4, width))
        real[:, 0] = 1.0
        real[:, 1] = block.real
        real[:, 2] = block.imag
        square = np.empty((len(het), 3, width))
        square[:, 0] = 1.0
        power = square[:, 1]
        np.square(real[:, 1], out=power)
        power += np.square(real[:, 2])
        np.subtract(power, dark_power[:, None], out=real[:, 3])
        np.square(real[:, 3], out=square[:, 2])
        factors = {mode: real[i] for mode, i in het_col.items()}
        if qub:
            signs = np.ones((len(qub), 2, width))
            signs[:, 1] = batch.outcomes[rows].T
            factors.update((mode, signs[i]) for mode, i in qub_col.items())
        left, right = (half_products(modes, factors, width) for modes in halves)
        products = left @ right.T
        factors = {mode: square[i] for mode, i in het_col.items()}
        left, right = (half_products(modes, factors, width) for modes in halves)
        return np.concatenate((products.ravel(), (left @ right.T).ravel()))

    # one left-half by right-half sum of products, then one of squares
    total = _block_sums("shots", batch, _MOMENT_BLOCK, sums)
    sum_prod, sum_sq = np.split(total, [math.prod(shape)])

    # mode by mode, the real sums become those of [1, g^1/2 S, g^1/2 S*,
    # g (|S|^2 - d)] and the square sums those of the four squared moduli
    to_complex, to_squares = [], []
    for mode, basis in enumerate(batch.mode_bases, start=1):
        if basis:
            to_complex.append(None)
            to_squares.append(np.ones((2, 1)))
            continue
        g = gain.get(mode, 1.0)
        root = math.sqrt(g)
        to_complex.append(np.array([[1, 0, 0, 0], [0, root, 1j * root, 0],
                                    [0, root, -1j * root, 0], [0, 0, 0, g]]))
        to_squares.append(np.array([[1, 0, 0], [0, g, 0], [0, g, 0], [0, 0, g * g]]))
    count = batch.count
    means = _map_modes(sum_prod.reshape(shape), to_complex) / count
    sum_sq = _map_modes(sum_sq.reshape(square_shape), to_squares)
    spread = sum_sq - count * np.abs(means) ** 2
    variances = np.maximum(spread, 0.0) / max(count - 1, 1)
    return MomentTable(batch.mode_bases, means.reshape(-1), variances.reshape(-1), count)


def _map_modes(array, maps):
    """array with maps[k] applied along its axis k (None leaves it as is)."""
    for axis, matrix in enumerate(maps):
        if matrix is not None:
            array = np.moveaxis(np.tensordot(matrix, array, axes=(1, axis)), 0, axis)
    return array


def two_photon_moment(batch: ShotBatch, dark: ShotBatch, mode: int = 1) -> float:
    """Same-mode <(a^dag)^2 a^2>, the single-photon-purity diagnostic.

    Beyond the n, m <= 1 table, but the closed-form deconvolution
    raw<|S|^4> - 4 d <|S|^2> + 2 d^2 (d the raw dark power) is exact because
    the sampler reproduces all Husimi moments; any single-excitation state
    gives zero.  Both batches are refused as in estimate_moments, the shot
    batch first; |S|^2 and |S|^4 are summed as in dark_noise_power.
    """
    if mode not in batch.heterodyne_modes:
        raise ValueError(f"mode {mode} is not one of the heterodyne modes "
                         f"{batch.heterodyne_modes}")
    if batch.count < 1:
        raise ValueError("shot batch holds no shots; every mean needs at least one")
    i = batch.heterodyne_modes.index(mode)

    def sums(rows):
        parts = np.ascontiguousarray(batch.values[rows, i]).view(np.float32).astype(np.float64)
        power = np.square(parts).reshape(-1, 2).sum(axis=1)
        return np.array([power.sum(), np.square(power).sum()])

    power, power2 = _block_sums("shots", batch, _CHUNK, sums) / batch.count
    d = float(dark_noise_power(dark)[i]) + 1.0
    return float(power2 - 4.0 * d * power + 2.0 * d * d)


def bandwidth_gain_split(slow: MomentTable, fast: MomentTable,
                         mode: int = 1) -> float:
    """Fast-class power correction from matched full-excitation preparations.

    Both tables must estimate the same nominally-one-photon emission, slow
    and fast pulse class respectively; the ratio of their <a^dag a> readings
    is the correction factor for fast-class moments.  `mode` must be a
    heterodyne mode of both tables.
    """
    def photon_number(table):
        bases = table.mode_bases
        if not 1 <= mode <= len(bases) or bases[mode - 1]:
            raise ValueError(f"mode {mode} is not a heterodyne mode of a table "
                             f"over mode_bases {bases}")
        return float(np.real(table.mean(tuple(
            (1, 1) if m == mode else 0 if b else (0, 0)
            for m, b in enumerate(bases, start=1)))))

    ratio = photon_number(slow) / photon_number(fast)
    if not 0.8 <= ratio <= 1.2:
        raise ValueError(f"calibration alarm: bandwidth gain split {ratio:.3f} "
                         "outside [0.8, 1.2]")
    return ratio
