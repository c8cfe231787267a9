"""Ideal-circuit layer: pulse schedules compiled into emitter-photon states.

The emitter is kept as an explicit three-level system (g, e, f) so that the
two drive transitions and the protection of |g> during feedback scattering
are representable.  Photons are time-bin qubits truncated to {|0>, |1>};
an n-photon run lives in C^3 (x) C^(2^n) with photon 1 the most significant
bit of the basis integer.

A schedule is a list of ProtocolStep values.  Rotations act on one emitter
transition, emission moves the |f> amplitude into a fresh time bin, and a
feedback scattering event applies |e><e| (x) sigma_z on the named bin.
Mirror gating and idles carry timing metadata only; the compiled state does
not depend on them.

The one interpreter, _histories, splits a run into emitter-level histories:
every step maps a basis state to basis states, so each sequence of emitter
levels carries one amplitude on one basis column.  compile_and_run sums the
amplitudes onto their columns; the dephasing average in noise weights each
pair of histories by the Gaussian average of the phase their levels
accumulate.

The published circuit library covers the states generated on the device,
with per-photon virtual-Z offsets folded into the pre-emission ef pulses so
that graph-family targets come out in the standard graph-state gauge
(leading basis amplitude real positive).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import qops

ROTATION_TIME = 16e-9
EMIT_SLOW = 135e-9
EMIT_FAST = 30e-9
SCATTER_TIME = 110e-9
# emission after a feedback event waits out the fed-back pulse's taper echo
ECHO_GAP = 45e-9

_AMP_TOL = 1e-9
# a history amplitude at or below one ulp of the unit norm is roundoff: a pi
# pulse leaves cos(pi/2) = 6.1e-17 on the branch it empties
_ROUNDOFF_AMP = np.finfo(float).eps

TARGET_GRAPHS = {
    "cluster2": (2, ((1, 2),)),
    "cluster3_1d": (3, ((1, 2), (2, 3))),
    "triangle3": (3, ((1, 2), (2, 3), (1, 3))),
    "cluster4_2d": (4, ((1, 2), (2, 3), (3, 4), (1, 4))),
    "ring5": (5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
    "tetra5": (5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (1, 4))),
}

TARGET_NAMES = (
    "fock1",
    "ghz2",
    "cluster2",
    "ghz3",
    "cluster3_1d",
    "triangle3",
    "cluster4_2d",
    "ring5",
    "tetra5",
)


@dataclass(frozen=True)
class ProtocolStep:
    """One schedule entry; exactly the fields for its kind are meaningful."""

    kind: str
    transition: str | None = None
    angle: float = 0.0
    axis_phase: float = 0.0
    photon: int | None = None
    action: str | None = None
    duration: float = 0.0

    def __post_init__(self):
        for label in ("angle", "axis_phase", "duration"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"step.{label} must be finite, got {value!r}")
        if self.duration < 0.0:
            raise ValueError(f"step.duration must be non-negative, got {self.duration!r}")


def rotation(transition: str, angle: float, axis_phase: float = 0.0,
             duration: float = ROTATION_TIME) -> ProtocolStep:
    if transition not in ("ge", "ef"):
        raise ValueError(f"unknown transition {transition!r}, expected 'ge' or 'ef'")
    return ProtocolStep("rotation", transition=transition, angle=float(angle),
                        axis_phase=float(axis_phase), duration=duration)


def emit(photon: int, duration: float | None = None) -> ProtocolStep:
    """Emission window; photon 1 defaults to the slow high-fidelity
    135 ns window and later photons to the fast 30 ns bins."""
    photon = qops.require_index(photon, "photon")
    if photon < 1:
        raise ValueError("photon indices start at 1")
    if duration is None:
        duration = EMIT_SLOW if photon == 1 else EMIT_FAST
    return ProtocolStep("emit", photon=photon, duration=duration)


def cz_feedback(photon: int, duration: float = SCATTER_TIME) -> ProtocolStep:
    photon = qops.require_index(photon, "photon")
    if photon < 1:
        raise ValueError("photon indices start at 1")
    return ProtocolStep("cz_feedback", photon=photon, duration=duration)


def mirror_gate(action: str) -> ProtocolStep:
    if action not in ("open", "close"):
        raise ValueError(f"mirror action {action!r} must be 'open' or 'close'")
    return ProtocolStep("mirror_gate", action=action, duration=0.0)


def idle(duration: float) -> ProtocolStep:
    if duration <= 0.0:
        raise ValueError("idle duration must be positive")
    return ProtocolStep("idle", duration=float(duration))


def schedule_times(steps) -> np.ndarray:
    """Start time of every step, laid out back to back."""
    starts = np.zeros(len(steps))
    t = 0.0
    for i, step in enumerate(steps):
        starts[i] = t
        t += step.duration
    return starts


def total_duration(steps) -> float:
    return float(sum(step.duration for step in steps))


class PureState:
    """Joint emitter-photon amplitudes, shape (3, 2, ..., 2)."""

    def __init__(self, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape[0] != 3 or amplitudes.shape[1:] != (2,) * (amplitudes.ndim - 1):
            raise ValueError("amplitudes must have shape (3, 2, ..., 2)")
        self.amplitudes = amplitudes
        self.n_photons = amplitudes.ndim - 1

    @classmethod
    def from_photonic(cls, vector: np.ndarray) -> "PureState":
        """Embed a photon register state with the emitter parked in |g>."""
        vector = np.asarray(vector, dtype=complex)
        n = _photon_count(vector.shape[0])
        amps = np.zeros((3,) + (2,) * n, dtype=complex)
        amps[0] = vector.reshape((2,) * n)
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        if self.amplitudes.shape != other.amplitudes.shape:
            raise ValueError("states have different photon counts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def photons(self) -> np.ndarray:
        """Photon register amplitudes; the emitter must sit in |g> (to _AMP_TOL)."""
        stray = float(np.linalg.norm(self.amplitudes[1:]))
        if stray > _AMP_TOL:
            raise ValueError(
                f"emitter left with {stray:.3e} amplitude outside |g>; "
                "the schedule is missing its disentangling pulses")
        return self.amplitudes[0].reshape(-1).copy()

    def photon_density(self) -> "DensityMatrix":
        return DensityMatrix.from_pure(self.photons())


class DensityMatrix:
    """Validated photon-register density matrix."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        qops.validate_density(matrix, tol=1e-10)
        self.n_photons = _photon_count(matrix.shape[0])
        self.matrix = matrix

    @classmethod
    def from_pure(cls, vector: np.ndarray) -> "DensityMatrix":
        vector = np.asarray(vector, dtype=complex)
        vector = vector / np.linalg.norm(vector)
        return cls(np.outer(vector, vector.conj()))


def coerce_state(state) -> np.ndarray:
    """The photon-register vector or density matrix of a state input.

    A PureState gives its photon vector and a DensityMatrix its matrix.  A 1-D
    array must have unit norm to within 1e-8 and is then divided by its norm,
    as DensityMatrix.from_pure does; a 2-D array must pass
    qops.validate_density at tol 1e-8.  Callers that need a matrix use
    _state_matrix.
    """
    if isinstance(state, DensityMatrix):
        return state.matrix
    arr = state.photons() if isinstance(state, PureState) else np.asarray(state, dtype=complex)
    if arr.ndim != 1:
        qops.validate_density(arr, tol=1e-8)
        return arr
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state vector norm {norm:.12g} is not 1")
    return arr / norm


def _state_matrix(state) -> np.ndarray:
    """coerce_state, with a vector taken to its outer product."""
    arr = coerce_state(state)
    return np.outer(arr, arr.conj()) if arr.ndim == 1 else arr


def _photon_count(dim: int) -> int:
    n = max(dim.bit_length() - 1, 0)
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _rotation_matrix(step: ProtocolStep) -> np.ndarray:
    lo, hi = (0, 1) if step.transition == "ge" else (1, 2)
    c = math.cos(0.5 * step.angle)
    s = math.sin(0.5 * step.angle)
    ph = cmath.exp(1j * step.axis_phase)
    u = np.eye(3, dtype=complex)
    u[lo, lo] = c
    u[hi, hi] = c
    u[hi, lo] = s * ph
    u[lo, hi] = -s / ph
    return u


def _validate(steps) -> int:
    emitted: list[int] = []
    for pos, step in enumerate(steps):
        if step.kind == "emit":
            if step.photon in emitted:
                raise ValueError(f"photon {step.photon} emitted twice")
            if step.photon != len(emitted) + 1:
                raise ValueError(
                    f"photon {step.photon} emitted out of order; time bins are "
                    f"sequential so photon {len(emitted) + 1} must come next")
            emitted.append(step.photon)
        elif step.kind == "cz_feedback":
            if step.photon not in emitted:
                raise ValueError(
                    f"feedback on photon {step.photon} at step {pos} before it was emitted")
        elif step.kind not in ("rotation", "mirror_gate", "idle"):
            raise ValueError(f"unknown step kind {step.kind!r}")
    return len(emitted)


def compile_and_run(steps) -> PureState:
    """Run the ideal isometries of a schedule from |g> (x) vacuum.

    The returned state keeps the emitter axis: schedules that stop before
    the disentangling block (an emitter-photon Bell pair, say) are legal
    here, and only the photons() accessor insists on a freed emitter.
    """
    _, columns, amplitudes, n = _histories(steps)
    out = np.zeros(3 * 2 ** n, dtype=complex)
    np.add.at(out, columns, amplitudes)
    return PureState(out.reshape((3,) + (2,) * n))


def _histories(steps):
    """Emitter-level histories of a schedule run from |g> (x) vacuum.

    Every step maps a basis state |level, photons> to basis states: a
    rotation splits it over the two levels of its transition, emission
    turns |f> into |e> with the photon's bit set, and feedback flips a sign.
    So the run is a sum of histories, one per sequence of emitter levels,
    each a single amplitude on one basis column.  Returns (levels, columns,
    amplitudes, n): levels[h, i] in {0, 1, 2} is history h's level (g, e, f)
    after step i, columns[h] its flat index into the (3, 2^n) amplitudes,
    and amplitudes[h] its amplitude.  Histories whose amplitude falls to
    _ROUNDOFF_AMP or below are dropped.  A rotation that leaves weight on
    both levels of its transition doubles the histories there, so the count
    grows as 2^(number of such rotations) however few photons there are;
    the published circuits have 2^(number of ge pi/2 pulses).
    """
    n = _validate(steps)
    # (levels so far, current level, photon column, amplitude)
    rows = [((), 0, 0, 1.0 + 0.0j)]
    for step in steps:
        if step.kind == "rotation":
            u = _rotation_matrix(step)
            pair = (0, 1) if step.transition == "ge" else (1, 2)
        grown = []
        for path, level, column, amp in rows:
            if step.kind == "rotation" and level in pair:
                for to in pair:
                    branch = amp * u[to, level]
                    if abs(branch) > _ROUNDOFF_AMP:
                        grown.append((path + (to,), to, column, branch))
                continue
            if step.kind == "emit" and level == 2:
                level, column = 1, column | 1 << (n - step.photon)
            elif step.kind == "cz_feedback" and level == 1 \
                    and column >> (n - step.photon) & 1:
                amp = -amp
            grown.append((path + (level,), level, column, amp))
        rows = grown
    levels = np.array([row[0] for row in rows], dtype=np.int8)
    columns = np.array([level * 2 ** n + column for _, level, column, _ in rows])
    amplitudes = np.array([row[3] for row in rows], dtype=complex)
    return levels, columns, amplitudes, n


def _ghz_circuit(n: int):
    steps = [rotation("ge", math.pi / 2), rotation("ef", math.pi), emit(1)]
    for k in range(2, n):
        steps += [rotation("ef", math.pi), emit(k)]
    steps += [rotation("ef", math.pi), rotation("ge", math.pi), emit(n),
              rotation("ge", math.pi)]
    return steps


def _cluster_circuit(n: int, feedback: dict):
    # feedback maps cycle index -> photons scattered during that cycle; the
    # scattering slot sits between the cycle's ge half-pulse and its ef pulse.
    steps = [rotation("ge", math.pi / 2), rotation("ef", math.pi), emit(1)]
    if feedback:
        steps.append(mirror_gate("close"))
    for k in range(2, n):
        steps.append(rotation("ge", math.pi / 2))
        steps += [cz_feedback(j) for j in feedback.get(k, ())]
        steps += [rotation("ef", math.pi), emit(k)]
    steps.append(rotation("ge", math.pi / 2))
    steps += [cz_feedback(j) for j in feedback.get(n, ())]
    if feedback:
        steps.append(idle(ECHO_GAP))
    steps += [rotation("ef", math.pi), rotation("ge", math.pi), emit(n),
              rotation("ge", math.pi)]
    if feedback:
        last = max(i for i, s in enumerate(steps) if s.kind == "cz_feedback")
        steps.insert(last + 1, mirror_gate("open"))
    return steps


def _bare_circuit(name: str):
    if name == "fock1":
        return [rotation("ge", math.pi), rotation("ef", math.pi), emit(1),
                rotation("ge", math.pi)]
    if name == "ghz2":
        return _ghz_circuit(2)
    if name == "ghz3":
        return _ghz_circuit(3)
    if name in TARGET_GRAPHS:
        n, edges = TARGET_GRAPHS[name]
        feedback: dict = {}
        for (a, b) in edges:
            if b - a > 1:
                feedback.setdefault(b, []).append(a)
        return _cluster_circuit(n, feedback)
    raise ValueError(f"unknown target state {name!r}; expected one of {TARGET_NAMES}")


def _ef_pulse_index(steps, emit_pos: int) -> int | None:
    for i in range(emit_pos - 1, -1, -1):
        step = steps[i]
        if step.kind == "emit":
            return None
        if step.kind == "rotation" and step.transition == "ef" \
                and abs(step.angle - math.pi) < 1e-9:
            return i
    return None


def _with_ef_offsets(steps, offsets: dict):
    """Add virtual-Z phase offsets to the ef pi pulse feeding each photon."""
    steps = list(steps)
    for pos, step in enumerate(steps):
        if step.kind != "emit" or step.photon not in offsets:
            continue
        i = _ef_pulse_index(steps, pos)
        if i is not None:
            steps[i] = replace(steps[i], axis_phase=steps[i].axis_phase + offsets[step.photon])
    return steps


def _photon_phases(amps, n: int) -> np.ndarray:
    """Phase of each photon's single-occupation amplitude c_k relative to the
    vacuum amplitude c_0 of the n-photon amplitudes, 0 unless both
    magnitudes exceed _AMP_TOL."""
    thetas = np.zeros(n)
    c0 = amps[0]
    if abs(c0) > _AMP_TOL:
        for k in range(n):
            ck = amps[1 << (n - 1 - k)]
            if abs(ck) > _AMP_TOL:
                thetas[k] = cmath.phase(ck / c0)
    return thetas


def compensation_offsets(name: str) -> np.ndarray:
    """Spurious per-photon Z phases of the bare circuit, read off the
    single-occupation amplitudes relative to the vacuum component."""
    bare = compile_and_run(_bare_circuit(name))
    return _photon_phases(bare.photons(), bare.n_photons)


def published_circuit(name: str):
    """Schedule for a device-demonstrated state, with durations attached.

    The pre-emission ef pulses carry the virtual-Z offsets that cancel the
    bare circuit's per-photon Z phases.
    """
    steps = _bare_circuit(name)
    thetas = compensation_offsets(name)
    offsets = {k + 1: -th for k, th in enumerate(thetas) if th != 0.0}
    if offsets:
        steps = _with_ef_offsets(steps, offsets)
    return steps


def _target_photons(steps) -> np.ndarray:
    """Photon register of the ideal run of `steps`, leading amplitude made
    real."""
    vec = compile_and_run(steps).photons()
    lead = vec[np.argmax(np.abs(vec) > _AMP_TOL)]
    return vec * (abs(lead) / lead)


def target_state(name: str) -> PureState:
    """Ideal state of a published circuit, leading amplitude made real."""
    return PureState.from_photonic(_target_photons(published_circuit(name)))


def target_graph(name: str):
    """(photon count, edge list) of a graph-family target, 1-based vertices."""
    if name not in TARGET_GRAPHS:
        raise ValueError(f"{name!r} is not a graph-family target")
    return TARGET_GRAPHS[name]


def stabilizer_expectations(state, edges) -> np.ndarray:
    """<X_v Z_neighbours> for every vertex of the graph, 1-based edges."""
    obj = coerce_state(state)
    n = _photon_count(obj.shape[0])
    edges0 = [(a - 1, b - 1) for (a, b) in edges]
    for (a, b) in edges0:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a + 1}, {b + 1}) outside 1..{n}")
    values = np.zeros(n)
    for v in range(n):
        op = qops.stabilizer_operator(v, n, edges0)
        if obj.ndim == 1:
            values[v] = np.real(np.vdot(obj, op @ obj))
        else:
            values[v] = np.real(np.trace(obj @ op))
    return values


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (squared convention) between states of any mix of
    pure vectors and density matrices."""
    a = coerce_state(rho)
    b = coerce_state(sigma)
    if a.shape[0] != b.shape[0]:
        raise ValueError("states have different dimensions")
    return qops.fidelity(a, b)


def virtual_z_sweep(steps, phases) -> np.ndarray:
    """Per-photon emitted phase as the common virtual-Z offset is swept.

    Each offset is added to every pre-emission ef pulse; the emitted phase is
    read from the single-occupation amplitude of the |g> block relative to
    the vacuum component.  Returns an array of shape (len(phases), photons).
    """
    steps = list(steps)
    n = sum(1 for s in steps if s.kind == "emit")
    out = np.zeros((len(phases), n))
    for row, phi in enumerate(phases):
        shifted = _with_ef_offsets(steps, {k: phi for k in range(1, n + 1)})
        out[row] = _photon_phases(compile_and_run(shifted).amplitudes[0].reshape(-1), n)
    return out
