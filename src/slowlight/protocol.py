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

The published circuit library covers the states generated on the device,
with per-photon virtual-Z offsets folded into the pre-emission ef pulses so
that graph-family targets come out in the standard graph-state gauge
(leading basis amplitude real positive).
"""

from __future__ import annotations

import cmath
import json
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
    envelope: str | None = None
    action: str | None = None
    duration: float = 0.0


def rotation(transition: str, angle: float, axis_phase: float = 0.0,
             duration: float = ROTATION_TIME) -> ProtocolStep:
    if transition not in ("ge", "ef"):
        raise ValueError(f"unknown transition {transition!r}, expected 'ge' or 'ef'")
    return ProtocolStep("rotation", transition=transition, angle=float(angle),
                        axis_phase=float(axis_phase), duration=duration)


def emit(photon: int, envelope: str | None = None, duration: float | None = None) -> ProtocolStep:
    """Emission window; photon 1 defaults to the slow high-fidelity pulse
    class and later photons to the fast 30 ns bins."""
    if photon < 1:
        raise ValueError("photon indices start at 1")
    if envelope is None:
        envelope = "erf50" if photon == 1 else "erf15"
    if duration is None:
        duration = EMIT_SLOW if photon == 1 else EMIT_FAST
    return ProtocolStep("emit", photon=int(photon), envelope=envelope, duration=duration)


def cz_feedback(photon: int, duration: float = SCATTER_TIME) -> ProtocolStep:
    if photon < 1:
        raise ValueError("photon indices start at 1")
    return ProtocolStep("cz_feedback", photon=int(photon), duration=duration)


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

    def photons(self, tol: float = 1e-9) -> np.ndarray:
        """Photon register amplitudes; the emitter must sit in |g>."""
        return _photon_rows(self.amplitudes[None], tol)[0]

    def photon_density(self, tol: float = 1e-9) -> "DensityMatrix":
        return DensityMatrix.from_pure(self.photons(tol=tol))

    def to_json(self) -> str:
        labels = []
        flat = self.amplitudes.reshape(3, -1)
        for lvl in "gef":
            for idx in range(flat.shape[1]):
                labels.append(f"{lvl}|{idx:0{self.n_photons}b}" if self.n_photons else f"{lvl}|")
        entries = [[float(a.real), float(a.imag)] for a in flat.reshape(-1)]
        return json.dumps({"n_photons": self.n_photons, "basis": labels,
                           "amplitudes": entries}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PureState":
        """Read the schema to_json writes; the amplitudes come back bit for bit."""
        payload = json.loads(text)
        n = payload["n_photons"]
        entries = np.asarray(payload["amplitudes"], dtype=float)
        if entries.shape != (3 * 2 ** n, 2) or len(payload["basis"]) != len(entries):
            raise ValueError(f"a {n}-photon state needs {3 * 2 ** n} amplitude pairs "
                             f"and basis labels")
        return cls((entries[:, 0] + 1j * entries[:, 1]).reshape((3,) + (2,) * n))


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

    def to_json(self, extra: dict | None = None) -> str:
        """The density-matrix schema (kind, dim, n_photons, basis labels, real,
        imag) with extra keys merged in; from_json reads it back."""
        n, dim = self.n_photons, self.matrix.shape[0]
        payload = {"kind": "density_matrix", "dim": dim, "n_photons": n,
                   "basis": [f"{idx:0{n}b}" if n else "" for idx in range(dim)],
                   "real": self.matrix.real.tolist(), "imag": self.matrix.imag.tolist()}
        if extra:
            payload.update(extra)
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DensityMatrix":
        payload = json.loads(text)
        if payload.get("kind") != "density_matrix":
            raise ValueError("not a serialized density matrix")
        return cls(np.asarray(payload["real"]) + 1j * np.asarray(payload["imag"]))


def coerce_state(state) -> np.ndarray:
    """The photon-register vector or density matrix of a state input.

    A PureState gives its photon vector and a DensityMatrix its matrix.  A 1-D
    array must have unit norm to within 1e-8 and is then divided by its norm,
    as DensityMatrix.from_pure does; a 2-D array must pass
    qops.validate_density at tol 1e-8.  Callers that need a matrix take the
    outer product of a vector.
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
    return PureState(_run(steps)[0])


def _run(steps, kicks=None) -> np.ndarray:
    """Amplitudes (R, 3, 2, ..., 2) of R runs of a schedule from |g> (x) vacuum.

    This is the one interpreter of schedule semantics.  kicks, shape
    (R, len(steps)), are emitter phases: after step i, row r's |e> amplitude
    picks up exp(i kicks[r, i]) and its |f> amplitude exp(2i kicks[r, i]).
    Without kicks there is one row and no phase.
    """
    n = _validate(steps)
    rows = 1 if kicks is None else kicks.shape[0]
    psi = np.zeros((rows, 3) + (2,) * n, dtype=complex)
    psi[(slice(None), 0) + (0,) * n] = 1.0
    if kicks is not None:
        e_kick = np.exp(1j * kicks).reshape(kicks.shape + (1,) * n)
        f_kick = np.exp(2j * kicks).reshape(kicks.shape + (1,) * n)
    for i, step in enumerate(steps):
        if step.kind == "rotation":
            psi = np.moveaxis(np.tensordot(_rotation_matrix(step), psi, axes=(1, 1)), 0, 1)
        elif step.kind == "emit":
            psi = _apply_emit(psi, step.photon)
        elif step.kind == "cz_feedback":
            psi[(slice(None), 1) + (slice(None),) * (step.photon - 1) + (1,)] *= -1.0
        if kicks is not None:
            psi[:, 1] *= e_kick[:, i]
            psi[:, 2] *= f_kick[:, i]
    return psi


def _apply_emit(psi: np.ndarray, photon: int) -> np.ndarray:
    out = psi.copy()
    skip = (slice(None),) * (photon - 1)
    out[(slice(None), 1) + skip + (1,)] = psi[(slice(None), 2) + skip + (0,)]
    out[:, 2] = 0.0
    return out


def _photon_rows(psi: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Photon-register vectors (R, 2^n) of run amplitudes (R, 3, 2, ..., 2);
    every row's emitter must sit in |g>."""
    rows = psi.shape[0]
    stray = float(np.linalg.norm(psi[:, 1:].reshape(rows, -1), axis=1).max())
    if stray > tol:
        raise ValueError(
            f"emitter left with {stray:.3e} amplitude outside |g>; "
            "the schedule is missing its disentangling pulses")
    return psi[:, 0].reshape(rows, -1).copy()


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


def compensation_offsets(name: str) -> np.ndarray:
    """Spurious per-photon Z phases of the bare circuit, read off the
    single-occupation amplitudes relative to the vacuum component."""
    bare = compile_and_run(_bare_circuit(name))
    vec = bare.photons()
    n = bare.n_photons
    c0 = vec[0]
    thetas = np.zeros(n)
    if abs(c0) < _AMP_TOL:
        return thetas
    for k in range(n):
        ck = vec[1 << (n - 1 - k)]
        if abs(ck) > _AMP_TOL:
            thetas[k] = cmath.phase(ck / c0)
    return thetas


def published_circuit(name: str, compensated: bool = True):
    """Schedule for a device-demonstrated state, with durations attached.

    With compensated=True the pre-emission ef pulses carry the virtual-Z
    offsets that cancel the bare circuit's per-photon Z phases.
    """
    steps = _bare_circuit(name)
    if compensated:
        thetas = compensation_offsets(name)
        offsets = {k + 1: -th for k, th in enumerate(thetas) if th != 0.0}
        if offsets:
            steps = _with_ef_offsets(steps, offsets)
    return steps


def target_state(name: str) -> PureState:
    """Ideal state of a published circuit, leading amplitude made real."""
    state = compile_and_run(published_circuit(name))
    vec = state.photons()
    lead = vec[np.argmax(np.abs(vec) > _AMP_TOL)]
    vec = vec * (abs(lead) / lead)
    return PureState.from_photonic(vec)


def target_graph(name: str):
    """(photon count, edge list) of a graph-family target, 1-based vertices."""
    if name not in TARGET_GRAPHS:
        raise ValueError(f"{name!r} is not a graph-family target")
    return TARGET_GRAPHS[name]


def stabilizer_expectations(state, edges, n_photons: int | None = None) -> np.ndarray:
    """<X_v Z_neighbours> for every vertex of the graph, 1-based edges."""
    obj = coerce_state(state)
    dim = obj.shape[0]
    n = _photon_count(dim)
    if n_photons is not None and n_photons != n:
        raise ValueError(f"state has {n} photons, expected {n_photons}")
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
        psi = compile_and_run(shifted).amplitudes
        gblock = psi[0].reshape(-1)
        c0 = gblock[0]
        for k in range(n):
            ck = gblock[1 << (n - 1 - k)]
            if abs(c0) > _AMP_TOL and abs(ck) > _AMP_TOL:
                out[row, k] = cmath.phase(ck / c0)
    return out
