"""Error channels: 1/f dephasing Monte Carlo, photon loss, control errors,
readout confusion, and the composed infidelity budget.

Dephasing model: the emitter frequency wanders with a 1/f spectrum.  One
long record is synthesised by inverse FFT of a conjugate-symmetric spectrum
whose bin amplitudes fall as f^(-exponent/2), and Monte Carlo realizations
are consecutive slices of that record.  During a schedule the |e> level
accumulates the integrated detuning as phase and |f> accumulates twice that
(number-operator coupling); the noise is far slower than any pulse, so
phases are applied per step window rather than integrated through pulse
shapes.  Each realization's phase per step window is handed to the schedule
interpreter in protocol, which runs all realizations in one batched pass.

Channels on the photon register (loss on fed-back bins, the lumped control
depolarizer) are exact Kraus maps.  The budget composes everything in the
order dephasing -> loss -> control and reports incremental infidelities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import protocol
from . import qops

DEFAULT_T2_STAR = 561e-9
DEFAULT_SAMPLE_RATE = 2e8
DEFAULT_F_MIN = 50.0

READOUT_CONFUSION = np.array([[0.976, 0.024],
                              [0.024, 0.976]])


@dataclass(frozen=True)
class OneOverFSpec:
    """Dephasing noise source; amplitude is the record RMS in rad/s."""

    amplitude: float
    f_min: float = DEFAULT_F_MIN
    sample_rate: float = DEFAULT_SAMPLE_RATE
    exponent: float = 1.0
    seed: int = 0
    calibrated_t2: float | None = None

    def __post_init__(self):
        if self.f_min <= 0.0 or self.f_min > 50.0:
            raise ValueError("noise.f_min must lie in (0, 50] Hz")
        if self.sample_rate <= 0.0:
            raise ValueError("noise.sample_rate must be positive")
        if self.exponent < 0.0:
            raise ValueError("noise.exponent must be non-negative")
        if self.amplitude < 0.0:
            raise ValueError("noise.amplitude must be non-negative")


@dataclass(frozen=True)
class ChannelStack:
    """Static error channels with the device's measured magnitudes.

    cz_depol is the lumped once-per-gate depolarizing stand-in for CZ
    imperfection; the device paper only quotes the aggregate control error,
    so the split is an explicit, overridable assumption.
    """

    loss: float = 0.13
    thermal_pop: float = 0.01
    residual_f: float = 0.01
    cz_depol: float = 0.01
    confusion: np.ndarray = field(default_factory=lambda: READOUT_CONFUSION.copy())

    def __post_init__(self):
        for label in ("loss", "thermal_pop", "residual_f", "cz_depol"):
            value = getattr(self, label)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"channels.{label} must lie in [0, 1)")
        c = np.asarray(self.confusion, dtype=float)
        if c.shape != (2, 2) or np.max(np.abs(c.sum(axis=0) - 1.0)) > 1e-9:
            raise ValueError("channels.confusion must be 2x2 with columns summing to 1")


def _record_length(spec: OneOverFSpec) -> int:
    return int(round(spec.sample_rate / spec.f_min))


def noise_record(spec: OneOverFSpec) -> np.ndarray:
    """One long unit-RMS noise record; lowest resolved bin is f_min."""
    n = _record_length(spec)
    rng = np.random.Generator(np.random.Philox(key=np.array([spec.seed, 0], dtype=np.uint64)))
    freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate)
    weights = np.zeros_like(freqs)
    weights[1:] = freqs[1:] ** (-0.5 * spec.exponent)
    coefs = weights * (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs)))
    record = np.fft.irfft(coefs, n=n)
    return record / record.std()


def gen_one_over_f(spec: OneOverFSpec, segments: int, segment_len: int) -> np.ndarray:
    """Detuning realizations delta(t) in rad/s, shape (segments, segment_len)."""
    record = noise_record(spec)
    need = segments * segment_len
    if need > len(record):
        raise ValueError(
            f"{segments} x {segment_len} samples exceed the {len(record)}-sample "
            "record; lower f_min or the segment budget")
    sliced = record[:need].reshape(segments, segment_len)
    return spec.amplitude * sliced


def periodogram_exponent(spec: OneOverFSpec) -> float:
    """Fitted log-log slope of the record's periodogram, sign-flipped."""
    record = noise_record(spec)
    spectrum = np.abs(np.fft.rfft(record)) ** 2
    freqs = np.fft.rfftfreq(len(record), d=1.0 / spec.sample_rate)
    # stay an order of magnitude inside the resolved band at both ends
    lo, hi = 10.0 * spec.f_min, 0.1 * freqs[-1]
    keep = (freqs >= lo) & (freqs <= hi)
    # average the scatter down in log-spaced bins before fitting
    logf = np.log10(freqs[keep])
    logp = np.log10(spectrum[keep])
    bins = np.linspace(logf.min(), logf.max(), 30)
    idx = np.digitize(logf, bins)
    xs, ys = [], []
    for b in range(1, len(bins) + 1):
        sel = idx == b
        if np.any(sel):
            xs.append(logf[sel].mean())
            ys.append(logp[sel].mean())
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)


def _phase_segments(spec: OneOverFSpec, segments: int, segment_len: int) -> np.ndarray:
    """Cumulative phase integral of each realization, rad, same shape + 1."""
    delta = gen_one_over_f(spec, segments, segment_len)
    dt = 1.0 / spec.sample_rate
    phases = np.zeros((segments, segment_len + 1))
    np.cumsum(delta * dt, axis=1, out=phases[:, 1:])
    return phases


def ramsey_envelope(spec: OneOverFSpec, delays, realizations: int = 800):
    """<cos(accumulated phase)> for each delay."""
    delays = np.asarray(delays, dtype=float)
    dt = 1.0 / spec.sample_rate
    steps = np.rint(delays / dt).astype(int)
    phases = _phase_segments(spec, realizations, int(steps.max()))
    return np.cos(phases[:, steps]).mean(axis=0)


def echo_envelope(spec: OneOverFSpec, delays, realizations: int = 800):
    """Same with a refocusing flip at the midpoint of every delay."""
    delays = np.asarray(delays, dtype=float)
    dt = 1.0 / spec.sample_rate
    steps = np.rint(delays / dt).astype(int)
    half = steps // 2
    phases = _phase_segments(spec, realizations, int(steps.max()))
    echo = 2.0 * phases[:, half] - phases[:, steps]
    return np.cos(echo).mean(axis=0)


def fit_gaussian_decay(delays, envelope):
    """(1/e time, R^2) of a Gaussian fit over the span where S > 1/e."""
    delays = np.asarray(delays, dtype=float)
    envelope = np.asarray(envelope, dtype=float)
    keep = (envelope > math.exp(-1.0)) & (delays > 0.0)
    if keep.sum() < 3:
        raise ValueError("envelope decays too fast for the delay grid")
    x = delays[keep] ** 2
    y = np.log(envelope[keep])
    slope, intercept = np.polyfit(x, y, 1)
    if slope >= 0.0:
        raise ValueError("envelope does not decay over the fitted span")
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(np.sum(resid ** 2)) / float(np.sum((y - y.mean()) ** 2))
    return float(1.0 / math.sqrt(-slope)), r2


def calibrate_dephasing(t2_target: float = DEFAULT_T2_STAR,
                        f_min: float = DEFAULT_F_MIN,
                        sample_rate: float = DEFAULT_SAMPLE_RATE,
                        seed: int = 0,
                        realizations: int = 800) -> OneOverFSpec:
    """Scale the noise amplitude until the Ramsey 1/e time hits t2_target.

    Accumulated phase is linear in the amplitude, so one measured 1/e time
    fixes the scale; a confirmation pass is run at the rescaled amplitude.
    """
    delays = np.linspace(0.0, 2.5 * t2_target, 41)[1:]
    probe = OneOverFSpec(amplitude=1.0 / t2_target, f_min=f_min,
                         sample_rate=sample_rate, seed=seed)
    t2_probe, _ = fit_gaussian_decay(delays, ramsey_envelope(probe, delays, realizations))
    amplitude = probe.amplitude * t2_probe / t2_target
    spec = OneOverFSpec(amplitude=amplitude, f_min=f_min, sample_rate=sample_rate,
                        seed=seed, calibrated_t2=t2_target)
    t2_check, r2 = fit_gaussian_decay(delays, ramsey_envelope(spec, delays, realizations))
    if abs(t2_check - t2_target) > 0.1 * t2_target or r2 < 0.99:
        raise RuntimeError(
            f"dephasing calibration failed: 1/e time {t2_check:.3e} s vs target "
            f"{t2_target:.3e} s (R^2 = {r2:.4f})")
    return spec


def _dephased_vectors(steps, noise: OneOverFSpec, realizations: int):
    """Photon-register vector of every noise realization."""
    if noise.calibrated_t2 is None:
        raise ValueError("noise amplitude is uncalibrated; run calibrate_dephasing first")
    steps = list(steps)
    dt = 1.0 / noise.sample_rate
    bounds = np.rint(np.cumsum([0.0] + [s.duration for s in steps]) / dt).astype(int)
    phases = _phase_segments(noise, realizations, int(bounds[-1]))
    psi = protocol._run(steps, np.diff(phases[:, bounds], axis=1))
    return protocol._photon_rows(psi)


def dephased_protocol_run(steps, noise: OneOverFSpec,
                          realizations: int = 2000) -> protocol.DensityMatrix:
    """Realization-averaged state of a schedule under emitter dephasing."""
    vectors = _dephased_vectors(steps, noise, realizations)
    rho = (vectors.conj().T @ vectors) / realizations
    rho = 0.5 * (rho + rho.conj().T)
    return protocol.DensityMatrix(rho)


def amplitude_damping_kraus(loss: float):
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - loss)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(loss)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def depolarizing_kraus(p: float, n_photons: int):
    """Pauli-twirl Kraus set of the register-wide depolarizer."""
    dim4 = 4 ** n_photons
    ops = []
    labels = ["I", "X", "Y", "Z"]
    for code in range(dim4):
        label = ""
        c = code
        for _ in range(n_photons):
            label = labels[c % 4] + label
            c //= 4
        weight = p / dim4 + (1.0 - p if code == 0 else 0.0)
        ops.append(math.sqrt(weight) * qops.pauli_string(label))
    return ops


def apply_kraus_single(rho: np.ndarray, kraus, photon: int, n_photons: int) -> np.ndarray:
    """Apply a single-qubit Kraus channel to one photon of the register."""
    out = np.zeros_like(rho)
    for k in kraus:
        ops = [np.eye(2, dtype=complex)] * n_photons
        ops[photon - 1] = k
        full = qops.kron_all(ops)
        out += full @ rho @ full.conj().T
    return out


def apply_channels(rho, stack: ChannelStack, fed_back_photons=(),
                   cz_gates: int | None = None) -> protocol.DensityMatrix:
    """Loss on fed-back photons, then the lumped control depolarizer.

    cz_gates defaults to one gate per fed-back photon listed.
    """
    mat = protocol.coerce_state(rho)
    if mat.ndim == 1:
        mat = np.outer(mat, mat.conj())
    n = protocol._photon_count(mat.shape[0])
    fed = sorted(set(fed_back_photons))
    for photon in fed:
        if not 1 <= photon <= n:
            raise ValueError(f"fed-back photon {photon} outside 1..{n}")
        mat = apply_kraus_single(mat, amplitude_damping_kraus(stack.loss), photon, n)
    if cz_gates is None:
        cz_gates = len(fed)
    p = stack.thermal_pop + stack.residual_f + stack.cz_depol * cz_gates
    if p > 0.0:
        mat = (1.0 - p) * mat + p * np.eye(mat.shape[0], dtype=complex) / mat.shape[0]
    return protocol.DensityMatrix(0.5 * (mat + mat.conj().T))


def confuse_readout(outcomes, confusion, seed: int = 0) -> np.ndarray:
    """Flip +-1 single-shot qubit labels with the confusion probabilities."""
    c = np.asarray(confusion, dtype=float)
    outcomes = np.asarray(outcomes)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    draws = rng.random(outcomes.shape)
    flip_plus = draws < (1.0 - c[0, 0])
    flip_minus = draws < (1.0 - c[1, 1])
    flipped = np.where(outcomes > 0, np.where(flip_plus, -1, 1), np.where(flip_minus, 1, -1))
    return flipped


def correct_readout(conditioned, confusion) -> np.ndarray:
    """Invert the confusion matrix on stacked conditional moments.

    conditioned rows are (p(+1) <m>|+1, p(-1) <m>|-1) as produced by the
    erroneous assignment; any number of moment columns is allowed.
    """
    c = np.asarray(confusion, dtype=float)
    if abs(np.linalg.det(c)) < 1e-12:
        raise ValueError("confusion matrix is singular")
    return np.linalg.solve(c, np.asarray(conditioned))


def loss_only_fidelity(loss: float) -> float:
    """Closed form for damping one feedback photon of the ideal 2D cluster."""
    return (1.0 + math.sqrt(1.0 - loss)) ** 2 / 4.0


def error_budget(name: str = "cluster4_2d",
                 noise: OneOverFSpec | None = None,
                 stack: ChannelStack | None = None,
                 realizations: int = 2000,
                 seed: int = 0) -> dict:
    """Compose dephasing -> loss -> control and report the budget.

    Infidelities are incremental in that order (each is the fidelity drop
    when its channel joins the stack); standalone single-channel numbers
    are reported alongside.
    """
    if noise is None:
        noise = calibrate_dephasing(seed=seed)
    if stack is None:
        stack = ChannelStack()
    steps = protocol.published_circuit(name)
    fed = sorted({s.photon for s in steps if s.kind == "cz_feedback"})
    gates = sum(1 for s in steps if s.kind == "cz_feedback")
    target = protocol.target_state(name).photons()

    vectors = _dephased_vectors(steps, noise, realizations)
    overlaps = np.abs(vectors @ target.conj()) ** 2
    rho_deph = protocol.DensityMatrix((vectors.conj().T @ vectors) / realizations)
    f_deph = float(overlaps.mean())
    se = float(overlaps.std(ddof=1) / math.sqrt(realizations))

    loss_stack = replace(stack, thermal_pop=0.0, residual_f=0.0, cz_depol=0.0)
    rho_loss = apply_channels(rho_deph, loss_stack, fed, cz_gates=gates)
    f_loss = float(np.real(target.conj() @ rho_loss.matrix @ target))
    rho_all = apply_channels(rho_deph, stack, fed, cz_gates=gates)
    f_all = float(np.real(target.conj() @ rho_all.matrix @ target))

    ideal = protocol.target_state(name).photon_density()
    standalone_loss = float(np.real(
        target.conj() @ apply_channels(ideal, loss_stack, fed, cz_gates=gates).matrix @ target))
    no_loss = replace(stack, loss=0.0)
    standalone_ctrl = float(np.real(
        target.conj() @ apply_channels(ideal, no_loss, fed, cz_gates=gates).matrix @ target))

    return {
        "state": name,
        "seed": seed,
        "realizations": realizations,
        "t2_star_s": noise.calibrated_t2,
        "monte_carlo_se": se,
        "dephasing_infidelity": 1.0 - f_deph,
        "loss_infidelity": f_deph - f_loss,
        "control_infidelity": f_loss - f_all,
        "combined_fidelity": f_all,
        "standalone": {
            "dephasing": 1.0 - f_deph,
            "loss": 1.0 - standalone_loss,
            "control": 1.0 - standalone_ctrl,
        },
        "channels": {
            "loss": stack.loss,
            "thermal_pop": stack.thermal_pop,
            "residual_f": stack.residual_f,
            "cz_depol": stack.cz_depol,
            "cz_gates": gates,
            "fed_back_photons": fed,
        },
    }


def budget_json(budget: dict) -> str:
    return json.dumps(budget, sort_keys=True, indent=2)
