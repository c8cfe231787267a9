"""Error channels: 1/f dephasing Monte Carlo, photon loss, control errors,
readout confusion, and the composed infidelity budget.

Dephasing model: the emitter frequency wanders with a 1/f spectrum.  One
long record is synthesised by inverse FFT of a conjugate-symmetric spectrum
whose bin amplitudes fall as f^(-exponent/2), and Monte Carlo realizations
are consecutive slices of that record.  The record has unit RMS and the
amplitude scales each slice, so the record depends only on (f_min,
sample_rate, exponent, seed).  The process keeps one such record, cached and
read-only (32 MB at the default 4,000,000 samples): calibration, protocol
runs and budgets of one seed all read it, and it is synthesised once.

During a schedule the |e> level accumulates the integrated detuning as phase
and |f> accumulates twice that (number-operator coupling); the noise is far
slower than any pulse, so phases are applied per step window rather than
integrated through pulse shapes.  Each realization's phase per step window
is handed to the schedule interpreter in protocol.  That interpreter runs
the schedule once, as emitter-level histories (one per sequence of levels
g/e/f, each a single amplitude on one photon column); a realization is the
sum of those amplitudes, each turned by the phase its level sequence picks
up from the realization's kicks.

Channels on the photon register (loss on fed-back bins, the lumped control
depolarizer) are exact Kraus maps.  The budget composes everything in the
order dephasing -> loss -> control and reports incremental infidelities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

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
        # NaN fails no comparison below, so finiteness is checked first
        for label in ("amplitude", "f_min", "sample_rate", "exponent"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"noise.{label} must be finite, got {value!r}")
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

    def __post_init__(self):
        for label in ("loss", "thermal_pop", "residual_f", "cz_depol"):
            value = getattr(self, label)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"channels.{label} must lie in [0, 1)")


@lru_cache(maxsize=1)
def _unit_record(f_min: float, sample_rate: float, exponent: float,
                 seed: int) -> np.ndarray:
    n = int(round(sample_rate / f_min))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    weights = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    # the DC bin keeps its zero frequency as its weight: the record has zero mean
    weights[1:] **= -0.5 * exponent
    coefs = np.empty(len(weights), dtype=complex)
    coefs.real = rng.standard_normal(len(weights))
    coefs.imag = rng.standard_normal(len(weights))
    coefs *= weights
    del weights
    record = np.fft.irfft(coefs, n=n)
    del coefs
    record /= record.std()
    record.flags.writeable = False
    return record


def noise_record(spec: OneOverFSpec) -> np.ndarray:
    """One long unit-RMS noise record; lowest resolved bin is f_min.

    The record ignores spec.amplitude.  The most recent one is cached for the
    life of the process (8 bytes a sample, 32 MB at the defaults) and shared
    by every caller, so the returned array is read-only.
    """
    return _unit_record(spec.f_min, spec.sample_rate, spec.exponent, spec.seed)


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
    if segments < 1:
        raise ValueError(f"realizations must be at least 1, got {segments}")
    delta = gen_one_over_f(spec, segments, segment_len)
    dt = 1.0 / spec.sample_rate
    phases = np.zeros((segments, segment_len + 1))
    np.cumsum(delta * dt, axis=1, out=phases[:, 1:])
    return phases


def _delay_steps(spec: OneOverFSpec, delays) -> np.ndarray:
    """Sample index of each delay; a negative one would index from the end."""
    delays = np.asarray(delays, dtype=float)
    if np.any(delays < 0.0):
        raise ValueError("delays must be non-negative")
    dt = 1.0 / spec.sample_rate
    return np.rint(delays / dt).astype(int)


def ramsey_envelope(spec: OneOverFSpec, delays, realizations: int = 800):
    """<cos(accumulated phase)> for each delay."""
    steps = _delay_steps(spec, delays)
    phases = _phase_segments(spec, realizations, int(steps.max()))
    return np.cos(phases[:, steps]).mean(axis=0)


def echo_envelope(spec: OneOverFSpec, delays, realizations: int = 800):
    """Same with a refocusing flip at the midpoint of every delay."""
    steps = _delay_steps(spec, delays)
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
    for code, label in enumerate(itertools.product("IXYZ", repeat=n_photons)):
        weight = p / dim4 + (1.0 - p if code == 0 else 0.0)
        ops.append(math.sqrt(weight) * qops.pauli_string("".join(label)))
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
    mat = protocol._state_matrix(rho)
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


def _confusion_matrix(confusion) -> np.ndarray:
    """confusion as a float array; ValueError unless every entry is in [0, 1]."""
    c = np.asarray(confusion, dtype=float)
    # NaN fails both comparisons, so this also refuses a non-finite entry
    if not np.all((c >= 0.0) & (c <= 1.0)):
        raise ValueError(f"confusion must hold probabilities in [0, 1], got {c.tolist()}")
    return c


def confuse_readout(outcomes, confusion, seed: int = 0) -> np.ndarray:
    """Flip +-1 single-shot qubit labels with the confusion probabilities.

    Raises ValueError if an entry of the confusion matrix is NaN, infinite or
    outside [0, 1].
    """
    c = _confusion_matrix(confusion)
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
    erroneous assignment; any number of moment columns is allowed.  Raises
    ValueError if the confusion matrix is singular or has an entry that is
    NaN, infinite or outside [0, 1].
    """
    c = _confusion_matrix(confusion)
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
    if realizations < 2:
        raise ValueError(f"error_budget needs at least 2 realizations for its "
                         f"Monte Carlo standard error, got {realizations}")
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

    def fidelity_after(rho, channels):
        out = apply_channels(rho, channels, fed, cz_gates=gates).matrix
        return float(np.real(target.conj() @ out @ target))

    loss_stack = replace(stack, thermal_pop=0.0, residual_f=0.0, cz_depol=0.0)
    f_loss = fidelity_after(rho_deph, loss_stack)
    f_all = fidelity_after(rho_deph, stack)
    ideal = protocol.target_state(name).photon_density()
    standalone_loss = fidelity_after(ideal, loss_stack)
    standalone_ctrl = fidelity_after(ideal, replace(stack, loss=0.0))

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
