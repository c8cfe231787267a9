"""Error channels: 1/f emitter dephasing averaged exactly, photon loss,
control errors, readout assignment error, and the composed infidelity budget.

Dephasing model: the emitter detuning delta(t) is a stationary Gaussian
process with a 1/f power spectrum on [f_min, f_max] and RMS `amplitude`.
Everything follows from one closed form, the phase structure function
D(tau): the variance of the phase that a unit-RMS detuning builds up over a
window tau.  The Ramsey envelope is exp(-amplitude^2 D(t) / 2), the echo
envelope exp(-amplitude^2 (4 D(t/2) - D(t)) / 2), and calibration to a 1/e
time T2* sets amplitude = sqrt(2 / D(T2*)).

During a schedule the |e> level accumulates the integrated detuning as phase
and |f> twice that (number-operator coupling); the noise is far slower than
any pulse, so the phase is taken per step window rather than through pulse
shapes.  The schedule interpreter in protocol splits a run into emitter-level
histories, each one amplitude A_h on one column, and history h picks up the
phase L_h . k, where L_h holds its level (0, 1, 2) after each step and k the
phase increments over the step windows.  k is Gaussian with covariance K
from D, so the averaged state is exact (Cywinski et al., PRB 77, 174509
(2008)): rho = sum_pq A_p A_q* exp(-(L_p - L_q)^T K (L_p - L_q) / 2) on the
columns of p and q.  Nothing is sampled, so the state and the budget do not
depend on a seed.

Channels on the photon register (loss on fed-back bins, the lumped control
depolarizer) are exact Kraus maps.  The budget composes everything in the
order dephasing -> loss -> control and reports incremental infidelities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import protocol
from . import qops

DEFAULT_T2_STAR = 561e-9
DEFAULT_F_MIN = 50.0
DEFAULT_F_MAX = 1e8

# probability that a qubit readout assigns the outcome it was prepared in
READOUT_FIDELITY = 0.976

# the pair form of the exact average is quadratic in the history count; the
# published circuits have at most 32 histories
_MAX_HISTORIES = 1024
# cancelling histories leave roundoff of order 1e-16 outside |g>;
# DensityMatrix would refuse the |g> block's trace at 1e-10
_STRAY_WEIGHT = 1e-12


@dataclass(frozen=True)
class OneOverFSpec:
    """Dephasing noise source: a 1/f detuning on [f_min, f_max] Hz whose RMS
    is `amplitude` rad/s."""

    amplitude: float
    f_min: float = DEFAULT_F_MIN
    f_max: float = DEFAULT_F_MAX
    calibrated_t2: float | None = None

    def __post_init__(self):
        # NaN fails no comparison below, so finiteness is checked first
        for label in ("amplitude", "f_min", "f_max"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"noise.{label} must be finite, got {value!r}")
        if self.f_min <= 0.0 or self.f_min > 50.0:
            raise ValueError("noise.f_min must lie in (0, 50] Hz")
        if self.f_max <= self.f_min:
            raise ValueError("noise.f_max must exceed noise.f_min")
        if self.amplitude < 0.0:
            raise ValueError("noise.amplitude must be non-negative")
        t2 = self.calibrated_t2
        if t2 is not None and not (math.isfinite(t2) and t2 > 0.0):
            raise ValueError(f"noise.calibrated_t2 must be None or finite and positive, got {t2!r}")


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


def phase_structure(tau, f_min: float = DEFAULT_F_MIN,
                    f_max: float = DEFAULT_F_MAX) -> np.ndarray:
    """D(tau) in s^2: the variance of the phase a unit-RMS 1/f detuning on
    [f_min, f_max] builds up over a window tau >= 0.

    The one-sided spectrum 1 / (f ln(f_max / f_min)) gives
    D(tau) = tau^2 [F(pi f_max tau) - F(pi f_min tau)] / ln(f_max / f_min)
    with F(x) = Ci(2x) - sin^2(x) / (2x^2) - sin(2x) / (2x), whose
    derivative is sin^2(x) / x^3; D(0) = 0.  The band must be finite with
    0 < f_min < f_max.
    """
    from scipy.special import sici

    # NaN fails every comparison, so finiteness is checked first
    for label, value in (("f_min", f_min), ("f_max", f_max)):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")
    if not 0.0 < f_min < f_max:
        raise ValueError(f"the band needs 0 < f_min < f_max, got f_min={f_min!r} "
                         f"and f_max={f_max!r}")
    tau = qops.require_finite(np.asarray(tau, dtype=float), "tau")
    if np.any(tau < 0.0):
        raise ValueError("delays must be non-negative")
    out = np.zeros(tau.shape)
    pos = tau > 0.0
    t = tau[pos]

    def big_f(x):
        s = np.sin(x)
        return sici(2.0 * x)[1] - s * s / (2.0 * x * x) - np.sin(2.0 * x) / (2.0 * x)

    out[pos] = t * t * (big_f(math.pi * f_max * t) - big_f(math.pi * f_min * t)) \
        / math.log(f_max / f_min)
    return out


def ramsey_envelope(spec: OneOverFSpec, delays) -> np.ndarray:
    """<cos(accumulated phase)> for each delay."""
    return np.exp(-0.5 * spec.amplitude ** 2 * phase_structure(delays, spec.f_min, spec.f_max))


def echo_envelope(spec: OneOverFSpec, delays) -> np.ndarray:
    """Same with a refocusing flip at the midpoint of every delay."""
    delays = np.asarray(delays, dtype=float)
    var = 4.0 * phase_structure(0.5 * delays, spec.f_min, spec.f_max) \
        - phase_structure(delays, spec.f_min, spec.f_max)
    return np.exp(-0.5 * spec.amplitude ** 2 * var)


def calibrate_dephasing(t2_target: float = DEFAULT_T2_STAR,
                        seed: int = 0) -> OneOverFSpec:
    """The noise on the default band [DEFAULT_F_MIN, DEFAULT_F_MAX] whose
    Ramsey envelope falls to 1/e at t2_target.

    amplitude = sqrt(2 / D(t2_target)).  seed is accepted and unused: the
    calibration is exact and draws nothing.
    """
    if not (math.isfinite(t2_target) and t2_target > 0.0):
        raise ValueError(f"t2_target must be positive and finite, got {t2_target!r}")
    amplitude = math.sqrt(2.0 / float(phase_structure(t2_target)))
    return OneOverFSpec(amplitude=amplitude, calibrated_t2=t2_target)


def _step_covariance(steps, noise: OneOverFSpec) -> np.ndarray:
    """Covariance K of the phase increments over the step windows, rad^2.

    The windows run back to back from the exact cumulative durations t.
    With Cov(phi(a), phi(b)) = (D(a) + D(b) - D(|a - b|)) / 2, the D(a) and
    D(b) terms drop out of the double difference, so K is -amplitude^2 / 2
    times the double difference of D(|t_i - t_j|).
    """
    t = np.concatenate([[0.0], np.cumsum([s.duration for s in steps])])
    gaps = phase_structure(np.abs(t[:, None] - t[None, :]), noise.f_min, noise.f_max)
    return -0.5 * noise.amplitude ** 2 * np.diff(np.diff(gaps, axis=0), axis=1)


def dephased_protocol_run(steps, noise: OneOverFSpec,
                          realizations: int | None = None) -> protocol.DensityMatrix:
    """Noise-averaged state of a schedule under emitter dephasing.

    realizations is accepted and unused: the average is exact.
    """
    if noise.calibrated_t2 is None:
        raise ValueError("noise amplitude is uncalibrated; run calibrate_dephasing first")
    steps = list(steps)
    levels, columns, amplitudes, n = protocol._histories(steps)
    count = len(amplitudes)
    if count > _MAX_HISTORIES:
        raise ValueError(f"schedule has {count} emitter-level histories; the exact "
                         f"dephasing average takes at most {_MAX_HISTORIES}")
    # (L_p - L_q)^T K (L_p - L_q) = m_pp + m_qq - 2 m_pq with m = L K L^T,
    # so no histories x histories x steps array is formed
    lv = levels.astype(float)
    m = lv @ _step_covariance(steps, noise) @ lv.T
    d = np.diag(m)
    pairs = np.outer(amplitudes, amplitudes.conj()) \
        * np.exp(-0.5 * (d[:, None] + d[None, :] - 2.0 * m))
    onto = np.zeros((3 * 2 ** n, count))
    onto[columns, np.arange(count)] = 1.0
    rho = onto @ pairs @ onto.T
    g = 2 ** n
    stray = float(np.real(np.trace(rho[g:, g:])))
    if stray > _STRAY_WEIGHT:
        raise ValueError(
            f"emitter left with {stray:.3e} weight outside |g>; "
            "the schedule is missing its disentangling pulses")
    rho = rho[:g, :g]
    return protocol.DensityMatrix(0.5 * (rho + rho.conj().T))


def _loss_fraction(loss) -> float:
    """loss as a float; a ValueError if it is not finite or outside [0, 1]."""
    loss = float(qops.require_finite(loss, "loss"))
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss must lie in [0, 1], got {loss}")
    return loss


def amplitude_damping_kraus(loss: float):
    loss = _loss_fraction(loss)
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

    cz_gates defaults to one gate per fed-back photon listed; it must be a
    whole number >= 0 that keeps the depolarizing weight within 1.
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
    elif not (isinstance(cz_gates, (int, np.integer)) and cz_gates >= 0):
        raise ValueError(f"cz_gates must be a finite, non-negative whole number, got {cz_gates!r}")
    p = stack.thermal_pop + stack.residual_f + stack.cz_depol * cz_gates
    if p > 1.0:
        raise ValueError(f"depolarizing weight thermal_pop + residual_f + cz_depol * "
                         f"cz_gates = {p:.6g} exceeds 1")
    if p > 0.0:
        mat = (1.0 - p) * mat + p * np.eye(mat.shape[0], dtype=complex) / mat.shape[0]
    return protocol.DensityMatrix(0.5 * (mat + mat.conj().T))


def _readout_fidelity(fidelity) -> float:
    """fidelity as a float; ValueError unless it is a finite assignment
    fidelity in (0.5, 1]."""
    fidelity = float(fidelity)
    # NaN fails the comparison, so this also refuses a non-finite value
    if not 0.5 < fidelity <= 1.0:
        raise ValueError(f"readout fidelity must lie in (0.5, 1], got {fidelity!r}")
    return fidelity


def confuse_readout(outcomes, fidelity: float, seed: int = 0) -> np.ndarray:
    """Flip each +-1 single-shot qubit outcome with probability 1 - fidelity.

    This is the shot-level form of the 2F - 1 factor by which
    tomography.PrepModel shrinks every correlator with a nontrivial Pauli.
    Raises ValueError if fidelity is not finite or outside (0.5, 1], or if
    an outcome is not +-1.
    """
    fidelity = _readout_fidelity(fidelity)
    outcomes = np.asarray(outcomes)
    if not np.all(np.abs(outcomes) == 1):
        raise ValueError("readout outcomes must be +1 or -1")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    return np.where(rng.random(outcomes.shape) < 1.0 - fidelity, -outcomes, outcomes)


def loss_only_fidelity(loss: float) -> float:
    """Closed form for damping one feedback photon of the ideal 2D cluster."""
    return (1.0 + math.sqrt(1.0 - _loss_fraction(loss))) ** 2 / 4.0


def error_budget(name: str = "cluster4_2d",
                 noise: OneOverFSpec | None = None,
                 stack: ChannelStack | None = None,
                 realizations: int | None = None,
                 seed: int = 0) -> dict:
    """Compose dephasing -> loss -> control and report the budget.

    Infidelities are incremental in that order (each is the fidelity drop
    when its channel joins the stack); standalone single-channel numbers
    are reported alongside.  The dephased state is the exact noise average,
    so realizations and seed are accepted and unused, "realizations" reads 0
    and "monte_carlo_se" 0.0.
    """
    if noise is None:
        noise = calibrate_dephasing()
    if stack is None:
        stack = ChannelStack()
    steps = protocol.published_circuit(name)
    fed = sorted({s.photon for s in steps if s.kind == "cz_feedback"})
    gates = sum(1 for s in steps if s.kind == "cz_feedback")
    target = protocol._target_photons(steps)

    rho_deph = dephased_protocol_run(steps, noise)
    f_deph = float(np.real(target.conj() @ rho_deph.matrix @ target))

    def fidelity_after(rho, channels):
        out = apply_channels(rho, channels, fed, cz_gates=gates).matrix
        return float(np.real(target.conj() @ out @ target))

    loss_stack = replace(stack, thermal_pop=0.0, residual_f=0.0, cz_depol=0.0)
    f_loss = fidelity_after(rho_deph, loss_stack)
    f_all = fidelity_after(rho_deph, stack)
    ideal = protocol.DensityMatrix.from_pure(target)
    standalone_loss = fidelity_after(ideal, loss_stack)
    standalone_ctrl = fidelity_after(ideal, replace(stack, loss=0.0))

    return {
        "state": name,
        "realizations": 0,
        "t2_star_s": noise.calibrated_t2,
        "monte_carlo_se": 0.0,
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
