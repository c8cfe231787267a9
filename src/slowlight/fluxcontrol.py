"""Flux-modulated transmon control: tuning curves, modulation sidebands,
pulse envelopes and the amplitude tables that turn a sideband envelope into
flux tracks.

The emitter is parked at a static bias and a fast sinusoidal flux tone
converts its transition into a comb of sidebands; the first lower sideband
carries the engineered emission.  Everything here is classical waveform
arithmetic; the quantum propagation lives in `dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# scipy.optimize is imported inside _solve_dc, its one user: at module level
# it costs about a second on every import of the layer
from scipy.special import erf

TWO_PI = 2.0 * np.pi
# flux samples over one modulation cycle in the cycle-mean frequency
_CYCLE_SAMPLES = 512


@dataclass(frozen=True)
class TransmonSpec:
    """Flux-tunable transmon summary used by the control layer.

    omega_ge_max : top-sweet-spot g-e transition (rad/s)
    eta          : anharmonicity omega_ef - omega_ge (rad/s, negative)
    asymmetry    : SQUID junction asymmetry d in [0, 1); 0 = symmetric
    """

    omega_ge_max: float
    eta: float
    asymmetry: float = 0.0

    def __post_init__(self):
        # NaN fails no comparison below, so finiteness is checked first
        for label in ("omega_ge_max", "eta", "asymmetry"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"transmon.{label} must be finite, got {value!r}")
        if self.eta >= 0.0:
            raise ValueError("transmon.eta must be negative")
        if not 0.0 <= self.asymmetry < 1.0:
            raise ValueError("transmon.asymmetry must lie in [0, 1)")

    @classmethod
    def from_hz(cls, f_ge_max_hz, eta_hz, f_ge_min_hz=None):
        """Build from Hz inputs; asymmetry fit from f_ge_min when given."""
        w_max = TWO_PI * f_ge_max_hz
        eta = TWO_PI * eta_hz
        asymmetry = 0.0
        if f_ge_min_hz is not None:
            w_min = TWO_PI * f_ge_min_hz
            if w_min >= w_max:
                raise ValueError("transmon.f_ge_min must be below f_ge_max")
            asymmetry = ((w_min - eta) / (w_max - eta)) ** 2
        return cls(omega_ge_max=w_max, eta=eta, asymmetry=asymmetry)

    @classmethod
    def emitter(cls):
        """The emission qubit: 6.21 GHz sweet spot, -273 MHz anharmonicity."""
        return cls.from_hz(6.21e9, -273e6)

    def omega_ge(self, phi):
        """g-e transition vs flux (in flux quanta), standard asymmetric form."""
        phi = np.asarray(phi, dtype=float)
        d2 = self.asymmetry ** 2
        mod = (d2 + (1.0 - d2) * np.cos(np.pi * phi) ** 2) ** 0.25
        return (self.omega_ge_max - self.eta) * mod + self.eta

    def omega_ef(self, phi):
        return self.omega_ge(phi) + self.eta


@dataclass(frozen=True)
class FluxTone:
    """Constant-amplitude modulation tone Phi(t) = Phi_B + Phi_DC + Phi_AC sin(w t)."""

    phi_bias: float
    phi_ac: float
    omega_mod: float
    phi_dc: float = 0.0

    def __post_init__(self):
        # NaN fails no comparison below, so finiteness is checked first
        for label in ("phi_bias", "phi_ac", "omega_mod", "phi_dc"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"flux.{label} must be finite, got {value!r}")
        if self.phi_ac < 0.0:
            raise ValueError("flux.phi_ac must be non-negative")
        if self.omega_mod <= 0.0:
            raise ValueError("flux.omega_mod must be positive")


@dataclass(frozen=True)
class SidebandSpectrum:
    """Fourier content of the modulated transition phase factor.

    amplitudes[i] is xi_s for s = orders[i]; the spectral line sits at
    (mean transition frequency) - s * omega_mod, so s = +1 is the first
    lower sideband used for emission.
    """

    orders: np.ndarray
    amplitudes: np.ndarray
    dc_shift: float

    @property
    def emission_amplitude(self) -> complex:
        """xi of the s = +1 lower sideband."""
        return complex(self.amplitudes[np.nonzero(self.orders == 1)[0][0]])

    def amplitude(self, s: int) -> complex:
        idx = np.nonzero(self.orders == s)[0]
        if len(idx) == 0:
            raise ValueError(f"sideband order {s} not resolved")
        return complex(self.amplitudes[idx[0]])


def sideband_spectrum(spec, tone: FluxTone, samples_per_period=64) -> SidebandSpectrum:
    """Decompose exp(-i phase(t)) of the modulated transition into sidebands.

    `spec` is a TransmonSpec, whose e-f transition is modulated, or a bare
    callable flux -> angular frequency.
    The drive is sampled over one modulation period.  With the mean frequency
    removed the phase factor is exactly periodic, so its one-period DFT holds
    every sideband (a longer record would only repeat it), and the sideband
    weights absorb all spectral energy and sum to one to machine precision.
    """
    if samples_per_period < 8:
        raise ValueError("need >= 8 samples per period")
    curve = spec if callable(spec) else spec.omega_ef
    dt = TWO_PI / tone.omega_mod / samples_per_period
    t = np.arange(samples_per_period + 1) * dt
    # integrate relative to the static point to keep the phase small
    w_ref = float(curve(tone.phi_bias + tone.phi_dc))
    phi_t = tone.phi_bias + tone.phi_dc + tone.phi_ac * np.sin(tone.omega_mod * t)
    w = np.asarray(curve(phi_t), dtype=float) - w_ref
    inc = 0.5 * dt * (w[:-1] + w[1:])
    phase = np.concatenate(([0.0], np.cumsum(inc)))
    w_mean = w_ref + phase[-1] / t[-1]
    v = np.exp(-1j * (phase[:-1] - (w_mean - w_ref) * t[:-1]))
    spect = np.fft.fft(v) / samples_per_period
    orders = np.arange(-(samples_per_period // 2), samples_per_period // 2)
    amps = spect[orders % samples_per_period]
    return SidebandSpectrum(orders=orders, amplitudes=amps,
                            dc_shift=w_mean - float(curve(tone.phi_bias)))


def _cycle_mean(curve, phi_bias, phi_dc, phi_ac):
    """Mean transition frequency over one modulation cycle (vectorized)."""
    theta = (np.arange(_CYCLE_SAMPLES) + 0.5) * (TWO_PI / _CYCLE_SAMPLES)
    phi = (np.asarray(phi_bias) + np.asarray(phi_dc))[..., None] \
        + np.asarray(phi_ac)[..., None] * np.sin(theta)
    return np.asarray(curve(phi)).mean(axis=-1)


def _solve_dc(curve, phi_bias, amp, target, hint=0.0):
    """Root of (cycle mean - target) vs DC offset near `hint`, or None.

    Expands a search window around the hint until the shift changes sign;
    the modulation can pull the mean so far down that no offset restores
    it, in which case None is returned.
    """

    def fun(dc):
        return _cycle_mean(curve, phi_bias, dc, amp) - target

    for width in (0.005, 0.02, 0.08, 0.3, 0.7):
        grid = hint + np.linspace(-width, width, 17)
        vals = fun(grid)
        sgn = np.signbit(vals)
        flips = np.nonzero(sgn[:-1] != sgn[1:])[0]
        if len(flips):
            from scipy.optimize import brentq

            best = flips[np.argmin(np.abs(grid[flips] - hint))]
            return brentq(fun, grid[best], grid[best + 1], xtol=1e-12)
    return None


def erf_envelope(t_r: float, delta: float, xi_max: float,
                 window: float, dt: float):
    """Smooth turn-on envelope xi(t) = xi_max * erf(t / t_r + delta)^2.

    Returns (t, xi) sampled on [0, window).  delta > 0 starts the envelope
    part-way up its rise, trading bandwidth for a faster turn-on.
    """
    # NaN fails no comparison below, so finiteness is checked first
    for label, value in (("t_r", t_r), ("delta", delta), ("xi_max", xi_max),
                         ("window", window), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"envelope {label} must be finite, got {value!r}")
    if t_r <= 0.0 or dt <= 0.0 or window <= dt:
        raise ValueError("envelope timing parameters must be positive")
    if delta < 0.0:
        raise ValueError("envelope delta must be non-negative")
    t = np.arange(0.0, window, dt)
    xi = xi_max * erf(t / t_r + delta) ** 2
    return t, xi


@dataclass(frozen=True)
class AmplitudeTable:
    """Monotone map from drive amplitude to emission-sideband weight.

    Tabulated on a fixed grid at one (bias, modulation frequency) working
    point, with the DC correction track computed per amplitude.  Frozen and
    read-only after construction, so it is safe to share across threads.
    """

    phi_ac: np.ndarray
    xi_abs: np.ndarray
    phi_dc: np.ndarray

    @property
    def xi_max(self) -> float:
        return float(self.xi_abs[-1])

    def amplitude_for(self, xi):
        xi = np.asarray(xi, dtype=float)
        if np.any(xi < 0.0):
            raise ValueError("sideband target must be non-negative")
        if np.any(xi > self.xi_max):
            raise ValueError(
                f"sideband target {float(np.max(xi)):.4f} exceeds the "
                f"attainable maximum {self.xi_max:.4f} at this working point")
        return np.interp(xi, self.xi_abs, self.phi_ac)

    def dc_for(self, xi):
        return np.interp(np.asarray(xi, dtype=float), self.xi_abs, self.phi_dc)


@lru_cache(maxsize=16)
def build_amplitude_table(spec: TransmonSpec, phi_bias: float,
                          omega_mod: float, points: int = 512) -> AmplitudeTable:
    """Tabulate |xi_+1| of the e-f transition vs Phi_AC with per-amplitude
    DC correction.

    Amplitudes rise along a fixed grid, each with its DC offset solved
    from the last one's.  The scan stops at the first amplitude whose DC
    correction cannot be solved or whose |xi_+1| falls below the one
    before, so the table ends at the first local maximum of |xi_+1| and no
    amplitude past the one that stopped it is solved.  Points equal to
    their predecessor are dropped, so the stored map is strictly monotone
    and invertible by linear interpolation.  A working point that is not
    finite raises ValueError naming it.
    """
    # a NaN bias fails every DC solve and would end the table at |xi| = 0
    for label, value in (("phi_bias", phi_bias), ("omega_mod", omega_mod)):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")
    curve = spec.omega_ef
    target = float(curve(phi_bias))
    cap = 0.5 - abs(phi_bias)
    amps = np.linspace(0.0, cap * 0.999, points)
    dcs = np.zeros_like(amps)
    xi = np.zeros_like(amps)
    hint = 0.0
    end = len(amps)
    for i in range(1, len(amps)):
        dc = _solve_dc(curve, phi_bias, amps[i], target, hint)
        if dc is None:
            end = i
            break
        dcs[i] = hint = dc
        tone = FluxTone(phi_bias, amps[i], omega_mod, dc)
        xi[i] = abs(sideband_spectrum(spec, tone).emission_amplitude)
        if xi[i] < xi[i - 1]:
            end = i
            break
    keep = np.concatenate(([True], np.diff(xi[:end]) > 0.0))
    return AmplitudeTable(phi_ac=amps[:end][keep], xi_abs=xi[:end][keep],
                          phi_dc=dcs[:end][keep])


@dataclass(frozen=True)
class FluxDrive:
    """Sampled two-track flux waveform: fast tone amplitude + slow offset."""

    t: np.ndarray
    phi_ac: np.ndarray
    phi_dc: np.ndarray


def drive_from_envelope(spec: TransmonSpec, phi_bias: float, omega_mod: float,
                        t: np.ndarray, xi_target: np.ndarray,
                        points: int = 512) -> FluxDrive:
    """Invert a target e-f sideband envelope, sampled at times t, into the
    two flux tracks.

    Raises when the envelope asks for more sideband weight than the working
    point can deliver; the message quotes the attainable maximum.  A sample
    or working point that is not finite, or a t whose shape is not
    xi_target's, raises ValueError naming it.
    """
    t = np.asarray(t, dtype=float)
    xi_target = np.asarray(xi_target, dtype=float)
    for label, samples in (("t", t), ("xi_target", xi_target)):
        if not np.isfinite(samples).all():
            raise ValueError(f"{label} is not finite: {np.count_nonzero(~np.isfinite(samples))} "
                             f"of {samples.size} samples are NaN or infinite")
    if t.shape != xi_target.shape:
        raise ValueError(f"t has shape {t.shape}, not xi_target's {xi_target.shape}")
    table = build_amplitude_table(spec, phi_bias, omega_mod, points)
    return FluxDrive(t=t, phi_ac=table.amplitude_for(xi_target),
                     phi_dc=table.dc_for(xi_target))
