"""Coupled-resonator slow-light waveguide: dispersion, delay and decay rates.

All frequencies are stored internally as angular frequencies (rad/s).
Arguments given in Hz carry an explicit ``_hz`` suffix, always meaning the
quantity divided by 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class WaveguideSpec:
    """Geometry and rates of the resonator chain, taper and output load.

    Parameters
    ----------
    n_cells : int
        Number of unit cells in the periodic section.
    hop_j : float
        Nearest-neighbour photon hopping rate J (rad/s), positive.
    center : float
        Passband center frequency omega_p (rad/s).
    taper_detuning1, taper_detuning2 : float
        On-site detunings of the two taper cells from omega_p (rad/s).
    taper_hop : float
        Hopping rate between the two taper cells (rad/s).
    output_rate : float
        Loading rate kappa of the last taper cell into the output line (rad/s).
    """

    n_cells: int
    hop_j: float
    center: float
    taper_detuning1: float = 0.0
    taper_detuning2: float = 0.0
    taper_hop: float = 0.0
    output_rate: float = 0.0

    def __post_init__(self):
        # NaN fails no comparison below, so finiteness is checked first
        for label in ("n_cells", "hop_j", "center", "taper_detuning1",
                      "taper_detuning2", "taper_hop", "output_rate"):
            value = getattr(self, label)
            if not math.isfinite(value):
                raise ValueError(f"waveguide.{label} must be finite, got {value!r}")
        if self.n_cells < 2:
            raise ValueError("waveguide.n_cells must be at least 2")
        if self.hop_j <= 0.0:
            raise ValueError("waveguide.hop_J must be positive")
        if self.output_rate < 0.0:
            raise ValueError("waveguide.output_rate must be non-negative")

    @classmethod
    def from_hz(cls, n_cells, hop_j_hz, center_hz, taper_detuning1_hz=0.0,
                taper_detuning2_hz=0.0, taper_hop_hz=0.0, output_rate_hz=0.0):
        # int() would truncate 50.7 to 50 and overflow on inf
        if not (math.isfinite(n_cells) and n_cells == int(n_cells)):
            raise ValueError(f"waveguide.n_cells must be a finite whole number, got {n_cells!r}")
        return cls(
            n_cells=int(n_cells),
            hop_j=TWO_PI * hop_j_hz,
            center=TWO_PI * center_hz,
            taper_detuning1=TWO_PI * taper_detuning1_hz,
            taper_detuning2=TWO_PI * taper_detuning2_hz,
            taper_hop=TWO_PI * taper_hop_hz,
            output_rate=TWO_PI * output_rate_hz,
        )

    @classmethod
    def device(cls):
        """Fitted device parameters of the 50-cell chain with matched taper."""
        return cls.from_hz(
            n_cells=50,
            hop_j_hz=33.96e6,
            center_hz=4.823e9,
            taper_detuning1_hz=-6.0e6,
            taper_detuning2_hz=-70.0e6,
            taper_hop_hz=45.4e6,
            output_rate_hz=148.0e6,
        )

    @property
    def band_edges(self):
        """(lower, upper) passband edges in rad/s."""
        return (self.center - 2.0 * self.hop_j, self.center + 2.0 * self.hop_j)


def dispersion(spec: WaveguideSpec, k) -> np.ndarray:
    """Band frequency omega(k) = omega_p + 2 J cos(k) for k in (0, pi).

    k is the Bloch wavenumber in units of the inverse lattice constant.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0) or np.any(k >= np.pi):
        raise ValueError("wavenumber must lie strictly inside (0, pi)")
    return spec.center + 2.0 * spec.hop_j * np.cos(k)


def wavenumber(spec: WaveguideSpec, omega) -> np.ndarray:
    """Inverse of ``dispersion`` on the passband interior."""
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError(f"omega is not finite: {np.count_nonzero(~np.isfinite(omega))} "
                         f"of {omega.size} entries are NaN or infinite")
    x = (omega - spec.center) / (2.0 * spec.hop_j)
    if np.any(np.abs(x) >= 1.0 - 1e-9):
        raise ValueError("frequency must lie strictly inside the passband")
    return np.arccos(x)


def group_delay_per_cell(spec: WaveguideSpec, omega) -> np.ndarray:
    """One-way traversal time of a single cell at omega: 1 / |d omega / d k|.

    Diverges toward the band edges; omega must be strictly inside the band.
    """
    k = wavenumber(spec, omega)
    return 1.0 / (2.0 * spec.hop_j * np.sin(k))


def round_trip_delay(spec: WaveguideSpec) -> float:
    """Round-trip time through the chain and back at band center, where it
    reduces to tau_d = N / J."""
    return float(2.0 * spec.n_cells * group_delay_per_cell(spec, spec.center))


def gamma_1d(g: float, hop_j: float, geometry: str = "end") -> float:
    """Waveguide emission rate of a resonant two-level emitter.

    geometry "end" (emitter terminates the chain): Gamma = 2 g^2 / J.
    geometry "side" (emitter hangs off one cell):  Gamma = g^2 / J.
    All quantities angular; the ratio convention makes the result unit-safe.
    """
    if not np.isfinite(g):
        raise ValueError(f"g must be finite, got {g!r}")
    if not (np.isfinite(hop_j) and hop_j > 0.0):
        raise ValueError(f"hop_j must be finite and positive, got {hop_j!r}")
    if geometry == "end":
        return 2.0 * g * g / hop_j
    if geometry == "side":
        return g * g / hop_j
    raise ValueError(f"unknown coupling geometry {geometry!r}")
