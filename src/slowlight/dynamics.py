"""Single-excitation time-domain solver for the emitter / array / taper /
mirror system.

Everything propagates in the frame rotating at the passband center, so array
cells sit at zero diagonal energy and the hop J sets the +/- 2J band.  The
output load is a non-Hermitian -i kappa/2 term on the last taper site; norm
lost there is the emitted field, recorded as a complex amplitude in units of
sqrt(photons/s).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .waveguide import WaveguideSpec, wavenumber

TWO_PI = 2.0 * np.pi

# beyond this detuning a two-level scatterer is numerically decoupled; its
# residual pull on in-band pulses is < (g / cutoff)^2 ~ 1e-4
FAR_DETUNED = TWO_PI * 3.0e9


def _as_callable(value):
    if value is None:
        return None
    if callable(value):
        return value
    const = float(value)
    return lambda t: const


class LatticeSystem:
    """Emitter + N-cell array + two-cell taper + side-coupled mirror.

    Site layout: 0 emitter, 1..N array cells, N+1 and N+2 taper cells,
    N+3 mirror.  The emitter couples to cell 1 with
    g(t) = coupling_scale(t) * emitter_g + parasitic_g, the mirror to cell N
    with mirror_g whenever its detuning is inside FAR_DETUNED.

    Time-dependent controls are plain callables of time (seconds):
    coupling_scale (dimensionless, in [0, 1]), emitter_detuning and
    mirror_detuning (rad/s, relative to the passband center).
    """

    def __init__(self, waveguide: WaveguideSpec, emitter_g: float,
                 parasitic_g: float = 0.0, mirror_g: float = 0.0,
                 coupling_scale=None, emitter_detuning=None,
                 mirror_detuning=None):
        self.waveguide = waveguide
        self.emitter_g = float(emitter_g)
        self.parasitic_g = float(parasitic_g)
        self.mirror_g = float(mirror_g)
        self.coupling_scale = _as_callable(coupling_scale) or (lambda t: 0.0)
        self.emitter_detuning = _as_callable(emitter_detuning) or (lambda t: 0.0)
        self.mirror_detuning = _as_callable(mirror_detuning) or (lambda t: FAR_DETUNED)

        n = waveguide.n_cells
        self.n_cells = n
        self.dim = n + 4
        self.i_emitter = 0
        self.i_first = 1
        self.i_last = n
        self.i_taper1 = n + 1
        self.i_taper2 = n + 2
        self.i_mirror = n + 3
        self._h0 = self._build_static()

    def _build_static(self):
        wg = self.waveguide
        n = self.n_cells
        h = sp.lil_matrix((self.dim, self.dim), dtype=complex)
        for a in range(1, n):
            h[a, a + 1] = h[a + 1, a] = wg.hop_j
        # two-cell matching taper: bulk-strength hop into it, its own hop
        # inside, and the output load on the outer cell
        h[n, self.i_taper1] = h[self.i_taper1, n] = wg.hop_j
        h[self.i_taper1, self.i_taper2] = h[self.i_taper2, self.i_taper1] = wg.taper_hop
        h[self.i_taper1, self.i_taper1] = wg.taper_detuning1
        h[self.i_taper2, self.i_taper2] = wg.taper_detuning2 - 0.5j * wg.output_rate
        return h.tocsr()

    def max_rate(self, t_probe) -> float:
        """Largest rate present over the probe times; sets the stable step."""
        rates = [4.0 * self.waveguide.hop_j, self.waveguide.output_rate,
                 abs(self.waveguide.taper_detuning1),
                 abs(self.waveguide.taper_detuning2),
                 self.emitter_g + self.parasitic_g]
        for t in np.atleast_1d(t_probe):
            rates.append(abs(self.emitter_detuning(float(t))))
            dm = self.mirror_detuning(float(t))
            if abs(dm) < FAR_DETUNED:
                rates.append(abs(dm))
                rates.append(self.mirror_g)
        return max(rates)

    def apply(self, t: float, psi: np.ndarray) -> np.ndarray:
        """H(t) |psi> with the few time-dependent entries added on the fly."""
        out = self._h0 @ psi
        g_e = self.coupling_scale(t) * self.emitter_g + self.parasitic_g
        out[0] += self.emitter_detuning(t) * psi[0] + g_e * psi[1]
        out[1] += g_e * psi[0]
        dm = self.mirror_detuning(t)
        if abs(dm) < FAR_DETUNED:
            m, c = self.i_mirror, self.i_last
            out[m] += dm * psi[m] + self.mirror_g * psi[c]
            out[c] += self.mirror_g * psi[m]
        return out


class OutputRecord:
    """Sampled trajectory of one evolve() call.

    t          : sample times (s)
    a_out      : output field amplitude, sqrt(photons/s)
    flux       : |a_out|^2, photons/s
    populations: per-site |psi|^2 at the sample times, shape (len(t), dim)
    final_state: state vector at the end of the run
    """

    def __init__(self, t, a_out, populations, final_state, emitted=None):
        self.t = t
        self.a_out = a_out
        self.flux = np.abs(a_out) ** 2
        self.populations = populations
        self.final_state = final_state
        self._emitted = emitted

    @property
    def emitted_energy(self) -> float:
        # the solver accumulates at full step resolution; fall back to the
        # sampled trace for records built by hand
        if self._emitted is not None:
            return self._emitted
        return float(np.trapezoid(self.flux, self.t))

    @property
    def remaining_norm(self) -> float:
        return float(np.vdot(self.final_state, self.final_state).real)

    def emitter_population(self):
        return self.populations[:, 0]

    def energy_between(self, t0, t1) -> float:
        m = (self.t >= t0) & (self.t <= t1)
        return float(np.trapezoid(self.flux[m], self.t[m]))

    def peak_time(self) -> float:
        return float(self.t[np.argmax(self.flux)])

    def to_csv(self, path):
        header = "time_s,re_a_out,im_a_out,flux_per_s"
        data = np.column_stack([self.t, self.a_out.real, self.a_out.imag,
                                self.flux])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def evolve(system: LatticeSystem, initial, horizon: float, dt: float = None,
           samples: int = 2000) -> OutputRecord:
    """Fixed-step 4th-order propagation of the non-Hermitian Hamiltonian.

    `initial` is 'emitter', 'mirror', a site index, or a full state vector.
    The step must satisfy dt <= 0.05 / max rate; by default it is chosen a
    factor ~2.5 finer so the norm ledger closes to 1e-6 over long runs.
    """
    probe = np.linspace(0.0, horizon, 64)
    limit = system.max_rate(probe)
    if dt is None:
        dt = 0.02 / limit
    elif dt > 0.05 / limit:
        raise ValueError(
            f"dt={dt:.3e} too coarse for the fastest rate "
            f"{limit / TWO_PI:.3e} Hz; need dt <= {0.05 / limit:.3e}")

    psi = np.zeros(system.dim, dtype=complex)
    if isinstance(initial, str):
        psi[{"emitter": system.i_emitter, "mirror": system.i_mirror}[initial]] = 1.0
    elif np.isscalar(initial):
        psi[int(initial)] = 1.0
    else:
        psi[:] = np.asarray(initial, dtype=complex)

    n_steps = int(np.ceil(horizon / dt))
    every = max(1, n_steps // samples)
    sqrt_kappa = np.sqrt(system.waveguide.output_rate)
    i_out = system.i_taper2

    ts, fields, pops = [], [], []
    apply = system.apply
    kappa = system.waveguide.output_rate
    emitted = 0.0
    flux_prev = kappa * abs(psi[i_out]) ** 2
    t = 0.0
    for step in range(n_steps + 1):
        if step % every == 0 or step == n_steps:
            ts.append(t)
            fields.append(sqrt_kappa * psi[i_out])
            pops.append(np.abs(psi) ** 2)
        if step == n_steps:
            break
        k1 = apply(t, psi)
        k2 = apply(t + 0.5 * dt, psi - 0.5j * dt * k1)
        k3 = apply(t + 0.5 * dt, psi - 0.5j * dt * k2)
        k4 = apply(t + dt, psi - 1j * dt * k3)
        psi = psi - (1j * dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        flux_now = kappa * abs(psi[i_out]) ** 2
        emitted += 0.5 * dt * (flux_prev + flux_now)
        flux_prev = flux_now

    return OutputRecord(np.array(ts), np.array(fields), np.array(pops), psi,
                        emitted=emitted)


def emit_shaped(system_or_spec, t_env, xi_env, horizon=None,
                emitter_g=None, parasitic_g=0.0) -> OutputRecord:
    """Drive the emitter with a shaped coupling envelope and collect the pulse.

    Accepts a full LatticeSystem, or a WaveguideSpec plus the peak coupling
    `emitter_g`; the envelope (t_env, xi_env) comes from flux-control and is
    interpolated with zero hold outside its support.
    """
    t_env = np.asarray(t_env, dtype=float)
    xi_env = np.asarray(xi_env, dtype=float)
    if np.any(xi_env > 1.0 + 1e-12):
        raise ValueError("coupling envelope exceeds unity")
    if np.any(xi_env < 0.0):
        raise ValueError("coupling envelope must be non-negative")

    def scale(t):
        return np.interp(t, t_env, xi_env, left=0.0, right=0.0)

    if isinstance(system_or_spec, LatticeSystem):
        base = system_or_spec
        system = LatticeSystem(
            base.waveguide, base.emitter_g, base.parasitic_g, base.mirror_g,
            coupling_scale=scale, emitter_detuning=base.emitter_detuning,
            mirror_detuning=base.mirror_detuning)
    else:
        system = LatticeSystem(system_or_spec, emitter_g, parasitic_g,
                               coupling_scale=scale)
    if horizon is None:
        horizon = t_env[-1] + 3.0 * system.waveguide.n_cells / system.waveguide.hop_j
    return evolve(system, "emitter", horizon)


def mirror_scatter(system: LatticeSystem, t_env, xi_env, window,
                   horizon=None) -> OutputRecord:
    """Emit a shaped pulse against the mirror, resonant inside `window`.

    `window` is (t_on, t_off); outside it the mirror is far detuned.  The
    transmitted energy fraction is energy_between(t_on, t_off) over the
    total emitted energy of the returned record.
    """
    t_on, t_off = window

    def mirror_detuning(t):
        return 0.0 if t_on <= t <= t_off else FAR_DETUNED

    gated = LatticeSystem(
        system.waveguide, system.emitter_g, system.parasitic_g,
        system.mirror_g, emitter_detuning=system.emitter_detuning,
        mirror_detuning=mirror_detuning)
    if horizon is None:
        round_trip = system.waveguide.n_cells / system.waveguide.hop_j
        horizon = t_off + 2.5 * round_trip
    return emit_shaped(gated, t_env, xi_env, horizon=horizon)


def transmitted_fraction(record: OutputRecord, window) -> float:
    return record.energy_between(*window) / record.emitted_energy


def _cz_branch(system: LatticeSystem, emitter_state: str, t_env, xi_env,
               center, cz_window, cz_scale, cz_detuning, mirror_window):
    round_trip = system.waveguide.n_cells / system.waveguide.hop_j

    def scale(t):
        s = np.interp(t, t_env, xi_env, left=0.0, right=0.0)
        if emitter_state == "e" and cz_window[0] <= t <= cz_window[1]:
            s = cz_scale
        return s

    def emitter_detuning(t):
        if emitter_state == "e" and cz_window[0] <= t <= cz_window[1]:
            return cz_detuning
        return 0.0

    def mirror_detuning(t):
        return 0.0 if mirror_window[0] <= t <= mirror_window[1] else FAR_DETUNED

    branch = LatticeSystem(
        system.waveguide, system.emitter_g, system.parasitic_g,
        system.mirror_g, coupling_scale=scale,
        emitter_detuning=emitter_detuning, mirror_detuning=mirror_detuning)
    return evolve(branch, "emitter", center + 2.6 * round_trip)


def cz_phase(system: LatticeSystem, emitter_state: str, t_env, xi_env,
             cz_window=None, cz_scale=1.0, cz_detuning=0.0,
             mirror_window=None, exit_window=None):
    """Conditional reflection of a photon bouncing off the emitter.

    Full sequence: the shaped envelope (t_env, xi_env) emits the photon,
    the mirror (resonant inside mirror_window) sends it back, and during
    cz_window the emitter coupling is re-opened as a square pulse of height
    cz_scale -- only when `emitter_state` is 'e', since in 'g' the
    returning photon finds no matching transition.

    Returns (overlap, record).  The overlap is mode-matched against the 'g'
    reference branch over the exit window of the main reflected pulse (the
    later taper echo is the same in both branches and is excluded);
    arg(overlap) is the conditional phase, so 'g' gives exactly 1 and 'e'
    should give magnitude near one with phase pi.
    """
    if emitter_state not in ("g", "e"):
        raise ValueError("emitter_state must be 'g' or 'e'")
    round_trip = system.waveguide.n_cells / system.waveguide.hop_j
    t_env = np.asarray(t_env, dtype=float)
    xi_env = np.asarray(xi_env, dtype=float)
    center = float(np.trapezoid(t_env * xi_env ** 2, t_env)
                   / np.trapezoid(xi_env ** 2, t_env))
    # the pulse can be longer than the array, so the mirror stays resonant
    # from the start and opens just before the reflected front returns to
    # it; the square pulse brackets the whole reflection off the emitter
    if mirror_window is None:
        mirror_window = (0.0, center + 0.85 * round_trip)
    if cz_window is None:
        cz_window = (center + 0.45 * round_trip, center + 1.65 * round_trip)
    if exit_window is None:
        exit_window = (center + 0.9 * round_trip, center + 1.7 * round_trip)

    record = _cz_branch(system, emitter_state, t_env, xi_env, center,
                        cz_window, cz_scale, cz_detuning, mirror_window)
    if emitter_state == "g":
        return 1.0 + 0.0j, record
    reference = _cz_branch(system, "g", t_env, xi_env, center,
                           cz_window, cz_scale, cz_detuning, mirror_window)
    return cz_overlap(reference, record, exit_window), record


def cz_overlap(reference: OutputRecord, branch: OutputRecord,
               window) -> complex:
    """Mode-matched overlap of two exit fields over a time window."""
    m = (reference.t >= window[0]) & (reference.t <= window[1])
    f_ref = reference.a_out[m]
    f_br = np.interp(branch.t[m], branch.t, branch.a_out.real) \
        + 1j * np.interp(branch.t[m], branch.t, branch.a_out.imag)
    num = np.trapezoid(np.conj(f_ref) * f_br, reference.t[m])
    den = np.sqrt(np.trapezoid(np.abs(f_ref) ** 2, reference.t[m])
                  * np.trapezoid(np.abs(f_br) ** 2, reference.t[m]))
    return complex(num / den)


def pulse_bandwidth(record: OutputRecord, window=None) -> float:
    """FWHM (Hz) of the output pulse's power spectrum.

    Resamples the field on a uniform grid, zero-pads 8x for sub-bin
    resolution, and interpolates the half-maximum crossings.
    """
    t, a = record.t, record.a_out
    if window is not None:
        m = (t >= window[0]) & (t <= window[1])
        t, a = t[m], a[m]
    grid = np.linspace(t[0], t[-1], 4096)
    f = np.interp(grid, t, a.real) + 1j * np.interp(grid, t, a.imag)
    padded = np.concatenate([f, np.zeros(7 * len(f), dtype=complex)])
    power = np.abs(np.fft.fftshift(np.fft.fft(padded))) ** 2
    freqs = np.fft.fftshift(np.fft.fftfreq(len(padded), grid[1] - grid[0]))
    half = power.max() / 2.0
    above = np.nonzero(power >= half)[0]
    lo, hi = above[0], above[-1]
    if lo == 0 or hi == len(power) - 1:
        raise ValueError("the spectrum stays above half maximum at the edge of the "
                         "frequency grid; the record is sampled too coarsely")
    # linear interpolation through the half crossings
    f_lo = np.interp(half, [power[lo - 1], power[lo]], [freqs[lo - 1], freqs[lo]])
    f_hi = np.interp(half, [power[hi + 1], power[hi]], [freqs[hi + 1], freqs[hi]])
    return float(f_hi - f_lo)


# ---------------------------------------------------------------------------
# plane-wave boundary formulas (narrowband oracles and taper figures)


def taper_reflection(spec: WaveguideSpec, omega) -> complex:
    """Reflection amplitude of the two-cell taper + load at frequency omega.

    Plane-wave solution of the boundary equations; omega is absolute
    (rad/s) inside the passband.
    """
    k = wavenumber(spec, omega)
    e = omega - spec.center  # rotating-frame energy, equals 2 J cos k
    j, j1 = spec.hop_j, spec.taper_hop
    d1, d2 = spec.taper_detuning1, spec.taper_detuning2
    a = e - d1 - j1 ** 2 / (e - d2 + 0.5j * spec.output_rate)
    b = e - j ** 2 / a
    phase = np.exp(1j * k)
    return np.exp(-2j * k * spec.n_cells) * (b - j * phase) / (j / phase - b)


def taper_transmittance(spec: WaveguideSpec, bandwidth: float = 0.0,
                        carrier: float = None):
    """Energy transmission of the taper; (fraction, dB).

    bandwidth = 0 gives the steady-state plane-wave value at the carrier
    (default band center).  A finite bandwidth (FWHM of the pulse power
    spectrum, Hz) averages |t|^2 over a Gaussian spectral weight.
    """
    if carrier is None:
        carrier = spec.center
    if bandwidth <= 0.0:
        t_val = 1.0 - abs(taper_reflection(spec, carrier)) ** 2
    else:
        sigma = TWO_PI * bandwidth / 2.3548
        lo, hi = spec.band_edges
        w = np.linspace(max(lo + 1e-4 * (hi - lo), carrier - 4 * sigma),
                        min(hi - 1e-4 * (hi - lo), carrier + 4 * sigma), 301)
        weight = np.exp(-0.5 * ((w - carrier) / sigma) ** 2)
        trans = 1.0 - np.abs(taper_reflection(spec, w)) ** 2
        t_val = float(np.trapezoid(weight * trans, w) / np.trapezoid(weight, w))
    return t_val, 10.0 * np.log10(t_val)


def taper_echo_train(spec: WaveguideSpec, n_echoes: int = 3,
                     carrier: float = None):
    """Arrival times and energy fractions of the multi-bounce echo train.

    A pulse leaving the emitter end partially reflects off the taper, runs
    back to the (bare, fully reflecting) emitter end, and tries again; the
    n-th passage exits with energy T * R^n delayed by n round trips.
    """
    if carrier is None:
        carrier = spec.center
    r2 = abs(taper_reflection(spec, carrier)) ** 2
    t_round = spec.n_cells / spec.hop_j
    times = np.arange(n_echoes + 1) * t_round
    energies = (1.0 - r2) * r2 ** np.arange(n_echoes + 1)
    return times, energies


def end_reflection(spec: WaveguideSpec, omega, coupling: float,
                   qubit_detuning: float = 0.0) -> complex:
    """Reflection off the emitter end of the chain with a coupled qubit.

    With the qubit decoupled the bare end reflects with -1; a resonant
    qubit adds a 2k winding, which at band center is the pi of the
    conditional gate.  qubit_detuning is relative to the passband center.
    """
    k = wavenumber(spec, omega)
    e = omega - spec.center
    j = spec.hop_j
    if coupling == 0.0:
        b1 = e
    else:
        denom = e - qubit_detuning
        if denom == 0.0:
            return -np.exp(2j * k)
        b1 = e - coupling ** 2 / denom
    phase = np.exp(1j * k)
    return np.exp(2j * k) * (b1 - j * phase) / (j / phase - b1)
