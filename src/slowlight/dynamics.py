"""Single-excitation time-domain solver for the emitter / array / taper /
mirror system.

Everything propagates in the frame rotating at the passband center, so array
cells sit at zero diagonal energy and the hop J sets the +/- 2J band.  The
output load is a non-Hermitian -i kappa/2 term on the last taper site; norm
lost there is the emitted field, recorded as a complex amplitude in units of
sqrt(photons/s).

`evolve` samples the controls once per call, on every substep time of its
fixed RK4 grid, so the step bound is checked where the integrator looks.
Stretches where the Hamiltonian does not change advance by the cached RK4
step matrix; the rest take the four-stage RK4 step.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import simpson

from .waveguide import WaveguideSpec, wavenumber

TWO_PI = 2.0 * np.pi

# beyond this detuning a two-level scatterer is numerically decoupled; its
# residual pull on in-band pulses is < (g / cutoff)^2 ~ 1e-4
FAR_DETUNED = TWO_PI * 3.0e9


def _as_callable(value):
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

    Time-dependent controls are constants or callables of time (seconds):
    coupling_scale (dimensionless, in [0, 1]), emitter_detuning and
    mirror_detuning (rad/s, relative to the passband center).  A callable
    is called with an array of times and must return an array of the same
    shape (or a scalar, which is broadcast).
    """

    def __init__(self, waveguide: WaveguideSpec, emitter_g: float,
                 parasitic_g: float = 0.0, mirror_g: float = 0.0,
                 coupling_scale=None, emitter_detuning=None,
                 mirror_detuning=None):
        self.waveguide = waveguide
        self.emitter_g = float(emitter_g)
        self.parasitic_g = float(parasitic_g)
        self.mirror_g = float(mirror_g)
        self.coupling_scale = _as_callable(
            0.0 if coupling_scale is None else coupling_scale)
        self.emitter_detuning = _as_callable(
            0.0 if emitter_detuning is None else emitter_detuning)
        self.mirror_detuning = _as_callable(
            FAR_DETUNED if mirror_detuning is None else mirror_detuning)

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
        """Dense time-independent part of H."""
        wg = self.waveguide
        n = self.n_cells
        h = np.zeros((self.dim, self.dim), dtype=complex)
        cells = np.arange(1, n)
        h[cells, cells + 1] = h[cells + 1, cells] = wg.hop_j
        # two-cell matching taper: bulk-strength hop into it, its own hop
        # inside, and the output load on the outer cell
        h[n, self.i_taper1] = h[self.i_taper1, n] = wg.hop_j
        h[self.i_taper1, self.i_taper2] = h[self.i_taper2, self.i_taper1] = wg.taper_hop
        h[self.i_taper1, self.i_taper1] = wg.taper_detuning1
        h[self.i_taper2, self.i_taper2] = wg.taper_detuning2 - 0.5j * wg.output_rate
        return h

    def _control(self, name: str, t: np.ndarray) -> np.ndarray:
        try:
            return np.broadcast_to(np.asarray(getattr(self, name)(t), dtype=float),
                                   t.shape)
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"control {name} must accept an array of times and return "
                f"values of the same shape") from exc

    def _coefficients(self, t) -> np.ndarray:
        """The four time-dependent entries of H at times t, stacked on a
        trailing axis: emitter coupling g_e, emitter detuning, mirror
        detuning and mirror coupling.  The last two read 0 while the mirror
        is outside FAR_DETUNED."""
        t = np.asarray(t, dtype=float)
        coef = np.empty(t.shape + (4,))
        coef[..., 0] = self._control("coupling_scale", t) * self.emitter_g + self.parasitic_g
        coef[..., 1] = self._control("emitter_detuning", t)
        d_m = self._control("mirror_detuning", t)
        active = np.abs(d_m) < FAR_DETUNED
        coef[..., 2] = np.where(active, d_m, 0.0)
        coef[..., 3] = np.where(active, self.mirror_g, 0.0)
        return coef

    def _rate_bound(self, coef: np.ndarray) -> float:
        wg = self.waveguide
        return max(4.0 * wg.hop_j, wg.output_rate, abs(wg.taper_detuning1),
                   abs(wg.taper_detuning2), self.emitter_g + self.parasitic_g,
                   float(np.abs(coef[..., 1:]).max(initial=0.0)))

    def max_rate(self, t) -> float:
        """Largest rate present at times t; sets the stable step."""
        return self._rate_bound(self._coefficients(t))


class OutputRecord:
    """Sampled trajectory of one evolve() call.

    t          : sample times (s)
    a_out      : output field amplitude, sqrt(photons/s)
    flux       : |a_out|^2, photons/s
    populations: per-site |psi|^2 at the sample times, shape (len(t), dim)
    final_state: state vector at the end of the run
    dt, steps  : the RK4 step and the number of steps taken
    cached_steps: how many of those steps used a cached step matrix
    The last three are None on records built by hand.
    """

    def __init__(self, t, a_out, populations, final_state, emitted=None,
                 dt=None, steps=None, cached_steps=None):
        self.t = t
        self.a_out = a_out
        self.flux = np.abs(a_out) ** 2
        self.populations = populations
        self.final_state = final_state
        self._emitted = emitted
        self.dt = dt
        self.steps = steps
        self.cached_steps = cached_steps

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


def _substep_grid(system: LatticeSystem, horizon: float, dt: float):
    """Step times t_0..t_n (accumulated like repeated t += dt) and the
    coefficients at [t_k, t_k + dt/2, t_k + dt], shape (3, steps, 4)."""
    n_steps = int(np.ceil(horizon / dt))
    t = np.add.accumulate(np.concatenate(([0.0], np.full(n_steps, dt))))
    grid = np.stack([t[:-1], t[:-1] + 0.5 * dt, t[1:]])
    return t, system._coefficients(grid)


def _taylor4_increment(x: np.ndarray) -> np.ndarray:
    """T4(X) - I = X + X^2/2 + X^3/6 + X^4/24; one RK4 step of a constant H
    is psi + (T4(X) - I) psi.  Kept without the identity, whose rounding in
    the diagonal would otherwise repeat coherently on every cached step."""
    eye = np.eye(len(x), dtype=complex)
    return x @ (eye + x / 2.0 @ (eye + x / 3.0 @ (eye + x / 4.0)))


def evolve(system: LatticeSystem, initial, horizon: float, dt: float = None,
           samples: int = 2000) -> OutputRecord:
    """Fixed-step 4th-order propagation of the non-Hermitian Hamiltonian.

    `initial` is 'emitter', 'mirror', a site index, or a full state vector.
    The step must satisfy dt <= 0.05 / max rate, where the rate is taken at
    every substep time the integrator uses.  By default dt is chosen a
    factor ~2.5 finer, so the norm ledger closes to 1e-6 over long runs; if
    the grid shows a faster rate than 64 probe times did, dt is refined and
    the grid evaluated again.  An explicit dt that breaks the bound raises.
    The emitted energy is Simpson's rule over every step's output flux, so
    the ledger closes at the integrator's order, not the trapezoid's.

    Each control is called once, with the array of all substep times.  A
    step whose four coefficients are equal at its three substep times and
    to those of a neighbouring step advances by the cached step matrix
    T4(X) = I + X + X^2/2 + X^3/6 + X^4/24, X = -i dt H, and its powers up
    to the next sample time.  For a constant H that polynomial is exactly
    the RK4 step, so caching it leaves the integrator, its step and its
    truncation error unchanged; results differ from stage-by-stage RK4 only
    by roundoff.  Steps where a control varies take the four-stage step.
    """
    given = dt
    limit = system.max_rate(np.linspace(0.0, horizon, 64))
    while True:
        dt = 0.02 / limit if given is None else given
        if dt > 0.05 / limit:
            raise ValueError(
                f"dt={dt:.3e} too coarse for the fastest rate "
                f"{limit / TWO_PI:.3e} Hz; need dt <= {0.05 / limit:.3e}")
        t, coef = _substep_grid(system, horizon, dt)
        grid_limit = system._rate_bound(coef)
        if grid_limit <= limit or (given is not None and given <= 0.05 / grid_limit):
            break
        limit = grid_limit

    psi = np.zeros(system.dim, dtype=complex)
    if isinstance(initial, str):
        psi[{"emitter": system.i_emitter, "mirror": system.i_mirror}[initial]] = 1.0
    elif np.isscalar(initial):
        psi[int(initial)] = 1.0
    else:
        psi[:] = np.asarray(initial, dtype=complex)

    n_steps = len(t) - 1
    every = max(1, n_steps // samples)
    sample_at = np.arange(0, n_steps + 1, every)
    if sample_at[-1] != n_steps:
        sample_at = np.append(sample_at, n_steps)
    pops = np.empty((len(sample_at), system.dim))
    i_out = system.i_taper2
    amp = np.empty(n_steps + 1, dtype=complex)
    amp[0] = psi[i_out]

    # runs: maximal stretches of steps with one constant coefficient set
    steady = (coef == coef[:1]).all(axis=(0, 2))
    linked = steady[:-1] & steady[1:] & (coef[0, :-1] == coef[0, 1:]).all(axis=1)
    edges = np.concatenate(([0], np.flatnonzero(~linked) + 1, [n_steps]))

    def keep(n, psi):
        if n % every == 0 or n == n_steps:
            pops[-1 if n == n_steps else n // every] = np.abs(psi) ** 2

    h0 = system._h0
    m, c = system.i_mirror, system.i_last

    def h_times(y, k):
        # H y for the coefficients k; y is a state or a matrix of columns
        g_e, d_e, d_m, g_m = k
        out = h0 @ y
        out[0] += d_e * y[0] + g_e * y[1]
        out[1] += g_e * y[0]
        out[m] += d_m * y[m] + g_m * y[c]
        out[c] += g_m * y[m]
        return out

    keep(0, psi)
    cache = {}
    cached_steps = 0
    for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
        if b - a < 2:
            for n in range(a, b):
                k0, k1, k2 = coef[:, n].tolist()
                s1 = h_times(psi, k0)
                s2 = h_times(psi - 0.5j * dt * s1, k1)
                s3 = h_times(psi - 0.5j * dt * s2, k1)
                s4 = h_times(psi - 1j * dt * s3, k2)
                psi = psi - (1j * dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                amp[n + 1] = psi[i_out]
                keep(n + 1, psi)
            continue
        key = tuple(coef[0, a].tolist())
        if key not in cache:
            # increments E_k = M^k - I of the step matrix M, through
            # E_(k+1) = E_k + E_1 + E_k E_1; row i_out of E_k gives the
            # output amplitude k steps ahead
            h = h_times(np.eye(system.dim, dtype=complex), key)
            inc = _taylor4_increment(-1j * dt * h)
            rows = np.empty((every, system.dim), dtype=complex)
            block = inc
            rows[0] = inc[i_out]
            for k in range(1, every):
                block = block + inc + block @ inc
                rows[k] = block[i_out]
            cache[key] = inc, block, rows
        inc, block, rows = cache[key]
        cached_steps += b - a
        n = a
        while n < b:
            stop = min(b, (n // every + 1) * every)
            amp[n + 1:stop + 1] = psi[i_out] + rows[:stop - n] @ psi
            if stop - n == every:
                psi = psi + block @ psi
            else:
                for _ in range(stop - n):
                    psi = psi + inc @ psi
            n = stop
            keep(n, psi)

    kappa = system.waveguide.output_rate
    flux = kappa * np.abs(amp) ** 2
    emitted = float(simpson(flux, dx=dt))
    return OutputRecord(t[sample_at], np.sqrt(kappa) * amp[sample_at],
                        pops, psi, emitted=emitted, dt=dt,
                        steps=n_steps, cached_steps=cached_steps)


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
        return np.where((t_on <= t) & (t <= t_off), 0.0, FAR_DETUNED)

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

    def in_cz(t):
        return (emitter_state == "e") & (cz_window[0] <= t) & (t <= cz_window[1])

    def scale(t):
        return np.where(in_cz(t), cz_scale,
                        np.interp(t, t_env, xi_env, left=0.0, right=0.0))

    def emitter_detuning(t):
        return np.where(in_cz(t), cz_detuning, 0.0)

    def mirror_detuning(t):
        return np.where((mirror_window[0] <= t) & (t <= mirror_window[1]),
                        0.0, FAR_DETUNED)

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
