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
step matrix.  Every other step, a varying step, is the same RK4 step
regrouped: the cached increment of the Hamiltonian with every control at
zero, plus a correction confined to the four sites the controls act on.
That correction is a 16 x 16 map per step, formed for blocks of steps at
once, so a varying step costs three small matrix-vector products.

`cz_phase` runs two branches, emitter in 'g' and in 'e', on one step grid
and with equal controls until the CZ window opens.  That shared prefix,
which holds the emission and nearly all of the varying steps, is stepped
once; each branch then finishes alone.  Both records equal standalone
`evolve` runs of the branch systems bit for bit.  Every delay-line time
here is a multiple of the band-center round trip `round_trip_delay`.
"""

from __future__ import annotations

import numpy as np

from .waveguide import WaveguideSpec, round_trip_delay, wavenumber

TWO_PI = 2.0 * np.pi

# beyond this detuning a two-level scatterer is numerically decoupled; its
# residual pull on in-band pulses is < (g / cutoff)^2 ~ 1e-4
FAR_DETUNED = TWO_PI * 3.0e9
# output samples per evolve() record, by default
SAMPLES = 2000
# varying steps whose stage maps are formed together
BLOCK = 512


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
    shape (or a scalar, which is broadcast).  The couplings and every
    sampled control value must be finite; a NaN or infinite one raises
    ValueError.
    """

    def __init__(self, waveguide: WaveguideSpec, emitter_g: float,
                 parasitic_g: float = 0.0, mirror_g: float = 0.0,
                 coupling_scale=None, emitter_detuning=None,
                 mirror_detuning=None):
        self.waveguide = waveguide
        self.emitter_g = float(emitter_g)
        self.parasitic_g = float(parasitic_g)
        self.mirror_g = float(mirror_g)
        for name in ("emitter_g", "parasitic_g", "mirror_g"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
            values = np.broadcast_to(np.asarray(getattr(self, name)(t), dtype=float),
                                     t.shape)
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"control {name} must accept an array of times and return "
                f"values of the same shape") from exc
        if not np.isfinite(values).all():
            first = t[~np.isfinite(values)].min()
            raise ValueError(f"control {name} is NaN or infinite at t = {first:.4g} s, "
                             "its earliest such sampled time")
        return values

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
        """Largest rate of the static lattice, of the nominal emitter
        coupling and of the coefficients coef, which count with their
        magnitude: a coupling scaled past 1 or of either sign."""
        wg = self.waveguide
        return max(4.0 * wg.hop_j, wg.output_rate, abs(wg.taper_detuning1),
                   abs(wg.taper_detuning2), abs(self.emitter_g) + abs(self.parasitic_g),
                   float(np.abs(coef).max(initial=0.0)))

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
    emitted_energy: photons emitted, accumulated at full step resolution
    dt, steps  : the RK4 step and the number of steps taken
    cached_steps: how many of those steps advanced by the cached step
                 matrix of a constant stretch; the others are varying steps
    """

    def __init__(self, t, a_out, populations, final_state, emitted, dt, steps, cached_steps):
        self.t = t
        self.a_out = a_out
        self.flux = np.abs(a_out) ** 2
        self.populations = populations
        self.final_state = final_state
        self.emitted_energy = emitted
        self.dt = dt
        self.steps = steps
        self.cached_steps = cached_steps

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


def _control_sites(system: LatticeSystem) -> list:
    """The sites the controls act on, pair by pair: emitter and cell 1,
    mirror and cell N."""
    return [system.i_emitter, system.i_first, system.i_mirror, system.i_last]


# the entries of the control block, over the sites emitter, cell 1, mirror,
# cell N, that each coefficient g_e, d_e, d_m, g_m fills
_CONTROL_ENTRIES = (((0, 1), (1, 0)), ((0, 0),), ((2, 2),), ((2, 3), (3, 2)))


def _hamiltonian(system: LatticeSystem, k) -> np.ndarray:
    """Dense H for one coefficient set k = (g_e, d_e, d_m, g_m)."""
    h = system._h0.copy()
    sites = _control_sites(system)
    for value, entries in zip(k, _CONTROL_ENTRIES):
        for i, j in entries:
            h[sites[i], sites[j]] += value
    return h


def _zero_control_step(system: LatticeSystem, dt: float):
    """The factors that every varying step on one lattice with step dt
    shares.  With A0 = -i dt H0, H0 the Hamiltonian with every control at
    zero, and P the four control sites, they are

      stacked  the RK4 increment T4(A0) - I above V = [P^T A0^b], b = 0..3,
               one (dim + 16) x dim matrix, so one product gives both;
      weights  the dim x 16 map from the stage corrections (q1, q2, q3, q4)
               to the step: q_s enters its own stage as P q_s and each
               later one through A0, so with RK4's weights (1, 2, 2, 1) / 6
               its columns are P/6 + A0 P/6 + A0^2 P/12 + A0^3 P/24,
               P/3 + A0 P/6 + A0^2 P/12, P/3 + A0 P/6 and P/6;
      g1, g2   G_b = P^T A0^b P as sparse 4 x 4 maps (see _stage_maps).
    """
    a0 = -1j * dt * system._h0
    sites = _control_sites(system)
    powers = [np.eye(system.dim, dtype=complex)]
    for _ in range(3):
        powers.append(a0 @ powers[-1])
    stacked = np.concatenate([_taylor4_increment(a0)] + [p[sites] for p in powers])
    u0, u1, u2, u3 = (p[:, sites] for p in powers)
    weights = np.concatenate([u0 / 6.0 + u1 / 6.0 + u2 / 12.0 + u3 / 24.0,
                              u0 / 3.0 + u1 / 6.0 + u2 / 12.0,
                              u0 / 3.0 + u1 / 6.0, u0 / 6.0], axis=1)
    g1, g2 = ({(int(i), int(j)): complex(g[i, j]) for i, j in zip(*np.nonzero(g))}
              for g in (p[np.ix_(sites, sites)] for p in powers[1:3]))
    return stacked, weights, g1, g2


def _sparse_product(a: dict, b: dict) -> dict:
    """a b for 4 x 4 maps held as {(row, column): entry} without their zero
    entries; an entry is a number or an array over steps."""
    out = {}
    for (i, j), x in a.items():
        for (jj, k), y in b.items():
            if j == jj:
                out[i, k] = out[i, k] + x * y if (i, k) in out else x * y
    return out


def _sparse_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, y in b.items():
        out[key] = out[key] + y if key in out else y
    return out


def _scaled(a: dict, w: float) -> dict:
    return {key: w * x for key, x in a.items()}


def _stage_maps(k: np.ndarray, dt: float, g1: dict, g2: dict) -> np.ndarray:
    """The stage maps of the regrouped RK4 step, shape (L, 16, 16), for the
    substep coefficients k of L steps, shape (3, 4, L).

    With d_s the control block at the step's substep s times -i dt and
    v = V psi = (v0, v1, v2, v3), the RK4 stages add P q_s to the stages of
    the zero-control step, where
        q1 = d1 v0
        q2 = d2 (v0 + v1/2 + q1/2)
        q3 = d2 (v0 + v1/2 + v2/4 + G1 q1/4 + q2/2)
        q4 = d3 (v0 + v1 + v2/2 + v3/4 + G2 q1/4 + G1 q2/2 + q3).
    Row block s and column block b of step l's map hold q_s's part from
    v_b, so that (q1, q2, q3, q4) = maps[l] v.  Each block is formed as a
    sparse map of arrays over the steps; products skip the zeros of G and
    any coefficient that is zero over all L steps.  That drops exact zeros
    only, so no step's map depends on the other steps formed with it (up to
    the sign of a zero).
    """
    out = np.zeros((k.shape[2], 16, 16), dtype=complex)
    ctl = -1j * dt * k
    d = [{} for _ in range(3)]
    for c, entries in enumerate(_CONTROL_ENTRIES):
        if k[:, c].any():
            for s in range(3):
                d[s].update((e, ctl[s, c]) for e in entries)
    identity = {(i, i): 1.0 for i in range(4)}
    half = _scaled(identity, 0.5)
    # per stage: its substep, the weights of v0..v3 in its argument, and
    # the maps that take in the earlier stages
    stages = ((0, (1.0,), ()),
              (1, (1.0, 0.5), (half,)),
              (1, (1.0, 0.5, 0.25), (_scaled(g1, 0.25), half)),
              (2, (1.0, 1.0, 0.5, 0.25),
               (_scaled(g2, 0.25), _scaled(g1, 0.5), identity)))
    q = []
    for s, (sub, weights, feeds) in enumerate(stages):
        maps = []
        for b, w in enumerate(weights):
            x = _scaled(identity, w)
            for feed, earlier in zip(feeds, q):
                if b < len(earlier):
                    x = _sparse_sum(x, _sparse_product(feed, earlier[b]))
            maps.append(_sparse_product(d[sub], x))
            for (i, j), entry in maps[-1].items():
                out[:, 4 * s + i, 4 * b + j] = entry
        q.append(maps)
    return out


def _simpson(y: np.ndarray, dx: float) -> float:
    """Simpson's rule over equally spaced samples, as scipy.integrate.simpson.

    Equals scipy 1.17's simpson(y, dx=dx) bit for bit on 1-D float arrays:
    composite Simpson over the first len(y) - 1 (odd length) or len(y) - 2
    (even length) intervals, and at even length Cartwright's three-point
    correction for the last interval; two samples take the trapezoid, one
    gives 0.  The sums and coefficients are formed in scipy's order.
    """
    n = len(y)
    if n == 0:
        raise ValueError("Simpson's rule needs at least one sample")
    if n == 2:
        return float(0.5 * dx * (y[1] + y[0]))
    stop = n - 2 if n % 2 else n - 3
    total = np.sum(y[0:stop:2] + 4.0 * y[1:stop + 1:2] + y[2:stop + 2:2])
    total *= dx / 3.0
    if n % 2 == 0:
        h = np.float64(dx)
        alpha = (2 * h ** 2 + 3 * h * h) / (6 * (h + h))
        beta = (h ** 2 + 3.0 * h * h) / (6 * h)
        eta = h ** 3 / (6 * h * (h + h))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(total)


def _grid(system: LatticeSystem, horizon: float, dt):
    """The step dt of one evolve() run, its step times and its substep
    coefficients; see evolve() for how dt is chosen and checked."""
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
            return dt, t, coef
        limit = grid_limit


def _initial_state(system: LatticeSystem, initial) -> np.ndarray:
    psi = np.zeros(system.dim, dtype=complex)
    if isinstance(initial, str):
        if initial != "emitter":
            raise ValueError(f"initial state {initial!r} is not 'emitter' or a state vector")
        psi[system.i_emitter] = 1.0
    else:
        vec = np.asarray(initial, dtype=complex)
        if vec.shape != psi.shape:
            raise ValueError(f"initial state has shape {vec.shape}, not ({system.dim},)")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state norm {norm:.15g} is not 1")
        psi[:] = vec
    return psi


class _Run:
    """One evolve() run in progress: the state after step `n`, the output
    amplitude at every step so far and the populations sampled so far.

    The steps fall into runs, maximal stretches with one constant
    coefficient set, fixed once from the whole grid.  A run of one step is a
    varying step; `edges` cuts the grid into constant runs and stretches of
    consecutive varying steps.  `advance` steps to a sample boundary (a
    multiple of `every`, or the last step); a constant run is always cut at
    the same points whatever boundaries it is advanced to.

    A varying step n takes y = [T4(A0) - I; V] psi and then
    psi + y[:dim] + W (Q_n y[dim:]), see _zero_control_step.  The stage maps
    Q_n are formed BLOCK varying steps at a time, in blocks fixed by the
    steps' ranks among all varying steps of the grid, and no step's map
    depends on the others in its block.  So the record does not depend on
    the boundaries `advance` is called with.

    `cache` maps a coefficient set to its step matrices, which depend only
    on that set, dt and `every`, and None to the zero-control factors,
    which depend only on the lattice and dt; runs on the same lattice with
    equal dt and step count may share it.
    """

    def __init__(self, system: LatticeSystem, psi, t, coef, dt, samples, cache):
        self.system, self.psi, self.t, self.coef, self.dt = system, psi, t, coef, dt
        self.cache = cache
        n_steps = self.n_steps = len(t) - 1
        every = self.every = max(1, n_steps // samples)
        sample_at = np.arange(0, n_steps + 1, every)
        if sample_at[-1] != n_steps:
            sample_at = np.append(sample_at, n_steps)
        self.sample_at = sample_at
        self.pops = np.empty((len(sample_at), system.dim))
        self.amp = np.empty(n_steps + 1, dtype=complex)
        self.amp[0] = psi[system.i_taper2]
        self.pops[0] = np.abs(psi) ** 2
        self.n = 0
        self.cached_steps = 0
        steady = (coef == coef[:1]).all(axis=(0, 2))
        linked = steady[:-1] & steady[1:] & (coef[0, :-1] == coef[0, 1:]).all(axis=1)
        cuts = np.concatenate(([0], np.flatnonzero(~linked) + 1, [n_steps]))
        # a run of one step is a varying step; consecutive ones form one
        # stretch, as a constant run does
        lengths = np.diff(cuts)
        self.varies = np.repeat(lengths < 2, lengths)
        inner = cuts[1:-1]
        inner = inner[~(self.varies[inner - 1] & self.varies[inner])]
        self.edges = np.concatenate(([0], inner, [n_steps]))
        self.varying = np.flatnonzero(self.varies)
        self.block = None, None

    def take_prefix(self, other: "_Run") -> None:
        """Continue from `other`'s state and records, which must have been
        stepped over coefficients equal to this run's so far."""
        n = self.n = other.n
        self.psi = other.psi.copy()
        self.amp[:n + 1] = other.amp[:n + 1]
        self.pops[:n // self.every + 1] = other.pops[:n // self.every + 1]
        self.cached_steps = other.cached_steps

    def _stage_block(self, j: int) -> np.ndarray:
        """The stage maps of the varying steps of ranks j * BLOCK to
        (j + 1) * BLOCK - 1 on the whole grid, kept until the next block is
        asked for.  The block is padded with zero-control steps to a multiple
        of 16 steps, so that each of its steps takes the main path of the
        vectorised loops, never their remainder, whose arithmetic may
        differ."""
        if self.block[0] != j:
            steps = self.varying[j * BLOCK:(j + 1) * BLOCK]
            k = np.zeros((3, 4, -(-len(steps) // 16) * 16))
            k[..., :len(steps)] = self.coef[:, steps].transpose(0, 2, 1)
            self.block = j, _stage_maps(k, self.dt, *self.cache[None][2:])
        return self.block[1]

    def advance(self, end: int) -> None:
        """Step from `n` to the sample boundary `end`."""
        system, coef, dt, every = self.system, self.coef, self.dt, self.every
        n_steps, amp, pops, cache = self.n_steps, self.amp, self.pops, self.cache
        dim, i_out = system.dim, system.i_taper2

        def keep(n, psi):
            if n % every == 0 or n == n_steps:
                pops[-1 if n == n_steps else n // every] = np.abs(psi) ** 2

        psi, n = self.psi, self.n
        i = int(np.searchsorted(self.edges, n, side="right")) - 1
        while n < end:
            a, b = self.edges[i:i + 2].tolist()
            stop = min(b, end)
            i += 1
            if self.varies[a]:
                if None not in cache:
                    cache[None] = _zero_control_step(system, dt)
                stacked, weights = cache[None][:2]
                rank = int(np.searchsorted(self.varying, n))
                while n < stop:
                    j, first = divmod(rank, BLOCK)
                    count = min(stop - n, BLOCK - first)
                    for q in self._stage_block(j)[first:first + count]:
                        y = stacked @ psi
                        psi = psi + y[:dim] + weights @ (q @ y[dim:])
                        n += 1
                        amp[n] = psi[i_out]
                        keep(n, psi)
                    rank += count
                continue
            key = tuple(coef[0, a].tolist())
            if key not in cache:
                # increments E_k = M^k - I of the step matrix M, through
                # E_(k+1) = E_k + E_1 + E_k E_1; row i_out of E_k gives the
                # output amplitude k steps ahead
                inc = _taylor4_increment(-1j * dt * _hamiltonian(system, key))
                rows = np.empty((every, dim), dtype=complex)
                block = inc
                rows[0] = inc[i_out]
                for k in range(1, every):
                    block = block + inc + block @ inc
                    rows[k] = block[i_out]
                cache[key] = inc, block, rows
            inc, block, rows = cache[key]
            self.cached_steps += stop - n
            while n < stop:
                chunk = min(stop, (n // every + 1) * every)
                amp[n + 1:chunk + 1] = psi[i_out] + rows[:chunk - n] @ psi
                if chunk - n == every:
                    psi = psi + block @ psi
                else:
                    for _ in range(chunk - n):
                        psi = psi + inc @ psi
                n = chunk
                keep(n, psi)
        self.psi, self.n = psi, n

    def record(self) -> OutputRecord:
        kappa = self.system.waveguide.output_rate
        flux = kappa * np.abs(self.amp) ** 2
        emitted = _simpson(flux, self.dt)
        return OutputRecord(self.t[self.sample_at],
                            np.sqrt(kappa) * self.amp[self.sample_at],
                            self.pops, self.psi, emitted=emitted, dt=self.dt,
                            steps=self.n_steps, cached_steps=self.cached_steps)


def evolve(system: LatticeSystem, initial, horizon: float, dt: float = None,
           samples: int = SAMPLES) -> OutputRecord:
    """Fixed-step 4th-order propagation of the non-Hermitian Hamiltonian.

    `initial` is 'emitter' or a state vector of length dim and unit norm
    (to 1e-12), so the norm ledger always starts from 1; the horizon is
    finite and >= 0, an explicit dt finite and > 0, and samples a whole
    number >= 1.  Any other raises ValueError naming it.
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
    the RK4 step.  Every other step takes the RK4 step regrouped as
    psi + (T4(A0) - I) psi + W Q_n V psi, with A0 = -i dt H at zero
    controls, V and W the rows and columns of A0's powers at the four
    control sites, and Q_n the step's stage map (see _stage_maps).  Neither
    changes the integrator, its step or its truncation error; results
    differ from stage-by-stage RK4 only by roundoff.
    """
    if not (np.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(f"horizon must be finite and non-negative, got {horizon!r}")
    if dt is not None and not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (isinstance(samples, (int, np.integer)) and samples >= 1):
        raise ValueError(f"samples must be a whole number of at least 1, got {samples!r}")
    dt, t, coef = _grid(system, horizon, dt)
    run = _Run(system, _initial_state(system, initial), t, coef, dt, samples, {})
    run.advance(run.n_steps)
    return run.record()


def _evolve_branches(reference: LatticeSystem, branch: LatticeSystem,
                     horizon: float):
    """evolve(reference, 'emitter', horizon) and evolve(branch, 'emitter',
    horizon), stepping once through the steps the two share.

    The shared steps end at the last sample boundary before the first step
    whose coefficients differ: up to there both runs cut their steps at the
    same points, use the same step matrices and give each varying step the
    same stage map, which depends on that step's coefficients alone.  The
    branch then takes the reference's state and records and each run
    finishes alone, so both records equal the standalone runs bit for bit.
    The two runs share one cache of step matrices, which holds for one dt
    only, so two grids whose dt differ raise ValueError.
    """
    dt, t, coef = _grid(reference, horizon, None)
    ref = _Run(reference, _initial_state(reference, "emitter"), t, coef, dt,
               SAMPLES, {})
    dt_b, t_b, coef_b = _grid(branch, horizon, None)
    if dt_b != dt:
        raise ValueError(f"the branches step on different grids, dt = {dt:.6e} s "
                         f"and {dt_b:.6e} s; they cannot share a prefix")
    run = _Run(branch, _initial_state(branch, "emitter"), t_b, coef_b, dt,
               SAMPLES, ref.cache)
    differ = np.flatnonzero((coef != coef_b).any(axis=(0, 2)))
    first = int(differ[0]) if len(differ) else ref.n_steps
    ref.advance((max(first, 1) - 1) // ref.every * ref.every)
    run.take_prefix(ref)
    ref.advance(ref.n_steps)
    run.advance(run.n_steps)
    return ref.record(), run.record()


def _controlled(system: LatticeSystem, **controls) -> LatticeSystem:
    """system's lattice and couplings with the given controls in place of
    its own; the controls not given are kept."""
    kept = {name: getattr(system, name)
            for name in ("coupling_scale", "emitter_detuning", "mirror_detuning")}
    return LatticeSystem(system.waveguide, system.emitter_g, system.parasitic_g,
                         system.mirror_g, **{**kept, **controls})


def _envelope(t_env, xi_env):
    """The coupling scale (t_env, xi_env), held at zero outside its support;
    an envelope outside [0, 1] raises ValueError."""
    if np.any(xi_env > 1.0 + 1e-12):
        raise ValueError("coupling envelope exceeds unity")
    if np.any(xi_env < 0.0):
        raise ValueError("coupling envelope must be non-negative")
    return lambda t: np.interp(t, t_env, xi_env, left=0.0, right=0.0)


def _mirror_open(t_on, t_off):
    """The mirror detuning: resonant on [t_on, t_off], far detuned outside."""
    return lambda t: np.where((t_on <= t) & (t <= t_off), 0.0, FAR_DETUNED)


def emit_shaped(system_or_spec, t_env, xi_env, horizon=None,
                emitter_g=None) -> OutputRecord:
    """Drive the emitter with a shaped coupling envelope and collect the pulse.

    Accepts a full LatticeSystem, whose other controls are kept, or a
    WaveguideSpec plus the peak coupling `emitter_g`; the envelope (t_env,
    xi_env), in [0, 1], comes from flux-control, held at zero outside its
    support.
    """
    t_env = np.asarray(t_env, dtype=float)
    xi_env = np.asarray(xi_env, dtype=float)
    base = system_or_spec if isinstance(system_or_spec, LatticeSystem) \
        else LatticeSystem(system_or_spec, emitter_g)
    system = _controlled(base, coupling_scale=_envelope(t_env, xi_env))
    if horizon is None:
        horizon = t_env[-1] + 3.0 * round_trip_delay(system.waveguide)
    return evolve(system, "emitter", horizon)


def mirror_scatter(system: LatticeSystem, t_env, xi_env, window,
                   horizon=None) -> OutputRecord:
    """Emit a shaped pulse against the mirror, resonant inside `window`.

    `window` is (t_on, t_off); outside it the mirror is far detuned.  The
    transmitted energy fraction is energy_between(t_on, t_off) over the
    total emitted energy of the returned record.
    """
    gated = _controlled(system, mirror_detuning=_mirror_open(*window))
    if horizon is None:
        horizon = window[1] + 2.5 * round_trip_delay(system.waveguide)
    return emit_shaped(gated, t_env, xi_env, horizon=horizon)


def transmitted_fraction(record: OutputRecord, window) -> float:
    return record.energy_between(*window) / record.emitted_energy


def _cz_system(system: LatticeSystem, emitter_state: str, envelope, cz_window,
               mirror_window) -> LatticeSystem:
    def scale(t):
        in_cz = (emitter_state == "e") & (cz_window[0] <= t) & (t <= cz_window[1])
        return np.where(in_cz, 1.0, envelope(t))

    return _controlled(system, coupling_scale=scale,
                       mirror_detuning=_mirror_open(*mirror_window))


def cz_phase(system: LatticeSystem, emitter_state: str, t_env, xi_env):
    """Conditional reflection of a photon bouncing off the emitter.

    Full sequence: the shaped envelope (t_env, xi_env), in [0, 1], emits the
    photon, the mirror sends it back, and during the CZ window the emitter
    coupling is re-opened to its full emitter_g as a square pulse -- only
    when `emitter_state` is 'e', since in 'g' the returning photon finds no
    matching transition.  The system's emitter detuning is kept.  With c the
    envelope's power-weighted center and tau = round_trip_delay, the
    windows are fixed:

      mirror resonant  [0, c + 0.85 tau]: from the start, as the pulse can
                       be longer than the array, until just before the
                       reflected front returns to it
      CZ square pulse  [c + 0.45 tau, c + 1.65 tau]: around the whole
                       reflection off the emitter
      exit window      [c + 0.9 tau, c + 1.7 tau]: the main reflected pulse;
                       the later taper echo is the same in both branches
      horizon          c + 2.6 tau

    Returns (overlap, record).  The overlap is mode-matched against the 'g'
    reference branch over the exit window; arg(overlap) is the conditional
    phase, so 'g' gives exactly 1 and 'e' should give magnitude near one
    with phase pi.  For 'e' both branches are stepped by _evolve_branches:
    their controls are equal until the CZ window opens, after the emission
    that holds nearly all the non-cached steps, so that prefix is stepped
    once.  Both records, so the overlap too, equal those of standalone
    evolve() runs of the branch systems bit for bit.
    """
    if emitter_state not in ("g", "e"):
        raise ValueError("emitter_state must be 'g' or 'e'")
    round_trip = round_trip_delay(system.waveguide)
    t_env = np.asarray(t_env, dtype=float)
    xi_env = np.asarray(xi_env, dtype=float)
    envelope = _envelope(t_env, xi_env)
    center = float(np.trapezoid(t_env * xi_env ** 2, t_env)
                   / np.trapezoid(xi_env ** 2, t_env))
    mirror_window = (0.0, center + 0.85 * round_trip)
    cz_window = (center + 0.45 * round_trip, center + 1.65 * round_trip)
    exit_window = (center + 0.9 * round_trip, center + 1.7 * round_trip)

    def branch(state):
        return _cz_system(system, state, envelope, cz_window, mirror_window)

    horizon = center + 2.6 * round_trip
    if emitter_state == "g":
        return 1.0 + 0.0j, evolve(branch("g"), "emitter", horizon)
    reference, record = _evolve_branches(branch("g"), branch("e"), horizon)
    return cz_overlap(reference, record, exit_window), record


def cz_overlap(reference: OutputRecord, branch: OutputRecord,
               window) -> complex:
    """Mode-matched overlap of two exit fields over a time window."""
    m = (reference.t >= window[0]) & (reference.t <= window[1])
    f_ref = reference.a_out[m]
    f_br = np.interp(reference.t[m], branch.t, branch.a_out.real) \
        + 1j * np.interp(reference.t[m], branch.t, branch.a_out.imag)
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


def taper_transmittance(spec: WaveguideSpec, bandwidth: float = 0.0):
    """Energy transmission of the taper; (fraction, dB).

    bandwidth = 0 gives the steady-state plane-wave value at band center.  A
    finite bandwidth (FWHM of the pulse power spectrum, Hz) averages |t|^2
    over a Gaussian spectral weight about band center, out to +-4 sigma; a
    window that leaves the passband interior raises ValueError.
    """
    if not (np.isfinite(bandwidth) and bandwidth >= 0.0):
        raise ValueError(f"bandwidth must be finite and non-negative, got {bandwidth!r}")
    carrier = spec.center
    if bandwidth <= 0.0:
        t_val = 1.0 - abs(taper_reflection(spec, carrier)) ** 2
    else:
        sigma = TWO_PI * bandwidth / 2.3548
        lo, hi = spec.band_edges
        edge = 1e-4 * (hi - lo)
        if carrier - 4 * sigma < lo + edge or carrier + 4 * sigma > hi - edge:
            raise ValueError(f"bandwidth {bandwidth:.4g} Hz puts the +-4 sigma window "
                             "outside the passband interior")
        w = np.linspace(carrier - 4 * sigma, carrier + 4 * sigma, 301)
        weight = np.exp(-0.5 * ((w - carrier) / sigma) ** 2)
        trans = 1.0 - np.abs(taper_reflection(spec, w)) ** 2
        t_val = float(np.trapezoid(weight * trans, w) / np.trapezoid(weight, w))
    return t_val, 10.0 * np.log10(t_val)


def taper_echo_train(spec: WaveguideSpec, n_echoes: int = 3):
    """Arrival times and energy fractions of the multi-bounce echo train.

    A pulse leaving the emitter end partially reflects off the taper, runs
    back to the (bare, fully reflecting) emitter end, and tries again; the
    n-th passage exits with energy T * R^n delayed by n round trips, at
    band center.
    """
    if not (isinstance(n_echoes, (int, np.integer)) and n_echoes >= 0):
        raise ValueError(f"n_echoes must be a finite, non-negative whole number, got {n_echoes!r}")
    r2 = abs(taper_reflection(spec, spec.center)) ** 2
    times = np.arange(n_echoes + 1) * round_trip_delay(spec)
    energies = (1.0 - r2) * r2 ** np.arange(n_echoes + 1)
    return times, energies


def end_reflection(spec: WaveguideSpec, omega, coupling: float) -> complex:
    """Reflection off the emitter end of the chain with a coupled qubit
    resonant with the passband center.

    With the qubit decoupled the bare end reflects with -1; the resonant
    qubit adds a 2k winding, which at band center is the pi of the
    conditional gate.  omega may be an array; the reflection is then taken
    elementwise.
    """
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling!r}")
    k = wavenumber(spec, omega)
    e = omega - spec.center
    j = spec.hop_j
    phase = np.exp(1j * k)
    if coupling == 0.0:
        return np.exp(2j * k) * (e - j * phase) / (j / phase - e)
    # at e = 0 the qubit pins the end site, which reflects with -exp(2ik)
    off = e != 0.0
    b1 = e - coupling ** 2 / np.where(off, e, 1.0)
    return np.where(off, np.exp(2j * k) * (b1 - j * phase) / (j / phase - b1),
                    -np.exp(2j * k))[()]
