"""Time-domain solver tests.

Decay rates, shaped emission, the mirror bounce and the conditional-phase
scattering sequence are checked against independent oracles: closed-form
Markovian rates, plane-wave boundary formulas, a port-side Green's-function
reflection, and long-lattice wavepacket scattering runs.
"""

import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from slowlight import dynamics
from slowlight.dynamics import (FAR_DETUNED, LatticeSystem, OutputRecord, cz_phase,
                                emit_shaped, end_reflection, evolve, mirror_scatter,
                                pulse_bandwidth, taper_echo_train,
                                taper_reflection, taper_transmittance,
                                transmitted_fraction)
from slowlight.fluxcontrol import erf_envelope
from slowlight.noise import ChannelStack
from slowlight.waveguide import (WaveguideSpec, gamma_1d, round_trip_delay,
                                 wavenumber)

TWO_PI = 2.0 * np.pi
SPEC = WaveguideSpec.device()
G_UC = TWO_PI * 35.16e6
G_EF = np.sqrt(2.0) * G_UC
G_MIRROR = TWO_PI * 57.0e6
# peak envelope for the shaped pulses: scales the e-f rate down to the
# 40.8 MHz working point
XI_PULSE = np.sqrt(40.8 / 145.6)
ROUND_TRIP = round_trip_delay(SPEC)


@pytest.fixture(scope="module")
def pulse80():
    return erf_envelope(80e-9, 0.0, XI_PULSE, 216e-9, 0.2e-9)


@pytest.fixture(scope="module")
def rec80(pulse80):
    return emit_shaped(SPEC, *pulse80, emitter_g=G_EF)


@pytest.fixture(scope="module")
def mirror_system():
    return LatticeSystem(SPEC, G_EF, 0.0, G_MIRROR)


@pytest.fixture(scope="module")
def mirror_records(mirror_system, pulse80):
    on = mirror_scatter(mirror_system, *pulse80, window=(0.0, 385e-9),
                        horizon=1e-6)
    off = mirror_scatter(mirror_system, *pulse80, window=(-2.0, -1.0),
                         horizon=1e-6)
    return on, off


@pytest.fixture(scope="module")
def cz_records(mirror_system, pulse80):
    overlap_g, rec_g = cz_phase(mirror_system, "g", *pulse80)
    overlap_e, rec_e = cz_phase(mirror_system, "e", *pulse80)
    return overlap_g, rec_g, overlap_e, rec_e


def test_decoupled_emitter_stays_put():
    system = LatticeSystem(SPEC, G_UC)
    rec = evolve(system, "emitter", 100e-9)
    assert np.all(np.abs(rec.emitter_population() - 1.0) < 1e-9)
    assert np.all(rec.flux == 0.0)


@pytest.mark.parametrize("xi, window, rel_tol", [
    (0.22, (10e-9, 150e-9), 0.05),
    (0.10, (20e-9, 200e-9), 0.02),
])
def test_decay_rate_matches_closed_form(xi, window, rel_tol):
    # fit stops before the taper echo revives the emitter at the round trip
    system = LatticeSystem(SPEC, G_UC, coupling_scale=xi)
    rec = evolve(system, "emitter", window[1] + 10e-9)
    m = (rec.t >= window[0]) & (rec.t <= window[1])
    slope = np.polyfit(rec.t[m], np.log(rec.emitter_population()[m]), 1)[0]
    expected = gamma_1d(xi * G_UC, SPEC.hop_j, "end")
    assert -slope == pytest.approx(expected, rel=rel_tol)


def test_emitter_revival_after_round_trip():
    # the 18% taper reflection returns after one round trip and re-excites
    # the emitter; detuning the emitter slows the initial decay
    system = LatticeSystem(SPEC, G_UC, coupling_scale=0.22)
    rec = evolve(system, "emitter", 450e-9)
    pop = rec.emitter_population()
    floor = pop[rec.t < 210e-9].min()
    revival = pop[(rec.t > 210e-9) & (rec.t < 420e-9)].max()
    assert floor < 0.02
    assert revival > 0.05
    assert revival > 5.0 * floor

    detuned = LatticeSystem(SPEC, G_UC, coupling_scale=0.22,
                            emitter_detuning=TWO_PI * 30e6)
    rec_d = evolve(detuned, "emitter", 200e-9)
    p_res = np.interp(150e-9, rec.t, pop)
    p_det = np.interp(150e-9, rec_d.t, rec_d.emitter_population())
    assert p_det > p_res + 0.01


def test_norm_ledger_closes(rec80, mirror_records):
    for rec in (rec80, mirror_records[0]):
        assert abs(rec.emitted_energy + rec.remaining_norm - 1.0) < 1e-6


def test_linearity_of_propagation():
    system = LatticeSystem(SPEC, 0.0)
    horizon = 150e-9

    def from_site(state):
        psi = np.zeros(system.dim, dtype=complex)
        if np.isscalar(state):
            psi[state] = 1.0
        else:
            psi[:] = state
        return evolve(system, psi, horizon)

    rec_a = from_site(45)
    rec_b = from_site(48)
    combo = np.zeros(system.dim, dtype=complex)
    combo[45], combo[48] = 0.6, 0.8j
    rec_c = from_site(combo)
    scale = np.abs(rec_c.a_out).max()
    assert np.allclose(rec_c.a_out, 0.6 * rec_a.a_out + 0.8j * rec_b.a_out,
                       atol=1e-10 * scale)


def test_step_guard_names_limiting_rate():
    system = LatticeSystem(SPEC, G_UC)
    with pytest.raises(ValueError, match="too coarse"):
        evolve(system, "emitter", 1e-7, dt=1e-9)


def test_step_bound_holds_inside_a_window_the_probes_miss():
    # the 64 probe times of a 400 ns horizon lie 6.3 ns apart, so the
    # 2 GHz window falls between two of them
    window = (13e-9, 18e-9)

    def detuning(t):
        return np.where((window[0] <= t) & (t <= window[1]), TWO_PI * 2e9, 0.0)

    system = LatticeSystem(SPEC, G_UC, emitter_detuning=detuning)
    fastest = system.max_rate(np.linspace(*window, 11))
    assert fastest == TWO_PI * 2e9
    rec = evolve(system, "emitter", 400e-9)
    assert rec.dt <= 0.05 / fastest
    with pytest.raises(ValueError, match=r"too coarse.*2\.000e\+09 Hz"):
        evolve(system, "emitter", 400e-9, dt=2e-11)


@pytest.mark.parametrize("emitter_g, scale", [
    (G_EF, 10.0),
    (-TWO_PI * 500e6, 1.0),
], ids=["scaled_past_one", "negative"])
def test_step_bound_counts_the_coupling_on_the_grid(emitter_g, scale):
    """The emitter coupling enters the bound with the magnitude it has on
    the grid: scaled ten times past its nominal value, or negative, it
    outruns the output rate that bounded dt before."""
    system = LatticeSystem(SPEC, emitter_g, coupling_scale=scale)
    coupling = abs(scale * emitter_g)
    assert coupling > 3.0 * SPEC.output_rate
    assert system.max_rate(np.linspace(0.0, 20e-9, 5)) == coupling
    with pytest.raises(ValueError, match="too coarse"):
        evolve(system, "emitter", 20e-9, dt=5.27e-11)
    rec = evolve(system, "emitter", 20e-9)
    assert rec.dt <= 0.05 / coupling
    assert abs(rec.emitted_energy + rec.remaining_norm - 1.0) < 1e-6


@pytest.mark.parametrize("control", [
    lambda t: 1.0 if t < 5e-9 else 0.0,
    lambda t: np.zeros(3),
])
def test_controls_must_take_arrays_of_times(control):
    system = LatticeSystem(SPEC, G_UC, coupling_scale=control)
    with pytest.raises(TypeError, match="coupling_scale must accept an array of times"):
        evolve(system, "emitter", 20e-9)


@pytest.mark.parametrize("name, control", [
    ("coupling_scale", lambda t: np.where(t < 5e-9, 1.0, np.nan)),
    ("emitter_detuning", lambda t: np.where(t < 5e-9, 0.0, -np.inf)),
    ("mirror_detuning", lambda t: np.where(t < 5e-9, FAR_DETUNED, np.nan)),
    ("mirror_detuning", np.nan),
])
def test_non_finite_controls_are_refused_by_name(name, control):
    """A control that turns NaN or infinite partway through a 20 ns run
    raises instead of running to a NaN record, and a NaN mirror detuning is
    not read as far detuned."""
    system = LatticeSystem(SPEC, G_UC, mirror_g=G_MIRROR, **{name: control})
    with pytest.raises(ValueError, match=f"control {name} is NaN or infinite"):
        evolve(system, "emitter", 20e-9)


@pytest.mark.parametrize("name", ["emitter_g", "parasitic_g", "mirror_g"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_couplings_are_refused(name, value):
    couplings = {"emitter_g": G_UC, "parasitic_g": 0.0, "mirror_g": G_MIRROR, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LatticeSystem(SPEC, **couplings)


@pytest.mark.parametrize("initial, message", [
    (2, r"shape \(\), not \(54,\)"),
    (2.5, r"shape \(\), not \(54,\)"),
    (np.zeros(53), r"shape \(53,\), not \(54,\)"),
    (2.0 * np.eye(54)[0], "norm 2 is not 1"),
    ((1.0 + 1e-11) * np.eye(54)[0], "is not 1"),
    ("cavity", "'emitter' or a state vector"),
])
def test_evolve_rejects_a_bad_initial_state(initial, message):
    """A vector off unit norm would leave the ledger short of 1, so it
    raises, as do a vector of the wrong length, a name other than 'emitter'
    and a number, which is a vector of the wrong shape (2.5 once started
    from site 2 without an error)."""
    system = LatticeSystem(SPEC, G_UC)
    assert system.dim == 54
    with pytest.raises(ValueError, match=message):
        evolve(system, initial, 5e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1000, 1001])
def test_simpson_rule_is_scipys_bit_for_bit(n):
    """dynamics._simpson, which closes the evolve ledger without importing
    scipy.integrate, equals scipy.integrate.simpson(y, dx=dt) exactly, with
    Cartwright's last-interval correction at even length."""
    rng = np.random.default_rng(n)
    for dt in (1e-12, 0.37, 3.0):
        y = rng.standard_normal(n)
        assert dynamics._simpson(y, dt) == simpson(y, dx=dt)
        assert dynamics._simpson(np.abs(y), dt) == simpson(np.abs(y), dx=dt)


def test_simpson_rule_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        dynamics._simpson(np.empty(0), 0.1)


def _oracle(system, initial, horizon, dt, samples=2000):
    """Reference stage-by-stage RK4 loop: every stage applies H at its own
    time, with each control called on a single float time."""
    h0 = system._h0

    def apply(t, psi):
        out = h0 @ psi
        g_e = float(system.coupling_scale(t)) * system.emitter_g + system.parasitic_g
        out[0] += float(system.emitter_detuning(t)) * psi[0] + g_e * psi[1]
        out[1] += g_e * psi[0]
        dm = float(system.mirror_detuning(t))
        if abs(dm) < FAR_DETUNED:
            m, c = system.i_mirror, system.i_last
            out[m] += dm * psi[m] + system.mirror_g * psi[c]
            out[c] += system.mirror_g * psi[m]
        return out

    psi = np.zeros(system.dim, dtype=complex)
    if isinstance(initial, str):
        psi[system.i_emitter] = 1.0
    else:
        psi[:] = initial
    n_steps = int(np.ceil(horizon / dt))
    every = max(1, n_steps // samples)
    i_out = system.i_taper2
    kappa = system.waveguide.output_rate
    fields = []
    flux = [kappa * abs(psi[i_out]) ** 2]
    t = 0.0
    for step in range(n_steps + 1):
        if step % every == 0 or step == n_steps:
            fields.append(np.sqrt(kappa) * psi[i_out])
        if step == n_steps:
            break
        k1 = apply(t, psi)
        k2 = apply(t + 0.5 * dt, psi - 0.5j * dt * k1)
        k3 = apply(t + 0.5 * dt, psi - 0.5j * dt * k2)
        k4 = apply(t + dt, psi - 1j * dt * k3)
        psi = psi - (1j * dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        flux.append(kappa * abs(psi[i_out]) ** 2)
    return np.array(fields), psi, simpson(np.array(flux), dx=dt)


def _assert_matches_oracle(rec, system, initial, horizon, samples=2000):
    a_out, final, emitted = _oracle(system, initial, horizon, rec.dt, samples)
    assert rec.steps == int(np.ceil(horizon / rec.dt))
    for got, want in ((rec.a_out, a_out), (rec.final_state, final)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert rec.emitted_energy == pytest.approx(emitted, rel=1e-12, abs=0.0)


def _first_evolve(monkeypatch, fn, *args, **kwargs):
    """Run fn and return the system, initial state and horizon of its first
    evolve() call, with that call's record."""
    calls = []

    def recording(system, initial, horizon, *rest, **kw):
        rec = evolve(system, initial, horizon, *rest, **kw)
        calls.append((rec, system, initial, horizon))
        return rec

    monkeypatch.setattr(dynamics, "evolve", recording)
    fn(*args, **kwargs)
    return calls[0]


def test_constant_controls_match_the_scalar_loop_and_cache_every_step():
    system = LatticeSystem(SPEC, G_EF, TWO_PI * 1e6, G_MIRROR, coupling_scale=0.3,
                           emitter_detuning=TWO_PI * 20e6,
                           mirror_detuning=TWO_PI * 5e6)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    psi /= np.linalg.norm(psi)
    rec = evolve(system, psi, 60e-9, samples=300)
    assert rec.cached_steps == rec.steps
    _assert_matches_oracle(rec, system, psi, 60e-9, samples=300)


def test_mirror_switching_mid_run_matches_the_scalar_loop(monkeypatch, mirror_system):
    # the mirror opens and closes while the emitter is idle, splitting a
    # constant run between sample times
    t_env, xi_env = erf_envelope(15e-9, 0.33, XI_PULSE, 30e-9, 0.1e-9)
    rec, system, initial, horizon = _first_evolve(
        monkeypatch, mirror_scatter, mirror_system, t_env, xi_env,
        window=(47.3e-9, 151.7e-9), horizon=300e-9)
    assert rec.steps // 2000 > 1
    assert 0 < rec.cached_steps < rec.steps
    _assert_matches_oracle(rec, system, initial, horizon)


def _cz_branches(monkeypatch, system, t_env, xi_env):
    """Run cz_phase(system, 'e', ...) and return its overlap and record with
    the g and e branch systems and the horizon they were stepped over."""
    calls = []
    run_branches = dynamics._evolve_branches

    def recording(reference, branch, horizon):
        calls.append(((reference, branch), horizon))
        return run_branches(reference, branch, horizon)

    monkeypatch.setattr(dynamics, "_evolve_branches", recording)
    overlap, rec = cz_phase(system, "e", t_env, xi_env)
    (branches, horizon), = calls
    return overlap, rec, branches, horizon


def test_cz_excited_branch_matches_the_scalar_loop(monkeypatch, mirror_system, pulse80):
    _, rec, (_, system), horizon = _cz_branches(monkeypatch, mirror_system, *pulse80)
    initial = "emitter"
    assert float(system.emitter_detuning(0.0)) == 0.0
    assert 0 < rec.cached_steps < rec.steps
    _assert_matches_oracle(rec, system, initial, horizon)


@pytest.mark.parametrize("t_ramp", [80e-9, 25e-9], ids=["pulse80", "ramp25"])
def test_cz_branches_equal_standalone_runs_bit_for_bit(monkeypatch, mirror_system, t_ramp):
    t_env, xi_env = erf_envelope(t_ramp, 0.0, XI_PULSE, 2.7 * t_ramp, 0.2e-9)
    overlap, rec, (reference, branch), horizon = _cz_branches(
        monkeypatch, mirror_system, t_env, xi_env)
    alone_g = evolve(reference, "emitter", horizon)
    alone_e = evolve(branch, "emitter", horizon)
    center = np.trapezoid(t_env * xi_env ** 2, t_env) \
        / np.trapezoid(xi_env ** 2, t_env)
    window = (center + 0.9 * ROUND_TRIP, center + 1.7 * ROUND_TRIP)
    assert overlap == dynamics.cz_overlap(alone_g, alone_e, window)
    assert np.array_equal(rec.a_out, alone_e.a_out)
    assert np.array_equal(rec.final_state, alone_e.final_state)
    assert rec.emitted_energy == alone_e.emitted_energy
    assert (rec.steps, rec.cached_steps) == (alone_e.steps, alone_e.cached_steps)


def _ramped(t_env, xi_env, **controls):
    return LatticeSystem(
        SPEC, G_EF, 0.0, G_MIRROR,
        coupling_scale=lambda t: np.interp(t, t_env, xi_env, left=0.0, right=0.0),
        mirror_detuning=lambda t: np.where(t <= 40e-9, 0.0, FAR_DETUNED), **controls)


def test_branches_that_share_no_step_equal_standalone_runs_bit_for_bit():
    # the branch's coupling is on from t = 0, so the two runs fork at step 0
    t_env, xi_env = erf_envelope(15e-9, 0.33, XI_PULSE, 30e-9, 0.1e-9)
    reference = _ramped(t_env, xi_env)
    branch = _ramped(t_env, np.full_like(xi_env, XI_PULSE))
    assert reference.coupling_scale(0.0) != branch.coupling_scale(0.0)
    horizon = 80e-9
    records = dynamics._evolve_branches(reference, branch, horizon)
    for rec, system in zip(records, (reference, branch)):
        alone = evolve(system, "emitter", horizon)
        assert np.array_equal(rec.a_out, alone.a_out)
        assert np.array_equal(rec.populations, alone.populations)
        assert np.array_equal(rec.final_state, alone.final_state)
        assert rec.emitted_energy == alone.emitted_energy
        assert (rec.steps, rec.cached_steps) == (alone.steps, alone.cached_steps)


def test_branches_on_different_grids_are_refused():
    # a 200 MHz emitter detuning is past the fastest static rate, so that
    # branch needs a finer step; one cache of step matrices cannot serve both
    t_env, xi_env = erf_envelope(15e-9, 0.33, XI_PULSE, 30e-9, 0.1e-9)
    reference = _ramped(t_env, xi_env)
    branch = _ramped(t_env, xi_env, emitter_detuning=TWO_PI * 200e6)
    with pytest.raises(ValueError, match="different grids"):
        dynamics._evolve_branches(reference, branch, 80e-9)


def test_cz_phase_refuses_an_envelope_outside_the_unit_interval(mirror_system):
    t = np.linspace(0.0, 30e-9, 300)
    with pytest.raises(ValueError, match="exceeds unity"):
        cz_phase(mirror_system, "e", t, np.full_like(t, 1.2))
    with pytest.raises(ValueError, match="non-negative"):
        cz_phase(mirror_system, "e", t, np.full_like(t, -0.1))


def test_mirror_edge_inside_the_emission_matches_the_scalar_loop(mirror_system):
    # the mirror closes while the coupling still rises, so the steps around
    # the edge vary in both control pairs at once
    t_env, xi_env = erf_envelope(15e-9, 0.33, XI_PULSE, 30e-9, 0.1e-9)
    system = LatticeSystem(
        SPEC, G_EF, 0.0, G_MIRROR,
        coupling_scale=lambda t: np.interp(t, t_env, xi_env, left=0.0, right=0.0),
        mirror_detuning=lambda t: np.where(t <= 12.34e-9, 0.0, FAR_DETUNED))
    horizon = 60e-9
    rec = evolve(system, "emitter", horizon)
    _, _, coef = dynamics._grid(system, horizon, None)
    varies = (coef != coef[:1]).any(axis=0)
    assert np.any(varies[:, 0] & varies[:, 3])
    _assert_matches_oracle(rec, system, "emitter", horizon)


@pytest.mark.parametrize("n_cells", [2, 3])
def test_short_lattices_couple_the_control_pairs_and_match_the_scalar_loop(n_cells):
    """With two or three cells, cell 1 and cell N lie within two hops, so
    the zero-control step links the emitter pair to the mirror pair; the
    varying steps must carry that link."""
    spec = dataclasses.replace(SPEC, n_cells=n_cells)
    t_env, xi_env = erf_envelope(4e-9, 0.0, 0.8, 12e-9, 0.1e-9)
    system = LatticeSystem(
        spec, G_EF, 0.0, G_MIRROR,
        coupling_scale=lambda t: np.interp(t, t_env, xi_env, left=0.0, right=0.0),
        emitter_detuning=lambda t: TWO_PI * 40e6 * np.sin(TWO_PI * 90e6 * t),
        mirror_detuning=lambda t: np.where(t <= 7.1e-9, TWO_PI * 25e6, FAR_DETUNED))
    horizon = 20e-9
    rec = evolve(system, "emitter", horizon)
    _, _, g1, g2 = dynamics._zero_control_step(system, rec.dt)
    assert any(i < 2 <= j for i, j in list(g1) + list(g2))
    assert rec.cached_steps < rec.steps // 2
    _assert_matches_oracle(rec, system, "emitter", horizon)


@settings(derandomize=True, deadline=None, max_examples=6)
@given(scale=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5),
                      st.floats(0.0, 2.0 * np.pi)),
       detunings=st.tuples(*[st.floats(-TWO_PI * 200e6, TWO_PI * 200e6)] * 2),
       rates=st.tuples(*[st.floats(TWO_PI * 5e6, TWO_PI * 80e6)] * 3),
       window=st.tuples(st.floats(0.0, 20e-9), st.floats(0.0, 20e-9)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_smooth_controls_close_the_ledger_and_match_the_scalar_loop(
        scale, detunings, rates, window, seed):
    """Every coefficient changes inside the run: the coupling and both
    detunings follow random sines, and the mirror coupling switches at the
    edges of a random window."""
    mean, swing, phase = scale
    d_e, d_m = detunings
    w_g, w_e, w_m = rates
    on, off = sorted(window)
    system = LatticeSystem(
        SPEC, G_EF, TWO_PI * 2e6, G_MIRROR,
        coupling_scale=lambda t: mean + swing * np.sin(w_g * t + phase),
        emitter_detuning=lambda t: d_e * np.cos(w_e * t),
        mirror_detuning=lambda t: np.where((on <= t) & (t <= off),
                                           d_m * np.sin(w_m * t + 1.0), FAR_DETUNED))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    psi /= np.linalg.norm(psi)
    rec = evolve(system, psi, 30e-9, samples=60)
    assert rec.cached_steps == 0 or swing == 0.0
    assert abs(rec.emitted_energy + rec.remaining_norm - 1.0) < 1e-6
    _assert_matches_oracle(rec, system, psi, 30e-9, samples=60)


def test_record_does_not_depend_on_where_advance_stops():
    # about 2,000 varying steps: the cuts fall inside, between and across
    # the blocks whose stage maps are formed together
    t_env, xi_env = erf_envelope(15e-9, 0.33, XI_PULSE, 45e-9, 0.1e-9)
    system = LatticeSystem(
        SPEC, G_EF, 0.0, G_MIRROR,
        coupling_scale=lambda t: np.interp(t, t_env, xi_env, left=0.0, right=0.0),
        mirror_detuning=lambda t: np.where(t <= 20e-9, 0.0, FAR_DETUNED))
    dt, t, coef = dynamics._grid(system, 60e-9, None)

    def run():
        return dynamics._Run(system, dynamics._initial_state(system, "emitter"),
                             t, coef, dt, 300, {})

    whole = run()
    whole.advance(whole.n_steps)
    assert len(whole.varying) > 1.5 * dynamics.BLOCK
    cut = run()
    every = cut.every
    for end in (every, 7 * every, 113 * every, 114 * every, 150 * every,
                whole.n_steps):
        cut.advance(end)
    a, b = whole.record(), cut.record()
    assert np.array_equal(a.a_out, b.a_out)
    assert np.array_equal(a.populations, b.populations)
    assert np.array_equal(a.final_state, b.final_state)
    assert a.emitted_energy == b.emitted_energy
    assert a.cached_steps == b.cached_steps


@settings(derandomize=True, deadline=None, max_examples=6)
@given(scale=st.floats(0.0, 1.0),
       detunings=st.tuples(*[st.floats(-TWO_PI * 200e6, TWO_PI * 200e6)] * 2),
       mirror_on=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_constant_controls_close_the_ledger_and_match_the_scalar_loop(
        scale, detunings, mirror_on, seed):
    d_e, d_m = detunings
    system = LatticeSystem(SPEC, G_EF, 0.0, G_MIRROR, coupling_scale=scale,
                           emitter_detuning=d_e,
                           mirror_detuning=d_m if mirror_on else FAR_DETUNED)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    psi /= np.linalg.norm(psi)
    rec = evolve(system, psi, 100e-9, samples=40)
    assert rec.emitted_energy > 0.01
    assert abs(rec.emitted_energy + rec.remaining_norm - 1.0) < 1e-6
    _assert_matches_oracle(rec, system, psi, 100e-9, samples=40)


def test_ledger_closes_with_weight_on_the_taper():
    # weight on the taper sites leaves through the load within the first
    # steps; a trapezoid over the per-step flux left 1.22e-6 here
    system = LatticeSystem(SPEC, G_EF, 0.0, G_MIRROR, coupling_scale=0.0,
                           mirror_detuning=FAR_DETUNED)
    rng = np.random.default_rng(1384)
    psi = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    psi /= np.linalg.norm(psi)
    rec = evolve(system, psi, 20e-9, samples=40)
    assert abs(rec.emitted_energy + rec.remaining_norm - 1.0) < 1e-6


def test_device_pulse_caches_most_steps(rec80):
    assert rec80.steps == int(np.ceil(rec80.t[-1] / rec80.dt))
    assert rec80.cached_steps >= 0.7 * rec80.steps


def test_envelope_validation():
    t = np.linspace(0.0, 30e-9, 300)
    with pytest.raises(ValueError, match="exceeds unity"):
        emit_shaped(SPEC, t, np.full_like(t, 1.2), emitter_g=G_EF)
    with pytest.raises(ValueError, match="non-negative"):
        emit_shaped(SPEC, t, np.full_like(t, -0.1), emitter_g=G_EF)


def test_fast_ramp_residual_below_one_percent():
    t_env, xi_env = erf_envelope(15e-9, 0.33, XI_PULSE, 30e-9, 0.1e-9)
    rec = emit_shaped(SPEC, t_env, xi_env, emitter_g=G_EF, horizon=30e-9)
    residual = rec.emitter_population()[-1]
    assert residual < 0.01
    assert residual == pytest.approx(1.45e-3, abs=5e-4)


def test_residual_monotone_in_ramp_offset():
    residuals = []
    for delta in (0.0, 0.15, 0.33, 0.5):
        t_env, xi_env = erf_envelope(15e-9, delta, XI_PULSE, 30e-9, 0.1e-9)
        rec = emit_shaped(SPEC, t_env, xi_env, emitter_g=G_EF, horizon=30e-9)
        residuals.append(rec.emitter_population()[-1])
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_output_flux_is_gaussian_and_transform_limited(rec80):
    from scipy.optimize import curve_fit

    m = rec80.t < 380e-9

    def gauss(t, a, t0, s):
        return a * np.exp(-((t - t0) ** 2) / (2.0 * s ** 2))

    p, _ = curve_fit(gauss, rec80.t[m], rec80.flux[m],
                     p0=[rec80.flux.max(), 180e-9, 30e-9])
    rms = np.sqrt(np.mean((rec80.flux[m] - gauss(rec80.t[m], *p)) ** 2))
    assert rms < 0.01 * rec80.flux.max()

    # Gaussian flux of duration T has a transform-limited spectral width
    # 2 ln2 / (pi T); the windowed measurement excludes the taper echo,
    # whose interference fringes only narrow the apparent full-record width
    fwhm_t = 2.0 * np.sqrt(2.0 * np.log(2.0)) * abs(p[2])
    limit = 2.0 * np.log(2.0) / (np.pi * fwhm_t)
    bw_main = pulse_bandwidth(rec80, (0.0, 380e-9))
    assert bw_main == pytest.approx(limit, rel=0.06)
    assert bw_main == pytest.approx(13.2e6, abs=0.6e6)
    assert pulse_bandwidth(rec80) < bw_main


def test_bandwidth_rejects_a_spectrum_above_half_maximum_at_the_grid_edge():
    # a field alternating sign every sample peaks at the Nyquist frequency,
    # the first bin of the shifted spectrum
    t = np.linspace(0.0, 1e-6, 4096)
    a = np.where(np.arange(4096) % 2, -1.0, 1.0).astype(complex)
    record = OutputRecord(t, a, None, None, emitted=0.0, dt=t[1], steps=len(t) - 1,
                          cached_steps=0)
    with pytest.raises(ValueError, match="half maximum at the edge"):
        pulse_bandwidth(record)


def test_mirror_far_detuned_is_identity(mirror_system, mirror_records, pulse80):
    plain = emit_shaped(mirror_system, *pulse80, horizon=1e-6)
    assert np.array_equal(mirror_records[1].a_out, plain.a_out)


def test_mirror_reflects_all_but_two_percent(mirror_records):
    frac = transmitted_fraction(mirror_records[0], (0.0, 385e-9))
    assert frac == pytest.approx(0.02, abs=0.01)
    assert frac == pytest.approx(0.0219, abs=3e-3)


def test_reflected_pulse_delayed_by_round_trip(mirror_records):
    on, off = mirror_records
    late = on.t > 400e-9
    t_reflected = on.t[late][np.argmax(on.flux[late])]
    delay = t_reflected - off.peak_time()
    assert delay == pytest.approx(round_trip_delay(SPEC), rel=0.02)


def test_cz_ground_branch_is_trivial(cz_records):
    overlap_g = cz_records[0]
    assert overlap_g == 1.0 + 0.0j


def test_cz_conditional_phase_and_overlap(cz_records, mirror_system, pulse80):
    overlap_e = cz_records[2]
    assert abs(overlap_e) >= 0.98
    assert abs(abs(cmath.phase(overlap_e)) - np.pi) <= 0.05
    assert abs(overlap_e) == pytest.approx(0.9977, abs=5e-3)
    with pytest.raises(ValueError, match="'g' or 'e'"):
        cz_phase(mirror_system, "f", *pulse80)


def test_cz_flips_sign_of_real_field(cz_records, pulse80):
    _, rec_g, _, rec_e = cz_records
    t_env, xi_env = pulse80
    center = np.trapezoid(t_env * xi_env ** 2, t_env) \
        / np.trapezoid(xi_env ** 2, t_env)
    m = (rec_g.t >= center + 0.9 * ROUND_TRIP) \
        & (rec_g.t <= center + 1.7 * ROUND_TRIP)
    corr = np.trapezoid(rec_g.a_out[m].real * rec_e.a_out[m].real, rec_g.t[m])
    norm = np.sqrt(np.trapezoid(rec_g.a_out[m].real ** 2, rec_g.t[m])
                   * np.trapezoid(rec_e.a_out[m].real ** 2, rec_g.t[m]))
    assert corr / norm < -0.9


@pytest.mark.parametrize("t_ramp", [40e-9, 25e-9])
def test_cz_phase_holds_across_bandwidths(mirror_system, t_ramp):
    # pulse widths up to ~28 MHz, still below a quarter of the 145.6 MHz
    # scattering linewidth
    t_env, xi_env = erf_envelope(t_ramp, 0.0, XI_PULSE, 2.7 * t_ramp, 0.2e-9)
    overlap, _ = cz_phase(mirror_system, "e", t_env, xi_env)
    assert abs(overlap) >= 0.98
    assert abs(abs(cmath.phase(overlap)) - np.pi) <= 0.05


def test_cz_narrowband_reflection_oracle():
    # plane-wave route: the resonantly coupled end flips the reflection
    # sign exactly at band center, and stays within the gate tolerance
    # over the +-Gamma/8 neighbourhood a quarter-linewidth pulse occupies
    ratio = end_reflection(SPEC, SPEC.center, G_EF) \
        / end_reflection(SPEC, SPEC.center, 0.0)
    assert ratio == pytest.approx(-1.0, abs=1e-12)
    for off_hz in np.linspace(-145.6e6 / 8.0, 145.6e6 / 8.0, 21):
        omega = SPEC.center + TWO_PI * off_hz
        r = end_reflection(SPEC, omega, G_EF) / end_reflection(SPEC, omega, 0.0)
        assert abs(abs(cmath.phase(r)) - np.pi) < 0.05


def test_end_reflection_of_an_array_is_taken_elementwise():
    # band center, where the coupled qubit pins the end, among offsets
    omega = SPEC.center + np.concatenate(
        ([0.0], TWO_PI * np.linspace(-18.2e6, 18.2e6, 21), [SPEC.hop_j / 2.0]))
    for coupling in (G_EF, 0.0):
        each = np.array([end_reflection(SPEC, w, coupling) for w in omega])
        np.testing.assert_allclose(end_reflection(SPEC, omega, coupling), each,
                                   rtol=0.0, atol=1e-15)


def _wavepacket_transmission(spec, sigma=10.0):
    """Gaussian packet at band center scattered off the taper, plus the
    spectrally averaged plane-wave prediction."""
    system = LatticeSystem(spec, 0.0)
    n = spec.n_cells
    a0 = n // 2
    cells = np.arange(1, n + 1)
    psi = np.zeros(system.dim, dtype=complex)
    psi[1:n + 1] = np.exp(-((cells - a0) ** 2) / (4.0 * sigma ** 2)) \
        * np.exp(-1j * np.pi / 2.0 * cells)
    psi /= np.linalg.norm(psi)
    horizon = 2.2 * (n - a0 + 5.0 * sigma) / (2.0 * spec.hop_j)
    rec = evolve(system, psi, horizon)

    k = np.linspace(np.pi / 2 - 2.0 / sigma, np.pi / 2 + 2.0 / sigma, 401)
    weight = np.exp(-2.0 * sigma ** 2 * (k - np.pi / 2) ** 2)
    trans = 1.0 - np.abs(
        taper_reflection(spec, spec.center + 2.0 * spec.hop_j * np.cos(k))) ** 2
    predicted = np.trapezoid(weight * trans, k) / np.trapezoid(weight, k)
    return rec.emitted_energy, float(predicted)


def test_matched_taper_transmits_fully():
    matched = WaveguideSpec(n_cells=160, hop_j=SPEC.hop_j, center=SPEC.center,
                            taper_hop=SPEC.hop_j, output_rate=2.0 * SPEC.hop_j)
    assert abs(taper_reflection(matched, SPEC.center)) < 1e-12
    simulated, predicted = _wavepacket_transmission(matched)
    assert simulated >= 0.99
    assert simulated == pytest.approx(predicted, abs=1e-3)


def test_device_taper_against_wavepacket_oracle():
    long_dev = WaveguideSpec(n_cells=160, hop_j=SPEC.hop_j, center=SPEC.center,
                             taper_detuning1=SPEC.taper_detuning1,
                             taper_detuning2=SPEC.taper_detuning2,
                             taper_hop=SPEC.taper_hop,
                             output_rate=SPEC.output_rate)
    simulated, predicted = _wavepacket_transmission(long_dev)
    assert simulated == pytest.approx(predicted, rel=1e-4)
    assert taper_transmittance(SPEC)[0] == pytest.approx(0.8216, abs=5e-4)


def test_taper_transmittance_narrowband_limit():
    t0, _ = taper_transmittance(SPEC)
    t_slow, _ = taper_transmittance(SPEC, bandwidth=1e3)
    assert abs(t_slow - t0) < 1e-6


def test_taper_transmittance_matches_quoted_fit():
    _, db = taper_transmittance(SPEC)
    assert db == pytest.approx(-0.853, abs=0.05)
    # the quoted figure folds in the intrinsic single-pass loss, which this
    # lossless lattice leaves to the noise layer's loss channel
    single_pass = np.sqrt(1.0 - ChannelStack().loss)
    db_with_loss = 10.0 * np.log10(taper_transmittance(SPEC)[0] * single_pass)
    assert db_with_loss == pytest.approx(-1.2, abs=0.2)


def test_taper_echo_train_matches_simulation(rec80):
    times, energies = taper_echo_train(SPEC, n_echoes=2)
    assert np.allclose(times, np.arange(3) * ROUND_TRIP)
    r2 = abs(taper_reflection(SPEC, SPEC.center)) ** 2
    assert np.allclose(energies, (1.0 - r2) * r2 ** np.arange(3))

    center = 145e-9
    edges = [0.0] + [center + (0.62 + i) * ROUND_TRIP for i in range(3)]
    sim = [rec80.energy_between(a, b) for a, b in zip(edges, edges[1:])]
    assert sim[0] == pytest.approx(energies[0], abs=0.01)
    assert sim[1] == pytest.approx(energies[1], abs=5e-3)
    assert sim[2] == pytest.approx(energies[2], abs=3e-3)
    assert sim[1] / sim[0] == pytest.approx(r2, abs=0.01)


def _port_side_reflection(spec, omega):
    """Reflection seen from the output port, via the taper Green's function
    dressed with the chain's surface self-energy."""
    k = wavenumber(spec, omega)
    e = omega - spec.center
    sigma = spec.hop_j * np.exp(-1j * k)
    h_eff = np.array([[spec.taper_detuning1 + sigma, spec.taper_hop],
                      [spec.taper_hop,
                       spec.taper_detuning2 - 0.5j * spec.output_rate]])
    g = np.linalg.inv(e * np.eye(2) - h_eff)
    return 1.0 - 1j * spec.output_rate * g[1, 1]


def test_transmission_direction_independent():
    # the interior is lossless, so the energy fraction crossing the taper
    # must not depend on which side feeds it
    rng = np.random.default_rng(7)
    specs = [SPEC]
    for _ in range(3):
        specs.append(WaveguideSpec(
            n_cells=40, hop_j=SPEC.hop_j, center=SPEC.center,
            taper_detuning1=SPEC.hop_j * rng.uniform(-0.5, 0.5),
            taper_detuning2=SPEC.hop_j * rng.uniform(-2.5, -0.5),
            taper_hop=SPEC.hop_j * rng.uniform(0.8, 1.6),
            output_rate=SPEC.hop_j * rng.uniform(2.0, 6.0)))
    for spec in specs:
        for offset in np.linspace(-1.4, 1.4, 9):
            omega = spec.center + offset * spec.hop_j
            from_chain = 1.0 - abs(taper_reflection(spec, omega)) ** 2
            from_port = 1.0 - abs(_port_side_reflection(spec, omega)) ** 2
            assert from_chain == pytest.approx(from_port, abs=1e-10)
