"""Sideband arithmetic, DC correction, envelopes and amplitude tables."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from slowlight import fluxcontrol
from slowlight.fluxcontrol import (
    FluxTone,
    TransmonSpec,
    build_amplitude_table,
    drive_from_envelope,
    erf_envelope,
    sideband_spectrum,
)

TWO_PI = 2.0 * np.pi
W_MOD = TWO_PI * 450e6


def emitter_bias(f_ef_hz=5.273e9):
    """Bias putting the e-f transition at the requested static frequency."""
    spec = TransmonSpec.emitter()
    return brentq(lambda p: spec.omega_ef(p) - TWO_PI * f_ef_hz, 0.0, 0.49)


def test_tuning_curve_endpoints():
    spec = TransmonSpec.emitter()
    assert spec.omega_ge(0.0) / TWO_PI == pytest.approx(6.21e9)
    assert spec.omega_ef(0.0) / TWO_PI == pytest.approx(6.21e9 - 273e6)
    # symmetric SQUID: transition collapses toward -|eta| at half flux
    assert spec.omega_ge(0.5) / TWO_PI == pytest.approx(-273e6, abs=100.0)


def test_tuning_curve_asymmetry_floor():
    spec = TransmonSpec.from_hz(6.21e9, -273e6, f_ge_min_hz=4.0e9)
    assert spec.omega_ge(0.5) / TWO_PI == pytest.approx(4.0e9, rel=1e-12)
    assert spec.omega_ge(0.0) / TWO_PI == pytest.approx(6.21e9, rel=1e-12)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TransmonSpec)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=rf"transmon\.{field} must be finite"):
        dataclasses.replace(TransmonSpec.emitter(), **{field: value})


def test_spec_from_hz_rejects_a_nan_frequency():
    with pytest.raises(ValueError, match=r"transmon\.omega_ge_max must be finite"):
        TransmonSpec.from_hz(np.nan, -273e6)


def test_sideband_weights_sum_to_one():
    # unitarity of the phase factor: random biases, amplitudes, frequencies
    spec = TransmonSpec.emitter()
    rng = np.random.default_rng(11)
    for _ in range(100):
        tone = FluxTone(
            phi_bias=rng.uniform(0.05, 0.35),
            phi_ac=rng.uniform(0.0, 0.1),
            omega_mod=TWO_PI * rng.uniform(150e6, 900e6),
            phi_dc=rng.uniform(-0.02, 0.02),
        )
        sp = sideband_spectrum(spec, tone)
        total = np.sum(np.abs(sp.amplitudes) ** 2)
        assert abs(total - 1.0) < 1e-9


def test_sideband_weights_match_bessel_on_linear_curve():
    # oracle: pure FM through a linear tuning curve has Bessel sidebands
    w0 = TWO_PI * 5.3e9
    slope = TWO_PI * 2.0e9

    def curve(phi):
        return w0 + slope * (np.asarray(phi) - 0.2)

    for amp in (0.02, 0.0805, 0.17):
        tone = FluxTone(0.2, amp, W_MOD)
        sp = sideband_spectrum(curve, tone, samples_per_period=4096)
        depth = slope * amp / W_MOD
        for s in range(-4, 5):
            assert abs(abs(sp.amplitude(s)) - abs(jv(s, depth))) < 1e-6


def test_emission_sideband_sign_convention():
    # on a linear curve the phase factor is a textbook FM expansion, so the
    # s-th weight should equal J_s(depth) up to a bias-dependent phase
    slope = TWO_PI * 1.5e9

    def curve(phi):
        return TWO_PI * 5.0e9 + slope * np.asarray(phi)

    tone = FluxTone(0.0, 0.06, W_MOD)
    sp = sideband_spectrum(curve, tone, samples_per_period=2048)
    depth = slope * tone.phi_ac / W_MOD
    assert abs(sp.emission_amplitude) == pytest.approx(abs(jv(1, depth)),
                                                       abs=1e-7)


def test_working_point_reaches_design_weight():
    # the emission working point asks for |xi| = 0.22; the attainable
    # maximum at this bias sits near 0.52
    spec = TransmonSpec.emitter()
    bias = emitter_bias()
    table = build_amplitude_table(spec, bias, W_MOD, points=128)
    assert table.xi_max > 0.5
    amp = table.amplitude_for(0.22)
    tone = FluxTone(bias, float(amp), W_MOD, float(table.dc_for(0.22)))
    sp = sideband_spectrum(spec, tone)
    assert abs(sp.emission_amplitude) == pytest.approx(0.22, abs=2e-3)


def _full_scan_table(spec, bias, omega_mod, points):
    """The table as a scan over every amplitude until a DC solve fails, cut
    at the largest |xi_+1|: the scan build_amplitude_table stops early."""
    curve = spec.omega_ef
    target = float(curve(bias))
    amps = np.linspace(0.0, (0.5 - abs(bias)) * 0.999, points)
    dcs = np.zeros_like(amps)
    xi = np.zeros_like(amps)
    hint = 0.0
    end = len(amps)
    for i in range(1, len(amps)):
        dc = fluxcontrol._solve_dc(curve, bias, amps[i], target, hint)
        if dc is None:
            end = i
            break
        dcs[i] = hint = dc
        tone = FluxTone(bias, amps[i], omega_mod, dc)
        xi[i] = abs(sideband_spectrum(spec, tone).emission_amplitude)
    end = min(end, int(np.argmax(xi[:end])) + 1)
    keep = np.concatenate(([True], np.diff(xi[:end]) > 0.0))
    return amps[:end][keep], xi[:end][keep], dcs[:end][keep]


def test_amplitude_table_stops_at_the_first_maximum_without_changing_it(monkeypatch):
    # at 300 MHz the working point reaches the 80 ns pulse's peak of 0.529;
    # |xi_+1| first falls at the 139th amplitude of 512, past its maximum
    spec = TransmonSpec.emitter()
    bias = emitter_bias()
    w_mod = TWO_PI * 300e6
    solves = []
    solve_dc = fluxcontrol._solve_dc

    def counted(*args, **kwargs):
        solves.append(args[2])
        return solve_dc(*args, **kwargs)

    monkeypatch.setattr(fluxcontrol, "_solve_dc", counted)
    table = build_amplitude_table.__wrapped__(spec, bias, w_mod)
    assert len(table.xi_abs) == 138
    assert len(solves) <= len(table.xi_abs) + 1
    phi_ac, xi_abs, phi_dc = _full_scan_table(spec, bias, w_mod, 512)
    assert np.array_equal(table.phi_ac, phi_ac)
    assert np.array_equal(table.xi_abs, xi_abs)
    assert np.array_equal(table.phi_dc, phi_dc)


def test_amplitude_table_ends_at_the_first_of_two_peaks(monkeypatch):
    """|xi_+1| that dips after a first peak and then rises past it: the
    table ends at the first peak and stays invertible, where a cut at the
    largest value kept the dip's rising side out of order."""
    first, second = 0.05, 0.12

    def two_peaks(spec, tone):
        a = tone.phi_ac
        xi = 0.4 * np.exp(-((a - first) / 0.02) ** 2) \
            + 0.6 * np.exp(-((a - second) / 0.02) ** 2)
        return SimpleNamespace(emission_amplitude=complex(xi))

    spec = TransmonSpec.emitter()
    bias = emitter_bias()
    monkeypatch.setattr(fluxcontrol, "sideband_spectrum", two_peaks)
    table = build_amplitude_table.__wrapped__(spec, bias, W_MOD, 256)
    assert np.all(np.diff(table.xi_abs) > 0.0)
    step = (0.5 - abs(bias)) * 0.999 / 255
    assert first - step <= table.phi_ac[-1] <= first + step
    assert table.xi_max == pytest.approx(0.4, abs=0.01)
    assert table.amplitude_for(0.3) < first


def test_dc_shift_grows_with_amplitude():
    # stronger modulation drags the cycle-averaged frequency further down
    spec = TransmonSpec.emitter()
    bias = emitter_bias()
    shifts = []
    for amp in (0.02, 0.05, 0.08, 0.11):
        sp = sideband_spectrum(spec, FluxTone(bias, amp, W_MOD))
        shifts.append(sp.dc_shift)
    assert all(s < 0 for s in shifts)
    assert all(b < a for a, b in zip(shifts, shifts[1:]))


def test_amplitude_table_dc_track_restores_mean_frequency():
    # each tabulated DC offset cancels the shift its amplitude's modulation
    # drags the mean transition by (test_dc_shift_grows_with_amplitude)
    spec = TransmonSpec.emitter()
    bias = emitter_bias()
    table = build_amplitude_table(spec, bias, W_MOD, points=128)
    for i in (10, len(table.phi_ac) // 2, len(table.phi_ac) - 1):
        tone = FluxTone(bias, float(table.phi_ac[i]), W_MOD, float(table.phi_dc[i]))
        assert abs(sideband_spectrum(spec, tone).dc_shift) < TWO_PI * 2e3


def test_erf_envelope_shapes():
    t, xi = erf_envelope(t_r=50e-9, delta=0.0, xi_max=0.5, window=200e-9,
                         dt=1e-9)
    assert xi[0] == 0.0
    assert np.all(np.diff(xi) >= 0)
    assert xi[-1] == pytest.approx(0.5, rel=1e-3)
    # offset start skips the slow foot of the rise
    _, xi_off = erf_envelope(t_r=15e-9, delta=0.33, xi_max=0.5,
                             window=200e-9, dt=1e-9)
    assert xi_off[0] > 0.0
    assert xi_off[10] > xi[10]


def test_drive_round_trip_recovers_envelope():
    spec = TransmonSpec.emitter()
    bias = emitter_bias()
    t, xi = erf_envelope(15e-9, 0.33, 0.22, 140e-9, 1e-9)
    drive = drive_from_envelope(spec, bias, W_MOD, t, xi, points=128)
    assert np.all(np.diff(drive.phi_ac) >= -1e-12)
    # spot-check three plateau-ish samples by re-deriving the sideband
    for idx in (60, 100, 139):
        tone = FluxTone(bias, float(drive.phi_ac[idx]), W_MOD,
                        float(drive.phi_dc[idx]))
        sp = sideband_spectrum(spec, tone)
        assert abs(sp.emission_amplitude) == pytest.approx(float(xi[idx]),
                                                           abs=3e-3)


def test_drive_rejects_unreachable_envelope():
    spec = TransmonSpec.emitter()
    bias = emitter_bias()
    t, xi = erf_envelope(15e-9, 0.33, 0.9, 140e-9, 1e-9)
    with pytest.raises(ValueError, match="attainable"):
        drive_from_envelope(spec, bias, W_MOD, t, xi, points=128)
