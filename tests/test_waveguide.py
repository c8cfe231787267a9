"""Dispersion, delay, and coupling-rate checks against independent oracles."""

import dataclasses

import numpy as np
import pytest

from slowlight.waveguide import (
    WaveguideSpec,
    dispersion,
    gamma_1d,
    group_delay_per_cell,
    round_trip_delay,
    wavenumber,
)

TWO_PI = 2.0 * np.pi


def fd_group_delay(spec, k, dk=1e-7):
    # independent oracle: invert the centered difference of the band
    dwdk = (dispersion(spec, k + dk) - dispersion(spec, k - dk)) / (2 * dk)
    return 1.0 / dwdk


def test_band_edges_and_width():
    spec = WaveguideSpec.device()
    lo, hi = spec.band_edges
    assert np.isclose(hi - lo, 4 * spec.hop_j)
    assert np.isclose(dispersion(spec, np.pi / 2), spec.center)


def test_dispersion_monotone_in_k():
    spec = WaveguideSpec.device()
    k = np.linspace(1e-3, np.pi - 1e-3, 400)
    w = dispersion(spec, k)
    assert np.all(np.diff(w) < 0)  # cos-band falls across the zone


def test_wavenumber_inverts_dispersion():
    spec = WaveguideSpec.device()
    for k in np.linspace(0.05, np.pi - 0.05, 17):
        assert abs(wavenumber(spec, dispersion(spec, k)) - k) < 1e-10


def test_group_delay_matches_finite_difference():
    spec = WaveguideSpec.device()
    for k in np.linspace(0.2, np.pi - 0.2, 9):
        got = group_delay_per_cell(spec, dispersion(spec, k))
        assert abs(got) == pytest.approx(abs(fd_group_delay(spec, k)), rel=1e-6)


def test_round_trip_delay_band_center():
    # fitted hop: 234.3 ns; published hop 33.5 MHz lands on 237.5 ns
    spec = WaveguideSpec.device()
    assert round_trip_delay(spec) == pytest.approx(234.327e-9, rel=1e-4)
    slow = WaveguideSpec.from_hz(n_cells=50, hop_j_hz=33.5e6, center_hz=4.823e9)
    assert round_trip_delay(slow) == pytest.approx(237.5e-9, rel=2e-3)
    assert round_trip_delay(slow) == pytest.approx(237e-9, rel=0.02)


def test_round_trip_delay_is_n_over_j_at_center():
    # per-cell delay at band center is 1/(2J), there and back over N cells
    spec = WaveguideSpec.device()
    assert round_trip_delay(spec) == pytest.approx(spec.n_cells / spec.hop_j,
                                                  rel=1e-9)


def test_group_delay_diverges_at_band_edge():
    spec = WaveguideSpec.device()
    lo, hi = spec.band_edges
    mid = group_delay_per_cell(spec, spec.center)
    near = group_delay_per_cell(spec, lo + 0.001 * (hi - lo))
    assert near > 5 * mid


def test_dispersion_domain_errors():
    spec = WaveguideSpec.device()
    with pytest.raises(ValueError):
        dispersion(spec, -0.1)
    with pytest.raises(ValueError):
        dispersion(spec, np.pi + 0.1)
    lo, hi = spec.band_edges
    with pytest.raises(ValueError):
        wavenumber(spec, hi + TWO_PI * 1e6)


def test_gamma_1d_scalings():
    g, j = TWO_PI * 30e6, TWO_PI * 33.96e6
    base = gamma_1d(g, j, geometry="end")
    assert gamma_1d(2 * g, j, geometry="end") == pytest.approx(4 * base)
    assert gamma_1d(g, 2 * j, geometry="end") == pytest.approx(base / 2)
    # side-coupled mirror radiates into both directions: half the rate
    assert gamma_1d(g, j, geometry="side") == pytest.approx(base / 2)
    with pytest.raises(ValueError):
        gamma_1d(g, j, geometry="diagonal")


def test_emitter_rates_from_device_couplings():
    spec = WaveguideSpec.device()
    g_uc = TWO_PI * 35.16e6
    rate_ge = gamma_1d(g_uc, spec.hop_j, geometry="end")
    rate_ef = gamma_1d(np.sqrt(2) * g_uc, spec.hop_j, geometry="end")
    assert rate_ge / TWO_PI == pytest.approx(72.80e6, rel=1e-3)
    assert rate_ef / TWO_PI == pytest.approx(145.6e6, rel=1e-3)
    assert 130e6 <= rate_ef / TWO_PI <= 150e6


def test_spec_validation_messages():
    with pytest.raises(ValueError, match="waveguide.hop_J"):
        WaveguideSpec.from_hz(n_cells=50, hop_j_hz=-1.0, center_hz=4.8e9)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(WaveguideSpec)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=rf"waveguide\.{field} must be finite"):
        dataclasses.replace(WaveguideSpec.device(), **{field: value})


def test_spec_from_hz_rejects_a_nan_frequency():
    with pytest.raises(ValueError, match=r"waveguide\.center must be finite"):
        WaveguideSpec.from_hz(n_cells=50, hop_j_hz=33.5e6, center_hz=np.nan)


@pytest.mark.parametrize("n_cells", [50.7, np.inf, -np.inf, np.nan])
def test_spec_from_hz_refuses_a_fractional_or_non_finite_cell_count(n_cells):
    """int() once truncated 50.7 to 50 and raised OverflowError on inf."""
    with pytest.raises(ValueError, match=r"waveguide\.n_cells must be a finite whole number"):
        WaveguideSpec.from_hz(n_cells=n_cells, hop_j_hz=33.5e6, center_hz=4.8e9)
    assert WaveguideSpec.from_hz(n_cells=50.0, hop_j_hz=33.5e6, center_hz=4.8e9).n_cells == 50
