"""The Fourier series of 1/|f|^2 and the closed-form power thresholds."""

import math

import numpy as np
import pytest

import isicap.spectral as spectral
from isicap import (
    ChannelSpec,
    QuadratureFailure,
    SingularChannel,
    frequency_response,
    inverse_spectrum_coeffs,
    pbar_asymptotic,
    pbar_two_tap,
    pmin_two_tap,
)


def test_pbar_two_tap_values():
    assert pbar_two_tap(0.2, 0.3) == 0.09375
    assert pbar_two_tap(0.0, 0.5) == 0.25
    with pytest.raises(ValueError):
        pbar_two_tap(1.0, 0.3)


def test_pmin_two_tap_values():
    assert pmin_two_tap(0.2, 0.3) == pytest.approx(0.09 * 25 / 36, rel=1e-14)
    assert pmin_two_tap(0.0, 0.5) == 0.25
    with pytest.raises(ValueError):
        pmin_two_tap(-0.1, 0.3)


@pytest.mark.parametrize("closed_form", [pbar_two_tap, pmin_two_tap])
@pytest.mark.parametrize("delta", [0.0, -0.3, math.nan, math.inf, 1e200, 1e-170])
def test_two_tap_thresholds_reject_bad_delta(closed_form, delta):
    # The rule of ChannelSpec: positive and finite, with a normal delta^2.
    with pytest.raises(ValueError, match="delta"):
        closed_form(0.2, delta)


@pytest.mark.parametrize("eps", [0.1, 0.2, 0.45, 0.8])
def test_pbar_asymptotic_matches_closed_form(eps):
    spec = ChannelSpec((1.0, eps), 0.3, 12)
    assert pbar_asymptotic(spec) == pytest.approx(pbar_two_tap(eps, 0.3), rel=1e-12)


def test_pbar_asymptotic_single_tap():
    spec = ChannelSpec((2.0,), 0.3, 8)
    assert pbar_asymptotic(spec) == pytest.approx(0.09 / 4.0, rel=1e-13)


def test_two_tap_coefficients_and_truncation():
    # 1/|1 + eps e^{j lam}|^2 has g_d = (-eps)^|d| / (1 - eps^2); the series
    # stops at the last term above 1e-15 * max 1/|f|^2 = 1e-15 / (1 - eps)^2.
    eps = 0.8
    g = inverse_spectrum_coeffs(ChannelSpec((1.0, eps), 0.3, 12))
    exact = [(-eps) ** d / (1 - eps**2) for d in range(g.size + 1)]
    assert g == pytest.approx(exact[:-1], abs=1e-14)
    floor = spectral.ROUNDOFF_FLOOR / (1 - eps) ** 2
    assert abs(exact[-2]) > floor >= abs(exact[-1])


def test_undecayed_series_raises(monkeypatch):
    # (1, 0.8) needs 145 terms, so a 128-point cap cannot reach round-off.
    monkeypatch.setattr(spectral, "_GRID_MAX", 128)
    with pytest.raises(QuadratureFailure):
        inverse_spectrum_coeffs(ChannelSpec((1.0, 0.8), 0.3, 12))


@pytest.mark.parametrize("taps", [(1.0, -1.0), (1.0, 1.0), (1.0, 0.9999999999)])
def test_spectral_null_rejected(taps):
    spec = ChannelSpec(taps, 0.3, 12)
    with pytest.raises(SingularChannel):
        inverse_spectrum_coeffs(spec)
    with pytest.raises(SingularChannel):
        pbar_asymptotic(spec)


def reference_coeffs(spec):
    """The series sampled on its own doubling grid of f(2*pi*k/m), by the
    complex-exponential sum, with the same stop rule and truncation."""
    m = 64
    while True:
        vals = 1.0 / np.abs(frequency_response(spec, 2.0 * np.pi * np.arange(m) / m)) ** 2
        coeffs = np.fft.rfft(vals).real / m
        floor = spectral.ROUNDOFF_FLOOR * np.max(vals)
        if np.max(np.abs(coeffs[m // 4 :])) <= floor:
            break
        m *= 2
    return coeffs[: 1 + np.max(np.flatnonzero(np.abs(coeffs) > floor), initial=0)]


@pytest.mark.parametrize(
    "taps",
    [
        (1.0, 0.2),
        (1.0, 0.8),
        (-0.3, 1.0, 0.6),
        (0.5, -1.0, 0.9, 0.3),
        tuple(0.5**k for k in range(100)),
    ],
)
def test_ring_generator_matches_sampled_series(taps):
    # The ring of build_operators gives the series the grid sampler gave,
    # term for term and to the same length, as a fresh writable array.
    spec = ChannelSpec(taps, 0.3, len(taps))
    g = inverse_spectrum_coeffs(spec)
    ref = reference_coeffs(spec)
    assert g.shape == ref.shape
    assert np.max(np.abs(g - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert g.flags.writeable and g.flags.owndata


def test_hundred_tap_geometric_channel():
    # sum_k 0.5^k e^{jk lam} is 1/(1 - e^{j lam}/2) up to a 2^-100 term, so
    # 1/|f|^2 = 5/4 - cos(lam): the series is (1.25, -0.5).
    g = inverse_spectrum_coeffs(ChannelSpec(tuple(0.5**k for k in range(100)), 0.3, 100))
    assert g.shape == (2,)
    assert g == pytest.approx([1.25, -0.5], abs=1e-15)
