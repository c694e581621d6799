"""Markov sign source: entropy rate, exact and asymptotic power, rate search."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from isicap import (
    ChannelSpec,
    MarkovScheme,
    SingularChannel,
    TooLarge,
    achievable_rate,
    achievable_rate_detail,
    build_operators,
    correlation,
    entropy_rate_bits,
    enumerate_profile,
    mean_energy_trace,
    pbar_asymptotic,
    pbar_two_tap,
    pmin_two_tap,
    power_asymptotic,
    power_finite_n,
    power_two_tap_closed_form,
    rate_two_tap_closed_form,
)
from tests.test_channel import circulant_matrix

DELTA = 0.3
TWO_TAP = ChannelSpec((1.0, 0.2), DELTA, 12)


def test_rho_is_exact():
    assert MarkovScheme(0.5).rho == 0.0
    assert MarkovScheme(1.0).rho == 1.0
    assert MarkovScheme(0.0).rho == -1.0
    assert MarkovScheme(0.75).rho == 0.5


def test_alpha_validated():
    with pytest.raises(ValueError):
        MarkovScheme(1.2)
    with pytest.raises(ValueError):
        MarkovScheme(-0.01)


def test_correlation_lags():
    sch = MarkovScheme(0.8)
    assert correlation(sch, 0) == 1.0
    assert correlation(sch, 1) == pytest.approx(0.6)
    assert correlation(sch, 3) == pytest.approx(0.6**3)
    with pytest.raises(ValueError):
        correlation(sch, -1)


def test_entropy_rate_endpoints_and_symmetry():
    assert entropy_rate_bits(MarkovScheme(0.0)) == 0.0
    assert entropy_rate_bits(MarkovScheme(1.0)) == 0.0
    assert entropy_rate_bits(MarkovScheme(0.5)) == 1.0
    for a in (0.1, 0.3, 0.42):
        assert entropy_rate_bits(MarkovScheme(a)) == pytest.approx(
            entropy_rate_bits(MarkovScheme(1 - a))
        )


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.78, 0.95, 0.3, 1.0, 0.0])
def test_power_finite_matches_dense_trace(alpha):
    """Oracle: delta^2/N * tr(R W) with dense R = rho^|i-j| and W = (M M^T)^{-1}."""
    n = 12
    ops = build_operators(TWO_TAP)
    m = circulant_matrix((1.0, 0.2), n)
    w = np.linalg.inv(m @ m.T)
    rho = 2 * alpha - 1
    r = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    expected = DELTA**2 * np.trace(r @ w) / n
    assert power_finite_n(ops, MarkovScheme(alpha)) == pytest.approx(expected, rel=1e-12)


def test_power_finite_iid_equals_trace_mean(two_tap_ops, three_tap_ops):
    for ops in (two_tap_ops, three_tap_ops):
        assert power_finite_n(ops, MarkovScheme(0.5)) == mean_energy_trace(ops) / ops.n


def test_power_finite_cap():
    ops = build_operators(ChannelSpec((1.0, 0.2), DELTA, 8192))
    with pytest.raises(TooLarge):
        power_finite_n(ops, MarkovScheme(0.6))


def test_power_asymptotic_two_tap_closed_form():
    for alpha in (0.5, 0.62, 0.78, 0.9, 0.35):
        closed = power_two_tap_closed_form(0.2, DELTA, alpha)
        quad = power_asymptotic(TWO_TAP, MarkovScheme(alpha))
        assert quad == pytest.approx(closed, rel=1e-10)


def test_power_asymptotic_endpoints():
    # Degenerate chains concentrate the spectrum at lam = 0 or pi.
    assert power_asymptotic(TWO_TAP, MarkovScheme(1.0)) == pytest.approx(
        DELTA**2 / 1.2**2, rel=1e-14
    )
    assert power_asymptotic(TWO_TAP, MarkovScheme(0.0)) == pytest.approx(
        DELTA**2 / 0.8**2, rel=1e-14
    )


def test_power_asymptotic_iid_is_pbar():
    assert power_asymptotic(TWO_TAP, MarkovScheme(0.5)) == pytest.approx(
        pbar_two_tap(0.2, DELTA), rel=1e-12
    )


# Channels with 0.1 <= |f| <= 10 |f|_min on a fine frequency grid, so the
# series of 1/|f|^2 decays fast and G is well conditioned at every N below.
@st.composite
def _channels(draw, n=2048):
    taps = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3)))
    gains = np.abs(np.fft.fft(taps, 512))
    assume(gains.min() >= max(0.1, 0.1 * gains.max()))
    return ChannelSpec(taps, DELTA, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_channels(), st.floats(-0.95, 0.95))
def test_power_asymptotic_matches_quad(spec, rho):
    scheme = MarkovScheme((1.0 + rho) / 2.0)
    rho = scheme.rho

    def integrand(lam):
        f = sum(h * cmath.exp(1j * k * lam) for k, h in enumerate(spec.taps))
        c = math.cos(lam)
        kernel = 2.0 * (1.0 - rho * c) / (1.0 + rho**2 - 2.0 * rho * c) - 1.0
        return kernel / abs(f) ** 2

    # The integrand is even in lam and the kernel peaks at 0 or pi.
    half, _ = quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
    expected = DELTA**2 * half / math.pi
    assert power_asymptotic(spec, scheme) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_channels(), st.floats(-0.95, 0.95))
# Which examples hypothesis draws depends on what else pytest collected, so
# the case that once failed an older, tighter bound is always checked.
@example(ChannelSpec((1.0, 0.75), DELTA, 2048), 0.875)
def test_power_finite_n_converges_to_asymptotic(spec, rho):
    scheme = MarkovScheme((1.0 + rho) / 2.0)
    limit = power_asymptotic(spec, scheme)
    err = {}
    for n in (256, 2048):
        ops = build_operators(ChannelSpec(spec.taps, DELTA, n))
        err[n] = abs(power_finite_n(ops, scheme) - limit)
    # The gap is (2/N) sum_t t rho^t g_t plus terms of order rho^N, so it
    # falls about eightfold from N = 256 to 2048, unless that sum vanishes
    # (rho = 0) and both gaps are round-off.  The largest gap at N = 2048
    # that a Nelder-Mead search over these channels and rho found is 4.0e-3
    # relative, at rho = -0.95.
    assert err[2048] <= 1e-2 * limit
    assert err[2048] <= err[256] / 4 or err[256] <= 1e-12 * limit


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    _channels(n=6),
    st.floats(0.1, 10.0),
    st.floats(0.2, 4.0),
    st.floats(-0.95, 0.95),
)
def test_delta_squared_scaling(spec, c, p_over_d2, rho):
    scaled = ChannelSpec(spec.taps, spec.delta * c, spec.block_len)
    c2 = c * c
    energies = enumerate_profile(build_operators(spec)).energies
    scaled_energies = enumerate_profile(build_operators(scaled)).energies
    np.testing.assert_allclose(scaled_energies, c2 * energies, rtol=1e-12)
    assert pbar_asymptotic(scaled) == pytest.approx(c2 * pbar_asymptotic(spec), rel=1e-12)
    scheme = MarkovScheme((1.0 + rho) / 2.0)
    assert power_asymptotic(scaled, scheme) == pytest.approx(
        c2 * power_asymptotic(spec, scheme), rel=1e-12
    )
    p = p_over_d2 * DELTA**2
    assert achievable_rate(scaled, p * c2) == pytest.approx(achievable_rate(spec, p), abs=1e-9)


@pytest.mark.parametrize("taps", [(1.0, -1.0), (1.0, 1.0), (1.0, 0.9999999999)])
def test_spectral_null_rejected(taps):
    spec = ChannelSpec(taps, DELTA, 12)
    with pytest.raises(SingularChannel):
        achievable_rate_detail(spec, DELTA**2)
    with pytest.raises(SingularChannel):
        power_asymptotic(spec, MarkovScheme(0.7))


def test_achievable_rate_matches_closed_form():
    lo = pmin_two_tap(0.2, DELTA)
    hi = pbar_two_tap(0.2, DELTA)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        p = lo + frac * (hi - lo)
        assert achievable_rate(TWO_TAP, p) == pytest.approx(
            rate_two_tap_closed_form(0.2, DELTA, p), abs=1e-8
        )


def test_achievable_rate_saturates():
    rate, alpha = achievable_rate_detail(TWO_TAP, pbar_two_tap(0.2, DELTA))
    assert rate == 1.0 and alpha == 0.5
    assert achievable_rate(TWO_TAP, 10.0) == 1.0


def test_achievable_rate_infeasible():
    assert achievable_rate(TWO_TAP, 0.5 * pmin_two_tap(0.2, DELTA)) == 0.0
    assert rate_two_tap_closed_form(0.2, DELTA, 0.5 * pmin_two_tap(0.2, DELTA)) == 0.0


def test_alpha_star_on_correlated_branch():
    # Positive second tap: cheaper power comes from persistent signs.
    p = 0.8 * pbar_two_tap(0.2, DELTA)
    rate, alpha = achievable_rate_detail(TWO_TAP, p)
    assert alpha > 0.5
    assert 0.0 < rate < 1.0


def test_finite_model_selectable():
    spec = ChannelSpec((-0.3, 1.0, 0.6), DELTA, 12)
    p = 0.6022 * DELTA**2
    r_asym = achievable_rate(spec, p)
    r_fin = achievable_rate(spec, p, power_model="finite")
    assert r_asym != pytest.approx(r_fin, abs=1e-3)  # models genuinely differ here
    with pytest.raises(ValueError):
        achievable_rate(spec, p, power_model="exact")


def test_finite_power_monotone_on_correlated_branch(two_tap_ops):
    alphas = np.linspace(0.5, 1.0, 21)
    powers = [power_finite_n(two_tap_ops, MarkovScheme(float(a))) for a in alphas]
    assert all(b < a + 1e-15 for a, b in zip(powers, powers[1:]))


def test_closed_form_boundaries():
    assert rate_two_tap_closed_form(0.2, DELTA, pbar_two_tap(0.2, DELTA)) == 1.0
    # At the floor only the constant pattern is affordable: zero rate.
    assert rate_two_tap_closed_form(0.2, DELTA, pmin_two_tap(0.2, DELTA)) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        rate_two_tap_closed_form(1.0, DELTA, 0.1)


@pytest.mark.parametrize("model", ["asymptotic", "finite"])
@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
def test_non_finite_power_rejected(power, model):
    with pytest.raises(ValueError):
        achievable_rate_detail(TWO_TAP, power, power_model=model)
