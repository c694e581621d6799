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
    Regime,
    SingularChannel,
    achievable_rate,
    achievable_rate_curve,
    build_operators,
    capacity_curve,
    correlation,
    entropy_rate_bits,
    enumerate_profile,
    frequency_response,
    inverse_spectrum_coeffs,
    mean_energy_trace,
    pbar_asymptotic,
    pbar_two_tap,
    pmin_two_tap,
    power_asymptotic,
    power_finite_n,
    power_two_tap_closed_form,
    rate_two_tap_closed_form,
)
import isicap.markov as markov
from isicap.gibbs import BOUNDARY_TOL
from tests.reference_data import THREE_TAP_MARKOV
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
    assert correlation(sch, np.int64(2)) == correlation(sch, 2)


@pytest.mark.parametrize("lag", [1.5, 2.0, True, "2"])
def test_correlation_rejects_non_integer_lags(lag):
    # A fractional power of a negative rho would be complex.
    with pytest.raises(ValueError):
        correlation(MarkovScheme(0.2), lag)


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


def test_power_finite_at_large_n():
    # Two O(N) sums with no N x N matrix: N = 8192 is as exact as N = 12, and
    # close to the large-N limit.
    ops = build_operators(ChannelSpec((1.0, 0.2), DELTA, 8192))
    for alpha in (0.6, 0.78, 0.95):
        scheme = MarkovScheme(alpha)
        power = power_finite_n(ops, scheme)
        assert power == reference_power_finite_n(ops, scheme)
        assert power == pytest.approx(power_asymptotic(TWO_TAP, scheme), rel=1e-3)


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
    st.floats(0.05, 0.95),
)
# On the pure delay the Markov power is delta^2 for every alpha, so the rate
# steps from 0 to 1 there, and 0.09 * c^2 lies one ulp under (0.3 * c)^2.
@example(ChannelSpec((0.0, 1.0), DELTA, 6), 1.671875, 1.0, 0.0, 0.5)
def test_delta_squared_scaling(spec, c, p_over_d2, rho, t):
    scaled = ChannelSpec(spec.taps, spec.delta * c, spec.block_len)
    c2 = c * c
    profile = enumerate_profile(build_operators(spec))
    energies = profile.energies
    scaled_energies = enumerate_profile(build_operators(scaled)).energies
    np.testing.assert_allclose(scaled_energies, c2 * energies, rtol=1e-12)
    assert pbar_asymptotic(scaled) == pytest.approx(c2 * pbar_asymptotic(spec), rel=1e-12)
    scheme = MarkovScheme((1.0 + rho) / 2.0)
    assert power_asymptotic(scaled, scheme) == pytest.approx(
        c2 * power_asymptotic(spec, scheme), rel=1e-12
    )
    p = p_over_d2 * DELTA**2
    assert achievable_rate(scaled, p * c2) == pytest.approx(achievable_rate(spec, p), abs=1e-9)
    # So the Gibbs capacity depends on power only through P/delta^2, and
    # gibbs_beta scales as 1/delta^2.  The power lies a fraction t of the way
    # from the floor e_min/N to saturation at e_mean/N, inside the interior.
    # Flat gains (a pure delay) give every pattern one energy and no interior.
    # Nearly flat ones leave one: the capacity there reads the energies'
    # spread about e_min, which magnifies their relative rounding by
    # e_min/(e_mean - e_min), 2.5e4 on (1, 1e-5), past the 1e-12 below.
    if profile.e_mean <= profile.e_min * (1.0 + 1e-3):
        return
    n = spec.block_len
    p = profile.e_min / n + t * (profile.e_mean - profile.e_min) / n
    ((_, sol),) = capacity_curve(build_operators(spec), [p])
    ((_, scaled_sol),) = capacity_curve(build_operators(scaled), [p * c2])
    assert sol.regime is Regime.GIBBS_INTERIOR
    assert scaled_sol.regime is Regime.GIBBS_INTERIOR
    assert scaled_sol.entropy_bits_per_use == pytest.approx(sol.entropy_bits_per_use, rel=1e-12)
    assert scaled_sol.gibbs_beta * c2 == pytest.approx(sol.gibbs_beta, rel=1e-12)


def test_capacity_invariant_at_extreme_delta():
    # The scaling holds down to delta^2 = 1e-16 and up to 1e16.
    def solve(delta):
        ops = build_operators(ChannelSpec(TWO_TAP.taps, delta, TWO_TAP.block_len))
        return capacity_curve(ops, [0.8 * delta**2])[0][1]

    ref = solve(DELTA)
    assert ref.entropy_bits_per_use == pytest.approx(0.6678651031881762, rel=1e-12)
    for delta in (1e-8, 1e8):
        sol = solve(delta)
        assert sol.entropy_bits_per_use == pytest.approx(ref.entropy_bits_per_use, rel=1e-12)
        assert sol.gibbs_beta * delta**2 == pytest.approx(ref.gibbs_beta * DELTA**2, rel=1e-12)


@pytest.mark.parametrize("taps", [(1.0, -1.0), (1.0, 1.0), (1.0, 0.9999999999)])
def test_spectral_null_rejected(taps):
    spec = ChannelSpec(taps, DELTA, 12)
    with pytest.raises(SingularChannel):
        achievable_rate_curve(spec, [DELTA**2])
    with pytest.raises(SingularChannel):
        power_asymptotic(spec, MarkovScheme(0.7))


def test_rate_floor_tolerance():
    # A budget within BOUNDARY_TOL under the floor is the floor; one further
    # under is infeasible.  On the pure delay the floor is saturation.
    delay = ChannelSpec((0.0, 1.0), DELTA, 6)
    floor = DELTA**2
    assert achievable_rate(delay, floor) == 1.0
    assert achievable_rate(delay, math.nextafter(floor, 0.0)) == 1.0
    assert achievable_rate(delay, floor * (1 - 1e-6)) == 0.0


def test_achievable_rate_matches_closed_form():
    lo = pmin_two_tap(0.2, DELTA)
    hi = pbar_two_tap(0.2, DELTA)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        p = lo + frac * (hi - lo)
        assert achievable_rate(TWO_TAP, p) == pytest.approx(
            rate_two_tap_closed_form(0.2, DELTA, p), abs=1e-8
        )


def test_achievable_rate_saturates():
    [(rate, alpha)] = achievable_rate_curve(TWO_TAP, [pbar_two_tap(0.2, DELTA)])
    assert rate == 1.0 and alpha == 0.5
    assert achievable_rate(TWO_TAP, 10.0) == 1.0


def test_achievable_rate_infeasible():
    assert achievable_rate(TWO_TAP, 0.5 * pmin_two_tap(0.2, DELTA)) == 0.0
    assert rate_two_tap_closed_form(0.2, DELTA, 0.5 * pmin_two_tap(0.2, DELTA)) == 0.0


def test_alpha_star_on_correlated_branch():
    # Positive second tap: cheaper power comes from persistent signs.
    p = 0.8 * pbar_two_tap(0.2, DELTA)
    [(rate, alpha)] = achievable_rate_curve(TWO_TAP, [p])
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


@pytest.mark.parametrize("delta", [0.0, -0.3, math.nan, math.inf, 1e200])
def test_two_tap_closed_forms_reject_bad_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        rate_two_tap_closed_form(0.2, delta, 0.1)
    with pytest.raises(ValueError, match="delta"):
        power_two_tap_closed_form(0.2, delta, 0.5)


@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
def test_two_tap_closed_form_rate_rejects_non_finite_power(power):
    with pytest.raises(ValueError, match="power must be finite"):
        rate_two_tap_closed_form(0.2, DELTA, power)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, 2.0, math.nan])
def test_two_tap_closed_form_power_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        power_two_tap_closed_form(0.2, DELTA, alpha)


def test_two_tap_closed_form_power_accepts_alpha_ends_and_rejects_bad_epsilon():
    assert power_two_tap_closed_form(0.2, DELTA, 0.5) == pbar_two_tap(0.2, DELTA)
    assert power_two_tap_closed_form(0.2, DELTA, 1.0) == pytest.approx(
        pmin_two_tap(0.2, DELTA), rel=1e-15
    )
    assert power_two_tap_closed_form(0.2, DELTA, 0.0) > pbar_two_tap(0.2, DELTA)
    with pytest.raises(ValueError, match="epsilon"):
        power_two_tap_closed_form(1.0, DELTA, 0.5)


@pytest.mark.parametrize("model", ["asymptotic", "finite"])
@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
def test_non_finite_power_rejected(power, model):
    with pytest.raises(ValueError):
        achievable_rate_curve(TWO_TAP, [power], power_model=model)


# The scalar power formulas and per-point bisection that achievable_rate_curve
# reproduces bit for bit.
def reference_power_finite_n(ops, scheme):
    n = ops.n
    diag_sum = np.sum(ops.spec_weight)
    t = np.arange(1, n)
    tail = np.sum((n - t) * scheme.rho**t * ops.gram_generator[1:])
    total = diag_sum + 2.0 * tail
    return ops.delta**2 * total / n


def reference_series_power(spec, coeffs, rho):
    if rho == 1.0:
        return spec.delta**2 / abs(frequency_response(spec, 0.0)) ** 2
    if rho == -1.0:
        return spec.delta**2 / abs(frequency_response(spec, math.pi)) ** 2
    acc = 0.0
    for g in reversed(coeffs[1:]):
        acc = acc * rho + g
    return spec.delta**2 * (coeffs[0] + 2.0 * rho * acc)


def reference_power_of(spec, power_model):
    if power_model == "asymptotic":
        coeffs = inverse_spectrum_coeffs(spec).tolist()
        return lambda alpha: reference_series_power(spec, coeffs, 2.0 * alpha - 1.0)
    ops = build_operators(spec)
    return lambda alpha: reference_power_finite_n(ops, MarkovScheme(alpha))


def reference_rate(spec, power, power_model="asymptotic"):
    power_of = reference_power_of(spec, power_model)
    # A budget within BOUNDARY_TOL under the least power is that floor.
    floor = min(power_of(a) for a in (0.5, 1.0, 0.0))
    if power >= floor * (1 - BOUNDARY_TOL):
        power = max(power, floor)
    if power_of(0.5) <= power:
        return 1.0, 0.5
    best_rate, best_alpha = 0.0, math.nan
    for endpoint in (1.0, 0.0):
        if power_of(endpoint) > power:
            continue
        a_infeasible, a_feasible = 0.5, endpoint
        while abs(a_feasible - a_infeasible) > 1e-10:
            mid = 0.5 * (a_infeasible + a_feasible)
            if power_of(mid) <= power:
                a_feasible = mid
            else:
                a_infeasible = mid
        rate = entropy_rate_bits(MarkovScheme(a_feasible))
        if rate > best_rate or (rate == best_rate and math.isnan(best_alpha)):
            best_rate, best_alpha = rate, a_feasible
    return best_rate, best_alpha


def _same_rows(got, want):
    assert len(got) == len(want)
    for (rate, alpha), (ref_rate, ref_alpha) in zip(got, want):
        assert rate == ref_rate
        assert alpha == ref_alpha or (math.isnan(alpha) and math.isnan(ref_alpha))


def _fig3_grid():
    lo = pmin_two_tap(0.2, DELTA) / DELTA**2
    hi = pbar_two_tap(0.2, DELTA) / DELTA**2
    return [float(x) * DELTA**2 for x in np.linspace(lo, hi, 16)]


_FIG4_MARKOV_X = [x for x, _ in THREE_TAP_MARKOV]
_ANTI_GRID = [x * DELTA**2 for x in np.linspace(0.3, 1.9, 17)]

_CURVE_CASES = {
    "fig3-eps0.2": ((1.0, 0.2), 12, "asymptotic", _fig3_grid()),
    "fig3-eps0.8": ((1.0, 0.8), 12, "asymptotic", _fig3_grid()),
    "fig4-finite": ((-0.3, 1.0, 0.6), 12, "finite", [x * DELTA**2 for x in _FIG4_MARKOV_X]),
    "three-tap-n256": (
        (-0.3, 1.0, 0.6), 256, "finite", [x * DELTA**2 for x in np.linspace(0.5, 0.9, 17)]
    ),
    "anti-correlated": ((1.0, -0.5), 12, "asymptotic", _ANTI_GRID),
    "n1": ((1.0,), 1, "finite", [x * DELTA**2 for x in (0.5, 1.0, 1.5)]),
    "n2": ((1.0, -0.5), 2, "finite", _ANTI_GRID),
}


@pytest.mark.parametrize("case", sorted(_CURVE_CASES))
def test_curve_matches_reference_bisection(case):
    taps, n, model, powers = _CURVE_CASES[case]
    spec = ChannelSpec(taps, DELTA, n)
    got = achievable_rate_curve(spec, powers, power_model=model)
    _same_rows(got, [reference_rate(spec, p, model) for p in powers])
    if case == "anti-correlated":
        assert any(alpha < 0.5 for _, alpha in got)


@pytest.mark.parametrize("model", ["asymptotic", "finite"])
@pytest.mark.parametrize("taps", [(1.0, 0.2), (1.0, -0.5), (-0.3, 1.0, 0.6)])
def test_curve_matches_reference_at_branch_edges(taps, model):
    # The budgets P(1/2), P(1) and P(0) decide saturation and which branches
    # are searched; one ulp either side of each flips those decisions.
    spec = ChannelSpec(taps, DELTA, 12)
    power_of = reference_power_of(spec, model)
    powers = []
    for alpha in (0.5, 1.0, 0.0):
        p = power_of(alpha)
        powers += [float(np.nextafter(p, 0.0)), p, float(np.nextafter(p, math.inf))]
    got = achievable_rate_curve(spec, powers, power_model=model)
    _same_rows(got, [reference_rate(spec, p, model) for p in powers])


@pytest.mark.parametrize(
    "levels, block_terms", [(1, 1 << 30), (2, 1 << 30), (3, 1 << 30), (6, 1 << 30), (5, 25)]
)
def test_curve_independent_of_round_shape(monkeypatch, levels, block_terms):
    # Any number of halvings per power evaluation, and tail sums taken a few
    # rows at a time, give the same bits.
    monkeypatch.setattr(markov, "_LEVELS_PER_EVAL", levels)
    monkeypatch.setattr(markov, "_BLOCK_TERMS", block_terms)
    taps, n, model, powers = _CURVE_CASES["fig4-finite"]
    spec = ChannelSpec(taps, DELTA, n)
    got = achievable_rate_curve(spec, powers, power_model=model)
    _same_rows(got, [reference_rate(spec, p, model) for p in powers])


def test_curve_of_no_budgets_is_empty():
    assert achievable_rate_curve(TWO_TAP, []) == []


@pytest.mark.parametrize("taps", [(1.0, 0.2), (1.0, -0.5), (-0.3, 1.0, 0.6)])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.8, 1.0])
def test_power_wrappers_match_scalar_formulas(taps, alpha):
    spec = ChannelSpec(taps, DELTA, 12)
    scheme = MarkovScheme(alpha)
    coeffs = inverse_spectrum_coeffs(spec).tolist()
    assert power_asymptotic(spec, scheme) == reference_series_power(spec, coeffs, scheme.rho)
    ops = build_operators(spec)
    assert power_finite_n(ops, scheme) == reference_power_finite_n(ops, scheme)
