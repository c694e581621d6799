"""Gibbs multiplier solving and the four power regimes."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isicap.gibbs as gibbs
from isicap import (
    ChannelSpec,
    InfeasiblePower,
    NoConvergence,
    Regime,
    avg_energy,
    build_operators,
    capacity,
    capacity_curve,
    enumerate_profile,
    log_partition,
    solve_beta,
)
from isicap.cli import _FIG4_CAPACITY_X
from isicap.spectral import pbar_two_tap, pmin_two_tap

N = 12


def test_infeasible_below_floor(two_tap_profile):
    floor = two_tap_profile.e_min / N
    with pytest.raises(InfeasiblePower) as err:
        solve_beta(two_tap_profile, 0.9 * floor, N)
    assert err.value.floor_per_use == pytest.approx(floor)


def test_saturated_at_and_above_mean(two_tap_profile):
    for p in (two_tap_profile.e_mean / N, 2.0 * two_tap_profile.e_mean / N):
        sol = solve_beta(two_tap_profile, p, N)
        assert sol.regime is Regime.SATURATED
        assert sol.gibbs_beta == 0.0
        assert sol.entropy_bits_per_use == 1.0
        assert sol.log_partition == pytest.approx(N * math.log(2.0))


def test_boundary_exactly_at_floor(two_tap_profile):
    sol = solve_beta(two_tap_profile, two_tap_profile.e_min / N, N)
    assert sol.regime is Regime.MIN_ENERGY_BOUNDARY
    assert math.isinf(sol.gibbs_beta)
    # Mass concentrates uniformly on the min_count minimizers.
    assert sol.entropy_bits_per_use == pytest.approx(
        math.log2(two_tap_profile.min_count) / N
    )


def test_interior_constraint_binds(two_tap_profile):
    floor = two_tap_profile.e_min / N
    mean = two_tap_profile.e_mean / N
    for frac in (0.25, 0.5, 0.9):
        p = floor + frac * (mean - floor)
        sol = solve_beta(two_tap_profile, p, N)
        assert sol.regime is Regime.GIBBS_INTERIOR
        assert sol.avg_energy_per_use == pytest.approx(p, rel=1e-9)
        assert 0.0 < sol.entropy_bits_per_use < 1.0


def test_entropy_identity_definitional(two_tap_profile):
    """beta*P + ln Z equals -sum p ln p computed from the probabilities."""
    for beta in (0.3, 1.0, 4.0):
        a = -beta * two_tap_profile.energies / N
        a -= a.max()
        w = np.exp(a)
        probs = w / w.sum()
        h_def = -float(probs @ np.log(probs))
        p = avg_energy(two_tap_profile, beta, N) / N
        h_formula = beta * p + log_partition(two_tap_profile, beta, N)
        assert h_formula == pytest.approx(h_def, abs=1e-10)


def test_avg_energy_decreasing(two_tap_profile):
    betas = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 64.0]
    vals = [avg_energy(two_tap_profile, b, N) for b in betas]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(two_tap_profile.e_mean, rel=1e-12)


def test_capacity_monotone_in_power(two_tap_ops, two_tap_profile):
    floor = two_tap_profile.e_min / N
    mean = two_tap_profile.e_mean / N
    grid = np.linspace(floor, 1.05 * mean, 24)
    rows = capacity_curve(two_tap_ops, [float(p) for p in grid])
    caps = [sol.entropy_bits_per_use for _, sol in rows]
    assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))


def test_capacity_curve_synthesizes_infeasible_rows(two_tap_ops, two_tap_profile):
    floor = two_tap_profile.e_min / N
    rows = capacity_curve(two_tap_ops, [0.5 * floor, 0.8 * floor, 1.5 * floor])
    assert rows[0][1].regime is Regime.INFEASIBLE
    assert rows[0][1].entropy_bits_per_use == 0.0
    assert math.isnan(rows[0][1].avg_energy_per_use)
    assert rows[2][1].regime in (Regime.GIBBS_INTERIOR, Regime.SATURATED)


def test_capacity_curve_validates_grid(two_tap_ops):
    with pytest.raises(ValueError):
        capacity_curve(two_tap_ops, [])
    with pytest.raises(ValueError):
        capacity_curve(two_tap_ops, [0.1, 0.05])


def test_capacity_single_power():
    ops = build_operators(ChannelSpec((1.0, 0.2), 0.3, 10))
    sol = capacity(ops, 0.08)
    assert sol.regime is Regime.GIBBS_INTERIOR
    assert 0.0 < sol.entropy_bits_per_use < 1.0


def test_beta_scale_invariance(two_tap_profile):
    # Multiplier beta is dimensionless against E/N; doubling power toward the
    # mean must lower it.
    floor = two_tap_profile.e_min / N
    mean = two_tap_profile.e_mean / N
    lo = solve_beta(two_tap_profile, floor + 0.1 * (mean - floor), N)
    hi = solve_beta(two_tap_profile, floor + 0.8 * (mean - floor), N)
    assert hi.gibbs_beta < lo.gibbs_beta


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_non_finite_power_rejected(two_tap_profile, power):
    with pytest.raises(ValueError):
        solve_beta(two_tap_profile, power, N)


def test_moments_at_infinite_beta_are_the_limits(two_tap_profile):
    assert log_partition(two_tap_profile, math.inf, N) == -math.inf
    assert avg_energy(two_tap_profile, math.inf, N) == two_tap_profile.e_min
    assert log_partition(two_tap_profile, -math.inf, N) == math.inf
    assert avg_energy(two_tap_profile, -math.inf, N) == two_tap_profile.e_max


@pytest.mark.parametrize("fn", [log_partition, avg_energy])
def test_nan_beta_rejected(two_tap_profile, fn):
    with pytest.raises(ValueError, match="NaN"):
        fn(two_tap_profile, math.nan, N)


@pytest.mark.parametrize("fn, arg", [(solve_beta, 0.08), (log_partition, 1.0), (avg_energy, 1.0)])
def test_block_length_mismatch_rejected(two_tap_profile, fn, arg):
    # A profile of N = 12 summed as if N were 20 would give a wrong answer.
    with pytest.raises(ValueError, match="n=20.*12"):
        fn(two_tap_profile, arg, 20)


def _gibbs_weights(energies, beta, n):
    a = -beta * energies / n
    w = np.exp(a - a.max())
    return w / w.sum()


def _bisect_beta(energies, budget, n):
    """Reference root of <E>(beta) = budget over the per-pattern energies,
    bisected until the bracket stops shrinking."""
    lo, hi = 0.0, 1.0
    while energies @ _gibbs_weights(energies, hi, n) > budget:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if energies @ _gibbs_weights(energies, mid, n) > budget:
            lo = mid
        else:
            hi = mid


# On (1, 0.5, 0.9) at N = 5 the first Newton step from beta = 0 lands below
# the bracket for powers in the lower half of the band, so bisection takes over.
@pytest.mark.parametrize(
    "taps, n", [((1.0, 0.2), 10), ((1.0, 0.8), 10), ((-0.3, 1.0, 0.6), 10), ((1.0, 0.5, 0.9), 5)]
)
def test_newton_matches_reference_bisection(taps, n):
    prof = enumerate_profile(build_operators(ChannelSpec(taps, 0.3, n)))
    energies = prof.energies
    for frac in (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        power = (prof.e_min + frac * (prof.e_mean - prof.e_min)) / n
        budget = n * power
        sol = solve_beta(prof, power, n)
        assert sol.regime is Regime.GIBBS_INTERIOR
        assert 1 <= sol.iterations <= gibbs._NEWTON_MAX_ITER
        assert sol.residual <= gibbs.BETA_MATCH_TOL
        # Newton stops once |<E> - NP| <= tol * NP, which to first order puts
        # beta within tol * NP * N / Var(E) of the root bisected here; the
        # entropy error is second order.
        w = _gibbs_weights(energies, sol.gibbs_beta, n)
        mean = float(energies @ w)
        assert abs(mean - budget) <= gibbs.BETA_MATCH_TOL * budget * (1 + 1e-6)
        var = float((energies - mean) ** 2 @ w)
        beta = _bisect_beta(energies, budget, n)
        assert abs(sol.gibbs_beta - beta) <= 2 * gibbs.BETA_MATCH_TOL * budget * n / var
        p = _gibbs_weights(energies, beta, n)
        p = p[p > 0.0]
        entropy = -float(p @ np.log(p)) / (n * math.log(2.0))
        assert sol.entropy_bits_per_use == pytest.approx(entropy, rel=1e-9, abs=1e-12)


def test_non_interior_regimes_report_no_iterations(two_tap_ops, two_tap_profile):
    floor, mean = two_tap_profile.e_min / N, two_tap_profile.e_mean / N
    for p in (floor, mean):
        sol = solve_beta(two_tap_profile, p, N)
        assert (sol.iterations, sol.residual, sol.fallbacks) == (0, 0.0, 0)
    rows = capacity_curve(two_tap_ops, [0.5 * floor, floor, mean])
    assert [(sol.iterations, sol.residual, sol.fallbacks) for _, sol in rows] == [(0, 0.0, 0)] * 3


def test_exhausted_budget_raises(two_tap_ops, two_tap_profile, monkeypatch):
    power = 0.5 * (two_tap_profile.e_min + two_tap_profile.e_mean) / N
    monkeypatch.setattr(gibbs, "_NEWTON_MAX_ITER", 0)
    with pytest.raises(NoConvergence):
        solve_beta(two_tap_profile, power, N)
    with pytest.raises(NoConvergence, match=r"bracket \[0, inf\]"):
        capacity_curve(two_tap_ops, [power])


def test_exhausted_budget_names_first_unconverged_point(
    two_tap_ops, two_tap_profile, monkeypatch
):
    floor, mean = two_tap_profile.e_min / N, two_tap_profile.e_mean / N
    grid = [floor + f * (mean - floor) for f in (0.2, 0.5, 0.8)]
    budget = min(sol.iterations for _, sol in capacity_curve(two_tap_ops, grid)) - 1
    monkeypatch.setattr(gibbs, "_NEWTON_MAX_ITER", budget)
    with pytest.raises(NoConvergence) as err:
        capacity_curve(two_tap_ops, grid)
    with pytest.raises(NoConvergence) as first:
        reference_solve_beta(two_tap_profile, grid[0], N)
    assert str(err.value) == str(first.value)


# Small well-conditioned channels: 0.1 <= |f| and max|f| <= 10 min|f|.
@st.composite
def _small_channels(draw):
    taps = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3)))
    n = draw(st.integers(max(3, len(taps)), 8))
    gains = np.abs(np.fft.fft(np.pad(taps, (0, n - len(taps)))))
    assume(gains.min() >= max(0.1, 0.1 * gains.max()))
    return taps, n


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_small_channels())
def test_capacity_nondecreasing_and_concave_in_power(case):
    taps, n = case
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    prof = enumerate_profile(ops)
    floor, mean = prof.e_min / n, prof.e_mean / n
    assume(mean > floor * (1 + 1e-6))
    grid = [floor + k * (mean - floor) / 12 for k in range(15)]
    caps = [sol.entropy_bits_per_use for _, sol in _assert_curve_matches_reference(ops, grid)]
    assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))
    # On an evenly spaced grid a concave curve has nonpositive second differences.
    assert all(a + c - 2 * b <= 1e-9 for a, b, c in zip(caps, caps[1:], caps[2:]))


def _reference_moments(profile, beta, n):
    """The single-multiplier weighted pass, kept as the oracle's kernel."""
    e = profile.orbit_energies
    a = -beta * e / n
    m = float(np.max(a))
    w = profile.multiplicity * np.exp(a - m)
    total = float(np.sum(w))
    mean = float(e @ w) / total
    var = float((e - mean) ** 2 @ w) / total
    return m + math.log(total), mean, var


def reference_solve_beta(profile, power, n):
    """The per-point Newton loop that `capacity_curve` replaces, one power at a
    time, with a count of the steps that fell back to bisection or doubling."""
    gibbs._check_n(profile, n)
    if not math.isfinite(power):
        raise ValueError(f"power must be finite, got {power!r}")
    np_budget = n * power
    e_min, e_mean = profile.e_min, profile.e_mean

    if np_budget < e_min * (1 - gibbs.BOUNDARY_TOL):
        raise InfeasiblePower(
            f"power {power:.6g} is below the feasibility floor {e_min / n:.6g} per use",
            floor_per_use=e_min / n,
        )
    if np_budget >= e_mean:
        return gibbs.GibbsSolution(
            gibbs_beta=0.0,
            log_partition=n * math.log(2.0),
            entropy_bits_per_use=1.0,
            avg_energy_per_use=e_mean / n,
            regime=Regime.SATURATED,
        )
    if abs(np_budget - e_min) <= gibbs.BOUNDARY_TOL * e_min:
        return gibbs.GibbsSolution(
            gibbs_beta=math.inf,
            log_partition=-math.inf,
            entropy_bits_per_use=math.log2(profile.min_count) / n,
            avg_energy_per_use=e_min / n,
            regime=Regime.MIN_ENERGY_BOUNDARY,
        )

    lo, hi, beta, fallbacks = 0.0, math.inf, 0.0, 0
    for iterations in range(1, gibbs._NEWTON_MAX_ITER + 1):
        ln_z, mean, var = _reference_moments(profile, beta, n)
        residual = abs(mean - np_budget) / np_budget
        if residual <= gibbs.BETA_MATCH_TOL:
            break
        if mean > np_budget:
            lo = beta
        else:
            hi = beta
        beta = beta + (mean - np_budget) * n / var if var > 0.0 else math.inf
        if not lo < beta < hi:
            fallbacks += 1
            beta = 0.5 * (lo + hi) if hi < math.inf else max(2.0 * lo, 1.0)
    else:
        raise NoConvergence(
            f"Gibbs solve at power {power:.6g}: <E> still misses N*P after "
            f"{gibbs._NEWTON_MAX_ITER} passes (bracket [{lo:.6g}, {hi:.6g}])"
        )

    entropy_nats = beta * power + ln_z
    return gibbs.GibbsSolution(
        gibbs_beta=beta,
        log_partition=ln_z,
        entropy_bits_per_use=entropy_nats / (n * math.log(2.0)),
        avg_energy_per_use=mean / n,
        regime=Regime.GIBBS_INTERIOR,
        iterations=iterations,
        residual=residual,
        fallbacks=fallbacks,
    )


def _fields(sol):
    # NaN marks an infeasible row's energy; compare it as a token.
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in astuple(sol))


def _assert_curve_matches_reference(ops, grid):
    """Every capacity_curve row equals the per-point loop in every field."""
    profile = enumerate_profile(ops)
    rows = capacity_curve(ops, grid)
    assert [p for p, _ in rows] == list(grid)
    for p, sol in rows:
        try:
            ref = reference_solve_beta(profile, p, ops.n)
        except InfeasiblePower:
            ref = gibbs.GibbsSolution(math.inf, -math.inf, 0.0, math.nan, Regime.INFEASIBLE)
        assert _fields(sol) == _fields(ref), p
    return rows


def _shifted(lo, hi, count, shift):
    step = (hi - lo) / (count - 1)
    return [lo + shift * step + i * step for i in range(count)]


_D2 = 0.3**2
_FIG3_X = np.linspace(pmin_two_tap(0.2, 0.3) / _D2, pbar_two_tap(0.2, 0.3) / _D2, 16)
_FIG3_GRID = [float(x) * _D2 for x in _FIG3_X]

# The curves of figures fig3/fig4 and of the benchmark's qp-profile and
# gibbs-n20 requests (their grids shifted by a fraction of a step).
_BENCH_CURVES = [
    ((1.0, 0.2), 12, _FIG3_GRID),
    ((1.0, 0.8), 12, _FIG3_GRID),
    ((-0.3, 1.0, 0.6), 12, [x * _D2 for x in _FIG4_CAPACITY_X]),
    ((-0.3, 1.0, 0.6), 14, [x * _D2 for x in _shifted(0.54, 0.87, 16, 0.31)]),
    ((-0.3, 1.0, 0.6), 16, [x * _D2 for x in _shifted(0.54, 0.87, 16, -0.42)]),
    ((1.0, 0.8), 12, [x * _D2 for x in _shifted(0.30, 1.80, 16, 0.17)]),
    ((1.0, 0.2), 20, [x * _D2 for x in _shifted(0.72, 1.00, 8, -0.23)]),
]


@pytest.mark.parametrize("taps, n, grid", _BENCH_CURVES)
def test_curve_matches_reference_on_benchmark_grids(taps, n, grid):
    rows = _assert_curve_matches_reference(build_operators(ChannelSpec(taps, 0.3, n)), grid)
    assert any(sol.regime is Regime.GIBBS_INTERIOR for _, sol in rows)


def _wide_grid(profile, n):
    """60 ascending powers from below the floor to above the mean, holding
    e_min/N, e_mean/N and one repeated point."""
    floor, mean = profile.e_min / n, profile.e_mean / n
    inner = [floor + f * (mean - floor) for f in np.linspace(1e-7, 1 - 1e-7, 50).tolist()]
    grid = [0.5 * floor, 0.99 * floor, floor, *inner, mean, 1.01 * mean, 2.0 * mean]
    grid += [inner[20]] + [mean * (1 + k / 10) for k in range(1, 4)]
    return sorted(grid)


def test_curve_matches_reference_on_wide_grid(two_tap_ops, two_tap_profile):
    grid = _wide_grid(two_tap_profile, N)
    assert len(grid) == 60 and len(set(grid)) == 59
    rows = _assert_curve_matches_reference(two_tap_ops, grid)
    regimes = [sol.regime for _, sol in rows]
    assert {Regime.INFEASIBLE, Regime.MIN_ENERGY_BOUNDARY, Regime.SATURATED} <= set(regimes)
    assert regimes.count(Regime.GIBBS_INTERIOR) == 51


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("cap", ["rows", "elements"])
def test_curve_matches_reference_in_small_blocks(
    two_tap_ops, two_tap_profile, monkeypatch, rows, cap
):
    # A cap below one row's size still takes one row per block.
    orbits = two_tap_profile.orbit_energies.size
    monkeypatch.setattr(gibbs, "_BLOCK_ELEMENTS", rows * orbits + 1 if cap == "rows" else 5)
    _assert_curve_matches_reference(two_tap_ops, _wide_grid(two_tap_profile, N))


def test_bracket_fallbacks_counted():
    # On (1, 0.5, 0.9) at N = 5 the first Newton step leaves the bracket at
    # 10% and 30% of the way from the floor to the mean.
    ops = build_operators(ChannelSpec((1.0, 0.5, 0.9), 0.3, 5))
    prof = enumerate_profile(ops)
    fracs = (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    grid = [(prof.e_min + f * (prof.e_mean - prof.e_min)) / 5 for f in fracs]
    rows = _assert_curve_matches_reference(ops, grid)
    assert all(sol.regime is Regime.GIBBS_INTERIOR for _, sol in rows)
    assert [sol.fallbacks >= 1 for _, sol in rows] == [f in (0.1, 0.3) for f in fracs]
    assert solve_beta(prof, grid[2], 5).fallbacks >= 1


@pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5, 5.0])
def test_moments_wrappers_match_reference_pass(two_tap_profile, three_tap_profile, beta):
    for prof in (two_tap_profile, three_tap_profile):
        ln_z, mean, _ = _reference_moments(prof, beta, N)
        assert log_partition(prof, beta, N) == ln_z
        assert avg_energy(prof, beta, N) == mean
