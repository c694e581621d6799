"""Maximum-entropy capacity under an average-energy budget.

Over sign patterns s with energies E(s), the entropy-maximizing distribution
subject to sum_s P(s) E(s) <= N*P is the Gibbs family

    P(s) = exp(-beta * E(s) / N) / Z,

where beta >= 0 is chosen so the constraint binds (or beta = 0 when even the
uniform distribution satisfies it).  The resulting entropy in nats is

    H(S) = beta * P + ln Z        (P per channel use),

and capacity in bits per use is H(S) / (N ln 2).  Four regimes cover the
power axis: below the floor e_min/N nothing is feasible; exactly at the floor
the mass sits uniformly on the minimizers; between floor and mean a unique
interior beta solves <E> = N*P; at or above the mean the uniform distribution
wins and the rate saturates at 1 bit/use.

The sums over patterns run over the profile's orbits under rotation and
negation, each term weighted by the orbit's size.  ln Z is convex in beta and
d<E>/dbeta = -Var(E)/N, so one weighted pass gives both the residual of
<E> = N*P and its derivative; the interior beta is found by Newton steps kept
inside a bracket, with bisection or doubling whenever a step leaves it.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelOperators
from .energy import EnergyProfile, enumerate_profile
from .exceptions import InfeasiblePower, NoConvergence

# Relative tolerance deciding the exact-floor and infeasible classifications.
BOUNDARY_TOL = 1e-9

# The interior solve stops when <E> matches N*P within this relative tolerance.
BETA_MATCH_TOL = 1e-10

# Weighted passes the interior solve may spend before it raises NoConvergence.
_NEWTON_MAX_ITER = 100


class Regime(enum.Enum):
    INFEASIBLE = "INFEASIBLE"
    MIN_ENERGY_BOUNDARY = "MIN_ENERGY_BOUNDARY"
    GIBBS_INTERIOR = "GIBBS_INTERIOR"
    SATURATED = "SATURATED"


@dataclass(frozen=True)
class GibbsSolution:
    """Solved operating point: multiplier, log-normalizer, entropy, regime, and
    for the interior solve its weighted passes and final |<E> - NP| / NP."""

    gibbs_beta: float
    log_partition: float
    entropy_bits_per_use: float
    avg_energy_per_use: float
    regime: Regime
    iterations: int = 0
    residual: float = 0.0


def _check_n(profile: EnergyProfile, n: int):
    if n != profile.n:
        raise ValueError(f"n={n!r} differs from the profile's block length {profile.n}")


def _moments(profile: EnergyProfile, beta: float, n: int):
    """ln Z, <E> and Var(E) at multiplier beta, from one pass over the orbits
    with the max exponent factored out."""
    e = profile.orbit_energies
    a = -beta * e / n
    m = float(np.max(a))
    w = profile.multiplicity * np.exp(a - m)
    total = float(np.sum(w))
    mean = float(e @ w) / total
    var = float((e - mean) ** 2 @ w) / total
    return m + math.log(total), mean, var


def log_partition(profile: EnergyProfile, beta: float, n: int) -> float:
    """ln sum_s exp(-beta E(s)/n)."""
    _check_n(profile, n)
    return _moments(profile, beta, n)[0]


def avg_energy(profile: EnergyProfile, beta: float, n: int) -> float:
    """Gibbs-average total energy sum_s E(s) P(s) at multiplier beta."""
    _check_n(profile, n)
    return _moments(profile, beta, n)[1]


def solve_beta(profile: EnergyProfile, power: float, n: int) -> GibbsSolution:
    """Classify the regime at per-use power P and solve for beta if interior."""
    _check_n(profile, n)
    if not math.isfinite(power):
        raise ValueError(f"power must be finite, got {power!r}")
    np_budget = n * power
    e_min, e_mean = profile.e_min, profile.e_mean

    if np_budget < e_min * (1 - BOUNDARY_TOL):
        raise InfeasiblePower(
            f"power {power:.6g} is below the feasibility floor {e_min / n:.6g} per use",
            floor_per_use=e_min / n,
        )
    if np_budget >= e_mean:
        # Uniform distribution already meets the (inequality) constraint.
        return GibbsSolution(
            gibbs_beta=0.0,
            log_partition=n * math.log(2.0),
            entropy_bits_per_use=1.0,
            avg_energy_per_use=e_mean / n,
            regime=Regime.SATURATED,
        )
    if abs(np_budget - e_min) <= BOUNDARY_TOL * e_min:
        # beta -> infinity: uniform over the min_count minimizers.
        return GibbsSolution(
            gibbs_beta=math.inf,
            log_partition=-math.inf,
            entropy_bits_per_use=math.log2(profile.min_count) / n,
            avg_energy_per_use=e_min / n,
            regime=Regime.MIN_ENERGY_BOUNDARY,
        )

    # Interior: <E>(beta) falls strictly from e_mean at beta = 0 toward e_min,
    # and [lo, hi] brackets its root.
    lo, hi, beta = 0.0, math.inf, 0.0
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        ln_z, mean, var = _moments(profile, beta, n)
        residual = abs(mean - np_budget) / np_budget
        if residual <= BETA_MATCH_TOL:
            break
        if mean > np_budget:
            lo = beta
        else:
            hi = beta
        beta = beta + (mean - np_budget) * n / var if var > 0.0 else math.inf
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi) if hi < math.inf else max(2.0 * lo, 1.0)
    else:
        raise NoConvergence(
            f"Gibbs solve at power {power:.6g}: <E> still misses N*P after "
            f"{_NEWTON_MAX_ITER} passes (bracket [{lo:.6g}, {hi:.6g}])"
        )

    entropy_nats = beta * power + ln_z
    return GibbsSolution(
        gibbs_beta=beta,
        log_partition=ln_z,
        entropy_bits_per_use=entropy_nats / (n * math.log(2.0)),
        avg_energy_per_use=mean / n,
        regime=Regime.GIBBS_INTERIOR,
        iterations=iterations,
        residual=residual,
    )


def capacity(ops: ChannelOperators, power: float) -> GibbsSolution:
    """Enumerate the energy profile and solve the Gibbs problem at one power."""
    profile = enumerate_profile(ops)
    return solve_beta(profile, power, ops.n)


def capacity_curve(ops: ChannelOperators, power_grid) -> list:
    """Evaluate capacity along an ascending power grid, reusing one profile.

    Infeasible grid points are reported as rows rather than raised, with
    entropy 0 and regime INFEASIBLE, so curves can start below the floor.
    """
    power_grid = list(power_grid)
    if not power_grid:
        raise ValueError("power grid is empty")
    if any(b < a for a, b in zip(power_grid, power_grid[1:])):
        raise ValueError("power grid must be ascending")
    profile = enumerate_profile(ops)
    rows = []
    for p in power_grid:
        try:
            sol = solve_beta(profile, p, ops.n)
        except InfeasiblePower:
            sol = GibbsSolution(
                gibbs_beta=math.inf,
                log_partition=-math.inf,
                entropy_bits_per_use=0.0,
                avg_energy_per_use=math.nan,
                regime=Regime.INFEASIBLE,
            )
        rows.append((p, sol))
    return rows
