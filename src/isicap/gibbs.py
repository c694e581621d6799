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
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelOperators
from .energy import EnergyProfile, enumerate_profile
from .exceptions import InfeasiblePower

# Relative tolerance deciding the exact-floor and infeasible classifications.
BOUNDARY_TOL = 1e-9

# Interior bisection stops when <E> matches N*P within this relative tolerance.
BETA_MATCH_TOL = 1e-10

_BISECT_MAX_ITER = 200


class Regime(enum.Enum):
    INFEASIBLE = "INFEASIBLE"
    MIN_ENERGY_BOUNDARY = "MIN_ENERGY_BOUNDARY"
    GIBBS_INTERIOR = "GIBBS_INTERIOR"
    SATURATED = "SATURATED"


@dataclass(frozen=True)
class GibbsSolution:
    """Solved operating point: multiplier, log-normalizer, entropy, regime."""

    gibbs_beta: float
    log_partition: float
    entropy_bits_per_use: float
    avg_energy_per_use: float
    regime: Regime


def log_partition(profile: EnergyProfile, beta: float, n: int) -> float:
    """ln sum_s exp(-beta E(s)/n), stabilized by factoring the max exponent."""
    a = -beta * profile.energies / n
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))


def avg_energy(profile: EnergyProfile, beta: float, n: int) -> float:
    """Gibbs-average total energy sum_s E(s) P(s) at multiplier beta."""
    a = -beta * profile.energies / n
    m = float(np.max(a))
    w = np.exp(a - m)
    return float((profile.energies @ w) / np.sum(w))


def solve_beta(profile: EnergyProfile, power: float, n: int) -> GibbsSolution:
    """Classify the regime at per-use power P and solve for beta if interior."""
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

    # Interior: avg_energy(beta) is strictly decreasing (derivative is
    # -Var(E)/n), so double to bracket and bisect.
    hi = 1.0
    while avg_energy(profile, hi, n) > np_budget:
        hi *= 2.0
    lo = 0.0
    beta = hi
    for _ in range(_BISECT_MAX_ITER):
        beta = 0.5 * (lo + hi)
        val = avg_energy(profile, beta, n)
        if abs(val - np_budget) <= BETA_MATCH_TOL * np_budget:
            break
        if val > np_budget:
            lo = beta
        else:
            hi = beta

    ln_z = log_partition(profile, beta, n)
    entropy_nats = beta * power + ln_z
    return GibbsSolution(
        gibbs_beta=beta,
        log_partition=ln_z,
        entropy_bits_per_use=entropy_nats / (n * math.log(2.0)),
        avg_energy_per_use=avg_energy(profile, beta, n) / n,
        regime=Regime.GIBBS_INTERIOR,
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
