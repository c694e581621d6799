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

The sums over patterns run over the profile's orbits under rotation,
negation and reversal, each term weighted by the orbit's size.  ln Z is
convex in beta and d<E>/dbeta = -Var(E)/N, so one weighted pass gives both
the residual of <E> = N*P and its derivative; the interior beta is found by
Newton steps kept inside a bracket, with bisection or doubling whenever a
step leaves it.

A capacity curve solves all its interior points as one array Newton: each pass
evaluates the moments once per distinct live beta, as a (beta x orbit) block
(every point starts at beta = 0, so the first pass is one row), and each
point's bracket, step and fallback follow from the scalar expressions applied
elementwise.  This is bit for bit a loop over the points one at a time:
elementwise arithmetic, np.exp and a row-wise np.sum give each row what they
give a 1-D array, np.vecdot takes each row's dot product through the same
kernel as a 1-D ``e @ w`` (a matrix-vector ``W @ e`` does not), the max
exponent is read at e_min (e_max for beta < 0) because rounding is monotone,
and ln Z takes math.log per row, as a single pass does.  So every beta, ln Z,
iteration count and residual is the one-point solve's, and solve_beta,
log_partition and avg_energy are that same kernel on one row.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelOperators
from .energy import EnergyProfile, enumerate_profile
from .exceptions import InfeasiblePower, NoConvergence

# Relative tolerance deciding the exact-floor and infeasible classifications
# (also the Markov rate's floor in markov.achievable_rate_curve).
BOUNDARY_TOL = 1e-9

# The interior solve stops when <E> matches N*P within this relative tolerance.
BETA_MATCH_TOL = 1e-10

# Weighted passes the interior solve may spend before it raises NoConvergence.
_NEWTON_MAX_ITER = 100

# Elements per (beta x orbit) block of a weighted pass: 512 KB per temporary.
_BLOCK_ELEMENTS = 1 << 16


class Regime(enum.Enum):
    INFEASIBLE = "INFEASIBLE"
    MIN_ENERGY_BOUNDARY = "MIN_ENERGY_BOUNDARY"
    GIBBS_INTERIOR = "GIBBS_INTERIOR"
    SATURATED = "SATURATED"


@dataclass(frozen=True)
class GibbsSolution:
    """Solved operating point: multiplier, log-normalizer, entropy, regime, and
    for the interior solve its weighted passes, final |<E> - NP| / NP and the
    number of steps that left the bracket and fell back to bisection or
    doubling."""

    gibbs_beta: float
    log_partition: float
    entropy_bits_per_use: float
    avg_energy_per_use: float
    regime: Regime
    iterations: int = 0
    residual: float = 0.0
    fallbacks: int = 0


def _check_n(profile: EnergyProfile, n: int):
    if n != profile.n:
        raise ValueError(f"n={n!r} differs from the profile's block length {profile.n}")


def _moments(profile: EnergyProfile, betas: np.ndarray):
    """ln Z, <E> and Var(E) at each multiplier in betas, as arrays, from one
    pass over the orbits per block of rows with the max exponent factored out;
    row j is the one-row pass at betas[j] bit for bit (see the module notes)."""
    e, n = profile.orbit_energies, profile.n
    rows = max(1, _BLOCK_ELEMENTS // e.size)
    ln_z, mean, var = np.empty(betas.size), np.empty(betas.size), np.empty(betas.size)
    for start in range(0, betas.size, rows):
        block = slice(start, start + rows)
        b = betas[block, None]
        m = -b * np.where(b < 0.0, profile.e_max, profile.e_min) / n
        w = -b * e / n
        w -= m
        np.exp(w, out=w)
        w *= profile.multiplicity
        total = w.sum(axis=1)
        mean[block] = np.vecdot(w, e) / total
        d = e - mean[block, None]
        d *= d
        var[block] = np.vecdot(d, w) / total
        # math.log, as the scalar pass took it, not numpy's own log.
        ln_z[block] = m[:, 0] + [math.log(t) for t in total.tolist()]
    return ln_z, mean, var


def _check_beta(beta) -> float:
    beta = float(beta)
    if math.isnan(beta):
        raise ValueError("beta is NaN")
    return beta


def log_partition(profile: EnergyProfile, beta: float, n: int) -> float:
    """ln sum_s exp(-beta E(s)/n).  Every E(s) is positive, so the limit is
    -inf at beta = +inf and +inf at beta = -inf."""
    _check_n(profile, n)
    beta = _check_beta(beta)
    if math.isinf(beta):
        return -beta
    return float(_moments(profile, np.array([beta]))[0][0])


def avg_energy(profile: EnergyProfile, beta: float, n: int) -> float:
    """Gibbs-average total energy sum_s E(s) P(s) at multiplier beta.  The
    mass sits on the minimizers at beta = +inf (e_min) and on the maximizers
    at beta = -inf (e_max)."""
    _check_n(profile, n)
    beta = _check_beta(beta)
    if math.isinf(beta):
        return profile.e_min if beta > 0 else profile.e_max
    return float(_moments(profile, np.array([beta]))[1][0])


def _classify(profile: EnergyProfile, power: float):
    """The solution at per-use power P outside the interior, None inside it;
    raises InfeasiblePower below the floor."""
    if not math.isfinite(power):
        raise ValueError(f"power must be finite, got {power!r}")
    n, e_min, e_mean = profile.n, profile.e_min, profile.e_mean
    np_budget = n * power

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
    return None


def _solve_interior(profile: EnergyProfile, powers: list) -> list:
    """Interior solutions at each power, all Newton iterations run as one array.

    <E>(beta) falls strictly from e_mean at beta = 0 toward e_min, and each
    point keeps its own bracket [lo, hi] of the root.  Every pass evaluates the
    moments once per distinct live beta; each point's bracket, Newton step and
    bisection or doubling fallback then follow the scalar expressions
    elementwise, so each point's iterates are those of a loop over it alone.
    """
    count, n = len(powers), profile.n
    budget = n * np.array(powers, dtype=float)
    beta, lo, hi = np.zeros(count), np.zeros(count), np.full(count, math.inf)
    ln_z, mean, residual = np.empty(count), np.empty(count), np.empty(count)
    iterations, fallbacks = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    live = np.arange(count)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if not live.size:
            break
        b, p = beta[live], budget[live]
        distinct, inverse = np.unique(b, return_inverse=True)
        lz, mu, var = (x[inverse] for x in _moments(profile, distinct))
        res = np.abs(mu - p) / p
        done = res <= BETA_MATCH_TOL
        fin = live[done]
        ln_z[fin], mean[fin], residual[fin], iterations[fin] = lz[done], mu[done], res[done], it
        go = ~done
        live, b, p, mu, var = live[go], b[go], p[go], mu[go], var[go]
        above = mu > p
        l = np.where(above, b, lo[live])
        h = np.where(above, hi[live], b)
        with np.errstate(over="ignore"):
            step = b + np.divide((mu - p) * n, var, out=np.full(b.size, math.inf), where=var > 0.0)
            out = ~((l < step) & (step < h))
            step[out] = np.where(h < math.inf, 0.5 * (l + h), np.maximum(2.0 * l, 1.0))[out]
        lo[live], hi[live], beta[live] = l, h, step
        fallbacks[live] += out
    if live.size:
        j = live[0]
        raise NoConvergence(
            f"Gibbs solve at power {powers[j]:.6g}: <E> still misses N*P after "
            f"{_NEWTON_MAX_ITER} passes (bracket [{lo[j]:.6g}, {hi[j]:.6g}])"
        )

    return [
        GibbsSolution(
            gibbs_beta=b,
            log_partition=lz,
            entropy_bits_per_use=(b * p + lz) / (n * math.log(2.0)),
            avg_energy_per_use=mu / n,
            regime=Regime.GIBBS_INTERIOR,
            iterations=it,
            residual=res,
            fallbacks=fb,
        )
        for b, lz, p, mu, it, res, fb in zip(
            beta.tolist(), ln_z.tolist(), powers, mean.tolist(),
            iterations.tolist(), residual.tolist(), fallbacks.tolist(),
        )
    ]


def solve_beta(profile: EnergyProfile, power: float, n: int) -> GibbsSolution:
    """Classify the regime at per-use power P and solve for beta if interior."""
    _check_n(profile, n)
    sol = _classify(profile, power)
    return sol if sol is not None else _solve_interior(profile, [power])[0]


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
    sols, interior = [], []
    for i, p in enumerate(power_grid):
        try:
            sol = _classify(profile, p)
        except InfeasiblePower:
            sol = GibbsSolution(
                gibbs_beta=math.inf,
                log_partition=-math.inf,
                entropy_bits_per_use=0.0,
                avg_energy_per_use=math.nan,
                regime=Regime.INFEASIBLE,
            )
        if sol is None:
            interior.append(i)
        sols.append(sol)
    solved = _solve_interior(profile, [power_grid[i] for i in interior])
    for i, sol in zip(interior, solved):
        sols[i] = sol
    return list(zip(power_grid, sols))
