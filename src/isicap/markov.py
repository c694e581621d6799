"""Zero-forcing transmission with a two-state Markov sign source.

Information signs b_n follow a symmetric two-state chain with self-transition
probability alpha; the stationary law is uniform and E[b_n b_{n+d}] = rho^d
with rho = 2*alpha - 1.  Zero-forcing sends x = delta * M_h^{-1} b, so the
receiver sees the signs exactly and the rate is the source entropy H2(alpha).
The cost is the transmit power

    P_zm(alpha) = delta^2/N * tr(R M_h^{-1} M_h^{-T}),   R_ij = rho^|i-j|,

evaluated exactly through the circulant autocorrelation of the inverse
impulse response.  As N grows it converges to the spectral integral

    delta^2/(2*pi) * integral 1/|f|^2 * [2(1 - rho cos) / (1 + rho^2
                                          - 2 rho cos) - 1]
        = delta^2 * (g_0 + 2 sum_{d>=1} rho^d g_d),

where g_d are the cosine coefficients of 1/|f|^2 from
spectral.inverse_spectrum_coeffs; the series is summed by Horner's method
and stays accurate uniformly in rho, with closed forms at rho = +-1.

The best rate under a power budget maximizes H2(alpha) subject to
P_zm(alpha) <= P; since H2 peaks at 1/2 and the power is monotone on each
side, a bisection per branch finds the feasible alpha nearest 1/2.
achievable_rate_curve solves a whole power grid at once.  It builds the
power map of its model once per grid (the series coefficients, or the
circulant operators) and bisects every grid point and both branches as one
array.  One power evaluation settles up to five halvings through the dyadic
nodes of every bracket, and each lane then follows the path that halving one
step at a time would take, so every alpha and rate is that bisection's bit
for bit.  Each power formula exists once, as an elementwise map over rho;
power_finite_n, power_asymptotic and achievable_rate_curve call it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelOperators,
    ChannelSpec,
    _as_int,
    build_operators,
    frequency_response,
)
from .gibbs import BOUNDARY_TOL
from .spectral import inverse_spectrum_coeffs, pbar_two_tap, pmin_two_tap

_ALPHA_BISECT_TOL = 1e-10

# Halvings of the alpha bracket, from width 1/2 until it is at most
# _ALPHA_BISECT_TOL.
_BISECT_STEPS = next(k for k in range(64) if 0.5 * 2.0**-k <= _ALPHA_BISECT_TOL)

# Most halvings one power evaluation resolves, through 2^K - 1 nodes per
# bracket.
_LEVELS_PER_EVAL = 5

# Power terms formed at once (the finite-N tail has N - 1 per rho, the series
# one array entry).  A round takes fewer halvings where its nodes would hold
# more, since evaluating more nodes then costs more than another round of
# calls, and the finite-N tails are summed in blocks of rows of this size.
_BLOCK_TERMS = 1 << 14


@dataclass(frozen=True)
class MarkovScheme:
    """Symmetric two-state sign source with self-transition probability alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def rho(self) -> float:
        """Correlation decay per lag, 2*alpha - 1."""
        return 2.0 * self.alpha - 1.0


def correlation(scheme: MarkovScheme, d: int) -> float:
    """Lag-d sign correlation rho^d (rho^0 = 1) for an int lag d >= 0."""
    d = _as_int("lag", d)
    if d < 0:
        raise ValueError("lag must be nonnegative")
    return float(scheme.rho**d)


def _binary_entropy(alpha: float) -> float:
    if alpha <= 0.0 or alpha >= 1.0:
        return 0.0
    return -alpha * math.log2(alpha) - (1 - alpha) * math.log2(1 - alpha)


def entropy_rate_bits(scheme: MarkovScheme) -> float:
    """Source entropy H2(alpha) in bits per symbol."""
    return _binary_entropy(scheme.alpha)


def _finite_powers(ops: ChannelOperators):
    """rho -> delta^2/N * tr(R M_h^{-1} M_h^{-T}) elementwise, for ops.

    With W = M_h^{-1} M_h^{-T} circulant (generator g = IDFT(1/|f|^2)) and R
    Toeplitz, the trace collapses to sum_k 1/|f_k|^2 + 2 sum_t (N-t) rho^t g_t.
    Each tail is one pairwise np.sum over its own row of terms; rows are
    taken in blocks of about _BLOCK_TERMS terms (one row once N - 1 exceeds
    it), so no N x N matrix is formed at any N.
    """
    n = ops.n
    diag_sum = np.sum(ops.spec_weight)
    t = np.arange(1, n)
    lags = n - t
    g = ops.gram_generator[1:]
    rows_per_block = max(1, _BLOCK_TERMS // max(1, n - 1))

    def powers(rho):
        rho = np.asarray(rho, dtype=float)
        flat = rho.reshape(-1, 1)
        tail = np.empty(flat.shape[0])
        for r0 in range(0, flat.shape[0], rows_per_block):
            block = flat[r0 : r0 + rows_per_block]
            tail[r0 : r0 + rows_per_block] = np.sum(lags * block**t * g, axis=-1)
        total = diag_sum + 2.0 * tail
        return (ops.delta**2 * total / n).reshape(rho.shape)

    return powers


def _series_powers(spec: ChannelSpec):
    """rho -> delta^2 * (g_0 + 2 sum_d rho^d g_d) elementwise, for the
    coefficients g_d of 1/|f|^2.

    Each element is summed by Horner's method in the order of the scalar
    recurrence acc = acc*rho + g.  At rho = +-1 the spectral kernel
    degenerates to a point mass at lam = 0 (resp. pi), giving
    delta^2/|f(0)|^2 (resp. delta^2/|f(pi)|^2) exactly.
    """
    coeffs = inverse_spectrum_coeffs(spec).tolist()
    g0, tail = coeffs[0], coeffs[:0:-1]
    d2 = spec.delta**2
    at_one = d2 / abs(frequency_response(spec, 0.0)) ** 2
    at_minus_one = d2 / abs(frequency_response(spec, math.pi)) ** 2

    def powers(rho):
        rho = np.asarray(rho, dtype=float)
        acc = np.zeros(rho.shape)
        for g in tail:
            acc *= rho
            acc += g
        series = d2 * (g0 + 2.0 * rho * acc)
        return np.where(rho == 1.0, at_one, np.where(rho == -1.0, at_minus_one, series))

    return powers


def _power_evaluator(spec: ChannelSpec, power_model: str):
    """The rho -> power map of one power model, built once for spec, and the
    number of power terms it forms per rho."""
    if power_model == "asymptotic":
        return _series_powers(spec), 1
    if power_model == "finite":
        return _finite_powers(build_operators(spec)), max(1, spec.block_len - 1)
    raise ValueError(f"unknown power model {power_model!r}")


def power_finite_n(ops: ChannelOperators, scheme: MarkovScheme) -> float:
    """Exact per-use power delta^2/N * tr(R M_h^{-1} M_h^{-T})."""
    return float(_finite_powers(ops)(scheme.rho))


def power_asymptotic(spec: ChannelSpec, scheme: MarkovScheme) -> float:
    """Large-N limit of the zero-forcing power for the Markov source.

    Raises SingularChannel if the channel has a spectral null.
    """
    return float(_series_powers(spec)(scheme.rho))


def _bisect(power_of, terms: int, budgets: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """The feasible end of each lane's alpha bracket after _BISECT_STEPS
    halvings from (1/2, feasible), one lane per (budget, endpoint); power_of
    forms `terms` power terms per rho.

    Each power evaluation covers up to _LEVELS_PER_EVAL halvings: it takes
    the 2^K - 1 interior dyadic nodes of every bracket and then follows each
    lane's path through them.  Brackets and nodes are dyadic rationals, so
    node j of a bracket, ai + (af - ai) * j/2^K, is exactly the midpoint
    0.5*(ai + af) a one-step-at-a-time bisection would reach there.
    """
    infeasible = np.full(feasible.shape, 0.5)
    lanes = np.arange(feasible.size)
    levels = _LEVELS_PER_EVAL
    while levels > 1 and ((1 << levels) - 1) * lanes.size * terms > _BLOCK_TERMS:
        levels -= 1
    done = 0
    while done < _BISECT_STEPS and lanes.size:
        levels = min(levels, _BISECT_STEPS - done)
        span = 1 << levels
        width = feasible - infeasible
        nodes = infeasible[:, None] + width[:, None] * (np.arange(1, span) / span)
        ok = power_of(2.0 * nodes - 1.0) <= budgets[:, None]
        lo = np.zeros(lanes.size, dtype=np.int64)
        hi = np.full(lanes.size, span)
        for _ in range(levels):
            mid = (lo + hi) >> 1
            step = ok[lanes, mid - 1]
            hi = np.where(step, mid, hi)
            lo = np.where(step, lo, mid)
        infeasible, feasible = infeasible + width * (lo / span), infeasible + width * (hi / span)
        done += levels
    return feasible


def achievable_rate_curve(spec: ChannelSpec, powers, power_model: str = "asymptotic") -> list:
    """Max H2(alpha) s.t. P_zm(alpha) <= P for each budget P in powers; returns
    one (rate, alpha_star) pair per budget.

    power_model selects the constraint: "asymptotic" uses the spectral-limit
    power (the definition of the rate), "finite" uses the exact block-length
    power at spec.block_len, which is what a length-N system pays.  Either
    model raises SingularChannel where its power is unbounded: a spectral
    null anywhere on the unit circle, or at a DFT bin of length N.  The
    power model is built once, and every budget and both branches are
    bisected together.  As in the Gibbs layer, a budget within BOUNDARY_TOL
    (relative) under the least power of any alpha is that floor.
    """
    powers = list(powers)
    for power in powers:
        if not math.isfinite(power):
            raise ValueError(f"power must be finite, got {power!r}")
    if not powers:
        return []
    power_of, terms = _power_evaluator(spec, power_model)
    budgets = np.array(powers, dtype=float)
    at_half, at_one, at_zero = power_of(np.array([0.0, 1.0, -1.0])).tolist()
    # A power given as P/delta^2 times delta^2 can round one ulp under the
    # least power of any alpha.  On a flat channel that floor is also
    # saturation, so the ulp would read rate 0 where the floor reads 1.
    floor = min(at_half, at_one, at_zero)
    budgets = np.where(budgets >= floor * (1 - BOUNDARY_TOL), np.maximum(budgets, floor), budgets)

    # H2 falls off symmetrically away from 1/2, so search each branch for the
    # feasible alpha closest to 1/2; negative-tap channels can prefer the
    # anti-correlated branch (alpha < 1/2).  Lanes of the alpha = 1 branch
    # come first, so ties between branches go to it.
    saturated = at_half <= budgets
    points = [
        np.flatnonzero(~saturated & ~(at_end > budgets)) for at_end in (at_one, at_zero)
    ]
    ends = np.repeat([1.0, 0.0], [p.size for p in points])
    points = np.concatenate(points)
    alphas = _bisect(power_of, terms, budgets[points], ends).tolist()

    best = [(1.0, 0.5) if s else (0.0, math.nan) for s in saturated]
    for point, alpha in zip(points.tolist(), alphas):
        rate = _binary_entropy(alpha)
        best_rate, best_alpha = best[point]
        if rate > best_rate or (rate == best_rate and math.isnan(best_alpha)):
            best[point] = (rate, alpha)
    return best


def achievable_rate(spec: ChannelSpec, power: float, power_model: str = "asymptotic") -> float:
    """Best Markov-scheme rate under the power budget (0 if infeasible)."""
    return achievable_rate_curve(spec, [power], power_model=power_model)[0][0]


def power_two_tap_closed_form(epsilon: float, delta: float, alpha: float) -> float:
    """Asymptotic Markov power for taps (1, eps), |eps| < 1, and alpha in [0, 1]:
    delta^2/(1-eps^2) * (1 - eps*rho)/(1 + eps*rho)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    rho = 2.0 * alpha - 1.0
    return pbar_two_tap(epsilon, delta) * (1.0 - epsilon * rho) / (1.0 + epsilon * rho)


def rate_two_tap_closed_form(epsilon: float, delta: float, power: float) -> float:
    """Piecewise closed-form rate for taps (1, eps), 0 < eps < 1, at a finite
    power."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not math.isfinite(power):
        raise ValueError(f"power must be finite, got {power!r}")
    if power >= pbar_two_tap(epsilon, delta):
        return 1.0
    if power < pmin_two_tap(epsilon, delta):
        return 0.0
    q = power / delta**2 * (1.0 - epsilon**2)
    alpha = 0.5 + (1.0 - q) / (2.0 * epsilon * (1.0 + q))
    return _binary_entropy(alpha)
