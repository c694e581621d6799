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
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelOperators, ChannelSpec, build_operators, frequency_response
from .exceptions import TooLarge
from .spectral import inverse_spectrum_coeffs, pbar_two_tap, pmin_two_tap

# Cap on exact finite-N power evaluation.  The power is two O(N) sums, over
# the DFT gains and over the correlation tail of the Gram generator; no N x N
# matrix is formed.
DENSE_CAP = 4096

_ALPHA_BISECT_TOL = 1e-10


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
    """Lag-d sign correlation rho^d (rho^0 = 1)."""
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


def power_finite_n(ops: ChannelOperators, scheme: MarkovScheme) -> float:
    """Exact per-use power delta^2/N * tr(R M_h^{-1} M_h^{-T}).

    With W = M_h^{-1} M_h^{-T} circulant (generator g = IDFT(1/|f|^2)) and R
    Toeplitz, the trace collapses to sum_k 1/|f_k|^2 + 2 sum_t (N-t) rho^t g_t.
    """
    n = ops.n
    if n > DENSE_CAP:
        raise TooLarge(f"finite-N power evaluation capped at N={DENSE_CAP}")
    diag_sum = np.sum(ops.spec_weight)
    t = np.arange(1, n)
    tail = np.sum((n - t) * scheme.rho**t * ops.gram_generator[1:])
    total = diag_sum + 2.0 * tail
    return ops.delta**2 * total / n


def _series_power(spec: ChannelSpec, coeffs: list, rho: float) -> float:
    """delta^2 * (g_0 + 2 sum_d rho^d g_d) for the coefficients of 1/|f|^2.

    At rho = +-1 the spectral kernel degenerates to a point mass at lam = 0
    (resp. pi), giving delta^2/|f(0)|^2 (resp. delta^2/|f(pi)|^2) exactly.
    """
    if rho == 1.0:
        return spec.delta**2 / abs(frequency_response(spec, 0.0)) ** 2
    if rho == -1.0:
        return spec.delta**2 / abs(frequency_response(spec, math.pi)) ** 2
    acc = 0.0
    for g in reversed(coeffs[1:]):
        acc = acc * rho + g
    return spec.delta**2 * (coeffs[0] + 2.0 * rho * acc)


def power_asymptotic(spec: ChannelSpec, scheme: MarkovScheme) -> float:
    """Large-N limit of the zero-forcing power for the Markov source.

    Raises SingularChannel if the channel has a spectral null.
    """
    return _series_power(spec, inverse_spectrum_coeffs(spec).tolist(), scheme.rho)


def achievable_rate_detail(spec: ChannelSpec, power: float, power_model: str = "asymptotic"):
    """Max H2(alpha) s.t. P_zm(alpha) <= power; returns (rate, alpha_star).

    power_model selects the constraint: "asymptotic" uses the spectral-limit
    power (the definition of the rate), "finite" uses the exact block-length
    power at spec.block_len, which is what a length-N system pays.  Either
    model raises SingularChannel where its power is unbounded: a spectral
    null anywhere on the unit circle, or at a DFT bin of length N.
    """
    if not math.isfinite(power):
        raise ValueError(f"power must be finite, got {power!r}")
    if power_model == "asymptotic":
        coeffs = inverse_spectrum_coeffs(spec).tolist()

        def power_of(alpha):
            return _series_power(spec, coeffs, 2.0 * alpha - 1.0)
    elif power_model == "finite":
        ops = build_operators(spec)

        def power_of(alpha):
            return power_finite_n(ops, MarkovScheme(alpha))
    else:
        raise ValueError(f"unknown power model {power_model!r}")

    if power_of(0.5) <= power:
        return 1.0, 0.5

    # H2 falls off symmetrically away from 1/2, so search each branch for the
    # feasible alpha closest to 1/2; negative-tap channels can prefer the
    # anti-correlated branch (alpha < 1/2).
    best_rate, best_alpha = 0.0, math.nan
    for endpoint in (1.0, 0.0):
        if power_of(endpoint) > power:
            continue
        a_infeasible, a_feasible = 0.5, endpoint
        while abs(a_feasible - a_infeasible) > _ALPHA_BISECT_TOL:
            mid = 0.5 * (a_infeasible + a_feasible)
            if power_of(mid) <= power:
                a_feasible = mid
            else:
                a_infeasible = mid
        rate = _binary_entropy(a_feasible)
        if rate > best_rate or (rate == best_rate and math.isnan(best_alpha)):
            best_rate, best_alpha = rate, a_feasible
    return best_rate, best_alpha


def achievable_rate(spec: ChannelSpec, power: float, power_model: str = "asymptotic") -> float:
    """Best Markov-scheme rate under the power budget (0 if infeasible)."""
    return achievable_rate_detail(spec, power, power_model=power_model)[0]


def power_two_tap_closed_form(epsilon: float, delta: float, alpha: float) -> float:
    """Asymptotic Markov power for taps (1, eps):
    delta^2/(1-eps^2) * (1 - eps*rho)/(1 + eps*rho)."""
    rho = 2.0 * alpha - 1.0
    return delta**2 / (1.0 - epsilon**2) * (1.0 - epsilon * rho) / (1.0 + epsilon * rho)


def rate_two_tap_closed_form(epsilon: float, delta: float, power: float) -> float:
    """Piecewise closed-form rate for taps (1, eps), 0 < eps < 1."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if power >= pbar_two_tap(epsilon, delta):
        return 1.0
    if power < pmin_two_tap(epsilon, delta):
        return 0.0
    q = power / delta**2 * (1.0 - epsilon**2)
    alpha = 0.5 + (1.0 - q) / (2.0 * epsilon * (1.0 + q))
    return _binary_entropy(alpha)
