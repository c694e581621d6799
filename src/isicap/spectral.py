"""The Fourier series of 1/|f|^2 and the asymptotic power thresholds.

Every large-N zero-forcing power is a weighted mean of 1/|f(lam)|^2 over the
unit circle, so it reads off the cosine coefficients

    g_d = 1/(2*pi) * integral 1/|f(lam)|^2 cos(d*lam) dlam.

They are build_operators' Gram generator on a ring of m samples, up to
aliasing (its entry d holds g_d + g_{m-d} + g_{m+d} + ...).  For a channel
without spectral nulls they decay geometrically, at a rate set by the root
of f nearest the unit circle, so the ring gives g_0 .. g_{m/4} to round-off
once its entries m/4 .. m/2 are round-off too; the ring doubles until then.  The
zero-forcing power ceiling is

    Pbar = delta^2/(2*pi) * integral 1/|f(lam)|^2 dlam = delta^2 * g_0,

with the two-tap channel (1, eps) admitting closed forms
Pbar = delta^2/(1-eps^2) and floor Pmin = delta^2/(1+eps)^2.
"""

import numpy as np

from .channel import ChannelSpec, _check_delta, _gram_spectrum
from .exceptions import QuadratureFailure

# Coefficients at or below this fraction of max 1/|f|^2 are FFT round-off.
ROUNDOFF_FLOOR = 1e-15

_GRID_START = 1 << 6
_GRID_MAX = 1 << 20


def inverse_spectrum_coeffs(spec: ChannelSpec) -> np.ndarray:
    """Cosine coefficients g_0 .. g_D of 1/|f|^2, cut after the last one above
    round-off.

    Doubles the ring m of the spectrum build_operators reads
    (channel._gram_spectrum of the taps on m samples), from the least power
    of two >= max(_GRID_START, len(taps)), until its generator's entries
    m/4 .. m/2 are at or below ROUNDOFF_FLOOR * max 1/|f|^2, keeping g_0.
    Raises SingularChannel where build_operators does, and QuadratureFailure
    if they have not decayed by _GRID_MAX samples.
    """
    m = max(_GRID_START, 1 << (len(spec.taps) - 1).bit_length())
    while True:
        _, weight, generator = _gram_spectrum(spec.taps, m)
        coeffs = generator[: m // 2 + 1]
        floor = ROUNDOFF_FLOOR * np.max(weight)
        if np.max(np.abs(coeffs[m // 4 :])) <= floor:
            break
        if m >= _GRID_MAX:
            raise QuadratureFailure(
                f"the Fourier coefficients of 1/|f|^2 did not decay to round-off "
                f"within {_GRID_MAX} grid points"
            )
        m *= 2
    return coeffs[: 1 + np.max(np.flatnonzero(np.abs(coeffs) > floor), initial=0)].copy()


def pbar_asymptotic(spec: ChannelSpec) -> float:
    """Zero-forcing power ceiling delta^2/(2*pi) * integral 1/|f|^2 = delta^2 g_0."""
    return spec.delta**2 * float(inverse_spectrum_coeffs(spec)[0])


def pbar_two_tap(epsilon: float, delta: float) -> float:
    """Closed-form ceiling for taps (1, eps), |eps| < 1."""
    if not abs(epsilon) < 1:
        raise ValueError("|epsilon| must be < 1")
    _check_delta(delta)
    return delta**2 / (1.0 - epsilon**2)


def pmin_two_tap(epsilon: float, delta: float) -> float:
    """Closed-form floor for taps (1, eps): the all-ones pattern's per-use energy."""
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must be in [0, 1)")
    _check_delta(delta)
    return delta**2 / (1.0 + epsilon) ** 2
