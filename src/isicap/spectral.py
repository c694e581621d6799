"""The Fourier series of 1/|f|^2 and the asymptotic power thresholds.

Every large-N zero-forcing power is a weighted mean of 1/|f(lam)|^2 over the
unit circle, so it reads off the cosine coefficients

    g_d = 1/(2*pi) * integral 1/|f(lam)|^2 cos(d*lam) dlam.

For a channel without spectral nulls these decay geometrically, at a rate
set by the root of f nearest the unit circle.  A uniform grid of m samples
therefore gives g_0 .. g_{m/4} to round-off once the upper quarter of its
spectrum has decayed to round-off, since aliasing folds in only g_{3m/4}
and beyond.  The zero-forcing power ceiling is

    Pbar = delta^2/(2*pi) * integral 1/|f(lam)|^2 dlam = delta^2 * g_0,

with the two-tap channel (1, eps) admitting closed forms
Pbar = delta^2/(1-eps^2) and floor Pmin = delta^2/(1+eps)^2.
"""

import numpy as np

from .channel import SINGULAR_TOL, ChannelSpec, _check_delta, frequency_response
from .exceptions import QuadratureFailure, SingularChannel

# Coefficients at or below this fraction of max 1/|f|^2 are FFT round-off.
ROUNDOFF_FLOOR = 1e-15

_GRID_START = 1 << 6
_GRID_MAX = 1 << 20


def inverse_spectrum_coeffs(spec: ChannelSpec) -> np.ndarray:
    """Cosine coefficients g_0 .. g_D of 1/|f|^2, cut after the last one above
    round-off.

    Doubles a uniform sample grid until the upper quarter of the sampled
    spectrum is at or below ROUNDOFF_FLOOR * max 1/|f|^2, keeping g_0.  Raises
    SingularChannel where build_operators does (min |f| on a grid below
    SINGULAR_TOL * max |f|, or 1/|f|^2 overflowing), and QuadratureFailure if
    the coefficients have not decayed by _GRID_MAX samples.
    """
    m = _GRID_START
    while True:
        mags = np.abs(frequency_response(spec, 2.0 * np.pi * np.arange(m) / m))
        if np.min(mags) <= SINGULAR_TOL * np.max(mags):
            raise SingularChannel(
                f"|f| ranges over [{np.min(mags):.3e}, {np.max(mags):.3e}] on "
                f"{m} frequencies; the zero-forcing power is unbounded"
            )
        # An overflowing |f|^2 gives 1/|f|^2 = 0, an underflowing one inf.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = 1.0 / mags**2
            coeffs = np.fft.rfft(vals).real / m
        if not np.all(np.isfinite(coeffs)):
            raise SingularChannel("the Gram inverse (M_h M_h^T)^{-1} overflows")
        floor = ROUNDOFF_FLOOR * np.max(vals)
        if np.max(np.abs(coeffs[m // 4 :])) <= floor:
            break
        if m >= _GRID_MAX:
            raise QuadratureFailure(
                f"the Fourier coefficients of 1/|f|^2 did not decay to round-off "
                f"within {_GRID_MAX} grid points"
            )
        m *= 2
    return coeffs[: 1 + np.max(np.flatnonzero(np.abs(coeffs) > floor), initial=0)]


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
