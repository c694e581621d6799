"""Monte-Carlo check of the zero-forcing scheme on the true noisy channel.

Under zero-forcing each received sample is b_n * delta + sigma * Z_n, so a
sign flips with probability exactly Q(delta/sigma).  The simulator plays the
scheme over independent blocks, counts quantizer disagreements, and reports
the empirical rate with a binomial standard error for comparison against the
Gaussian tail bound.

The random stream is fixed: per chunk of _BLOCK_CHUNK blocks, one uniform
for each block's first sign, one per Markov step, then one 53-bit integer k
per sample whose noise is sigma * ndtri((k + 0.5) / 2^53).  Each chunk is
then processed in slices of about _SLICE_SIZE samples, so that a slice's
signs, FFT actions and noise stay in cache.

Most noise draws cannot change a decision, and those skip ndtri.  The
decision on a sample is the sign of y + sigma*z, where y = (M x)_n is the
noiseless output.  If |sigma*z| < |y|, the rounded sum is nonzero and has
the sign of y, whatever z is.  Let t be the smallest |y| in a slice.
Because ndtri is monotone, |z| < t/sigma on a band of k around 2^52, and
Q(t/sigma) gives the band's edges once per slice.  Widening that tail
probability by _SCREEN_MARGIN (1e-9 relative, against errors of the
computed Q below 3e-13 relative where Q is a normal float) moves the
band's edge in z inside x = t/sigma by at least 1e-9/(x(x + 1)) relative.
That is over 1e-11 up to x = 8.3, and beyond it no draw on the lattice has
|z| above 8.3 anyway.  ndtri is accurate to about 1e-15 relative and the
roundings of t/sigma and sigma*z to 1.1e-16, so no draw in the band can
change a decision.  Only the draws outside the band go through ndtri, and
the report is bit for bit the one that adds noise to every sample.  When
t is 0, or sigma is about 1e9 times delta or more, the band is empty and
every draw goes through ndtri.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelOperators, apply_channel, apply_inverse

# Blocks per RNG draw.  Fixed so results for a given config are reproducible
# byte-for-byte regardless of platform vectorization.
_BLOCK_CHUNK = 1 << 12

# Samples per slice of a chunk: a slice's float arrays fit in a core's cache.
_SLICE_SIZE = 1 << 16

# Noise draws are integers k on [0, 2^53), read as the uniform (k + 0.5)/2^53
# and mapped by ndtri: one word per sample, unlike rng.normal whose ziggurat
# consumes a variable number of words, so the stream stays fixed.
_LATTICE = 1 << 53

# Relative widening of the tail probability that bounds the noise screen.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class NoisySimConfig:
    """Noise level, sample budget, seed, and sign-source memory for one run."""

    sigma: float
    num_symbols: int
    seed: int = 0
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.num_symbols <= 0:
            raise ValueError("num_symbols must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class SimReport:
    empirical_flip_rate: float
    theoretical_bound: float
    std_error: float
    measured_power_per_use: float
    num_symbols: int


def q_function(x: float) -> float:
    """Standard normal tail probability P(Z > x)."""
    from scipy.special import erfc

    return 0.5 * erfc(x / math.sqrt(2.0))


def _quiet_band(x: float):
    """(lo, hi) such that every draw k in [lo, hi] has |ndtri(u_k)| < x.

    u_k = (k + 0.5)/2^53 is exact below 2^52; above it k + 0.5 may round up
    to k + 1, which the extra step off the top edge absorbs.  The band is
    empty (lo > hi) when Q(x) is near 1/2.
    """
    lo = math.ceil(q_function(x) * (1.0 + _SCREEN_MARGIN) * _LATTICE)
    return lo, _LATTICE - 2 - lo


# The sign stream in its plain chunk-wide form; the simulator forms the same
# signs slice by slice from the same draws.
def _markov_signs(rng: np.random.Generator, nblocks: int, n: int, alpha: float) -> np.ndarray:
    first = np.where(rng.random(size=(nblocks, 1)) < 0.5, 1.0, -1.0)
    if n == 1:
        return first
    stay = rng.random(size=(nblocks, n - 1)) < alpha
    steps = np.where(stay, 1.0, -1.0)
    return np.cumprod(np.concatenate([first, steps], axis=1), axis=1)


def _positive_signs(first: np.ndarray, steps: np.ndarray, alpha: float) -> np.ndarray:
    """Where each block's Markov sign is +1, as a boolean (rows, n) array.

    first holds the first sign's test (u < 1/2 means +1) and steps the
    step uniforms; the sign flips at each step with u >= alpha, so it is +1
    where the first sign, xor-accumulated with the flips, is true.
    """
    positive = np.empty((steps.shape[0], steps.shape[1] + 1), dtype=bool)
    positive[:, :1] = first
    np.greater_equal(steps, alpha, out=positive[:, 1:])
    return np.logical_xor.accumulate(positive, axis=1, out=positive)


def simulate_zero_forcing(ops: ChannelOperators, config: NoisySimConfig) -> SimReport:
    """Run zero-forcing over AWGN and report the measured sign-flip rate.

    Blocks are independent; the chain restarts from its uniform stationary
    law each block.  Only the first num_symbols positions count toward the
    flip tally (the final block may be partially used).
    """
    from scipy.special import ndtri

    if config.num_symbols < 1000:
        warnings.warn("fewer than 1000 symbols; the flip-rate estimate will be noisy")
    n = ops.n
    delta = ops.delta
    sigma = config.sigma
    rows = max(1, _SLICE_SIZE // n)
    nblocks = -(-config.num_symbols // n)
    rng = np.random.Generator(np.random.Philox(config.seed))
    # x^2 of one chunk, summed once per chunk in the order of a chunk-wide sum.
    squares = np.empty(min(_BLOCK_CHUNK, nblocks) * n)

    flips = 0
    energy = 0.0
    remaining = config.num_symbols
    done = 0
    while done < nblocks:
        take = min(_BLOCK_CHUNK, nblocks - done)
        first = rng.random(size=(take, 1)) < 0.5
        # At n = 1 this draw is empty and leaves the stream where it was.
        steps = rng.random(size=(take, n - 1))
        draws = rng.integers(0, _LATTICE, size=(take, n), dtype=np.int64)
        count = min(remaining, take * n)
        for r0 in range(0, take, rows):
            r1 = min(r0 + rows, take)
            positive = _positive_signs(first[r0:r1], steps[r0:r1], config.alpha)
            signs = positive * 2.0
            signs -= 1.0
            x = apply_inverse(ops, signs)
            x *= delta
            np.square(x, out=squares[r0 * n : r1 * n].reshape(x.shape))
            y = apply_channel(ops, x).ravel()
            k = draws[r0:r1].ravel()
            lo, hi = _quiet_band(np.min(np.abs(y)) / sigma)
            tails = np.flatnonzero((k < lo) | (k > hi))
            y[tails] += sigma * ndtri((k[tails] + 0.5) * 2.0**-53)
            used = min(count, r1 * n) - r0 * n
            flips += np.count_nonzero((y[:used] >= 0) != positive.ravel()[:used])
        energy += float(np.sum(squares[:count]))
        remaining -= count
        done += take

    p_hat = flips / config.num_symbols
    return SimReport(
        empirical_flip_rate=p_hat,
        theoretical_bound=q_function(delta / config.sigma),
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / config.num_symbols),
        measured_power_per_use=energy / config.num_symbols,
        num_symbols=config.num_symbols,
    )
