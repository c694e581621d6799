"""Monte-Carlo check of the zero-forcing scheme on the true noisy channel.

Under zero-forcing each received sample is b_n * delta + sigma * Z_n, so a
sign flips with probability exactly Q(delta/sigma).  The simulator plays the
scheme over independent blocks, counts quantizer disagreements, and reports
the empirical rate with a binomial standard error for comparison against the
Gaussian tail bound.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

from .channel import ChannelOperators, apply_channel, apply_inverse, quantize

# Blocks per RNG draw.  Fixed so results for a given config are reproducible
# byte-for-byte regardless of platform vectorization.
_BLOCK_CHUNK = 1 << 12


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
    return 0.5 * erfc(x / math.sqrt(2.0))


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # Inverse-CDF on a 53-bit lattice: deterministic for a given seed and
    # draw order, unlike rng.normal whose ziggurat consumes a variable
    # number of words.
    u = (rng.integers(0, 1 << 53, size=shape, dtype=np.int64) + 0.5) * 2.0**-53
    return ndtri(u)


def _markov_signs(rng: np.random.Generator, nblocks: int, n: int, alpha: float) -> np.ndarray:
    first = np.where(rng.random(size=(nblocks, 1)) < 0.5, 1.0, -1.0)
    if n == 1:
        return first
    stay = rng.random(size=(nblocks, n - 1)) < alpha
    steps = np.where(stay, 1.0, -1.0)
    return np.cumprod(np.concatenate([first, steps], axis=1), axis=1)


def simulate_zero_forcing(ops: ChannelOperators, config: NoisySimConfig) -> SimReport:
    """Run zero-forcing over AWGN and report the measured sign-flip rate.

    Blocks are independent; the chain restarts from its uniform stationary
    law each block.  Only the first num_symbols positions count toward the
    flip tally (the final block may be partially used).
    """
    if config.num_symbols < 1000:
        warnings.warn("fewer than 1000 symbols; the flip-rate estimate will be noisy")
    n = ops.n
    delta = ops.delta
    nblocks = -(-config.num_symbols // n)
    rng = np.random.Generator(np.random.Philox(config.seed))

    flips = 0
    energy = 0.0
    remaining = config.num_symbols
    done = 0
    while done < nblocks:
        take = min(_BLOCK_CHUNK, nblocks - done)
        b = _markov_signs(rng, take, n, config.alpha)
        x = delta * apply_inverse(ops, b)
        noise = config.sigma * _standard_normal(rng, (take, n))
        decided = quantize(apply_channel(ops, x) + noise)
        disagreements = (decided != b).astype(np.int64)
        count = min(remaining, take * n)
        flips += int(disagreements.ravel()[:count].sum())
        energy += float(np.sum(x.ravel()[:count] ** 2))
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
