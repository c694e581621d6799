"""Monte-Carlo check of the zero-forcing scheme on the true noisy channel.

Under zero-forcing each received sample is b_n * delta + sigma * Z_n, so a
sign flips with probability exactly Q(delta/sigma).  The simulator plays the
scheme over independent blocks, counts quantizer disagreements, and reports
the empirical rate with a binomial standard error for comparison against the
Gaussian tail bound.

The random stream is fixed on the raw 64-bit words of Philox keyed by the
seed.  Chunk c of _BLOCK_CHUNK blocks, holding `take` blocks of N samples,
starts at word c*2*_BLOCK_CHUNK*N and holds, in order, one word per block
for the first sign (+1 when the word is below 2^63), one per Markov step
(the uniform (w >> 11) * 2^-53), then one per sample whose 53-bit integer
k = w >> 11 gives the noise sigma * z_k (below).  These are the
draws Generator(Philox(seed)).random and .integers(0, 2^53) make in that
order, since Lemire's method never rejects a power-of-two range.  Philox is
counter-based, so a slice of rows r0..r1 reads its own words at fixed
offsets: `first` at +r0, the steps at +take + r0*(N-1) and the noise at
+take*N + r0*N.  Each chunk is an independent job on a pool of worker
threads, one per usable CPU, and works in slices of about _SLICE_SIZE
samples, so that a slice's words, signs, spectra and noise stay in cache.

The transmit power comes from the sign spectrum.  Zero-forcing sends
x = delta * M^{-1} s, and a block's energy sum_n x_n^2 is the Parseval sum
over the rfft of its signs, channel._block_energies, the one the energy
layer takes for the closed form.  It is taken row by row, so a block's
energy does not depend on the slice it falls in.  x itself is formed only
on the run's partial last block, whose counted samples are summed as x^2:
the power is over the first num_symbols positions.  A chunk sums its
blocks' energies in block order, jobs return their flip count and their
chunk's energy, and the energies are added in chunk order, so the report is
the same bit for bit whatever the number of workers.

Each decision is one integer compare, by inversion.  The decision on a
sample is the sign of y + sigma*z, where the noiseless output y = (M x)_n
is delta*s under zero-forcing, so the simulator never forms it.  The noise
of draw k is z_k = Phi^{-1}(u_k) at u_k = (k + 0.5)/2^53: it rises with k
and is odd about the middle of the lattice, as u_{2^53-1-k} = 1 - u_k.  As
Phi^{-1}(u) < t exactly when u < Phi(t), a sign +1 flips exactly when
u_k < Q(delta/sigma), on the draws k below the edge a of _flip_edge, and
by the symmetry a sign -1 flips exactly on the draws k >= 2^53 - a.  The
quiet band [a, 2^53 - 1 - a], where neither sign flips, holds nearly every
draw, and _tails picks out the rest with one unsigned compare on the raw
words; a tail flips when it lies below a exactly if its sign is +1.  The
band is empty only when Q rounds to 1/2 (a = 2^52): then every draw is a
tail.

a is read off Q as computed, within a lattice point of the exact edge.  A
plain simulation, with u_k and z_k in floating point and y from FFT
actions, can differ only on a draw next to an edge, and on the top draw
k = 2^53 - 1, whose k + 0.5 rounds up to 2^53, so that its z is +inf in
place of its lattice value of about 8.3.  A sign -1 flips on that draw
here only when delta/sigma < 8.3, there always: the two differ on it with
probability 2^-54 per sample, and only when delta/sigma > 8.3.
"""

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelOperators, _as_int, _block_energies, apply_inverse

# Blocks per chunk, the unit of work of one job.  Fixed, since it sets where
# each chunk's words start, so results for a given config are reproducible
# byte-for-byte whatever the platform or the number of workers.
_BLOCK_CHUNK = 1 << 12

# Samples per slice of a chunk: a slice's float arrays fit in a core's cache.
_SLICE_SIZE = 1 << 16

# Noise draws are integers k on [0, 2^53), read as the uniform (k + 0.5)/2^53
# and mapped by the inverse normal CDF: one word per sample, unlike rng.normal
# whose ziggurat consumes a variable number of words, so the stream stays fixed.
_LATTICE = 1 << 53

# Philox yields 64-bit words in blocks of four; advance() moves one block.
_PHILOX_BLOCK = 4

# A first-sign word below 2^63 is a uniform below 1/2, which makes the sign +1.
_HALF_WORD = np.uint64(1 << 63)

# Shift from a 64-bit word to its top 53 bits, the lattice integer.
_WORD_SHIFT = np.uint64(11)


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
        # numpy integers are stored as int, so the draw offsets cannot overflow.
        object.__setattr__(self, "num_symbols", _as_int("num_symbols", self.num_symbols))
        if self.num_symbols <= 0:
            raise ValueError("num_symbols must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        object.__setattr__(self, "seed", _as_int("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative int, got {self.seed!r}")


@dataclass(frozen=True)
class SimReport:
    empirical_flip_rate: float
    theoretical_bound: float
    std_error: float
    measured_power_per_use: float
    num_symbols: int


def q_function(x: float) -> float:
    """Standard normal tail probability P(Z > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _flip_edge(delta: float, sigma: float) -> int:
    """The flip edge a: a sign +1 flips on the draws k < a, a sign -1 on
    k >= 2^53 - a.

    a counts the lattice uniforms u_k = (k + 0.5)/2^53 below Q(delta/sigma),
    the k with k + 0.5 < Q * 2^53.  Q <= 1/2, so Q * 2^53 <= 2^52 is exact,
    and so is Q * 2^53 - 0.5 wherever its ceiling is not 0.
    """
    return math.ceil(q_function(delta / sigma) * _LATTICE - 0.5)


def _words_at(key: np.ndarray, offset: int) -> np.random.Philox:
    """The Philox stream with this key, positioned at word `offset`.

    random_raw on the result reads the stream's words from there on, the
    same words Generator(Philox(seed)) consumes after `offset` of them.
    """
    bitgen = np.random.Philox(key=key)
    bitgen.advance(offset // _PHILOX_BLOCK)
    bitgen.random_raw(offset % _PHILOX_BLOCK)
    return bitgen


def _positive_signs(first: np.ndarray, steps: np.ndarray, alpha: float) -> np.ndarray:
    """Where each block's Markov sign is +1, as a boolean (rows, n) array.

    first holds each block's first-sign word and steps its step words; the
    first sign is +1 for a word below 2^63, and the sign flips at each step
    whose uniform (w >> 11) * 2^-53 is at least alpha.  Scaling by 2^53 is
    exact, so that is where w >> 11 is at least ceil(alpha * 2^53), an
    integer test that skips forming the uniforms.  The sign is +1 where the
    first sign, xor-accumulated with the flips, is true.
    """
    positive = np.empty((steps.shape[0], steps.shape[1] + 1), dtype=bool)
    np.less(first, _HALF_WORD, out=positive[:, 0])
    flip_from = np.uint64(math.ceil(alpha * _LATTICE))
    np.greater_equal(steps >> _WORD_SHIFT, flip_from, out=positive[:, 1:])
    return np.logical_xor.accumulate(positive, axis=1, out=positive)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tails(words: np.ndarray, band: tuple) -> np.ndarray:
    """Indices of the noise words whose draw k = w >> 11 lies outside the band.

    k lies in [lo, hi] exactly when w lies in [lo << 11, (hi << 11) | 0x7FF],
    which one unsigned compare tests: w - (lo << 11), wrapping, is at most
    the interval's width.  An empty band (lo > hi) makes every draw a tail.
    """
    lo, hi = band
    if lo > hi:
        return np.arange(words.size)
    width = np.uint64(((hi - lo) << 11) | 0x7FF)
    return np.flatnonzero(words - np.uint64(lo << 11) > width)


def _simulate_chunk(
    ops: ChannelOperators,
    config: NoisySimConfig,
    key: np.ndarray,
    chunk: int,
    edge: int,
):
    """(flips, energy) over chunk `chunk` of the run, read off its own words.

    edge is the run's flip edge a, from _flip_edge.
    """
    n = ops.n
    rows = max(1, _SLICE_SIZE // n)
    nblocks = -(-config.num_symbols // n)
    take = min(_BLOCK_CHUNK, nblocks - chunk * _BLOCK_CHUNK)
    count = min(config.num_symbols - chunk * _BLOCK_CHUNK * n, take * n)
    start = chunk * 2 * _BLOCK_CHUNK * n
    first_words = _words_at(key, start)
    step_words = _words_at(key, start + take)
    noise_words = _words_at(key, start + take * n)
    energies = np.empty(take)
    band = (edge, _LATTICE - 1 - edge)
    lower = np.uint64(edge << 11)  # a word lies below it when its draw k < a

    flips = 0
    for r0 in range(0, take, rows):
        r1 = min(r0 + rows, take)
        positive = _positive_signs(
            first_words.random_raw(r1 - r0),
            step_words.random_raw((r1 - r0, n - 1)),
            config.alpha,
        )
        signs = positive * 2.0
        signs -= 1.0
        _block_energies(ops, signs, out=energies[r0:r1])
        words = noise_words.random_raw((r1 - r0) * n)[: min(count, r1 * n) - r0 * n]
        tails = _tails(words, band)
        flips += np.count_nonzero((words[tails] < lower) == positive.ravel()[tails])
    if count < take * n:
        # The run's partial last block: power over its counted samples only.
        x = ops.delta * apply_inverse(ops, signs[-1])
        energies[-1] = np.sum(np.square(x[: count - (take - 1) * n]))
    return flips, float(np.sum(energies))


def simulate_zero_forcing(ops: ChannelOperators, config: NoisySimConfig) -> SimReport:
    """Run zero-forcing over AWGN and report the measured sign-flip rate.

    Blocks are independent; the chain restarts from its uniform stationary
    law each block.  Only the first num_symbols positions count toward the
    flip tally (the final block may be partially used).  Chunks of blocks
    run on one worker thread per usable CPU.
    """
    from concurrent.futures import ThreadPoolExecutor

    if config.num_symbols < 1000:
        warnings.warn("fewer than 1000 symbols; the flip-rate estimate will be noisy")
    nchunks = -(-config.num_symbols // (ops.n * _BLOCK_CHUNK))
    key = np.random.Philox(config.seed).state["state"]["key"]
    edge = _flip_edge(ops.delta, config.sigma)
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), nchunks)) as pool:
        results = list(
            pool.map(lambda c: _simulate_chunk(ops, config, key, c, edge), range(nchunks))
        )

    # A plain left fold in chunk order; sum() compensates floats on Python 3.12+.
    flips = 0
    energy = 0.0
    for chunk_flips, chunk_energy in results:
        flips += chunk_flips
        energy += chunk_energy
    p_hat = flips / config.num_symbols
    return SimReport(
        empirical_flip_rate=p_hat,
        theoretical_bound=q_function(ops.delta / config.sigma),
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / config.num_symbols),
        measured_power_per_use=energy / config.num_symbols,
        num_symbols=config.num_symbols,
    )
