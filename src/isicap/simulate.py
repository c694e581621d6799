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
on the blocks that fall back (below) and on the run's partial last block,
whose counted samples are summed as x^2: the power is over the first
num_symbols positions.  A chunk sums its blocks' energies in block order,
jobs return their flip count and their chunk's energy, and the energies are
added in chunk order, so the report is the same bit for bit whatever the
number of workers.

Most noise draws cannot change a decision, and those are decided by one
integer compare.  The decision on a sample is the sign of y + sigma*z,
where y = (M x)_n is the noiseless output.  Zero-forcing sends
x = delta * M^{-1} s, so y is delta*s up to the rounding of the two FFT
actions, and the simulator never forms it.  By the usual FFT error bound
that rounding is of order u * cond * log2(2N) times delta, with u the unit
roundoff and cond the ratio of the largest to the smallest channel gain
|f_k|; measured, it stays below 1.03 u cond log2(2N) delta on channels from
N = 12 to 1000.  The run takes margin = delta * cond * log2(2N) *
_ROUNDING_MARGIN (1e-9, some 10^6 times that, which also covers the sqrt(N)
by which one entry's error can exceed the normwise bound) as a bound on
|y - delta*s|.  So when v = delta*s + sigma*z has |v| > 2*margin, y + sigma*z
lies within margin of v and has its sign.

The noise z of draw k is the standard library's inverse normal CDF at
u_k = (k + 0.5)/2^53, +inf where u_k rounds to 1 (k = 2^53 - 1).  It is
nondecreasing in k, save that in the centre of the law its rational
approximation steps down by up to two units in the last place now and then.
So is v for either sign, and four edges on the lattice, found once per run
by bisection over k in [0, 2^53), pin every decision that v decides: a sign
+1 flips for k < a (v < -2*margin), is near for a <= k < b and holds for
k >= b (v > 2*margin); a sign -1 holds for k < c, is near for c <= k < d and
flips for k >= d.  A step down can leave a draw's v a few units in the last
place on the wrong side of +-2*margin from its edge, some 10^6 times less
than margin, so y + sigma*z still has the sign the edge gives.  The quiet
band [b, c - 1], where neither sign can flip, holds nearly every draw, and
_tails picks out the rest with one unsigned compare on the raw words.  A
tail is decided by comparing its k with the edges, and z is computed only
for the near ones: a near tail takes the x of its block from apply_inverse
and its y from apply_channel, on those blocks only, and is decided on
y + sigma*z exactly as in the plain simulation.  So the report is bit for
bit the one that adds sigma*z_k to every sample of y.  However large sigma
is, the band holds the draw k = 2^52, whose z is 0.  It is empty only when
margin reaches delta/2 (cond near 5e8/log2(2N), a nearly singular channel):
then every draw is a tail and every near draw's block falls back, slowly but
still exactly.
"""

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelOperators, _as_int, _block_energies, apply_channel, apply_inverse

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

# Bound on |M(M^{-1}(delta*s)) - delta*s| as computed, relative to
# delta * cond * log2(2N): some 10^6 times the largest rounding measured.
_ROUNDING_MARGIN = 1e-9

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


def _normal_at(k: int) -> float:
    """The standard normal draw z_k of lattice integer k.

    That is the inverse normal CDF at u_k = (k + 0.5)/2^53, and +inf at
    k = 2^53 - 1, where k + 0.5 rounds up to 2^53 and u_k to 1.
    """
    from statistics import NormalDist

    u = (k + 0.5) * 2.0**-53
    return math.inf if u == 1.0 else NormalDist().inv_cdf(u)


def _first(holds) -> int:
    """The least k in [0, 2^53) at which the test holds, or 2^53 if none.

    The test must turn from false to true once as k rises; the k returned
    is then the one where it does, holds(k - 1) being false.
    """
    lo, hi = 0, _LATTICE
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _edges(delta: float, sigma: float, margin: float) -> tuple:
    """(a, b, c, d): the lattice edges of the decisions v = +-delta + sigma*z_k.

    A sign +1 flips for k < a and is near (|v| <= 2*margin) for a <= k < b;
    a sign -1 is near for c <= k < d and flips for k >= d.
    """
    bound = 2.0 * margin
    return (
        _first(lambda k: delta + sigma * _normal_at(k) >= -bound),
        _first(lambda k: delta + sigma * _normal_at(k) > bound),
        _first(lambda k: -delta + sigma * _normal_at(k) >= -bound),
        _first(lambda k: -delta + sigma * _normal_at(k) > bound),
    )


def _decide(k: np.ndarray, sent: np.ndarray, edges: tuple):
    """(flipped, near) for tails with lattice integers k and signs sent
    (True for +1): the tails the edges decide as flips, and those they leave
    to y + sigma*z."""
    a, b, c, d = edges
    flipped = np.where(sent, k < a, k >= d)
    near = np.where(sent, (a <= k) & (k < b), (c <= k) & (k < d))
    return flipped, near


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


def _rounding_margin(ops: ChannelOperators) -> float:
    """The bound on |y - delta*s| over the samples of a zero-forcing run."""
    mags = np.abs(ops.dft_gains)
    cond = float(mags.max() / mags.min())
    return ops.delta * cond * math.log2(2 * ops.n) * _ROUNDING_MARGIN


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
    edges: tuple,
):
    """(flips, energy) over chunk `chunk` of the run, read off its own words.

    edges are the run's lattice edges (a, b, c, d), from _edges.
    """
    n = ops.n
    sigma = config.sigma
    rows = max(1, _SLICE_SIZE // n)
    nblocks = -(-config.num_symbols // n)
    take = min(_BLOCK_CHUNK, nblocks - chunk * _BLOCK_CHUNK)
    count = min(config.num_symbols - chunk * _BLOCK_CHUNK * n, take * n)
    start = chunk * 2 * _BLOCK_CHUNK * n
    first_words = _words_at(key, start)
    step_words = _words_at(key, start + take)
    noise_words = _words_at(key, start + take * n)
    energies = np.empty(take)
    band = (edges[1], edges[2] - 1)

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
        sent = positive.ravel()[tails]
        k = words[tails] >> _WORD_SHIFT
        flipped, near = _decide(k, sent, edges)
        flips += np.count_nonzero(flipped)
        near = np.flatnonzero(near)
        if near.size:
            block, col = np.divmod(tails[near], n)
            fallback, at = np.unique(block, return_inverse=True)
            x = ops.delta * apply_inverse(ops, signs[fallback])
            noise = sigma * np.array([_normal_at(int(i)) for i in k[near]])
            y = apply_channel(ops, x)[at, col] + noise
            flips += np.count_nonzero((y >= 0) != sent[near])
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
    edges = _edges(ops.delta, config.sigma, _rounding_margin(ops))
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), nchunks)) as pool:
        results = list(
            pool.map(lambda c: _simulate_chunk(ops, config, key, c, edges), range(nchunks))
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
