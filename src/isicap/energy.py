"""Minimum input energy per sign pattern.

E(s) is the optimal value of the convex QP

    min ||x||^2   s.t.   diag(s) M_h x >= delta * 1,

the least energy that forces the quantized block output to equal s.  With
z = diag(s) M_h x it reads min z^T A z s.t. z >= delta, A = diag(s) G diag(s).
The closed form z = delta * 1, i.e.

    E(s) = delta^2 * s^T G s,      x* = delta * M_h^{-1} s,

has multipliers mu = 2*delta*diag(s)*G*s and is optimal exactly when mu >= 0;
diagonal dominance of G is the case where this holds for every s.  Every
channel takes the same path: an exhaustive profile forms diag(s) G s for each
pattern with the dense G, keeps the closed form where mu >= 0 and sends
the other patterns to the solver.  The closed form's energy is
channel._block_energies, the Parseval sum over the pattern's rfft, whose
terms are nonnegative; the simulator takes its transmit power from the same
sum.

The solver is a primal active-set method (Lawson-Hanson) started at the
closed form.  Its first pivot frees every bound whose closed-form multiplier
is negative at once, which is often already the optimal free set;
each later pivot frees the bound with the most negative multiplier.  Between
pivots it minimizes over the free z_i with the others held at delta, steps
back to feasibility when a free z_i would fall below delta, and it stops
after finitely many pivots once mu >= 0.  The minimization needs no channel
action: with w = s*(z - delta), zero off the free set F, it solves
G_FF w_F = -delta*(Gs)_F, a k x k system gathered from the generator of G
with G*s formed once per pattern, and sets z_F = delta + s_F*w_F.  Patterns
with the same k share one batched solve of unpadded systems, so a pattern's
free-set step does not depend on the patterns solved with it.  Only the
multipliers take an FFT, one per pivot.  Each result carries x*, the dual mu
and their duality gap; with z >= delta they certify it.

The code of a pattern is the integer whose big-endian bits map 1 -> +1 and
0 -> -1.  A circulant channel gives E(s) = E(shift(s)) = E(-s), and also
E(s) = E(reverse(s)): the QP for the reversed pattern is the QP for s under
M_h^T, whose Gram matrix (M_h^T M_h)^{-1} is G because circulants commute.
So an exhaustive profile solves one pattern per orbit under rotation,
negation and reversal (13,648 orbits for the 2^20 patterns at N = 20).
Negating s leaves its cyclic sign-change word d_i = s_i xor s_{i+1}
(i mod N) unchanged, rotating s rotates d, reversing s reverses d up to a
rotation, and an even-weight d has exactly the preimages s and -s: the
orbits are the even-weight binary bracelets (necklaces up to reversal).  A
bracelet holds 2 * period(d) patterns when d's necklace is its own
reversal's, else 4 * period(d).  The necklaces come from the tree of
prenecklaces of Fredricksen, Kessler and Maiorana, built in numpy one level
(word length) at a time.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelOperators, _as_int, _block_energies, apply_inverse
from .exceptions import NoConvergence, NotDiagonallyDominant, TooLarge

# Exhaustive enumeration cap: 2^20 patterns is the desk-scale budget.
ENUMERATION_CAP = 20

# Multipliers above -DUAL_TOL * 2*delta*g_0 count as nonnegative, so rounding
# noise on a zero multiplier triggers no pivot.
DUAL_TOL = 1e-12

# Patterns within this relative distance of e_min count as minimizers.
MIN_TIE_TOL = 1e-9

# Orbits per chunk of an exhaustive profile: 2^12 rows give one chunk for
# every N <= 18, and at N = 20 a chunk's temporaries (about 0.7 MB each) fit
# a core's L2.
_CHUNK = 1 << 12

# Smallest normal float: the floor on a step's span, which keeps it positive.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class EnergySolution:
    """One solved pattern: optimal energy, input, dual vector, duality gap."""

    energy: float
    x_star: np.ndarray
    dual: np.ndarray
    gap: float


@dataclass(frozen=True)
class EnergyProfile:
    """Exhaustive energy landscape over the 2^N sign patterns, stored per orbit.

    orbit_codes[i] is the member of orbit i under rotation, negation and
    reversal with entry 0 = -1 whose sign-change word is the i-th even-weight
    necklace not above its reversal's (the necklaces increase with i),
    multiplicity[i] the orbit's size and orbit_energies[i] its energy, which
    every member takes, reversed ones included.  min_count is the number of
    patterns tied with e_min within MIN_TIE_TOL relative.
    """

    n: int
    orbit_codes: np.ndarray
    multiplicity: np.ndarray
    orbit_energies: np.ndarray
    e_min: float
    e_max: float
    e_mean: float
    min_count: int

    @cached_property
    def energies(self) -> np.ndarray:
        """Read-only E per code, all 2^N of them, built on first access."""
        full = np.empty(1 << self.n)
        mask = (1 << self.n) - 1
        for codes in (self.orbit_codes, _reversed(self.orbit_codes, self.n)):
            for rotated in _rotations(codes, self.n):
                full[rotated] = self.orbit_energies
                full[rotated ^ mask] = self.orbit_energies
        full.flags.writeable = False
        return full


def pattern_from_code(code, n: int) -> np.ndarray:
    """Decode an integer code, or an array of them, into +-1 patterns (bit N-1
    is entry 0, N <= 64): shape (n,) for one code, codes.shape + (n,) for an
    array.  Each code's big-endian 64-bit word is unpacked to bits.  A bool or
    non-integer code, or one outside [0, 2^N), raises ValueError."""
    if not 0 <= n <= 64:
        raise ValueError(f"codes hold at most 64 bits, got N={n}")
    # Anything but an array goes through an object array, which holds every
    # Python int exactly (a list of int64 and uint64 values becomes float64).
    codes = code if isinstance(code, np.ndarray) else np.asarray(code, dtype=object)
    # An integer array passes on its dtype; object entries are checked one by
    # one, by the rule of the channel's integer parameters.
    if codes.dtype == object:
        for c in codes.flat:
            _as_int("code", c)
    elif not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
    if not np.all((0 <= codes) & (codes < 1 << n)):
        raise ValueError(f"codes must lie in [0, 2^{n}) for N={n}")
    words = codes.astype(">u8")[..., None].view(np.uint8)
    return np.unpackbits(words, axis=-1)[..., 64 - n :] * 2.0 - 1.0


def code_from_pattern(signs) -> int:
    """The nonnegative code of a +-1 pattern (entry 0 is bit N-1, N <= 64): its
    bits packed big-endian into bytes, less the zero bits padding the last."""
    signs = np.asarray(signs)
    if signs.size > 64:
        raise ValueError(f"codes hold at most 64 bits, got N={signs.size}")
    if not np.all(np.abs(signs) == 1):
        raise ValueError("pattern entries must be exactly +-1")
    bits = signs > 0
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)


def _as_pattern(n: int, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (n,):
        raise ValueError(f"pattern must have shape ({n},), got {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("pattern entries must be exactly +-1")
    return s


def _gram_apply(ops: ChannelOperators, rows: np.ndarray) -> np.ndarray:
    """G acting on each row, via the spectral form of the circulant G."""
    half = ops.spec_weight[: ops.n // 2 + 1]
    return np.fft.irfft(np.fft.rfft(rows, axis=-1) * half, n=ops.n, axis=-1)


def _dual_tol(ops: ChannelOperators) -> float:
    return DUAL_TOL * 2.0 * ops.delta * ops.gram_generator[0]


def analytic_energy(ops: ChannelOperators, s) -> EnergySolution:
    """Closed-form E(s) for diagonally-dominant channels (zero duality gap)."""
    if not ops.dd_flag:
        raise NotDiagonallyDominant(
            "analytic energy needs a diagonally-dominant Gram inverse"
        )
    s = _as_pattern(ops.n, s)
    gs = _gram_apply(ops, s[None, :])[0]
    energy = float(_block_energies(ops, s))
    x_star = ops.delta * apply_inverse(ops, s)
    dual = 2.0 * ops.delta * s * gs
    return EnergySolution(energy=energy, x_star=x_star, dual=dual, gap=0.0)


def _free_set_optimum(ops, s, gs, free):
    """Per row, the minimizer of z'Az with z = delta off the free set F.

    With w = s*(z - delta), zero off F, the free rows of Az = 0 read
    G_FF w_F = -delta*(Gs)_F, so z_F = delta + s_F*w_F needs G*s (gs) only,
    no channel action.  Rows are solved in groups of equal |F| = k, each row
    an unpadded k x k system over its free indices in increasing order, so a
    row's bits do not depend on which rows share its call.
    """
    rows, cols = np.nonzero(free)
    counts = np.bincount(rows, minlength=s.shape[0])
    # Group the entries by |F|; within a group rows and columns keep order.
    order = np.argsort(counts[rows], kind="stable")
    rows, cols = rows[order], cols[order]
    # The right-hand sides, replaced group by group by the solutions w_F.
    w_free = -ops.delta * gs[rows, cols]
    # entries[k]: the free entries of the rows with |F| = k.
    entries = np.bincount(counts) * np.arange(counts.max(initial=0) + 1)
    end = 0
    for k in np.flatnonzero(entries):
        part = slice(end, end + entries[k])
        c = cols[part].reshape(-1, k)
        sub = ops.gram_generator[(c[:, :, None] - c[:, None, :]) % ops.n]
        w_free[part] = np.linalg.solve(sub, w_free[part].reshape(-1, k, 1)).ravel()
        end += entries[k]
    w = np.zeros(s.shape)
    w[rows, cols] = w_free
    return ops.delta + s * w


def _active_set(ops, s, budget):
    """Lawson-Hanson on min z'Az s.t. z >= delta, A = diag(s) G diag(s), for each
    row of s from the closed form z = delta.  Returns z and mu = 2Az (0 on the
    free set) once mu >= -tol or after budget pivots.

    Pivot 0 frees every index whose closed-form multiplier is below -tol;
    each later pivot frees the one with the most negative multiplier.  After
    a pivot z moves toward the optimum zp of its free set and stops where a
    falling free entry reaches delta.  That entry is bound again, and so is
    every free entry left at delta that the step does not raise (zp <= z);
    then zp is recomputed on the smaller set.  From z = delta the first step
    has length 0, so pivot 0 binds every falling index in one solve, and the
    rule keeps a zero-length step from binding the index a pivot just freed.
    Each step binds at least one index, so a pivot ends after at most N
    solves, at the optimum of its free set with every free entry above delta.

    Termination (Lawson and Hanson, Solving Least Squares Problems, ch. 23):
    after pivot 0, z is the feasible optimum of its free set with every free
    entry above delta.  A later pivot frees an index with a negative
    multiplier, so the optimum over the enlarged set raises that entry and
    the first step has positive length.  Every step moves toward the
    minimizer over the current set, so z'Az falls strictly from one pivot to
    the next.  Pivots therefore never return to a free set, of which there
    are finitely many; the budget bounds what rounding could prolong.
    """
    delta, tol = ops.delta, _dual_tol(ops)
    gs = _gram_apply(ops, s)
    z = np.full(s.shape, delta)
    free = np.zeros(s.shape, dtype=bool)
    mu = np.empty(s.shape)
    live = np.arange(s.shape[0])
    for pivot in range(budget + 1):
        s_live = s[live]
        mu[live] = np.where(free[live], 0.0, 2.0 * s_live * _gram_apply(ops, s_live * z[live]))
        j = np.argmin(mu[live], axis=1)
        keep = mu[live, j] < -tol
        live, j = live[keep], j[keep]
        if pivot == budget or live.size == 0:
            break
        if pivot == 0:
            free[live] = mu[live] < -tol
        else:
            free[live, j] = True
        step = live
        while True:
            zp = _free_set_optimum(ops, s[step], gs[step], free[step])
            low = free[step] & (zp <= delta)
            done = ~low.any(axis=1)
            z[step[done]] = zp[done]
            if done.all():
                break
            step, zp, low = step[~done], zp[~done], low[~done]
            # Step toward zp until a free z_i reaches delta (the ratios on low
            # entries lie in [0, 1]), bind that entry, and keep free only the
            # entries above delta or still rising.
            zs, fs, rows = z[step], free[step], np.arange(step.size)
            span = np.where(low, np.maximum(zs - zp, _TINY), 1.0)
            ratio = (zs - delta) / span
            first = np.argmin(np.where(low, ratio, np.inf), axis=1)
            zs += ratio[rows, first][:, None] * (zp - zs)
            fs[rows, first] = False
            fs &= (zs > delta) | (zp > zs)
            z[step], free[step] = np.where(fs, zs, delta), fs
    return z, mu


def _solve(ops: ChannelOperators, s, gap_tol=None):
    """z, E, dual and duality gap for each pattern row of s, after at most 3N
    pivots; E is the Parseval energy of x* = M_h^{-1} diag(s) z.  The
    certificate is checked per row: z must be at least delta (primal
    feasibility; the dual is nonnegative by construction) and the gap within
    its tolerance, else NoConvergence is raised."""
    budget = 3 * ops.n
    z, mu = _active_set(ops, s, budget)
    e = _block_energies(ops, s * (z / ops.delta))
    dual = np.maximum(mu, 0.0)
    # Weak duality: delta*1'dual - ||M_h^T diag(s) dual||^2 / 4 bounds E below.
    half = ops.dft_gains[: ops.n // 2 + 1]
    mt_dual = np.fft.irfft(np.fft.rfft(s * dual, axis=-1) * half, n=ops.n, axis=-1)
    gap = e - (ops.delta * dual.sum(axis=1) - 0.25 * np.einsum("ij,ij->i", mt_dual, mt_dual))
    z_min = z.min(axis=1)
    if not np.all(z_min >= ops.delta):
        worst = int(np.argmin(z_min))
        raise NoConvergence(
            f"primal iterate z = {z_min[worst]!r} below delta = {ops.delta!r}",
            gap=float(gap[worst]),
        )
    excess = gap - (1e-8 * np.maximum(1.0, e) if gap_tol is None else gap_tol)
    if not np.all(excess <= 0):
        worst = int(np.argmax(excess))
        raise NoConvergence(
            f"duality gap {gap[worst]:.3e} above tolerance after a budget of {budget} pivots",
            gap=float(gap[worst]),
        )
    return z, e, dual, gap


def energy(ops: ChannelOperators, s, gap_tol=None) -> EnergySolution:
    """Certified E(s): the closed form where it is optimal, else the QP optimum
    by the active-set method started from it.  The result is certified by
    primal feasibility and the duality gap (at rounding level the gap can be
    negative).  gap_tol bounds the gap, by default 1e-8 * max(1, E); any
    other value must be a real number >= 0 (inf included)."""
    if gap_tol is not None and not (isinstance(gap_tol, numbers.Real) and gap_tol >= 0):
        raise ValueError(f"gap_tol must be None or a real number >= 0, got {gap_tol!r}")
    s = _as_pattern(ops.n, s)
    z, e, dual, gap = _solve(ops, s[None, :], gap_tol=gap_tol)
    return EnergySolution(float(e[0]), apply_inverse(ops, s * z)[0], dual[0], float(gap[0]))


# The solver's older name, still used by callers.
solve_energy_qp = energy


def _rotations(codes: np.ndarray, n: int):
    """The n-bit codes rotated left by 0, 1, ..., n-1 places, one array each.
    Rotation k is read off the code written twice, (c << n | c) >> (n - k),
    which fits an int64 for n <= 31."""
    mask = (1 << n) - 1
    doubled = (codes << n) | codes
    for k in range(n):
        turned = doubled >> (n - k)
        turned &= mask
        yield turned


def _reversed(codes: np.ndarray, n: int) -> np.ndarray:
    """The n-bit codes with their bits in reverse order (n <= 32): five
    mask-and-shift swaps reverse the low 32 bits, and the top n are kept."""
    for shift, mask in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F),
                        (8, 0x00FF00FF), (16, 0x0000FFFF)):
        codes = ((codes >> shift) & mask) | ((codes & mask) << shift)
    return codes >> (32 - n)


def _necklaces(n: int):
    """Binary necklaces of length n in increasing order, with their periods.

    The tree of prenecklaces is built one level (word length t) at a time.  A
    prenecklace w whose longest Lyndon prefix has length p extends by a bit b
    exactly when b is at least its reference bit r = (w >> (p-1)) & 1: the
    child 2w + r keeps period p, and when r = 0 the child 2w + 1 is a Lyndon
    word of period t + 1.  Children of increasing parents are increasing, so
    each level stays sorted.  At length n the prenecklaces whose period
    divides n are the necklaces.
    """
    words = np.array([0, 1], dtype=np.int64)
    periods = np.ones(2, dtype=np.uint8)
    for t in range(1, n):
        ref = (words >> (periods - 1)) & 1
        kids = np.empty((words.size, 2), dtype=np.int64)
        np.left_shift(words, 1, out=kids[:, 0])
        kids[:, 0] += ref
        np.bitwise_or(kids[:, 0], 1, out=kids[:, 1])
        kid_periods = np.empty(kids.shape, dtype=np.uint8)
        kid_periods[:, 0], kid_periods[:, 1] = periods, t + 1
        keep = np.empty(kids.shape, dtype=bool)
        keep[:, 0] = True if t + 1 < n else n % periods == 0
        np.equal(ref, 0, out=keep[:, 1])
        words, periods = kids[keep], kid_periods[keep]
    return words, periods.astype(np.int64)


def _orbits(n: int):
    """One code per orbit of {-1, +1}^n under rotation, negation and reversal,
    and the orbit sizes (they sum to 2^n).

    The orbits are the even-weight bracelets of the sign-change word: an
    even-weight necklace w is kept when it is not above the least rotation
    of its reversal, and its orbit holds 2 * period(w) patterns when w is
    that rotation (reversal maps the orbit to itself), else 4 * period(w).
    Orbit i's code has entry 0 = -1 and the i-th kept necklace as its
    sign-change word: bit j below the top is the xor of the necklace's top j
    bits, the inverse Gray code (n <= 32) shifted right by one."""
    words, periods = _necklaces(n)
    even = np.bitwise_count(words) % 2 == 0
    words, periods = words[even], periods[even]
    mirror = _reversed(words, n)
    least = mirror.copy()
    for turned in _rotations(mirror, n):
        np.minimum(least, turned, out=least)
    keep = words <= least
    codes, periods = words[keep], periods[keep]
    sizes = np.where(codes == least[keep], 2, 4) * periods
    for shift in (1, 2, 4, 8, 16):
        codes ^= codes >> shift
    return codes >> 1, sizes


def _screen_failures(ops: ChannelOperators, pats: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Indices of the pattern rows whose closed form is not optimal.

    2*delta times row i of diag(s) G s is the closed form's dual, and a row
    with an entry below -tol pivots.  The row minimum is taken one column at
    a time, which is exact and faster than a reduction along short rows.
    """
    sgs = pats @ gram
    sgs *= pats
    low = sgs[:, 0].copy()
    for j in range(1, ops.n):
        np.minimum(low, sgs[:, j], out=low)
    return np.flatnonzero(2.0 * ops.delta * low < -_dual_tol(ops))


def enumerate_profile(ops: ChannelOperators) -> EnergyProfile:
    """E(s) for every pattern of length N (N <= ENUMERATION_CAP), one solve per
    orbit under rotation, negation and reversal."""
    n = ops.n
    if n > ENUMERATION_CAP:
        raise TooLarge(f"exhaustive enumeration capped at N={ENUMERATION_CAP}")
    codes, mult = _orbits(n)
    gram = ops.gram_inverse()
    energies = np.empty(codes.size)
    for start in range(0, codes.size, _CHUNK):
        pats = pattern_from_code(codes[start : start + _CHUNK], n)
        vals = _block_energies(ops, pats, out=energies[start : start + _CHUNK])
        bad = _screen_failures(ops, pats, gram)
        if bad.size:
            vals[bad] = _solve(ops, pats[bad])[1]

    e_min = float(energies.min())
    # Veltkamp split: each half of E has at most 26 significant bits, so its
    # product with an orbit size is exact and fsum rounds sum(size * E) once.
    split = energies * 134217729.0
    high = split - (split - energies)
    weighted = np.concatenate([mult * high, mult * (energies - high)])
    for arr in (codes, mult, energies):
        arr.flags.writeable = False
    return EnergyProfile(
        n=n,
        orbit_codes=codes,
        multiplicity=mult,
        orbit_energies=energies,
        e_min=e_min,
        e_max=float(energies.max()),
        e_mean=math.fsum(weighted.tolist()) / (1 << n),
        min_count=int(mult[energies <= e_min * (1 + MIN_TIE_TOL)].sum()),
    )


def mean_energy_trace(ops: ChannelOperators) -> float:
    """Mean energy over all patterns: delta^2 * tr((M_h M_h^T)^{-1}) =
    delta^2 * sum_k 1/|f(2*pi*k/N)|^2."""
    return ops.delta**2 * float(np.sum(ops.spec_weight))
