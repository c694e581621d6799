"""Channel model: circulant convolution operators and spectral data.

A channel instance is a real tap vector h = (h_0, ..., h_{L-1}) acting by
circular convolution on blocks of length N,

    y_n = sum_k h_k x_{(n-k) mod N},

together with an output threshold delta.  All matrix work routes through the
DFT diagonalization of circulant matrices: the eigenvalue attached to DFT bin
k is f(2*pi*k/N) with f(lam) = sum_k h_k exp(1j*k*lam), so inversion and the
Gram inverse G = (M_h M_h^T)^{-1} are O(N log N) and G is itself circulant
with generator IDFT(1/|f|^2).

``build_operators`` also labels whether G is diagonally dominant, the case in
which the closed-form minimum energy holds for every sign pattern.  The flag
is a label only: the energy layer checks optimality pattern by pattern.
"""

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, SingularChannel

# Relative floor on |f(2*pi*k/N)|; below it the circulant matrix is treated
# as singular.
SINGULAR_TOL = 1e-9

# Tolerance on the diagonal-dominance comparison so machine-precision ties do
# not flip the classification.
DD_TOL = 1e-12


def _as_int(name: str, value) -> int:
    """value as an int; bool and non-integers (12.0 included) are rejected,
    numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def _check_delta(delta) -> None:
    """Raise ValueError unless delta is positive and finite and delta^2 is a
    normal float."""
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    # Energies and powers scale by delta^2, so it must be a normal float: an
    # overflow to inf or an underflow to 0 or a subnormal is rejected here
    # (delta**2 itself raises OverflowError, and an int delta squares exactly).
    if not sys.float_info.min <= delta * delta <= sys.float_info.max:
        raise ValueError(f"delta^2 must be a normal float, got delta={delta!r}")


@dataclass(frozen=True)
class ChannelSpec:
    """Problem instance: taps, threshold and block length.

    taps      -- impulse response (h_0 multiplies the current symbol)
    delta     -- output magnitude threshold, > 0
    block_len -- circular block length N, >= len(taps)
    """

    taps: tuple
    delta: float
    block_len: int

    def __post_init__(self):
        taps = tuple(float(t) for t in self.taps)
        object.__setattr__(self, "taps", taps)
        if len(taps) < 1:
            raise ValueError("need at least one tap")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        # Every gain |f(lam)|, and every partial sum of the FFT that forms
        # them, is at most sum |h_k|: taps past that bound overflow the gains.
        if not sum(abs(t) for t in taps) <= sys.float_info.max:
            raise ValueError("the channel gains overflow: sum |h_k| exceeds the largest float")
        if not any(t != 0.0 for t in taps):
            raise ValueError("all taps are zero")
        _check_delta(self.delta)
        object.__setattr__(self, "block_len", _as_int("block_len", self.block_len))
        if self.block_len < len(taps):
            raise ValueError("block_len must be at least the tap count")


@dataclass(frozen=True)
class ChannelOperators:
    """Precomputed circulant actions for one ChannelSpec.

    dft_gains      -- f(2*pi*k/N) for k = 0..N-1
    spec_weight    -- 1/|f(2*pi*k/N)|^2 for k = 0..N-1, the eigenvalues of G
    gram_generator -- first column of G = (M_h M_h^T)^{-1} (G is circulant)
    dd_flag        -- True iff G is diagonally dominant
    """

    spec: ChannelSpec
    dft_gains: np.ndarray
    spec_weight: np.ndarray
    gram_generator: np.ndarray
    dd_flag: bool

    @property
    def n(self):
        return self.spec.block_len

    @property
    def delta(self):
        return self.spec.delta

    def gram_inverse(self):
        """Materialize G densely: N x N floats, gathered from the generator."""
        idx = (np.arange(self.n)[:, None] - np.arange(self.n)[None, :]) % self.n
        return self.gram_generator[idx]


def frequency_response(spec: ChannelSpec, lam):
    """f(lam) = sum_k h_k exp(1j*k*lam); lam may be scalar or array."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    k = np.arange(len(spec.taps))
    vals = np.asarray(spec.taps) @ np.exp(1j * k[:, None] * lam_arr[None, :])
    return complex(vals[0]) if np.ndim(lam) == 0 else vals


def _gram_spectrum(taps, n: int):
    """The DFT gains conj(f(2*pi*k/N)), the weights 1/|f|^2 and the Gram
    generator IDFT(1/|f|^2) of taps on a ring of n >= len(taps) samples, or
    SingularChannel.

    The first circulant column is the zero-padded tap vector, whose DFT gives
    the eigenvalues conj(f(2*pi*k/N)).
    """
    col = np.zeros(n)
    col[: len(taps)] = taps
    gains = np.conj(np.fft.fft(col))

    mags = np.abs(gains)
    if np.min(mags) <= SINGULAR_TOL * np.max(mags):
        raise SingularChannel(
            f"|f| ranges over [{np.min(mags):.3e}, {np.max(mags):.3e}] on {n} frequencies: "
            "the channel matrix is numerically singular and the zero-forcing power is unbounded"
        )

    # An |f|^2 that underflows makes the weight and the generator non-finite,
    # which the check below rejects, so numpy's warnings on the way are moot.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weight = 1.0 / mags**2
        gram_gen = np.fft.ifft(weight).real
    if not np.all(np.isfinite(gram_gen)):
        raise SingularChannel("the Gram inverse (M_h M_h^T)^{-1} overflows")
    return gains, weight, gram_gen


def build_operators(spec: ChannelSpec) -> ChannelOperators:
    """Construct the circulant operators, or raise SingularChannel."""
    gains, weight, gram_gen = _gram_spectrum(spec.taps, spec.block_len)

    # Diagonal dominance of the circulant G reads off its generator:
    # g_0 >= sum_{k>=1} |g_k|, with slack so exact ties classify as dominant.
    off_mass = np.sum(np.abs(gram_gen[1:]))
    dd_flag = bool(gram_gen[0] >= off_mass - DD_TOL * max(1.0, abs(gram_gen[0])))

    for arr in (gains, weight, gram_gen):
        arr.flags.writeable = False
    return ChannelOperators(
        spec=spec,
        dft_gains=gains,
        spec_weight=weight,
        gram_generator=gram_gen,
        dd_flag=dd_flag,
    )


def _check_len(ops: ChannelOperators, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (ops.n,):
        raise DimensionMismatch(f"expected length {ops.n}, got shape {v.shape}")
    return v


def apply_channel(ops: ChannelOperators, x) -> np.ndarray:
    """y = M_h x (circular convolution).  Works on a vector or a batch of rows."""
    x = _check_len(ops, x)
    half = np.conj(ops.dft_gains[: ops.n // 2 + 1])
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * half, n=ops.n, axis=-1)


def apply_inverse(ops: ChannelOperators, y) -> np.ndarray:
    """x = M_h^{-1} y via spectral division.  Works on a vector or a batch."""
    y = _check_len(ops, y)
    half = np.conj(ops.dft_gains[: ops.n // 2 + 1])
    return np.fft.irfft(np.fft.rfft(y, axis=-1) / half, n=ops.n, axis=-1)


def _block_energies(ops: ChannelOperators, signs, out=None) -> np.ndarray:
    """sum_n x_n^2 of x = delta * M_h^{-1} s for each row s of signs.

    By Parseval that is (delta^2/N) sum_k |S_k|^2 / |f_k|^2 over the N DFT
    bins, a sum of nonnegative terms, so it keeps its digits however
    ill-conditioned the channel is.  A real row's bins k and N - k are
    conjugate, so the rfft's bins stand for both, save bin 0 and, for even
    N, bin N/2: their squared real and imaginary parts are weighted once per
    DFT bin they stand for.  Each row is reduced on its own (np.vecdot), so
    its bits do not depend on the rows passed with it.  The energies go to
    out when it is given.
    """
    n = ops.n
    weight = ops.spec_weight[: n // 2 + 1] * 2.0
    weight[0] = ops.spec_weight[0]
    if n % 2 == 0:
        weight[-1] = ops.spec_weight[n // 2]
    weight *= ops.delta * ops.delta / n
    spectrum = np.fft.rfft(signs, axis=-1).view(np.float64)
    np.square(spectrum, out=spectrum)
    return np.vecdot(spectrum, np.repeat(weight, 2), out=out)


def quantize(x):
    """1-bit quantizer: +1 for x >= 0, -1 otherwise.  Scalar or array."""
    if np.isscalar(x):
        return 1 if x >= 0 else -1
    return np.where(np.asarray(x) >= 0, 1, -1)
