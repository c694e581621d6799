"""Exception types shared across the package."""


class IsicapError(Exception):
    """Base class for all package-specific errors."""


class SingularChannel(IsicapError):
    """The circulant channel matrix is numerically singular (some |f(2*pi*k/N)| ~ 0)."""


class DimensionMismatch(IsicapError):
    """A vector argument's shape does not end in the block length N."""


class NotDiagonallyDominant(IsicapError):
    """The analytic energy formula was requested on a channel whose Gram inverse
    is not diagonally dominant."""


class NoConvergence(IsicapError):
    """An iterative solve did not meet its certificate: the active-set QP
    solver left a pattern with z = diag(s) M x below delta or a duality gap
    above tolerance after 3N pivots (carries that pattern's gap), or the
    Gibbs multiplier search spent its weighted passes (gap is None)."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class TooLarge(IsicapError):
    """Block length exceeds energy.ENUMERATION_CAP, the cap on the exhaustive
    profile over all 2^N patterns."""


class InfeasiblePower(IsicapError):
    """The power budget lies below the minimum-energy floor.  Carries the floor
    per channel use so callers can report the feasibility threshold."""

    def __init__(self, message, floor_per_use=None):
        super().__init__(message)
        self.floor_per_use = floor_per_use


class QuadratureFailure(IsicapError):
    """The Fourier coefficients of 1/|f|^2 did not decay to round-off within
    the sample-grid cap, so the spectral series cannot be truncated."""
