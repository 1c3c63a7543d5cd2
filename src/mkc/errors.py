"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2 and the numerical errors to exit
code 3; everything else is a plain bug.  A winding curve through the origin
is a gap closing, so CriticalCurveError is a GaplessPathError: the Wannier
centers and the windings share one gap rule and one exception.
"""


class ConfigError(ValueError):
    """Malformed, incomplete or contradictory run configuration."""


class NumericalError(RuntimeError):
    """Base class for well-defined numerical failure modes."""


class NonHermitianError(NumericalError):
    """A matrix that must be Hermitian is not (beyond tolerance)."""


class GaplessPathError(NumericalError):
    """Occupied/empty splitting is ambiguous somewhere on a momentum path."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class CriticalCurveError(GaplessPathError):
    """A winding curve passes through (or too close to) the origin."""

    def __init__(self, message, origin_distance=None):
        super().__init__(message)
        self.origin_distance = origin_distance


class SingularConfigError(NumericalError):
    """Parameters sit on a manifold where the requested formula degenerates."""


class SymmetryError(NumericalError):
    """A symmetry that a blocked solver relies on does not hold (beyond tolerance)."""
