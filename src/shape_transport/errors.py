"""Exception types used across the package."""

from __future__ import annotations


class ShapeTransportError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ShapeTransportError):
    """Input file could not be parsed (bad CSV/JSON structure, NaNs, wrong columns)."""


class DegenerateContourError(ShapeTransportError):
    """Contour is unusable: too few vertices, repeated points, zero-length edges,
    or winding number about its centroid not equal to +-1."""


class OpenCurveError(ShapeTransportError):
    """Vertex list does not close up (first and last point too far apart when a
    closed contour was expected)."""


class DimensionMismatchError(ShapeTransportError):
    """Operands live in different truncation orders / landmark counts."""


class SingularShapeError(ShapeTransportError):
    """Operation undefined at this shape (e.g. quotient constructions at the
    circle, where the reparameterization direction vanishes)."""


class AlignmentAmbiguityError(ShapeTransportError):
    """Optimal rotation in Procrustes alignment is not unique (antipodal or
    degenerate configurations)."""


class NumericalError(ShapeTransportError):
    """An iterative routine failed to converge to tolerance.

    Carries optional diagnostic history (residual or energy values per
    iteration) so callers can inspect what happened.
    """

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
