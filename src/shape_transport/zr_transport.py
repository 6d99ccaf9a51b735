"""Parallel transport along geodesics of the closed-curve manifold and of its
initial-point quotient.

Both run the shared excluded-frame integrator `paths.transport_along`.  On
the submanifold the excluded directions are the two closure normals (realized
inside the linear-constraint plane, whose own representer is constant and so
contributes nothing to the rate of change); in the quotient the realized
vertical direction joins them, which is exactly the connection-form
correction of the quotient metric.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import NumericalError
from .paths import TRANSPORT_STEPS_PER_UNIT, GeodesicPath, TransportResult, transport_along
from .zr_space import (
    ZRShape,
    _excluded_frame,
    _metric_weights,
    _unit_g,
    _vec,
)


def _transport(path: GeodesicPath, w0, steps_per_unit: int,
               invariant: bool) -> TransportResult:
    if not isinstance(path.base, ZRShape):
        raise ValueError("transport along a landmark-space path requested from "
                         "the contour-space integrator")
    w = np.asarray(_vec(w0), dtype=float)
    if w.shape != (path.points.shape[1],):
        raise NumericalError("vector length does not match the path's coefficients")
    n_harm = (len(w) - 1) // 2
    return transport_along(path, w, partial(_excluded_frame, horizontal=invariant),
                           _metric_weights(n_harm), _unit_g(n_harm)[None],
                           steps_per_unit)


def transport_sigma(path: GeodesicPath, w0,
                    steps_per_unit: int = TRANSPORT_STEPS_PER_UNIT
                    ) -> TransportResult:
    """Parallel transport on the closed-curve submanifold."""
    return _transport(path, w0, steps_per_unit, False)


def transport_invariant(path: GeodesicPath, w0,
                        steps_per_unit: int = TRANSPORT_STEPS_PER_UNIT
                        ) -> TransportResult:
    """Parallel transport in the initial-point quotient.

    Adds the vertical correction force to the submanifold transport and keeps
    the vector horizontal after every step.
    """
    return _transport(path, w0, steps_per_unit, True)
