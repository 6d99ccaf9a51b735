"""Parallel transport along geodesics of the closed-curve manifold and of its
initial-point quotient.

Both run the shared excluded-row integrator `paths.transport_along` on the
raw rows of zr_space.constraint_frame, their duals and their rate duals
from the rows' exact rates.  On the submanifold the excluded rows are the
constant x0-constraint representer g and the two closure normals; in the
quotient the vertical pattern joins them, which is exactly the
connection-form correction of the quotient metric.

On the submanifold each row takes, by default, the RK4 step count its
Richardson estimate needs (the step-doubling ladder of transport_along),
unless steps_per_unit fixes one count.  The quotient always takes
STEPS_PER_UNIT, since its rows seldom pass the ladder below the top count.
"""

from __future__ import annotations

from functools import partial

from .paths import STEPS_PER_UNIT, GeodesicPath, TransportResult, transport_along
from .zr_space import ZRShape, _metric_weights, _vec, constraint_frame


def _transport(path: GeodesicPath, w0, steps_per_unit: int | None,
               invariant: bool) -> TransportResult:
    if not isinstance(path.base, ZRShape):
        raise ValueError("transport along a landmark-space path requested from "
                         "the contour-space integrator")
    return transport_along(path, _vec(w0), partial(constraint_frame, horizontal=invariant),
                           _metric_weights((path.points.shape[1] - 1) // 2),
                           steps_per_unit, memo_key=("zr", invariant))


def transport_sigma(path: GeodesicPath, w0,
                    steps_per_unit: int | None = None) -> TransportResult:
    """Parallel transport on the closed-curve submanifold; steps_per_unit
    None lets each row choose its step count (paths.transport_along)."""
    return _transport(path, w0, steps_per_unit, False)


def transport_invariant(path: GeodesicPath, w0) -> TransportResult:
    """Parallel transport in the initial-point quotient, at STEPS_PER_UNIT.

    Adds the vertical correction force to the submanifold transport and keeps
    the vector horizontal after every step.
    """
    return _transport(path, w0, STEPS_PER_UNIT, True)
