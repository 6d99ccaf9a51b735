"""Parallel transport along geodesics of the closed-curve manifold and of its
initial-point quotient.

Both run the shared excluded-frame integrator `paths.transport_along` on the
frame of zr_space.constraint_frame and its exact rates.  On the submanifold
the excluded directions are the constant x0-constraint representer g and the
two closure normals; in the quotient the realized vertical direction joins
them, which is exactly the connection-form correction of the quotient
metric.

On the submanifold each transported row takes, by default, the RK4 step
count its Richardson estimate needs, from the step-doubling ladder of
`paths.transport_along`.  The quotient keeps STEPS_PER_UNIT by default: its
rows seldom meet the ladder's tolerance below the top count, which is
rounded up to a multiple of 16, so they would pay for every level and for
more steps than the fixed count.  steps_per_unit None asks for the ladder
in either mode; an explicit count fixes one count for every row.
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


def transport_invariant(path: GeodesicPath, w0,
                        steps_per_unit: int | None = STEPS_PER_UNIT
                        ) -> TransportResult:
    """Parallel transport in the initial-point quotient.

    Adds the vertical correction force to the submanifold transport and keeps
    the vector horizontal after every step.  A fixed STEPS_PER_UNIT by
    default; steps_per_unit None takes the step-doubling ladder.
    """
    return _transport(path, w0, steps_per_unit, True)
