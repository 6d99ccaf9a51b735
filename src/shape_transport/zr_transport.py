"""Parallel transport along geodesics of the closed-curve manifold and of its
initial-point quotient.

Both run the shared excluded-row integrator `paths.transport_along` on the
raw rows of zr_space.constraint_frame, their duals and their rate duals
from the rows' exact rates.  On the submanifold the excluded rows are the
constant x0-constraint representer g and the two closure normals; in the
quotient the vertical pattern joins them, which is exactly the
connection-form correction of the quotient metric.

A path's first transport runs in all 2N+1 coordinates.  When a submanifold
path keeps its transport (from the second vector on), its matrices are
built in the span of the excluded rows and their rate duals (_span, from
every time of the frame table at the ladder's lowest count, taken whatever
its width): 40-65 coordinates on paths of length 0.3-2, 41 of 601 at
N = 300, checked against every later table to 1e-12.  The quotient keeps
its transport in the full space: its span holds (59 of 201 coordinates on
test shapes), but building there took twice as long, with equal products.

On the submanifold each row takes, by default, the RK4 step count its
Richardson estimate needs (the step-doubling ladder of transport_along),
unless steps_per_unit fixes one count.  The quotient always takes
STEPS_PER_UNIT, since its rows seldom pass the ladder below the top count.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .paths import STEPS_PER_UNIT, GeodesicPath, TransportResult, _enter, transport_along
from .zr_space import ZRShape, _metric_weights, _vec, constraint_frame

_SPAN_SV = 1e-15  # singular values kept in a table's span, relative to the top


def _frames(invariant: bool, span, points, along):
    """constraint_frame at points (read at each call: a wrapper reaches kept
    routes), carried into span = (B, scale) by paths._enter unless None."""
    table = constraint_frame(points, along, horizontal=invariant)
    return table if span is None else _enter(table, *span)


def _span(path: GeodesicPath, table):
    """transport_along's span hook on the submanifold: None without a frame
    table; with one, (B, False, frames'), B an orthonormal basis in
    metric-scaled coordinates of the excluded rows and rate duals at every
    time of the table: g once, since it is constant and its rate dual lies
    in the span of the others', each vector normalized, the singular values
    above _SPAN_SV of the top; frames' carries every later table, read at
    full-space points (False: no carried spline), into it (_frames)."""
    if table is None:
        return None
    rows, _, rate_duals = table
    scale = np.sqrt(_metric_weights(path.points.shape[1] // 2))
    x = np.concatenate([rows[:1, 0] * scale, (rows[:, 1:] * scale).reshape(-1, len(scale)),
                        (rate_duals[:, 1:] / scale).reshape(-1, len(scale))])
    x /= np.linalg.norm(x, axis=1, keepdims=True).clip(1e-300)
    _, sv, b = np.linalg.svd(x, full_matrices=False)
    basis = b[sv > _SPAN_SV * sv[0]].T
    return basis, False, partial(_frames, False, (basis, scale))


def _transport(path: GeodesicPath, w0, steps_per_unit: int | None,
               invariant: bool) -> TransportResult:
    if not isinstance(path.base, ZRShape):
        raise ValueError("transport along a landmark-space path requested from "
                         "the contour-space integrator")
    return transport_along(path, _vec(w0), partial(_frames, invariant, None),
                           _metric_weights((path.points.shape[1] - 1) // 2), steps_per_unit,
                           memo_key=("zr", invariant), subspace=None if invariant else _span)


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
