"""The demo polygons (the rectangle, its shifted copy and the hexagon), plus
a self-intersection check for reconstructed curves.

The three demo shapes are built with unit edges so their vertices sit at
uniform arc-length fractions, which makes the landmark correspondence with
the Kendall side immediate.
"""

from __future__ import annotations

import numpy as np

from .contour_io import Contour

_PAIR_BATCH = 1 << 18  # candidate edge pairs tested at once by self_intersects
_CROSS_REL_TOL = 1e-9  # self_intersects' tolerance, relative to the bounding box


def rectangle_sixgon() -> Contour:
    """2:1 rectangle traversed as six unit edges, initial point at a corner."""
    pts = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]], dtype=float)
    return Contour(pts)


def rectangle_sixgon_shifted() -> Contour:
    """The same rectangle with the initial point advanced by one vertex."""
    return Contour(np.roll(rectangle_sixgon().points, -1, axis=0))


def hexagon_sixgon() -> Contour:
    """Regular hexagon with unit edges, first edge along +x."""
    angles = np.pi / 3.0 * np.arange(6)
    steps = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)[:-1]])
    return Contour(pts)


def _cross(o, a, b):
    return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
            - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))


def self_intersects(points: np.ndarray) -> bool:
    """True when any two non-adjacent edges of the closed polyline cross.

    Edges i < j cross when each one's end points lie on opposite sides of the
    other's line: the product of their two cross products against an edge is
    below -tol**2 times that edge's squared length, tol = _CROSS_REL_TOL * the
    larger side of the bounding box.  So the product of their signed
    distances from the line is below -tol**2, whatever the units.  The
    predicate is evaluated only on pairs whose bounding boxes, padded by tol,
    overlap: edges sorted by their x-minimum, each one's partners are a
    searchsorted range of that order, filtered by y-overlap.  Pairs go
    through in batches of at most _PAIR_BATCH, so memory stays
    O(n + _PAIR_BATCH).
    """
    p = np.asarray(points, dtype=float)
    n = len(p)
    if n < 4:
        return False
    q = np.roll(p, -1, axis=0)
    span = float(np.ptp(p, axis=0).max()) or 1.0
    tol = _CROSS_REL_TOL * span
    bound = -tol * tol * np.sum((q - p) ** 2, axis=1)

    lo = np.minimum(p, q) - tol
    hi = np.maximum(p, q) + tol
    order = np.argsort(lo[:, 0], kind="stable")
    # sorted edge k overlaps in x with sorted edges k+1 .. stop[k]-1
    stop = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    counts = np.maximum(stop - np.arange(1, n + 1), 0)
    ends = np.cumsum(counts)
    k0 = 0
    while k0 < n:
        before = ends[k0] - counts[k0]  # pairs of the sorted edges before k0
        k1 = max(int(np.searchsorted(ends, before + _PAIR_BATCH, side="right")), k0 + 1)
        c = counts[k0:k1]
        first = np.repeat(np.arange(k0, k1), c)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(c) - c, c)
        a, b = order[first], order[first + 1 + offset]
        keep = (lo[b, 1] <= hi[a, 1]) & (lo[a, 1] <= hi[b, 1])
        i, j = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
        keep = (j - i > 1) & (j - i != n - 1)
        i, j = i[keep], j[keep]
        p_i, q_i, p_j, q_j = p[i], q[i], p[j], q[j]
        if np.any((_cross(p_i, q_i, p_j) * _cross(p_i, q_i, q_j) < bound[i])
                  & (_cross(p_j, q_j, p_i) * _cross(p_j, q_j, q_i) < bound[j])):
            return True
        k0 = k1
    return False
