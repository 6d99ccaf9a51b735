"""Computations made apart from the program, used to check its outputs.

Nothing here calls into ``shape_transport``: series are evaluated with direct
trig sums on the benchmark's own grid (not the program's FFT grid), ``mu``
comes from its closed form, planar Kendall transport from its formula, and
self-intersection from an exact segment test written here.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

# Own quadrature grid: twice the program's 1024 points and shifted by half a
# cell, so no sample coincides with the program's grid.
GRID = 2048


class Series:
    """Direct evaluation of truncated turning-function series on the grid
    s_j = 2 pi (j + 1/2) / m, with the (m, 2N+1) basis
    [1, cos s, sin s, ..., cos Ns, sin Ns] in the coefficient layout."""

    def __init__(self, n_harm: int, m: int = GRID):
        self.s = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        n = np.arange(1, n_harm + 1)
        self.basis = np.empty((m, 2 * n_harm + 1))
        self.basis[:, 0] = 1.0
        self.basis[:, 1::2] = np.cos(np.outer(self.s, n))
        self.basis[:, 2::2] = np.sin(np.outer(self.s, n))

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.basis.T

    def closure(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|integral of exp(i(theta(s) + s)) ds| and |x0 + sum x_n| per row."""
        c = np.atleast_2d(coeffs)
        e = np.exp(1j * (self.values(c) + self.s))
        psi = 2.0 * np.pi * e.mean(axis=-1)
        lin = c[:, 0] + c[:, 1::2].sum(axis=-1)
        return np.abs(psi), np.abs(lin)

    def tangency(self, point: np.ndarray, vec: np.ndarray) -> float:
        """Size of the linearized closure constraints at point applied to vec,
        relative to the metric norm of vec."""
        e = np.exp(1j * (self.values(point) + self.s))
        dpsi = 2.0 * np.pi * np.mean(self.values(vec) * e)
        lin = vec[0] + vec[1::2].sum()
        return float(max(abs(dpsi), abs(lin)) / metric_norm(vec))


def metric_inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> = a0 b0 + 1/2 sum over harmonics: the L2 pairing over 2 pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[0] * b[0] + 0.5 * np.dot(a[1:], b[1:]))


def metric_norm(a: np.ndarray) -> float:
    return float(np.sqrt(metric_inner(a, a)))


def mu_closed_form(rho: float, n: int, variant: str) -> float:
    """1 - 1/2 I_{sin^2 a}((n-1)/2, 1/2) with a = arccos(rho) or its root."""
    a = float(np.arccos(np.clip(rho, 0.0, 1.0)))
    if variant == "sqrt_arccos":
        a = float(np.sqrt(a))
    return float(1.0 - 0.5 * betainc((n - 1) / 2.0, 0.5, np.sin(a) ** 2))


def planar_transport(x: np.ndarray, v: np.ndarray, big_t: float,
                     w: np.ndarray) -> np.ndarray:
    """Parallel transport of w along the horizontal great circle
    cos(t) x + sin(t) v in planar Kendall shape space, in complex form.

    Rows of the (k-1, 2) matrices are complex numbers; rotations act by
    unit complex factors, so the vertical direction at a point z is i z.  The
    components of w along v and i v are carried by the velocity and its
    rotation; the part orthogonal to both stays fixed.
    """
    zx = x[:, 0] + 1j * x[:, 1]
    zv = v[:, 0] + 1j * v[:, 1]
    zw = w[:, 0] + 1j * w[:, 1]
    zv = zv / np.linalg.norm(zv)
    a = np.real(np.vdot(zv, zw))
    b = np.real(np.vdot(1j * zv, zw))
    vel = -np.sin(big_t) * zx + np.cos(big_t) * zv
    out = zw - a * zv - b * 1j * zv + a * vel + b * 1j * vel
    return np.stack([out.real, out.imag], axis=1)


def segments_cross(points: np.ndarray, rel_tol: float = 1e-9) -> bool:
    """True when two non-adjacent edges of the closed polyline properly cross.

    Edge by edge against all later edges, pruned by bounding boxes; the
    crossing test is the strict orientation test with a tolerance relative
    to the polygon's extent."""
    p = np.asarray(points, dtype=float)
    n = len(p)
    if n < 4:
        return False
    q = np.roll(p, -1, axis=0)
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    tol = rel_tol * (float(np.ptp(p, axis=0).max()) or 1.0)
    for i in range(n - 2):
        j = np.arange(i + 2, n if i > 0 else n - 1)
        j = j[(lo[j, 0] <= hi[i, 0]) & (hi[j, 0] >= lo[i, 0])
              & (lo[j, 1] <= hi[i, 1]) & (hi[j, 1] >= lo[i, 1])]
        if not len(j):
            continue
        a, b = p[i], q[i]
        c, d = p[j], q[j]
        o1 = _orient(a, b, c)
        o2 = _orient(a, b, d)
        o3 = _orient(c, d, a)
        o4 = _orient(c, d, b)
        if np.any((o1 * o2 < -tol * tol) & (o3 * o4 < -tol * tol)):
            return True
    return False


def _orient(o, a, b):
    return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
            - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))


def reconstruct(series: Series, coeffs: np.ndarray, length: float,
                base_angle: float) -> np.ndarray:
    """Contour points at the grid's arc-length positions: the unit tangent
    exp(i(theta + s + base_angle)) integrated by the midpoint rule."""
    tangent = np.exp(1j * (series.values(coeffs) + series.s + base_angle))
    ds = length / len(series.s)
    z = (np.cumsum(tangent) - 0.5 * tangent) * ds
    return np.stack([z.real, z.imag], axis=1)


def resample_by_arclength(points: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Points of the closed polygon at the given fractions of its perimeter,
    measured from the first vertex."""
    p = np.asarray(points, dtype=float)
    closed = np.concatenate([p, p[:1]])
    seg = np.hypot(*np.diff(closed, axis=0).T)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    tq = fractions * t[-1]
    return np.stack([np.interp(tq, t, closed[:, 0]),
                     np.interp(tq, t, closed[:, 1])], axis=1)


def similarity_rms(a: np.ndarray, b: np.ndarray) -> float:
    """RMS distance between corresponding points after the best similarity
    (translation, rotation, scale) maps b onto a."""
    za = a[:, 0] + 1j * a[:, 1]
    zb = b[:, 0] + 1j * b[:, 1]
    za = za - za.mean()
    zb = zb - zb.mean()
    k = np.vdot(zb, za) / np.vdot(zb, zb)
    return float(np.sqrt(np.mean(np.abs(za - k * zb) ** 2)))
