"""Kendall shape spaces: pre-shape sphere, Procrustes alignment, horizontal
geodesics and parallel transport in the rotation quotient.

Configurations are k landmarks in R^m; Helmert reduction removes translation
and the Frobenius normalization removes scale, leaving a (k-1) x m matrix of
unit norm.  The rotation group acts on the coordinate side.

One excluded frame (_excluded_frame: the sphere normal, then the
rotation-orbit directions, orthonormalized by paths.orthonormalize) serves
the horizontal projection; with its exact rates along the path it drives the
shared excluded-frame integrator `paths.transport_along`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .errors import (
    AlignmentAmbiguityError,
    DegenerateContourError,
    DimensionMismatchError,
    NumericalError,
    ParseError,
)
from .paths import (
    STEPS_PER_UNIT,
    GeodesicPath,
    TransportResult,
    orthonormalize,
    remove_frame,
    tangent_part,
    transport_along,
)

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class PreShape:
    """Helmertized, unit-norm landmark configuration: a (k-1) x m matrix."""

    m: int
    mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.m:
            raise DimensionMismatchError(
                f"expected a (k-1) x {self.m} matrix, got shape {a.shape}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def k(self) -> int:
        return self.mat.shape[0] + 1

    @property
    def flat(self) -> np.ndarray:
        return self.mat.ravel()

    def with_coeffs(self, coeffs: np.ndarray) -> "PreShape":
        """The pre-shape with flattened coordinates coeffs."""
        return PreShape(self.m, np.reshape(coeffs, (-1, self.m)))


def helmert_submatrix(k: int) -> np.ndarray:
    """The k x (k-1) sub-Helmert matrix: column j has j entries 1/sqrt(j(j+1))
    followed by -j/sqrt(j(j+1))."""
    if k < 2:
        raise DimensionMismatchError("need at least 2 landmarks")
    h = np.zeros((k, k - 1))
    for j in range(1, k):
        c = 1.0 / math.sqrt(j * (j + 1))
        h[:j, j - 1] = c
        h[j, j - 1] = -j * c
    return h


def helmertize(config: np.ndarray) -> PreShape:
    """Map a raw k x m landmark configuration to its pre-shape."""
    x = np.asarray(config, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionMismatchError("configuration must be a k x m array, k >= 2")
    k, m = x.shape
    reduced = helmert_submatrix(k).T @ x
    scale = np.linalg.norm(reduced)
    if scale <= 1e-12 * max(1.0, np.abs(x).max()):
        raise DegenerateContourError("all landmarks coincide")
    return PreShape(m, reduced / scale)


def unhelmertize(p: PreShape) -> np.ndarray:
    """Centered k x m representative of a pre-shape."""
    return helmert_submatrix(p.k) @ p.mat


def inner_k(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.asarray(a) * np.asarray(b)))


# ---------------------------------------------------------------------------
# alignment

def procrustes_align(x: PreShape, y: PreShape):
    """Rotate y to best match x; returns (rotation, aligned PreShape).

    Raises when the optimal rotation is not unique: vanishing cross-covariance,
    or a reflection optimum with tied trailing singular values.
    """
    if x.m != y.m or x.k != y.k:
        raise DimensionMismatchError("pre-shapes have different sizes")
    a = y.mat.T @ x.mat
    if np.linalg.norm(a) <= 1e-12:
        raise AlignmentAmbiguityError("cross-covariance vanishes, any rotation is optimal")
    u, sv, vt = np.linalg.svd(a)
    det_sign = np.linalg.det(u) * np.linalg.det(vt)
    d = np.ones(x.m)
    if det_sign < 0:
        if sv[-1] <= _RANK_TOL or (len(sv) > 1 and sv[-2] - sv[-1] <= _RANK_TOL):
            raise AlignmentAmbiguityError(
                "reflection optimum with tied trailing singular values")
        d[-1] = -1.0
    g = u @ np.diag(d) @ vt
    return g, PreShape(y.m, y.mat @ g)


# ---------------------------------------------------------------------------
# vertical structure

def _skew_generator(m: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((m, m))
    e[i, j] = 1.0
    e[j, i] = -1.0
    return e


def _excluded_frame(m: int, points: np.ndarray, along: np.ndarray | None = None):
    """The excluded frame at flattened pre-shape points (..., d): Gram-Schmidt
    over the sphere normal (the point itself) and the rotation-orbit
    directions p E_ij in lexicographic (i, j) order.  Batched.

    Returns (frame, rates).  With along, the path velocity at the points, the
    rows' rates (along, along E_ij) go through paths.orthonormalize; without
    it, rates is None.
    """
    gens = [_skew_generator(m, i, j) for i, j in combinations(range(m), 2)]

    def rows(x):
        x = np.asarray(x, dtype=float)
        mat = x.reshape(x.shape[:-1] + (-1, m))
        return [x] + [(mat @ e).reshape(x.shape) for e in gens]

    frame, rates, pivots = orthonormalize(
        rows(points), None if along is None else rows(along), 1.0)
    if np.any(pivots[..., 1:] <= _RANK_TOL):
        raise NumericalError("degenerate rotation orbit: configuration is not regular")
    return frame, rates


def horizontal_project_k(x: PreShape, w: np.ndarray) -> np.ndarray:
    """Remove sphere-normal and vertical components of w at x."""
    frame, _ = _excluded_frame(x.m, x.flat)
    w = remove_frame(np.asarray(w, dtype=float).ravel(), frame, 1.0)
    return w.reshape(x.mat.shape)


# ---------------------------------------------------------------------------
# geodesics

def geodesic_kendall(x: PreShape, y: PreShape, n_samples: int = 33) -> GeodesicPath:
    """Horizontal great-circle geodesic from x to the aligned position of y."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    _, ya = procrustes_align(x, y)
    c = np.clip(inner_k(x.mat, ya.mat), -1.0, 1.0)
    # the chord form is exact for small angles, where arccos(c) keeps only
    # half the digits: it reads about 2e-8 for a shape and itself
    big_t = 2.0 * math.asin(min(0.5 * float(np.linalg.norm(ya.mat - x.mat)), 1.0))
    if big_t <= 1e-12:  # the constant path
        return exp_kendall(x, np.zeros_like(x.mat), 0.0)
    v = (ya.mat - c * x.mat) / math.sin(big_t)
    return exp_kendall(x, v / np.linalg.norm(v), big_t, n_samples)


def exp_kendall(x: PreShape, v: np.ndarray, big_t: float,
                n_samples: int = 33) -> GeodesicPath:
    """Great-circle geodesic with given initial (horizontal) velocity."""
    if not math.isfinite(big_t) or big_t < 0.0:
        raise ValueError("T must be finite and nonnegative")
    v = np.asarray(v, dtype=float).reshape(x.mat.shape)
    speed = np.linalg.norm(v)
    if speed == 0.0 or big_t == 0.0:
        z = np.zeros_like(x.flat)
        return GeodesicPath("kendall", 0.0, np.zeros(1), x.flat[None, :], z, z, base=x)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    vh = tangent_part(v.ravel(), _excluded_frame(x.m, x.flat)[0], 1.0,
                      "initial velocity is not horizontal at the base pre-shape")
    vu = vh / np.linalg.norm(vh)
    ts = np.linspace(0.0, big_t, n_samples)
    ang = speed * ts
    pts = np.cos(ang)[:, None] * x.flat[None, :] + np.sin(ang)[:, None] * vu[None, :]
    v0 = speed * vu
    v_end = speed * (-math.sin(ang[-1]) * x.flat + math.cos(ang[-1]) * vu)
    return GeodesicPath("kendall", float(big_t), ts, pts, v0, v_end, base=x)


# ---------------------------------------------------------------------------
# parallel transport

def transport_kendall(path: GeodesicPath, w0) -> TransportResult:
    """Parallel transport in the shape space (rotation quotient of the sphere).

    Runs the shared excluded-frame integrator `paths.transport_along` at
    STEPS_PER_UNIT on the excluded frame (sphere normal, then the
    rotation-orbit directions) and its exact rates.  w0 is a vector (d,),
    rows (r, d) or one matrix of exactly the base's (k-1, m) shape, which is
    flattened; any other shape raises DimensionMismatchError.
    """
    if not isinstance(path.base, PreShape):
        raise ValueError("transport_kendall needs a landmark-space path")
    w = np.asarray(w0, dtype=float)
    w = w.ravel() if w.shape == path.base.mat.shape else w
    return transport_along(path, w, partial(_excluded_frame, path.base.m),
                           np.ones(path.points.shape[1]), STEPS_PER_UNIT,
                           memo_key="kendall")


# ---------------------------------------------------------------------------
# serialization

def preshape_to_dict(p: PreShape) -> dict:
    return {"m": p.m, "k": p.k,
            "mat": [[float(v) for v in row] for row in p.mat]}


def preshape_from_dict(d: dict) -> PreShape:
    if missing := [key for key in ("m", "k", "mat") if key not in d]:
        raise ParseError(f"pre-shape is missing {', '.join(missing)}")
    mat = np.asarray(d["mat"], dtype=float)
    if not np.isfinite(mat).all():
        raise ParseError("pre-shape mat holds a non-finite number")
    p = PreShape(int(d["m"]), mat)
    if p.k != int(d["k"]):
        raise DimensionMismatchError("stored k does not match the matrix shape")
    return p
