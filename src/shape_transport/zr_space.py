"""Zahn-Roskies shape space: turning-function Fourier coefficients, the closed-curve
submanifold and its initial-point quotient.

Coefficient layout throughout: (x_0, x_1, y_1, ..., x_N, y_N), length 2N+1.
The metric is <u,v> = u_0 v_0 + 0.5*sum(u_n v_n + u~_n v~_n), i.e. the L2 pairing
of the underlying functions divided by 2*pi.

One closure-normal evaluation (_closure_normals) computes the Fourier
projections of cos and sin of theta(s)+s, and along a velocity their exact
rates; the closure integral, the projector and the excluded frame read it.
The excluded frame (constraint_frame: g, the closure normals and, in the
quotient, the vertical pattern, with exact rates) is the one frame builder
behind the tangent/horizontal projection, the geodesic acceleration, the
relaxation and transport; one checked, batched closure projector
(project_to_sigma_batch, which returns points only) puts points back on the
closed-curve submanifold.
Metric pairings go through inner_raw and norm_raw on coefficient arrays, and
the vertical direction realized in the tangent space is row 3 of
constraint_frame(points, horizontal=True).

The trapezoid grid follows the truncation order N: grid_size(N) is the least
power of two with at least 8*(N+1) points, never below DEFAULT_GRID, so it is
1024 for every N <= 127.  No function takes a grid size except the grid
evaluators eval_on_grid and s_grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalError,
    ParseError,
    SingularShapeError,
)
from .paths import orthonormalize, remove_frame

DEFAULT_N = 100
DEFAULT_GRID = 1024

_PROJ_TOL = 1e-10
_PROJ_MAXITER = 50
_ALIGN_GRID = 1024  # coarse shift candidates in align_initial_point
_ALIGN_NEWTON_MAXITER = 20  # at most this many Newton steps refine the shift,
_ALIGN_STEP_TOL = 1e-15     # stopping once a step is no larger than this


# ---------------------------------------------------------------------------
# basic containers

@dataclass(frozen=True)
class ZRShape:
    """A closed-contour shape as truncated Fourier coefficients of its turning function.

    length and base_angle carry the similarity data needed to reconstruct an
    actual contour; they do not enter the shape geometry.
    """

    N: int
    coeffs: np.ndarray
    length: float = 2.0 * np.pi
    base_angle: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (2 * self.N + 1,):
            raise DimensionMismatchError(
                f"expected {2 * self.N + 1} coefficients for N={self.N}, got {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def with_coeffs(self, coeffs: np.ndarray) -> "ZRShape":
        return ZRShape(self.N, coeffs, self.length, self.base_angle)


@dataclass(frozen=True)
class ZRTangent:
    """Tangent vector at a base shape, same coefficient layout."""

    N: int
    coeffs: np.ndarray
    base: ZRShape | None = None

    __post_init__ = ZRShape.__post_init__  # the same coefficient check


def _vec(v) -> np.ndarray:
    if isinstance(v, (ZRShape, ZRTangent)):
        return v.coeffs
    return np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# metric

def inner_raw(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + 0.5 * np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def norm_raw(a) -> float | np.ndarray:
    a = _vec(a)
    return np.sqrt(inner_raw(a, a))


# ---------------------------------------------------------------------------
# grid evaluation (uniform s grid, FFT based, batched over leading axes)

@lru_cache(maxsize=8)
def s_grid(m: int) -> np.ndarray:
    s = 2.0 * np.pi * np.arange(m) / m
    s.setflags(write=False)
    return s


def eval_on_grid(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Evaluate the truncated series on the uniform m-grid. Batched."""
    c = np.asarray(coeffs, dtype=float)
    n_harm = (c.shape[-1] - 1) // 2
    if m < 2 * n_harm + 2:
        raise DimensionMismatchError(f"grid {m} too small for {n_harm} harmonics")
    spec = np.zeros(c.shape[:-1] + (m // 2 + 1,), dtype=complex)
    spec[..., 0] = c[..., 0]
    spec[..., 1:n_harm + 1] = 0.5 * (c[..., 1::2] - 1j * c[..., 2::2])
    return np.fft.irfft(spec, n=m, axis=-1, norm="forward")


def grid_size(n_harm: int) -> int:
    """Quadrature grid for n_harm harmonics: the least power of two with at
    least 8*(n_harm+1) points, and never below DEFAULT_GRID."""
    return max(DEFAULT_GRID, 1 << (8 * (n_harm + 1) - 1).bit_length())


def coeffs_from_grid(values: np.ndarray, n_harm: int) -> np.ndarray:
    """Fourier-project grid samples onto harmonics 0..n_harm. Batched."""
    spec = np.fft.rfft(np.asarray(values, dtype=float), axis=-1, norm="forward")
    out = np.empty(spec.shape[:-1] + (2 * n_harm + 1,))
    out[..., 0] = spec[..., 0].real
    tail = spec[..., 1:n_harm + 1].conj()
    tail *= 2.0
    out[..., 1:] = tail.view(float)  # (x_n, y_n) = 2 * (Re, -Im) of harmonic n
    return out


# ---------------------------------------------------------------------------
# closure constraint

def _metric_weights(n_harm: int) -> np.ndarray:
    """Diagonal of the coefficient metric: 1 for x_0, 0.5 for every harmonic."""
    w = np.full(2 * n_harm + 1, 0.5)
    w[0] = 1.0
    return w


def g_vector(n_harm: int) -> np.ndarray:
    """Metric representer of the linear functional v -> v_0 + sum x_n."""
    g = np.zeros(2 * n_harm + 1)
    g[0] = 1.0
    g[1::2] = 2.0
    return g


def _closure_normals(points: np.ndarray, along: np.ndarray | None = None):
    """The one closure-normal evaluation: v1, v2, the Fourier projections of
    cos a and sin a for the angle grid a = theta(s) + s on the grid_size
    grid.  With along, the path velocity at the points, also their rates
    P(-sin a * theta_dot) and P(cos a * theta_dot), from the same grid
    evaluation.  Returns a list of two (four) arrays.  Batched.

    Psi = 2*pi*(v1_0 + i*v2_0), and -2*pi*v2, 2*pi*v1 are the metric
    representers of the derivatives of Re Psi and Im Psi; with g_vector they
    span the normal space.  The grids are projected one at a time.
    """
    c = np.asarray(points, dtype=float)
    n_harm = (c.shape[-1] - 1) // 2
    m = grid_size(n_harm)
    if along is None:
        a = eval_on_grid(c, m) + s_grid(m)
    else:  # one grid evaluation for both
        a, rate = eval_on_grid(np.stack([c, np.broadcast_to(along, c.shape)]), m)
        a += s_grid(m)
    cos_a = np.cos(a)
    sin_a = np.sin(a, out=a)
    out = [coeffs_from_grid(cos_a, n_harm), coeffs_from_grid(sin_a, n_harm)]
    if along is not None:
        out += [coeffs_from_grid(-sin_a * rate, n_harm),
                coeffs_from_grid(cos_a * rate, n_harm)]
    return out


def closure_map(theta) -> complex:
    """Integral of exp(i(theta(s)+s)) ds over one period (trapezoid on the
    grid_size grid)."""
    v1, v2 = _closure_normals(_vec(theta))
    return complex(2.0 * np.pi * (v1[..., 0] + 1j * v2[..., 0]))


def project_to_sigma_batch(points: np.ndarray) -> np.ndarray:
    """Project coefficient rows onto the closed-curve manifold.  Batched.

    Gauss-Newton on the three constraint residuals of each row with the
    minimal-metric-norm update: step = -sum_k lam_k r_k over the residuals'
    metric representers r_k, where lam solves their 3x3 Gram system against
    the residuals.  Each row halves its own step, at most 8 times, while
    its residual norm grows; rows already within tolerance do not move.
    Stops when every residual of every row is at most 1e-10 and raises
    NumericalError, with the worst residual per iteration as history, when
    that takes more than _PROJ_MAXITER iterations.
    """
    c = np.array(points, dtype=float)
    g = g_vector((c.shape[-1] - 1) // 2)

    def system(x):
        # residuals (Re Psi, Im Psi, x0 + sum x_n) and the closure normals
        v = np.stack(_closure_normals(x), axis=-2)
        res = np.stack([2.0 * np.pi * v[..., 0, 0], 2.0 * np.pi * v[..., 1, 0],
                        x[..., 0] + np.sum(x[..., 1::2], axis=-1)], axis=-1)
        return res, v

    res, normals = system(c)
    history = []
    while True:
        err = np.abs(res).max(axis=-1)
        history.append(float(err.max()))
        if history[-1] <= _PROJ_TOL:
            return c
        if len(history) > _PROJ_MAXITER:
            raise NumericalError(
                f"constraint projection did not reach {_PROJ_TOL:g} in "
                f"{_PROJ_MAXITER} iterations", history)
        tpn = 2.0 * np.pi * normals  # the residuals' metric representers
        reps = np.stack([-tpn[..., 1, :], tpn[..., 0, :], np.broadcast_to(g, c.shape)], -2)
        gram = inner_raw(reps[..., :, None, :], reps[..., None, :, :])
        try:
            lam = np.linalg.solve(gram, res[..., None])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular constraint system in projection",
                                 history) from exc
        step = -(np.swapaxes(reps, -1, -2) @ lam)[..., 0]
        step[err <= _PROJ_TOL] = 0.0
        base = (res * res).sum(axis=-1)
        scale = np.ones(base.shape + (1,))
        for halvings in range(9):  # a row whose residual grew halves its own step
            trial = c + scale * step
            r_t, n_t = system(trial)
            grow = (r_t * r_t).sum(axis=-1) > base
            if halvings == 8 or not grow.any():
                break
            scale[grow] *= 0.5
        c, res, normals = trial, r_t, n_t


def project_to_sigma(theta) -> ZRShape:
    """project_to_sigma_batch for one shape or coefficient vector; a ZRShape
    keeps its length and base_angle."""
    c = project_to_sigma_batch(_vec(theta)[None])[0]
    if isinstance(theta, ZRShape):
        return theta.with_coeffs(c)
    return ZRShape((c.shape[-1] - 1) // 2, c)


# ---------------------------------------------------------------------------
# the excluded frame and the quotient structure (initial-point shifts)

def _vertical_pattern(coeffs: np.ndarray, along: np.ndarray | None = None):
    """sqrt(2) * sum_n n (y_n d/dx_n - x_n d/dy_n), normalized by the Euclidean
    coefficient norm; no x0 component.  With along, also the same linear map
    of along at the same scale, the pattern's rate up to a multiple of
    itself.  Returns a list of one (two) arrays.  Batched."""
    c = np.asarray(coeffs, dtype=float)
    n_harm = (c.shape[-1] - 1) // 2
    n = np.arange(1, n_harm + 1, dtype=float)
    d2 = np.sum(n**2 * (c[..., 1::2] ** 2 + c[..., 2::2] ** 2), axis=-1)
    if np.any(d2 <= 1e-18):
        raise SingularShapeError(
            "vertical direction undefined: shape is (numerically) the circle")
    scale = np.sqrt(2.0 / d2)[..., None]
    out = []
    for x in [c] if along is None else [c, np.asarray(along, dtype=float)]:
        y = np.zeros_like(c)
        y[..., 1::2] = scale * n * x[..., 2::2]
        y[..., 2::2] = -scale * n * x[..., 1::2]
        out.append(y)
    return out


def constraint_frame(points: np.ndarray, along: np.ndarray | None = None,
                     horizontal: bool = False):
    """The excluded frame at points: metric-orthonormal directions (..., k, d)
    spanning the orthogonal complement of the tangent (with horizontal: the
    horizontal) space, by paths.orthonormalize over g, the closure normals
    v1, v2 and, with horizontal, the vertical pattern.  Batched.

    Returns (frame, rates).  With along, the path velocity at the points,
    rates go through the same map from the rows' exact rates (g is
    constant): paired with a vector orthogonal to the frame, they equal the
    frame's own time derivatives.  Without along, rates is None.
    """
    c = np.asarray(points, dtype=float)
    n_harm = (c.shape[-1] - 1) // 2
    normals = _closure_normals(c, along)
    vertical = _vertical_pattern(c, along) if horizontal else []
    rows = [np.broadcast_to(g_vector(n_harm), c.shape)] + normals[:2] + vertical[:1]
    rates = None if along is None else [np.zeros_like(c)] + normals[2:] + vertical[1:]
    frame, frame_rates, pivots = orthonormalize(rows, rates, _metric_weights(n_harm))
    if np.any(pivots[..., 1:3] <= 1e-12):
        raise NumericalError("degenerate constraint frame")
    if horizontal and np.any(pivots[..., 3] <= 1e-6):
        raise SingularShapeError("vertical direction degenerates in the tangent space")
    return frame, frame_rates


def _project_tangent_raw(points: np.ndarray, vecs: np.ndarray,
                         horizontal: bool = False) -> np.ndarray:
    """Tangent part of vecs at points, and with horizontal also without its
    component along the realized vertical direction: vecs less their parts
    along the excluded frame.  Batched."""
    frame, _ = constraint_frame(points, horizontal=horizontal)
    return remove_frame(np.asarray(vecs, dtype=float), frame,
                        _metric_weights((frame.shape[-1] - 1) // 2))


def project_tangent(theta: ZRShape, v) -> ZRTangent:
    """Orthogonal projection onto the tangent space at theta.

    The result is exactly orthogonal to both constraint-frame directions and
    satisfies the x0 linear constraint; the map is idempotent.
    """
    out = _project_tangent_raw(theta.coeffs, _vec(v))
    return ZRTangent(theta.N, out, base=theta)


def horizontal_project(theta: ZRShape, v) -> ZRTangent:
    """Remove the vertical component (and any non-tangent part) of v."""
    w = _project_tangent_raw(theta.coeffs, _vec(v), horizontal=True)
    return ZRTangent(theta.N, w, base=theta)


# ---------------------------------------------------------------------------
# initial-point action

def shift_initial_point(theta: ZRShape, s0: float) -> ZRShape:
    """Move the curve's initial point by s0: theta(.) -> theta(. + s0) - theta(s0).

    Harmonics phase-rotate; the constant is restored so the turning function
    still vanishes at 0.
    """
    c = theta.coeffs
    n = np.arange(1, theta.N + 1, dtype=float)
    cn, sn = np.cos(n * s0), np.sin(n * s0)
    out = c.copy()
    out[1::2] = c[1::2] * cn + c[2::2] * sn
    out[2::2] = c[2::2] * cn - c[1::2] * sn
    out[0] = -np.sum(out[1::2])
    return theta.with_coeffs(out)


def align_initial_point(theta: ZRShape, eta: ZRShape) -> tuple[float, float]:
    """Find the initial-point shift of eta that best matches theta.

    Coarse search on a uniform shift grid, then Newton's method on the
    derivative of the squared distance from the best candidate.
    Returns (s0, distance) with s0 in [0, 2*pi).
    """
    if theta.N != eta.N:
        raise DimensionMismatchError("truncation orders differ")
    for s in (theta, eta):
        if norm_raw(s.coeffs) < 1e-6:
            raise SingularShapeError("alignment undefined at the circle shape")

    tc, ec = theta.coeffs, eta.coeffs
    n_harm = theta.N
    n = np.arange(1, n_harm + 1, dtype=float)
    ze = ec[1::2] - 1j * ec[2::2]
    zt = tc[1::2] - 1j * tc[2::2]

    def dist2(s0arr):
        rot = ze * np.exp(1j * np.outer(np.atleast_1d(s0arr), n))
        return ((np.sum(rot.real, axis=-1) + tc[0]) ** 2
                + 0.5 * np.sum(np.abs(rot - zt) ** 2, axis=-1))

    def slope_and_curvature(s0):
        # d/ds0 and d^2/ds0^2 of dist2; x0 is the slaved constant's mismatch
        w = ze * np.exp(1j * n * s0)
        x0 = -np.sum(w.real) - tc[0]
        dx0, ddx0 = np.sum(n * w.imag), np.sum(n * n * w.real)
        c = w * np.conj(zt)
        return (2.0 * x0 * dx0 + np.sum(n * c.imag),
                2.0 * (dx0 * dx0 + x0 * ddx0) + np.sum(n * n * c.real))

    cand = 2.0 * np.pi * np.arange(_ALIGN_GRID) / _ALIGN_GRID
    s0 = cand[int(np.argmin(dist2(cand)))]
    lo, hi = s0 - cand[1], s0 + cand[1]

    # Newton on the stationarity condition, kept inside the bracket
    for _ in range(_ALIGN_NEWTON_MAXITER):
        d1, d2 = slope_and_curvature(s0)
        s_prev, s0 = s0, min(max(s0 - (d1 / d2 if d2 > 0.0 else 0.0), lo), hi)
        if abs(s0 - s_prev) <= _ALIGN_STEP_TOL:
            break
    s0 = float(s0) % (2.0 * np.pi)
    return s0, float(np.sqrt(max(dist2(s0)[0], 0.0)))


# ---------------------------------------------------------------------------
# serialization

def shape_to_dict(theta: ZRShape) -> dict:
    return {
        "N": theta.N,
        "x0": float(theta.coeffs[0]),
        "xy": [[float(x), float(y)] for x, y in
               zip(theta.coeffs[1::2], theta.coeffs[2::2])],
        "length": float(theta.length),
        "base_angle": float(theta.base_angle),
    }


def shape_from_dict(d: dict) -> ZRShape:
    if missing := [key for key in ("N", "x0", "xy") if key not in d]:
        raise ParseError(f"shape is missing {', '.join(missing)}")
    n_harm = int(d["N"])
    got = {k: np.asarray(v, dtype=float) for k, v in (
        ("x0", d["x0"]), ("xy", d["xy"]), ("length", d.get("length", 2.0 * np.pi)),
        ("base_angle", d.get("base_angle", 0.0)))}
    if bad := [k for k, v in got.items() if not np.isfinite(v).all()]:
        raise ParseError(f"shape {', '.join(bad)} holds a non-finite number")
    x0, xy, length, base_angle = got.values()
    if xy.shape != (n_harm, 2):
        raise DimensionMismatchError(f"expected {n_harm} harmonic pairs")
    c = np.empty(2 * n_harm + 1)
    c[0] = float(x0)
    c[1::2] = xy[:, 0]
    c[2::2] = xy[:, 1]
    return ZRShape(n_harm, c, float(length), float(base_angle))
