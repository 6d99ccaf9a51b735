"""Zahn-Roskies shape space: turning-function Fourier coefficients, the closed-curve
submanifold and its initial-point quotient.

Coefficient layout throughout: (x_0, x_1, y_1, ..., x_N, y_N), length 2N+1.
The metric is <u,v> = u_0 v_0 + 0.5*sum(u_n v_n + u~_n v~_n), i.e. the L2 pairing
of the underlying functions divided by 2*pi.

One closure-normal grid evaluation (_closure_grids) gives cos and sin of
theta(s)+s, from one half-angle tangent, and along a velocity that
velocity's grid; _closure_normals projects them, with the exact rates.  The
excluded rows (_excluded_rows: g, the closure normals and, in the quotient,
the vertical pattern, with exact rates) are built in one place, and every
solve against them goes through one factor of their Gram (paths.gram_factor)
under one set of pivot checks (_checked): the excluded frame
(constraint_frame), the projections, the relaxation sweep (_closure_sweep),
whose Gauss-Newton step reads the same factor, and exp_map.  One
Gauss-Newton step (_newton_step) serves the sweep and the checked, batched
closure projector (project_to_sigma_batch), undamped; its loop
(_project_along) returns the normals of its accepted evaluation, with rates
along a given velocity, for exp_map's step end.  Metric pairings go through
inner_raw and norm_raw on coefficient arrays.

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
from .paths import gram_factor, gram_solve, parsed, remove_frame

DEFAULT_N = 100
DEFAULT_GRID = 1024

_PROJ_TOL = 1e-10
_PROJ_MAXITER = 50
# the closure residuals (Re Psi, Im Psi, x0 + sum x_n), reversed and scaled
# by these, are the Gauss-Newton pairings of the rows (g, v1, v2)
_RES_TO_PAIRINGS = np.array([1.0, 0.5 / np.pi, -0.5 / np.pi])
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
    parts = spec.view(float)  # harmonic n is 0.5 * (x_n - i y_n)
    parts[..., 0] = c[..., 0]
    np.multiply(c[..., 1::2], 0.5, out=parts[..., 2:2 * n_harm + 2:2])
    np.multiply(c[..., 2::2], -0.5, out=parts[..., 3:2 * n_harm + 3:2])
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

@lru_cache(maxsize=8)
def _metric_weights(n_harm: int) -> np.ndarray:
    """Diagonal of the coefficient metric: 1 for x_0, 0.5 for every harmonic.
    Cached, read-only."""
    w = np.full(2 * n_harm + 1, 0.5)
    w[0] = 1.0
    w.setflags(write=False)
    return w


@lru_cache(maxsize=8)
def g_vector(n_harm: int) -> np.ndarray:
    """Metric representer of the linear functional v -> v_0 + sum x_n.
    Cached, read-only."""
    g = np.zeros(2 * n_harm + 1)
    g[0] = 1.0
    g[1::2] = 2.0
    g.setflags(write=False)
    return g


def _cos_sin(a: np.ndarray):
    """cos a = 2/(1+t^2) - 1 and sin a = 2t/(1+t^2) from t = tan(a/2), in a's
    memory: NumPy vectorizes float64 tan, but not cos and sin."""
    t = np.tan(np.multiply(a, 0.5, out=a), out=a)
    w = np.multiply(t, t)
    np.divide(2.0, np.add(w, 1.0, out=w), out=w)  # 2 / (1 + t^2)
    sin_a = np.multiply(t, w, out=t)
    return np.subtract(w, 1.0, out=w), sin_a


def _closure_grids(points: np.ndarray, along: np.ndarray | None = None):
    """The one closure-normal grid evaluation: ((cos a, sin a), theta_dot),
    the grids of cos and sin (_cos_sin) of the angle a = theta(s) + s and,
    with along (the path velocity at the points, which broadcasts), the
    velocity's own grid theta_dot (else None), on the grid_size grid from
    one eval_on_grid call.  Batched."""
    c = np.asarray(points, dtype=float)
    m = grid_size((c.shape[-1] - 1) // 2)
    if along is None:
        a, theta_dot = eval_on_grid(c, m), None
    else:  # points and velocities in one evaluation
        both = np.empty((2,) + c.shape)
        both[0], both[1] = c, along
        a, theta_dot = eval_on_grid(both, m)
    a += s_grid(m)
    return _cos_sin(a), theta_dot


def _project_grids(cs, theta_dot: np.ndarray | None, n_harm: int) -> list:
    """The Fourier projections onto harmonics 0..n_harm of _closure_grids'
    cos a and sin a and, with theta_dot, of their rates -sin a * theta_dot
    and cos a * theta_dot: a list of two (four) arrays.  One row projects
    its grids in one transform; a batch projects them one at a time, which
    is faster there and keeps peak memory down.  Batched."""
    cos_a, sin_a = cs
    grids = [cos_a, sin_a] + ([] if theta_dot is None else
                              [-sin_a * theta_dot, cos_a * theta_dot])
    if cos_a.size == cos_a.shape[-1]:
        return list(coeffs_from_grid(np.array(grids), n_harm))
    return [coeffs_from_grid(x, n_harm) for x in grids]


def _closure_normals(points: np.ndarray, along: np.ndarray | None = None):
    """The closure normals v1, v2, the Fourier projections of cos a and sin a
    from one grid evaluation (_closure_grids), and with along, the path
    velocity at the points, also their rates P(-sin a * theta_dot) and
    P(cos a * theta_dot) (_project_grids).  Returns a list of two (four)
    arrays.  Batched.

    Psi = 2*pi*(v1_0 + i*v2_0), and -2*pi*v2, 2*pi*v1 are the metric
    representers of the derivatives of Re Psi and Im Psi; with g_vector they
    span the normal space.
    """
    c = np.asarray(points, dtype=float)
    return _project_grids(*_closure_grids(c, along), (c.shape[-1] - 1) // 2)


def closure_map(theta) -> complex:
    """Integral of exp(i(theta(s)+s)) ds over one period (trapezoid on the
    grid_size grid)."""
    v1, v2 = _closure_normals(_vec(theta))
    return complex(2.0 * np.pi * (v1[..., 0] + 1j * v2[..., 0]))


def _closure_system(x: np.ndarray, along: np.ndarray | None = None):
    """One closure-normal evaluation at rows x (and rates along along): each
    row's residuals (Re Psi, Im Psi, x0 + sum x_n) and normals.  Batched."""
    v = _closure_normals(x, along)
    return np.stack([2.0 * np.pi * v[0][..., 0], 2.0 * np.pi * v[1][..., 0],
                     x[..., 0] + np.sum(x[..., 1::2], axis=-1)], axis=-1), v


def _newton_step(res: np.ndarray, rows: np.ndarray, factor, history: list) -> np.ndarray:
    """The minimal-metric-norm Gauss-Newton step -R^T G^-1 c over the closure
    rows R = (g, v1, v2) (..., 3, d), c the residuals as the rows' pairings
    (_RES_TO_PAIRINGS), from factor = (X, pivots) of their Gram
    (paths.gram_factor); a pivot not above 0 raises NumericalError with
    history.  Batched."""
    if not (factor[1] > 0.0).all():
        raise NumericalError("singular constraint system", history)
    lam = gram_solve(factor[0], res[..., ::-1, None] * _RES_TO_PAIRINGS[:, None])
    return -(lam.swapaxes(-1, -2) @ rows)[..., 0, :]


def _project_along(points: np.ndarray, along: np.ndarray | None = None):
    """project_to_sigma_batch's loop, which also returns the closure normals
    of the evaluation it accepts; with along (a velocity for every row) each
    evaluation carries the rates along it."""
    c = np.array(points, dtype=float)
    history = []
    while True:
        res, normals = _closure_system(c, along)
        err = np.abs(res).max(axis=-1)
        history.append(float(err.max()))
        if history[-1] <= _PROJ_TOL:
            return c, normals
        if len(history) > _PROJ_MAXITER:
            raise NumericalError(
                f"constraint projection did not reach {_PROJ_TOL:g} in "
                f"{_PROJ_MAXITER} iterations", history)
        rows = _excluded_rows(c, normals, None, False)[0]
        step = _newton_step(res, rows, gram_factor(rows, _metric_weights(c.shape[-1] // 2)),
                            history)
        step[err <= _PROJ_TOL] = 0.0
        c += step


def project_to_sigma_batch(points: np.ndarray) -> np.ndarray:
    """Project coefficient rows onto the closed-curve manifold by plain
    Gauss-Newton (_newton_step) on each row's three closure residuals, one
    closure evaluation per iteration; rows within tolerance do not move.
    Stops when every residual is at most 1e-10, and raises NumericalError,
    with the worst residual per iteration as history, after _PROJ_MAXITER
    iterations.  Batched."""
    return _project_along(points)[0]


def project_to_sigma(theta) -> ZRShape:
    """project_to_sigma_batch for one shape or coefficient vector; a ZRShape
    keeps its length and base_angle."""
    c = project_to_sigma_batch(_vec(theta))
    return theta.with_coeffs(c) if isinstance(theta, ZRShape) else ZRShape(len(c) // 2, c)


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
    """The excluded frame at points: the raw rows R (..., k, d) spanning the
    complement of the tangent (with horizontal: the horizontal) space, g,
    v1, v2 and with horizontal the vertical pattern, and their duals and,
    with along (the path velocity at the points), rate duals from their
    exact rates (else None): (R, Q, Q') under _checked.  Batched."""
    c = np.asarray(points, dtype=float)
    rows, rates = _excluded_rows(c, _closure_normals(c, along), along, horizontal)
    wts = _metric_weights(c.shape[-1] // 2)
    x = _checked(*gram_factor(rows, wts), horizontal)
    return rows, gram_solve(x, rows * wts), None if rates is None else gram_solve(
        x, rates * wts)


def _excluded_rows(c: np.ndarray, normals, along, horizontal: bool):
    """The excluded raw rows at c (g, v1, v2 and, with horizontal, the
    vertical pattern), stacked (..., k, d), and with along their rates (else
    None): g's zero rate, the rates that normals holds, the vertical's."""
    vertical = _vertical_pattern(c, along) if horizontal else []
    rows = [g_vector((c.shape[-1] - 1) // 2)] + normals[:2] + vertical[:1]
    rates = None if along is None else [0.0] + normals[2:] + vertical[1:]
    return tuple(None if x is None else _stack_rows(x, c.shape) for x in (rows, rates))


def _stack_rows(parts: list, shape: tuple) -> np.ndarray:
    """parts, each broadcast to shape (..., d), as rows (..., k, d)."""
    out = np.empty(shape[:-1] + (len(parts), shape[-1]))
    for i, x in enumerate(parts):
        out[..., i, :] = x
    return out


def _checked(factor: np.ndarray, pivots: np.ndarray, horizontal: bool) -> np.ndarray:
    """paths.gram_factor's (X, pivots) of the excluded rows: X, unless a
    closure pivot is not above 1e-12 (NumericalError) or the vertical one
    not above 1e-6 (SingularShapeError)."""
    if not (pivots[..., 1:3] > 1e-12).all():
        raise NumericalError("degenerate constraint frame")
    if horizontal and not (pivots[..., 3] > 1e-6).all():
        raise SingularShapeError("vertical direction degenerates in the tangent space")
    return factor


def _closure_sweep(points: np.ndarray, horizontal: bool, history: list):
    """What a relaxation sweep reads from one closure-normal evaluation at
    rows that may lie off the manifold: the worst closure residual, each
    row's Gauss-Newton step and (excluded rows, duals), from one factor of
    the rows' Gram, whose leading block serves the step.  Batched."""
    res, normals = _closure_system(points)
    rows = _excluded_rows(points, normals, None, horizontal)[0]
    x, pivots = gram_factor(rows, wts := _metric_weights(points.shape[-1] // 2))
    step = _newton_step(res, rows[..., :3, :], (x[..., :3, :3], pivots[..., :3]), history)
    x = _checked(x, pivots, horizontal)
    return float(np.abs(res).max()), step, (rows, gram_solve(x, rows * wts))


def _project_tangent_raw(points: np.ndarray, vecs: np.ndarray,
                         horizontal: bool = False) -> np.ndarray:
    """Tangent (with horizontal: horizontal) part of vecs at points, vecs
    less their parts in the excluded rows' span; a vector of another size
    raises DimensionMismatchError.  Batched."""
    vecs = np.asarray(vecs, dtype=float)
    if vecs.shape[-1:] != np.shape(points)[-1:]:
        raise DimensionMismatchError("vector size does not match the base shape")
    return remove_frame(vecs, constraint_frame(points, horizontal=horizontal)[:2])


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


def _grid_shift_dist2(x0: float, ze: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Squared distance of theta (constant x0, harmonics zt = x_n - i y_n)
    from eta (harmonics ze) shifted by each of the _ALIGN_GRID uniform shifts
    2*pi*j/_ALIGN_GRID.  Its two sums over harmonics, of ze e^(ins) and of
    ze conj(zt) e^(ins), come from one inverse FFT; harmonics above the grid
    fold onto it, as e^(ins) repeats there."""
    spec = np.zeros((2, _ALIGN_GRID * (len(ze) // _ALIGN_GRID + 1)), dtype=complex)
    spec[:, 1:len(ze) + 1] = ze, ze * np.conj(zt)
    rot, cross = np.fft.ifft(spec.reshape(2, -1, _ALIGN_GRID).sum(axis=1), norm="forward")
    return ((rot.real + x0) ** 2 - cross.real
            + 0.5 * (np.vdot(ze, ze).real + np.vdot(zt, zt).real))


def align_initial_point(theta: ZRShape, eta: ZRShape) -> tuple[float, float]:
    """Find the initial-point shift of eta that best matches theta.

    Coarse search on a uniform shift grid (_grid_shift_dist2), then Newton's
    method on the derivative of the squared distance from the best candidate.
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

    def dist2(s0):
        rot = ze * np.exp(1j * n * s0)
        return (np.sum(rot.real) + tc[0]) ** 2 + 0.5 * np.sum(np.abs(rot - zt) ** 2)

    def slope_and_curvature(s0):
        # d/ds0 and d^2/ds0^2 of dist2; x0 is the slaved constant's mismatch
        w = ze * np.exp(1j * n * s0)
        x0 = -np.sum(w.real) - tc[0]
        dx0, ddx0 = np.sum(n * w.imag), np.sum(n * n * w.real)
        c = w * np.conj(zt)
        return (2.0 * x0 * dx0 + np.sum(n * c.imag),
                2.0 * (dx0 * dx0 + x0 * ddx0) + np.sum(n * n * c.real))

    s0 = 2.0 * np.pi * int(np.argmin(_grid_shift_dist2(tc[0], ze, zt))) / _ALIGN_GRID
    lo, hi = s0 - 2.0 * np.pi / _ALIGN_GRID, s0 + 2.0 * np.pi / _ALIGN_GRID

    # Newton on the stationarity condition, kept inside the bracket
    for _ in range(_ALIGN_NEWTON_MAXITER):
        d1, d2 = slope_and_curvature(s0)
        s_prev, s0 = s0, min(max(s0 - (d1 / d2 if d2 > 0.0 else 0.0), lo), hi)
        if abs(s0 - s_prev) <= _ALIGN_STEP_TOL:
            break
    s0 = float(s0) % (2.0 * np.pi)
    return s0, float(np.sqrt(max(dist2(s0), 0.0)))


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
    n_harm = parsed(d["N"], "shape N", int)
    got = {k: parsed(v, f"shape {k}", None if k == "xy" else float) for k, v in (
        ("x0", d["x0"]), ("xy", d["xy"]), ("length", d.get("length", 2.0 * np.pi)),
        ("base_angle", d.get("base_angle", 0.0)))}
    if bad := [k for k, v in got.items() if not np.isfinite(v).all()]:
        raise ParseError(f"shape {', '.join(bad)} holds a non-finite number")
    x0, xy, length, base_angle = got.values()
    if xy.shape != (n_harm, 2):
        raise DimensionMismatchError(f"expected {n_harm} harmonic pairs")
    return ZRShape(n_harm, np.concatenate([[x0], xy.ravel()]), length, base_angle)
