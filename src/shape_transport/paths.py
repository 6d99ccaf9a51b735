"""Geodesic path and transport result containers shared by both geometries,
the space table (space_ops: what each space tag stands for), the one
Gram-Schmidt (orthonormalize) behind both geometries' excluded frames, and
the excluded-frame transport integrator (transport_along)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from .errors import DimensionMismatchError, NumericalError, ParseError

SPACE_TAGS = ("zr_sigma", "zr_invariant", "kendall")
STEPS_PER_UNIT = 256  # RK4 steps per unit of path length: transport and shooting
_DRIFT_LIMIT = 1e-4


@dataclass(frozen=True)
class SpaceOps:
    """The functions a space tag stands for.

    from_contour(contour, n_harmonics) and to_contour(shape) convert between
    contours and base shapes; connect(a, b[, n_samples]) gives the geodesic
    from a to b (the end is b's representative closest to a);
    transport(path, w0) moves tangent vectors along a path; shoot(base, v, T,
    n_samples) is the geodesic from base with initial velocity v (the ZR
    integrators choose their own sample count); norm is the metric norm of
    a vector; fit(shapes, times) fits a growth geodesic to a shape series
    (None: the space has none).
    """

    base_type: type
    to_dict: Callable
    from_dict: Callable
    from_contour: Callable
    to_contour: Callable
    connect: Callable
    transport: Callable
    shoot: Callable
    norm: Callable
    fit: Callable | None = None


def space_ops(tag: str) -> SpaceOps:
    """The table entry of a space tag.  Functions are read from their modules
    at each call, so replacing a module attribute reaches every caller."""
    from . import contour_io, kendall, zr_geodesic, zr_space, zr_transport

    if tag == "kendall":
        return SpaceOps(
            base_type=kendall.PreShape, to_dict=kendall.preshape_to_dict,
            from_dict=kendall.preshape_from_dict,
            from_contour=lambda contour, n_harmonics: kendall.helmertize(contour.points),
            to_contour=lambda shape: contour_io.Contour(kendall.unhelmertize(shape)),
            connect=kendall.geodesic_kendall, transport=kendall.transport_kendall,
            shoot=kendall.exp_kendall, norm=np.linalg.norm)
    if tag not in SPACE_TAGS:
        raise ValueError(f"unknown space tag {tag!r}")
    invariant = tag == "zr_invariant"
    return SpaceOps(
        base_type=zr_space.ZRShape, to_dict=zr_space.shape_to_dict,
        from_dict=zr_space.shape_from_dict,
        from_contour=contour_io.contour_to_zr, to_contour=contour_io.zr_to_contour,
        connect=(zr_geodesic.geodesic_between_invariant if invariant
                 else zr_geodesic.geodesic_between),
        transport=(zr_transport.transport_invariant if invariant
                   else zr_transport.transport_sigma),
        shoot=lambda base, v, T, n_samples: zr_geodesic.exp_map(base, v, T,
                                                                invariant=invariant),
        norm=zr_space.norm_raw,
        fit=lambda shapes, times: zr_geodesic.fit_geodesic_to_series(
            shapes, times, invariant=invariant))


def cubic_spline(x: np.ndarray, y: np.ndarray) -> tuple[Callable, Callable]:
    """Not-a-knot cubic spline through rows y[i] (any trailing shape) at
    strictly increasing knots x; returns the functions t -> value and
    t -> derivative, which extrapolate with the end pieces.

    The same spline as scipy.interpolate.CubicSpline(x, y, axis=0): the knot
    slopes solve its tridiagonal system (two knots give the chord, three the
    parabola), and piece i is c[0] dt**3 + c[1] dt**2 + c[2] dt + c[3] with
    dt = t - x[i], coefficients c (4, n-1, ...) laid out as in PPoly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    dx = np.diff(x)
    if n < 2 or np.any(dx <= 0.0):
        raise ValueError("spline knots must be at least 2 and strictly increasing")
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n == 2:
        s = np.stack([slope[0], slope[0]])
    else:
        # the slopes' tridiagonal system by rows (lower, diag, upper); s holds
        # its right-hand side, then its solution
        lower, diag, upper = np.zeros(n), np.empty(n), np.zeros(n)
        s = np.empty_like(y)
        lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
        s[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        if n == 3:
            diag[0] = upper[0] = lower[2] = diag[2] = 1.0
            s[0], s[2] = 2.0 * slope[0], 2.0 * slope[1]
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            diag[0], upper[0], lower[-1], diag[-1] = dx[1], d0, d1, dx[-2]
            s[0] = ((dxr[0] + 2.0 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
            s[-1] = (dxr[-1] ** 2 * slope[-2]
                     + (2.0 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        # Thomas elimination, in place; every pivot stays positive here
        for i in range(1, n):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            s[i] -= w * s[i - 1]
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    t3 = (s[:-1] + s[1:] - 2.0 * slope) / dxr
    c = np.stack([t3 / dxr, (slope - s[:-1]) / dxr - t3, s[:-1], y[:-1]])
    dc = c[:3] * np.array([3.0, 2.0, 1.0]).reshape((3,) + (1,) * y.ndim)
    return partial(_horner, x, c), partial(_horner, x, dc)


def _horner(x: np.ndarray, coef: np.ndarray, t) -> np.ndarray:
    """The polynomial pieces coef on knots x at t; module-level, so it pickles."""
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    dt = (t - x[i]).reshape(t.shape + (1,) * (coef.ndim - 2))
    out = coef[0, i]
    for row in coef[1:]:
        out = out * dt + row[i]
    return out


@dataclass
class GeodesicPath:
    """Discretely sampled geodesic and its cubic spline (none for one sample).

    points holds one flattened coefficient row per strictly increasing sample
    time ts; base is the ZRShape or PreShape the path starts from and carries
    any metadata needed to interpret the rows.
    """

    space: str
    T: float
    ts: np.ndarray
    points: np.ndarray
    v0: np.ndarray
    v_end: np.ndarray
    base: Any = None

    def __post_init__(self):
        if self.space not in SPACE_TAGS:
            raise ValueError(f"unknown space tag {self.space!r}")
        self.ts = np.asarray(self.ts, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        self.v_end = np.asarray(self.v_end, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] != self.ts.shape[0]:
            raise DimensionMismatchError("sample times and points disagree")
        if self.v0.shape != self.points.shape[1:] or self.v_end.shape != self.v0.shape:
            raise DimensionMismatchError("v0 and v_end must match the points' width")
        self._spline, self._dspline = (cubic_spline(self.ts, self.points)
                                       if len(self.ts) > 1 else (None, None))
        self._transports = {}  # transport_along's memo

    @property
    def n_samples(self) -> int:
        return len(self.ts)

    def point_at(self, t) -> np.ndarray:
        if self._spline is None:
            return np.array(self.points[0])
        return self._spline(t)

    def reversed(self) -> "GeodesicPath":
        """The same path run from its end to its start.  Its base, like every
        shape along a path, comes from the start's with_coeffs, so a ZR base
        carries the start's length and base_angle."""
        return GeodesicPath(
            space=self.space,
            T=self.T,
            ts=self.T - self.ts[::-1],
            points=self.points[::-1].copy(),
            v0=-self.v_end,
            v_end=-self.v0,
            base=None if self.base is None else self.base.with_coeffs(self.points[-1]),
        )

    def to_dict(self) -> dict:
        if self.base is None:
            raise ValueError("cannot serialize a path without its base")
        return {
            "space": self.space,
            "T": float(self.T),
            "base": space_ops(self.space).to_dict(self.base),
            "v0": [float(x) for x in self.v0],
            "v_end": [float(x) for x in self.v_end],
            "samples": [[float(t)] + [float(x) for x in row]
                        for t, row in zip(self.ts, self.points)],
        }


def path_from_dict(d: dict) -> GeodesicPath:
    keys = ("space", "T", "base", "v0", "v_end", "samples")
    if missing := [key for key in keys if key not in d]:
        raise ParseError(f"path is missing {', '.join(missing)}")
    rows = np.asarray(d["samples"], dtype=float)
    return GeodesicPath(d["space"], float(d["T"]), rows[:, 0], rows[:, 1:], d["v0"],
                        d["v_end"], base=space_ops(d["space"]).from_dict(d["base"]))


@dataclass
class TransportResult:
    """Outcome of parallel transport along a path (see transport_along):
    w_end (one row per input row), its norm error before the final rescaling
    (norm_drift, one per row) and the path's RK4 step count (steps, also
    when the path's transport matrix carried the vector)."""

    w_end: np.ndarray
    norm_drift: float | np.ndarray
    steps: int


def orthonormalize(rows: list, rates: list | None, weights):
    """Gram-Schmidt, in list order, of the rows (k arrays (..., d)) in the
    metric with diagonal weights.  Batched.

    Returns (frame, frame_rates, pivots), stacked (..., k, d).  With
    rows = L @ frame, L lower triangular: frame_rates = L^-1 @ rates (None
    without rates) and pivots = diag(L), each row's length less the rows
    before it.  If d/dt rows = rates, frame_rates differs from d/dt frame
    by a combination of frame rows, so both pair alike with any vector
    orthogonal to the frame.  A vanishing pivot is reported as 0, without
    NaN; each caller checks the pivots against its own threshold.
    """
    d = rows[0].shape[-1]
    # rows and rates side by side, so that one update serves both
    x = np.stack(rows if rates is None else
                 [np.concatenate(pair, axis=-1) for pair in zip(rows, rates)], axis=-2)
    pivots = np.empty(x.shape[:-1])
    for j in range(x.shape[-2]):
        row = x[..., j, :d]
        if j:  # less its parts along the rows before it, L[j, :j]
            coef = np.swapaxes(x[..., :j, :d] @ (weights * row)[..., None], -1, -2)
            x[..., j, :] -= (coef @ x[..., :j, :])[..., 0, :]
        pivots[..., j] = np.sqrt(np.sum(weights * row * row, axis=-1))
        x[..., j, :] /= np.where(pivots[..., j] > 0.0, pivots[..., j], 1.0)[..., None]
    return x[..., :d], None if rates is None else x[..., d:], pivots


def remove_frame(vecs: np.ndarray, frame: np.ndarray, weights) -> np.ndarray:
    """vecs (..., d) less their parts along the orthonormal rows of frame
    (..., k, d) in the metric with diagonal weights.  Batched."""
    coef = np.einsum("...kd,...d->...k", frame * weights, vecs)
    return vecs - np.einsum("...k,...kd->...d", coef, frame)


def tangent_part(vecs: np.ndarray, frame: np.ndarray, weights, what: str) -> np.ndarray:
    """remove_frame for vectors that should lie in the frame's orthogonal
    complement: raises ValueError(what) when a row strays from it by more
    than 1e-6 * max(its norm, 1) in the metric norm.  Batched."""
    vecs = np.asarray(vecs, dtype=float)
    out = remove_frame(vecs, frame, weights)
    norms, strays = (np.sqrt(np.sum(weights * x * x, axis=-1)) for x in (vecs, out - vecs))
    if np.any(strays > 1e-6 * np.maximum(norms, 1.0)):
        raise ValueError(what)
    return out


def _step_maps(frame, rates, weights, h):
    """C (n, 3k, d): RK4 step s with its end re-projection moves rows v by
    (v @ C[s].T) @ frame[2s:2s+3].reshape(3k, d).  With P = rates * weights
    and F the frame at the node (0), midpoint (h) and end (1), stage i adds
    -F^T X_i w: X1 = P0, X2 = Ph - h/2 (Ph F0^T) X1, X3 = Ph - h/2 (Ph Fh^T) X2;
    stage 4 lies along F1, which the re-projection removes."""
    tr = partial(np.swapaxes, axis1=-1, axis2=-2)
    p = rates * weights
    f0, fh, fw1 = frame[:-1:2], frame[1::2], frame[2::2] * weights
    x2 = p[1::2] - (0.5 * h) * (p[1::2] @ tr(f0)) @ p[:-1:2]
    x3 = p[1::2] - (0.5 * h) * (p[1::2] @ tr(fh)) @ x2
    y0, yh = (-h / 6.0) * p[:-1:2], (-h / 3.0) * (x2 + x3)
    y1 = -fw1 - (fw1 @ tr(f0)) @ y0 - (fw1 @ tr(fh)) @ yh
    return np.concatenate([y0, yh, y1], axis=-2)


def transport_along(path: GeodesicPath, w0: np.ndarray,
                    frames: Callable[[np.ndarray, np.ndarray], tuple],
                    weights: np.ndarray,
                    steps_per_unit: int, memo_key) -> TransportResult:
    """Parallel transport of w0, a vector (d,) or a block of rows (m, d),
    along path by excluding a moving frame; any other shape raises
    DimensionMismatchError.

    frames maps path points (n, d) and the path velocity there (n, d) to the
    metric-orthonormal directions (n, k, d) spanning the orthogonal
    complement of the vector's space, and their rates (see orthonormalize);
    weights is the metric's diagonal.  The vector changes at minus its
    pairing with each direction's rate times that direction.  RK4 on a
    node/midpoint grid: frames are read once, at the 2n+1 times, from the
    path's spline, and each step, re-projection included, is one fused
    low-rank update of the block (_step_maps).  Transport is linear, so w_end
    is scaled back to norm(w0) only at the end, and norm_drift is
    |norm(result) / norm(P0 w0) - 1| * norm(w0).  memo_key names the frame
    geometry: a second transport with the same key and steps_per_unit
    integrates the identity once and keeps that matrix and the start frame
    on the path; later vectors are one product.  Every vector gets the
    start, collapse and drift checks.
    """
    w = np.array(w0, dtype=float)
    if w.shape[-1:] != path.points.shape[1:] or w.ndim > 2:
        raise DimensionMismatchError("vector size does not match the path")
    rows = w.reshape(-1, w.shape[-1])
    norms = np.sqrt((rows * rows) @ weights)
    if path.n_samples < 2 or path.T == 0.0 or not norms.any():
        return TransportResult(w, np.zeros(len(rows)) if w.ndim > 1 else 0.0, 0)

    length = float(np.sum(np.sqrt(np.diff(path.points, axis=0) ** 2 @ weights)))
    n_steps = max(8, math.ceil(steps_per_unit * max(length, 1e-12)))
    memo, key = path._transports, (memo_key, steps_per_unit)
    kept = memo.get(key)  # (matrix, start frame) from the second vector on
    if kept is None:
        # even indices are the step nodes, odd ones the midpoints
        times = np.linspace(0.0, path.T, 2 * n_steps + 1)
        frame, rates = frames(path.point_at(times), path._dspline(times))
    start = np.array(frame[0]) if kept is None else kept[1]
    proj = tangent_part(rows, start, weights, "initial vector has a component along "
                        "the excluded directions at the path start")
    if kept is None:
        c = _step_maps(frame, rates, weights, path.T / n_steps)
        v = np.eye(len(weights)) if key in memo else proj.copy()
        for s in range(n_steps):
            v += (v @ c[s].T) @ frame[2 * s:2 * s + 3].reshape(-1, v.shape[1])
        kept = memo[key] = (v, start) if key in memo else None
    out = v if kept is None else proj @ kept[0]

    out_norms, proj_norms = (np.sqrt((x * x) @ weights) for x in (out, proj))
    if np.any((out_norms == 0.0) & (norms > 0.0)):
        raise NumericalError("transported vector collapsed to zero")
    out_norms[norms == 0.0] = proj_norms[norms == 0.0] = 1.0  # zero rows stay zero
    drift = np.abs(out_norms / proj_norms - 1.0) * norms
    if drift.max() > _DRIFT_LIMIT:
        raise NumericalError(
            f"transport norm drift {drift.max():.3e} exceeds {_DRIFT_LIMIT:g}; "
            "refine the path sampling or increase steps_per_unit")
    out = (out * (norms / out_norms)[:, None]).reshape(w.shape)
    return TransportResult(out, drift if w.ndim > 1 else float(drift[0]), n_steps)
