"""Geodesic path and transport result containers shared by both geometries,
the space table (space_ops: what each space tag stands for), the one
small-Gram factor (gram_factor, gram_solve) behind both geometries' excluded
rows, the one stray check (tangent_part) and the excluded-row transport
integrator (transport_along: one route, full space or a hook's span)."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NumericalError, ParseError

SPACE_TAGS = ("zr_sigma", "zr_invariant", "kendall")
# RK4 steps per unit of path length: shooting, Kendall and quotient transport
# and the top of the ZR transport's step-doubling ladder
STEPS_PER_UNIT = 256
_DRIFT_LIMIT = 1e-4
_LADDER_TOL = 1e-9  # a row's Richardson estimate relative to its norm
_log = logging.getLogger("shape_transport")


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


def cubic_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes s (y's shape) of the not-a-knot cubic spline through rows
    y[i] (any trailing shape) at strictly increasing knots x, linear in y;
    spline_at evaluates the spline from x, y and s.

    The same spline as scipy.interpolate.CubicSpline(x, y, axis=0): the knot
    slopes solve its tridiagonal system (two knots give the chord, three the
    parabola).
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
        return np.stack([slope[0], slope[0]])
    # the slopes' tridiagonal system by rows (lower, diag, upper); s holds its
    # right-hand side, then its solution
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
    return s


def spline_at(x: np.ndarray, y: np.ndarray, s: np.ndarray, t, orders=(0, 1)) -> list:
    """Value (order 0) and velocity (1), for each of orders, at t of the spline
    through rows y at knots x with slopes s (cubic_spline), end pieces extended:
    Horner's rule on PPoly coefficients of only the pieces the times fall in."""
    t = np.asarray(t, dtype=float)
    i = np.searchsorted(x[1:-1], t, side="right")  # each time's piece, 0 to n - 2
    j = np.flatnonzero(np.bincount(i.ravel(), minlength=len(x) - 1))  # the pieces used
    dx = (x[j + 1] - x[j]).reshape((-1,) + (1,) * (y.ndim - 1))
    dt, y0, s0, k = (t - x[i]).reshape(t.shape + dx.shape[1:]), y[j], s[j], np.searchsorted(j, i)
    slope = (y[j + 1] - y0) / dx
    t3 = (s0 + s[j + 1] - 2.0 * slope) / dx
    c0, c1 = t3 / dx, (slope - s0) / dx - t3
    out = [np.take(3.0 * c0 if n else c0, k, axis=0) for n in orders]  # Horner, in place
    for v, n in zip(out, orders):
        for c in (2.0 * c1, s0) if n else (c1, s0, y0):
            v *= dt
            v += c[k]
    return out


@dataclass
class GeodesicPath:
    """Discretely sampled geodesic and its cubic spline (none for one sample).

    points holds one flattened coefficient row per strictly increasing sample
    time ts; base is the ZRShape or PreShape the path starts from and carries
    any metadata needed to interpret the rows; _spline holds its samples and
    knot slopes (cubic_spline, spline_at), 2 n d numbers."""

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
        n = len(self.ts)
        self._spline = (self.points, cubic_spline(self.ts, self.points)) if n > 1 else None
        self._transports = {}  # transport_along's memo

    @property
    def n_samples(self) -> int:
        return len(self.ts)

    def point_at(self, t) -> np.ndarray:
        if self._spline is None:  # one row per time, as on a spline
            return np.tile(self.points[0], np.shape(t) + (1,))
        return spline_at(self.ts, *self._spline, t, (0,))[0]

    def velocity_at(self, t) -> np.ndarray:
        if self._spline is None:
            return np.zeros(np.shape(t) + self.v0.shape)
        return spline_at(self.ts, *self._spline, t, (1,))[0]

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


def parsed(value, what: str, kind: Callable | None = None):
    """A JSON value as a float array or as kind(value), else ParseError; kind
    int takes an integral number only, not a fraction, string or boolean."""
    try:
        if kind is int and (isinstance(value, bool) or value != int(value)):
            raise ValueError(f"{value!r} is not an integral number")
        return np.asarray(value, dtype=float) if kind is None else kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: not a number or an array of numbers ({exc})") from exc


def path_from_dict(d: dict) -> GeodesicPath:
    keys = ("space", "T", "base", "v0", "v_end", "samples")
    if missing := [key for key in keys if key not in d]:
        raise ParseError(f"path is missing {', '.join(missing)}")
    if not isinstance(d["base"], dict):
        raise ParseError("path base is not an object")
    rows, T, v0, v_end = (parsed(d[k], f"path {k}") for k in ("samples", "T", "v0", "v_end"))
    if not all(np.isfinite(x).all() for x in (T, rows, v0, v_end)):
        raise ParseError("T, v0, v_end or samples hold a non-finite number")
    if rows.ndim != 2 or not rows.size or rows[0, 0] != 0.0 or rows[-1, 0] != T:
        raise ParseError("sample times must run from 0 to T")
    base = space_ops(d["space"]).from_dict(d["base"])
    width = np.size(base.flat if d["space"] == "kendall" else base.coeffs)
    if width != rows.shape[1] - 1:
        raise ParseError(f"base has {width} coefficients, samples {rows.shape[1] - 1}")
    return GeodesicPath(d["space"], float(T), rows[:, 0], rows[:, 1:], v0, v_end, base=base)


@dataclass
class TransportResult:
    """Outcome of parallel transport along a path (see transport_along):
    w_end (one row per input row), its norm error before the final rescaling
    (norm_drift, one per row) and the largest RK4 step count a row took
    (steps, also when the path's transport matrices carried the vector)."""

    w_end: np.ndarray
    norm_drift: float | np.ndarray
    steps: int


# a Cholesky pivot of G is exact only to about sqrt(eps) of its row's norm
_GRAM_RESOLVED = 1e-3


def gram_factor(rows: np.ndarray, weights):
    """(X, pivots) of rows R (..., k, d) under diagonal weights W: X lower
    triangular with X^T X = G^-1, G = R W R^T (X's leading j x j block
    serves the first j rows), and the rows' Gram-Schmidt pivots.  From G's
    Cholesky factor where every pivot is above _GRAM_RESOLVED of its row's
    norm, else from a QR decomposition of the rows, which reads each pivot
    to rounding: dependent rows get pivots near 0 (NaN rows NaN ones) and X
    huge, inf or NaN, so callers check not (pivot > threshold) first.
    Batched."""
    gram = (rows * weights) @ rows.swapaxes(-1, -2)
    try:
        low = np.linalg.cholesky(gram)
        pivots = low.diagonal(0, -2, -1)
        resolved = (pivots > _GRAM_RESOLVED * np.sqrt(gram.diagonal(0, -2, -1))).all()
    except np.linalg.LinAlgError:
        resolved = False
    if not resolved:  # G = T^T T for the QR factor T of the rows' transpose
        low = np.linalg.qr((rows * np.sqrt(weights)).swapaxes(-1, -2),
                           mode="r").swapaxes(-1, -2)
        pivots = np.abs(low.diagonal(0, -2, -1))
    return _lower_inverse(low), pivots


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """L^-1 of lower triangular L (..., k, k), inf or NaN for a zero pivot:
    by LAPACK for one matrix, by forward substitution for a batch."""
    if low.ndim == 2:
        try:
            return np.linalg.inv(low)
        except np.linalg.LinAlgError:
            return np.full_like(low, np.nan)
    inv, eye = np.zeros_like(low), np.eye(low.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, e in enumerate(eye):  # L X = I, by rows
            inv[..., i, :] = ((e - low[..., i, None, :i] @ inv[..., :i, :])[..., 0, :]
                              / low[..., i, i, None])
    return inv


def gram_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G^-1 rhs for gram_factor's X, rhs (..., k) or (..., k, n): the duals
    Q = G^-1 R W for rhs = R W, the rate duals Q' for the rates R' W."""
    return factor.swapaxes(-1, -2) @ (factor @ rhs)


def remove_frame(vecs: np.ndarray, frame) -> np.ndarray:
    """vecs (..., d) less their parts in the span of the rows R (..., k, d)
    of frame = (R, Q), Q the rows' duals (gram_solve).  Batched."""
    rows, duals = frame
    coef = np.einsum("...kd,...d->...k", duals, vecs)
    return vecs - np.einsum("...k,...kd->...d", coef, rows)


def tangent_part(vecs: np.ndarray, frame, weights: np.ndarray, what: str) -> np.ndarray:
    """vecs (d,) or (m, d) less their parts along the rows of frame = (R, Q)
    (k, d), for vectors that should lie in the metric-orthogonal complement
    of R: raises ValueError(what) when a row strays from it by more than
    1e-6 * max(its norm, 1) in the metric norm (weights (d,)), and
    ValueError when a row holds a non-finite number."""
    norms = (vecs * vecs) @ weights  # squared
    if np.count_nonzero(np.isfinite(norms)) < np.size(norms):
        raise ValueError("vector holds a non-finite number")
    along = (vecs @ frame[1].T) @ frame[0]
    if np.count_nonzero((along * along) @ weights > 1e-12 * np.maximum(norms, 1.0)):
        raise ValueError(what)
    return vecs - along


def _step_maps(rows, duals, rate_duals, h):
    """C (n, 3k, d): RK4 step s with its end re-projection moves rows v by
    (v @ C[s].T) @ rows[2s:2s+3].reshape(3k, d).  With R the rows, Q their
    duals and P their rate duals (gram_solve) at the node (0), midpoint (h)
    and end (1), stage i adds -R^T X_i v: X1 = P0, X2 = Ph - h/2 (Ph R0^T)
    X1, X3 = Ph - h/2 (Ph Rh^T) X2; stage 4 lies along R1, which the
    re-projection v - (v Q1^T) R1 removes."""
    tr = partial(np.swapaxes, axis1=-1, axis2=-2)
    p = rate_duals
    r0, rh, q1 = rows[:-1:2], rows[1::2], duals[2::2]
    x2 = p[1::2] - (0.5 * h) * (p[1::2] @ tr(r0)) @ p[:-1:2]
    x3 = p[1::2] - (0.5 * h) * (p[1::2] @ tr(rh)) @ x2
    y0, yh = (-h / 6.0) * p[:-1:2], (-h / 3.0) * (x2 + x3)
    y1 = -q1 - (q1 @ tr(r0)) @ y0 - (q1 @ tr(rh)) @ yh
    return np.concatenate([y0, yh, y1], axis=-2)


def _ladder(length: float, steps_per_unit: int | None) -> list:
    """Step counts of a transport: an explicit steps_per_unit gives its one
    count; None gives the step-doubling ladder under STEPS_PER_UNIT's count
    rounded up to a multiple of 16 (that count over 16, 8, 4, 2 and 1, none
    below 8)."""
    if steps_per_unit is None:
        top = -(-max(8, math.ceil(STEPS_PER_UNIT * max(length, 1e-12))) // 16) * 16
        return [top >> k for k in range(4, -1, -1) if top >> k >= 8]
    return [max(8, math.ceil(steps_per_unit * max(length, 1e-12)))]


def _grid(T: float, top: int) -> np.ndarray:
    """The 2 top + 1 node and midpoint times of top RK4 steps over [0, T]."""
    return np.linspace(0.0, T, 2 * top + 1)


def _integrate(path: GeodesicPath, knots: tuple, frames: Callable, counts: list, block,
               compose: bool = False, first=None):
    """(n, block moved by n RK4 steps) for each count n, each twice the one
    before, the last the top.  Rows, duals and rate duals at the 2n+1 node and
    midpoint times of the spline of knots (samples, slopes) fill one table of the top's
    size (a lone count's are the table); a count's times are the next one's
    nodes, so later ones read midpoints.  first, when given, is the first
    count's table.  compose multiplies the step maps I + C[s]^T F[s] (d, d),
    F[s] = rows[2s:2s+3].reshape(3k, d), into one map by batched products of
    neighbours (_compose) instead of moving the block step by step."""
    top = counts[-1]
    times = _grid(path.T, top)
    table = None
    for n in counts:
        stride = top // n
        new = slice(0, None, stride) if table is None else slice(stride, None, 2 * stride)
        got = (first if table is None and first is not None
               else frames(*spline_at(path.ts, *knots, times[new])))
        if table is None and n < top:
            table = [np.empty((len(times),) + x.shape[1:]) for x in got]
        if table is None:  # a lone count's frames are the table
            table = got
        else:
            for x, y in zip(table, got):
                x[new] = y
        rows, duals, rate_duals = (x[::stride] for x in table)
        c = _step_maps(rows, duals, rate_duals, path.T / n)
        if compose:
            f = np.concatenate([rows[:-1:2], rows[1::2], rows[2::2]], axis=-2)
            yield n, block @ _compose(np.eye(f.shape[-1]) + c.swapaxes(-1, -2) @ f)
        else:
            v = block.copy()
            for s in range(n):
                v += (v @ c[s].T) @ rows[2 * s:2 * s + 3].reshape(-1, v.shape[1])
            yield n, v


def _compose(maps: np.ndarray) -> np.ndarray:
    """maps[0] @ maps[1] @ ... @ maps[-1] for maps (n, d, d), by batched
    products of neighbours: about log2(n) matmul calls."""
    while len(maps) > 1:
        odd = maps[-1] if len(maps) % 2 else None
        maps = maps[:-1:2] @ maps[1::2]
        if odd is not None:
            maps[-1] = maps[-1] @ odd
    return maps[0]


def _accept(counts, stack: np.ndarray, norms: np.ndarray, weights, top: int):
    """Per-row step doubling over stack (K, m, d), rows moved by counts[j]
    steps, each count twice the one before.  Row i takes stack[j, i] at the
    first j > 0 whose Richardson estimate |stack[j, i] - stack[j - 1, i]| / 15
    is at most _LADDER_TOL * norms[i] in the metric, and at the top count
    untested (a lone count is the top).  Returns (out, the largest count a
    row took, each row's estimate there (nan: none)), or None while a row
    has passed at no count."""
    if len(counts) == 1:
        return (stack[0], top, math.nan) if counts[0] == top else None
    diff = stack[1:] - stack[:-1]
    e = np.sqrt((diff * diff) @ weights) / 15.0
    ok = e <= _LADDER_TOL * norms
    if counts[-1] == top:
        ok[-1] = True
    first, rows = ok.argmax(axis=0), np.arange(len(norms))
    if np.count_nonzero(ok[first, rows]) == len(rows):
        return stack[first + 1, rows], counts[first.max() + 1], e[first, rows]
    return None


_SPAN_TOL = 1e-12  # a frame row's part off a span, relative to the row
_STRAY = "initial vector has a component along the excluded directions at the path start"


class _OffSpan(Exception):
    """A frame table leaves the span its transport runs in (_enter)."""


class _Route(NamedTuple):
    """A transport's per-path constants (transport_along): the ladder's step
    counts; the start's rows and duals (k, d), frame.  The vector moves in
    the full space (into None) or in span coordinates a = v @ into, its span
    part a @ back.  In the working coordinates: spline on (None: the path's
    _spline), frame tables frames, the metric weights; compose: step maps
    compose, in a span of r <= 3k coordinates (3k: one fused step's rank)."""

    counts: list
    frame: tuple
    frames: Callable
    on: tuple | None = None
    into: np.ndarray | None = None
    back: np.ndarray | None = None
    weights: np.ndarray | None = None

    @property
    def compose(self) -> bool:
        return self.into is not None and len(self.weights) <= 3 * len(self.frame[0])


def _start(path: GeodesicPath, frames: Callable) -> tuple:
    """The excluded rows and duals (k, d) at the path's start."""
    return tuple(x[0] for x in frames(path.points[:1], None)[:2])


def _route(path: GeodesicPath, frames, weights, steps_per_unit, subspace) -> _Route:
    """A transport's route: the ladder's counts, the start frame and the
    span hook's span at no table (_moved)."""
    length = float(np.sum(np.sqrt(np.diff(path.points, axis=0) ** 2 @ weights)))
    route = _Route(_ladder(length, steps_per_unit), _start(path, frames), frames)
    return _moved(route, subspace and subspace(path, None), frames, weights, path)


def _moved(route: _Route, span, frames: Callable, weights, path=None) -> _Route:
    """route in span = (B (d, r), carried, frames'), B orthonormal in the
    coordinates v * sqrt(weights), or in the full space of frames when span
    is None.  Every span offered is taken; a carried one's frames' read the
    path's _spline times the scaled B: the span samples' spline."""
    if span is None:
        return route._replace(frames=frames, on=None, into=None, back=None, weights=weights)
    basis, carried, on_frames = span
    scale = np.sqrt(weights)
    into, back = basis * scale[:, None], (basis / scale[:, None]).T
    return route._replace(frames=on_frames, into=into, back=back, weights=np.ones(basis.shape[1]),
                          on=tuple(x @ into for x in path._spline) if carried else None)


def _enter(table, basis: np.ndarray, scale: np.ndarray) -> list:
    """A frame table (R, Q, Q') in the span of basis B (d, r), orthonormal in
    the coordinates v * scale: (R * scale) @ B, (Q / scale) @ B and
    (Q' / scale) @ B.  Raises _OffSpan when a row's part off the span is
    above _SPAN_TOL of its norm there."""
    out = []
    for x in (table[0] * scale, table[1] / scale, table[2] / scale):
        flat = x.reshape(-1, x.shape[-1])  # one matrix product, not one per point
        y = flat @ basis
        off = flat - y @ basis.T
        if not ((off * off).sum(axis=-1) <= _SPAN_TOL ** 2 * (flat * flat).sum(axis=-1)).all():
            raise _OffSpan
        out.append(y.reshape(x.shape[:-1] + y.shape[-1:]))
    return out


def _climb(route: _Route, path: GeodesicPath, block, norms, kept=(), first=None,
           shown: int = 0, memo_key=None):
    """block, rows in route's working coordinates, as products at the kept
    counts, then integrated above them until every row has its count
    (_accept; first, when given, is the first integration's frame table):
    (out, the largest count a row took, (the counts read, block moved by
    each)).  Logs one DEBUG line per integration, which names shown rows."""
    counts, moved = (kept[0], block @ kept[1]) if kept else ((), np.empty((0,) + block.shape))
    top, done = route.counts[-1], len(counts)
    got = kept and _accept(counts, moved, norms, route.weights, top)
    if not got:
        for n, v in _integrate(path, route.on or path._spline, route.frames,
                               route.counts[done:], block, route.compose, first):
            counts, moved = counts + (n,), np.concatenate([moved, v[None]])
            if got := _accept(counts, moved, norms, route.weights, top):
                break
        _log.debug("transport %s: %d rows in %d of %d dimensions, steps %s%s, used %d, "
                   "worst estimate %.2e", memo_key, shown if route.compose else len(block),
                   block.shape[1], len(route.frame[0][0]), list(counts[done:]),
                   " composed" if route.compose else "", got[1], np.max(got[2]))
    return got[0], got[1], (counts, moved)


def _keep(path: GeodesicPath, route: _Route, weights, subspace, shown, memo_key):
    """(route, kept) of a path that keeps its transport.  A full-space route
    of a path with a span hook takes the hook's span of the frame table at
    the ladder's lowest count, which is also the integration's first table.
    kept is (counts, M (K, r, r)), the counts up the ladder until every row
    of the start's projector in the working coordinates has its count
    (_accept), M[j] those rows moved by counts[j] steps.  A table that
    leaves the span raises _OffSpan."""
    first = None
    if subspace and route.into is None:
        times = _grid(path.T, route.counts[-1])[::route.counts[-1] // route.counts[0]]
        first = route.frames(*spline_at(path.ts, *path._spline, times))
        span = subspace(path, first)
        route = _moved(route, span, route.frames, weights, path)
        first = _enter(first, span[0], np.sqrt(weights))  # in the span's coordinates
    start = route.frame if route.into is None else (route.frame[0] @ route.into,
                                                    route.frame[1] @ route.back.T)
    q = remove_frame(np.eye(len(route.weights)), start)
    return route, _climb(route, path, q, np.sqrt((q * q) @ route.weights), (), first, shown,
                         memo_key)[2]


def _carry(route: _Route, kept, path, weights, proj, norms, memo_key):
    """The one product function: the start projections proj (m, d) of rows
    of norms norms moved in the route's coordinates by the kept matrices,
    and integrated above them where a row passes at no kept count (_climb),
    the part off the span unchanged, and scaled back to norms: (out, norm
    drift, the largest count a row took).  Raises NumericalError when a row
    collapses or drifts beyond _DRIFT_LIMIT."""
    a = proj if route.into is None else proj @ route.into
    b, steps, _ = _climb(route, path, a, norms, kept, None, len(proj), memo_key)
    out = b if route.into is None else proj + (b - a) @ route.back  # off the span: unchanged
    out_norms, proj_norms = (np.sqrt((x * x) @ weights) for x in (out, proj))
    if np.count_nonzero(out_norms) < len(out_norms):  # zero rows stay zero; others collapsed
        zero = out_norms == 0.0
        if norms[zero].any():
            raise NumericalError("transported vector collapsed to zero")
        out_norms[zero] = proj_norms[zero] = 1.0
    drift = np.abs(out_norms / proj_norms - 1.0) * norms
    if np.count_nonzero(drift > _DRIFT_LIMIT):
        raise NumericalError(
            f"transport norm drift {drift.max():.3e} exceeds {_DRIFT_LIMIT:g}; "
            "refine the path sampling")
    return out * (norms / out_norms)[:, None], drift, int(steps)


def transport_along(path: GeodesicPath, w0: np.ndarray,
                    frames: Callable[[np.ndarray, np.ndarray | None], tuple],
                    weights: np.ndarray,
                    steps_per_unit: int | None, memo_key,
                    subspace: Callable | None = None) -> TransportResult:
    """Parallel transport of w0, a vector (d,) or a block of rows (m, d),
    along path by excluding a moving frame; any other shape raises
    DimensionMismatchError.

    frames maps path points (n, d) and the path velocity there (n, d, or
    None: no rates) to (R, Q, Q'): raw rows R (n, k, d) spanning the
    metric-orthogonal complement of the vector's space, their duals Q and
    rate duals Q' (gram_solve); weights is the metric's diagonal.  The
    vector v changes at -(v Q'^T) R.  RK4 on a node/midpoint grid: frames
    are read at the 2n+1 times from the path's spline, and each step,
    re-projection included, is one fused low-rank update of the block
    (_step_maps).  A row with a non-finite number, or with a part along R
    at the start (tangent_part), raises ValueError, also on a constant
    path, which returns w0 unchanged.

    steps_per_unit fixes the step count, n = max(8, ceil(steps_per_unit *
    length)); a value <= 0 raises ValueError.  None chooses it per row by
    step doubling (_ladder, _accept): each row takes the first count whose
    Richardson estimate is within 1e-9 of its norm, at most STEPS_PER_UNIT's
    count rounded up to a multiple of 16.  A row's result thus depends only
    on the path and the row: block rows, memo products and a fresh
    integration agree to rounding.  The one exception is a row whose
    estimate lies within rounding of the tolerance.  The routes round the
    estimate differently, so such a row can stop one count apart on two
    routes, and its results then differ by about the tolerance (1e-9
    relative, within 1e-8), and the ladder's transport is linear only to
    that level.  Each count's transport is linear, so w_end is scaled back
    to norm(w0) only at the end, and norm_drift is
    |norm(result) / norm(P0 w0) - 1| * norm(w0).

    subspace(path, table), the span hook, gives (B, carried, frames'): B (d, r)
    orthonormal in the coordinates v * sqrt(weights), spanning every excluded
    row and rate dual, and frame tables in coordinates a = v * sqrt(weights) @ B
    at the path's samples and knot slopes carried there (carried true: times
    the scaled B) or at full-space points.  It may return None at table None;
    it is then asked again, with the frame table at the ladder's lowest count,
    when the path keeps its transport, and a hook given a table returns a
    span.  A table row off the span by more than 1e-12 of its norm (_enter)
    sends the path to the full space.  Every span offered is taken: rows move
    as a; their parts off the span stay.  The step maps compose into one
    matrix iff r <= 3k (k excluded rows: one fused step's rank); the full
    space, also without a hook, steps.

    memo_key names the frame geometry: per key and steps_per_unit the path
    keeps (route, kept) from its first transport on: the route (ladder
    counts, span, start frame) and kept, () until built, then one matrix per
    count: the rows of the start's projector in the working coordinates
    moved up the ladder until every row has its count.  Composing step maps
    build it with the first vector; elsewhere the second vector builds it.
    Later vectors are products at the kept counts under the same per-row
    rule (_accept); rows that pass at none are integrated above them.  Every
    vector gets the start, collapse and drift checks.  Each integration logs
    one DEBUG line on the shape_transport logger.
    """
    if steps_per_unit is not None and steps_per_unit <= 0:
        raise ValueError(f"steps_per_unit must be positive, got {steps_per_unit}")
    w = np.asarray(w0, dtype=float)
    if w.shape[-1:] != path.points.shape[1:] or w.ndim > 2:
        raise DimensionMismatchError("vector size does not match the path")
    rows = w.reshape(-1, w.shape[-1])
    norms = np.sqrt((rows * rows) @ weights)
    if not np.count_nonzero(norms) or path.n_samples < 2 or path.T == 0.0:  # nothing moves
        if norms.any():  # a constant path: the start checks still hold
            tangent_part(rows, _start(path, frames), weights, _STRAY)
        return TransportResult(w.copy(), np.zeros(len(rows)) if w.ndim > 1 else 0.0, 0)

    memo, key = path._transports, (memo_key, steps_per_unit)
    route, kept = memo.get(key) or (_route(path, frames, weights, steps_per_unit, subspace), ())
    proj = tangent_part(rows, route.frame, weights, _STRAY)
    try:
        if not kept and (route.compose or key in memo):
            route, kept = _keep(path, route, weights, subspace, len(rows), memo_key)
        memo[key] = route, kept
        out, drift, steps = _carry(route, kept, path, weights, proj, norms, memo_key)
    except _OffSpan:  # a frame table left the span: build and keep the full space's
        route = _moved(route, None, frames, weights)
        route, kept = memo[key] = _keep(path, route, weights, None, len(rows), memo_key)
        out, drift, steps = _carry(route, kept, path, weights, proj, norms, memo_key)
    return TransportResult(out.reshape(w.shape), drift if w.ndim > 1 else float(drift[0]),
                           steps)
