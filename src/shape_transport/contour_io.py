"""Polygonal contour ingestion and reconstruction.

A contour is a closed polygon given by its vertices in order.  Ingestion
computes the turning function of the arc-length parameterized curve
(normalized to total length 2*pi) and its Fourier coefficients by exact
per-edge integrals; reconstruction integrates the unit tangent back into a
polyline.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateContourError, OpenCurveError, ParseError
from .zr_space import (
    DEFAULT_N,
    ZRShape,
    closure_map,
    eval_on_grid,
    grid_size,
    project_to_sigma,
    s_grid,
)


@dataclass(frozen=True)
class Contour:
    """Closed polygon; points are the vertices in order, closing edge implicit."""

    points: np.ndarray
    name: str | None = None
    closure_gap: float | None = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
            raise DegenerateContourError(
                f"need at least 3 planar points, got array of shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ParseError("contour contains non-finite coordinates")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    @property
    def perimeter(self) -> float:
        e = np.roll(self.points, -1, axis=0) - self.points
        return float(np.hypot(e[:, 0], e[:, 1]).sum())


# ---------------------------------------------------------------------------
# parsing

def contour_from_dict(d: dict) -> Contour:
    if "points" not in d:
        raise ParseError("contour JSON must contain a 'points' array")
    return Contour(np.asarray(d["points"], dtype=float), d.get("name"))


def load_contour(path: str | Path) -> Contour:
    """Read a contour from .csv (header x,y) or .json ({"points": [[x,y],...]})."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        c = _parse_json(text, path.stem)
    elif path.suffix.lower() == ".csv":
        c = _parse_csv(text, path.stem)
    else:
        # unknown extension: try JSON first, then CSV
        try:
            c = _parse_json(text, path.stem)
        except ParseError:
            c = _parse_csv(text, path.stem)
    # normalize to counterclockwise orientation up front
    return Contour(_validated_polygon(c), c.name)


def _parse_json(text: str, name: str) -> Contour:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON contour: {exc}") from exc
    if not isinstance(d, dict):
        raise ParseError("contour JSON must be an object")
    c = contour_from_dict(d)
    if c.name is None:
        return Contour(c.points, name)
    return c


def _parse_csv(text: str, name: str) -> Contour:
    rows = list(csv.reader(text.splitlines()))
    rows = [r for r in rows if r and any(f.strip() for f in r)]
    if not rows:
        raise ParseError("empty contour CSV")
    header = [f.strip().lower() for f in rows[0]]
    if header[:2] != ["x", "y"]:
        raise ParseError("contour CSV must start with an 'x,y' header")
    pts = []
    for i, r in enumerate(rows[1:], start=2):
        try:
            pts.append((float(r[0]), float(r[1])))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad CSV row {i}: {r}") from exc
    return Contour(np.asarray(pts), name)


# ---------------------------------------------------------------------------
# polygon geometry

def _edges(points: np.ndarray):
    e = np.roll(points, -1, axis=0) - points
    lengths = np.hypot(e[:, 0], e[:, 1])
    return e, lengths


def _validated_polygon(contour: Contour) -> np.ndarray:
    """Check edges and orientation; returns vertices with winding +1 about the
    centroid, first vertex kept first."""
    p = np.asarray(contour.points, dtype=float)
    e, lengths = _edges(p)
    scale = float(np.max(np.abs(p - p.mean(axis=0)))) or 1.0
    if np.any(lengths <= 1e-12 * scale):
        raise DegenerateContourError("contour has a zero-length edge")

    w = winding_number(p, p.mean(axis=0))
    if w == -1:
        # reverse orientation, keep the initial vertex in place
        p = np.concatenate([p[:1], p[1:][::-1]])
        w = winding_number(p, p.mean(axis=0))
    if w != 1:
        raise DegenerateContourError(
            f"winding number about the centroid is {w}, need a simple closed curve")
    return p


def winding_number(points: np.ndarray, about: np.ndarray) -> int:
    rel = points - np.asarray(about, dtype=float)
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(d.sum() / (2.0 * np.pi)))


def _turning_data(points: np.ndarray):
    """Arc-length breakpoints (in s units), per-edge turning values C_j, the raw
    first-edge angle and the perimeter."""
    e, lengths = _edges(points)
    perimeter = lengths.sum()
    s_break = np.concatenate([[0.0], np.cumsum(lengths)]) * 2.0 * np.pi / perimeter
    phi_raw = np.arctan2(e[:, 1], e[:, 0])
    d = np.diff(phi_raw)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    phi = phi_raw[0] + np.concatenate([[0.0], np.cumsum(d)])
    c_vals = phi - phi_raw[0]
    return s_break, c_vals, float(phi_raw[0]), float(perimeter)


# ---------------------------------------------------------------------------
# contour -> coefficients

def contour_to_zr(contour: Contour, n_harmonics: int = DEFAULT_N) -> ZRShape:
    """Fourier coefficients of the polygon's turning function, exactly integrated
    edge by edge, then projected onto the closed-curve manifold.

    The constant dropped when re-slaving x0 is absorbed into base_angle so the
    reconstruction is not rotated.
    """
    p = _validated_polygon(contour)
    s_break, c_vals, phi0, perimeter = _turning_data(p)
    a, b = s_break[:-1], s_break[1:]
    n = np.arange(1, n_harmonics + 1, dtype=float)[:, None]

    sin_b, sin_a = np.sin(n * b), np.sin(n * a)
    cos_b, cos_a = np.cos(n * b), np.cos(n * a)
    int_cos = (sin_b - sin_a) / n
    int_s_cos = (b * sin_b - a * sin_a) / n + (cos_b - cos_a) / n**2
    int_sin = (cos_a - cos_b) / n
    int_s_sin = (a * cos_a - b * cos_b) / n + (sin_b - sin_a) / n**2

    x = np.sum(c_vals * int_cos - int_s_cos, axis=1) / np.pi
    y = np.sum(c_vals * int_sin - int_s_sin, axis=1) / np.pi
    x0_integral = float(np.sum(c_vals * (b - a) - (b**2 - a**2) / 2.0) / (2.0 * np.pi))

    coeffs = np.empty(2 * n_harmonics + 1)
    coeffs[1::2] = x
    coeffs[2::2] = y
    coeffs[0] = -x.sum()
    base_angle = phi0 + (x0_integral - coeffs[0])

    raw = ZRShape(n_harmonics, coeffs, length=perimeter, base_angle=base_angle)
    return project_to_sigma(raw)


# ---------------------------------------------------------------------------
# coefficients -> contour

def zr_to_contour(theta: ZRShape, m: int | None = None) -> Contour:
    """Integrate the unit tangent into a polyline of m points, by default
    grid_size(theta.N).

    Refuses coefficients whose closure residual exceeds 1e-6; the trapezoid
    integration's wrap-around gap is reported on the result.
    """
    m = grid_size(theta.N) if m is None else m
    if m < 16:
        raise ValueError("need at least 16 reconstruction points")
    residual = abs(closure_map(theta))
    if residual > 1e-6:
        raise OpenCurveError(
            f"closure residual {residual:.3e} exceeds 1e-6, tangent does not close")

    grid = eval_on_grid(theta.coeffs, m)
    ang = grid + theta.base_angle + s_grid(m)
    zdot = np.exp(1j * ang) * (theta.length / (2.0 * np.pi))
    ds = 2.0 * np.pi / m
    # trapezoid antiderivative, wrapping back to s = 2*pi
    zd_ext = np.concatenate([zdot, zdot[:1]])
    z = np.concatenate([[0.0], np.cumsum((zd_ext[1:] + zd_ext[:-1]) / 2.0) * ds])
    gap = abs(z[-1] - z[0])
    pts = np.stack([z[:m].real, z[:m].imag], axis=1)
    return Contour(pts, name=None, closure_gap=float(gap))


# ---------------------------------------------------------------------------
# comparison helpers

def resample_closed(points: np.ndarray, m: int) -> np.ndarray:
    """Uniform arc-length resampling of a closed polyline."""
    p = np.asarray(points, dtype=float)
    closed = np.concatenate([p, p[:1]], axis=0)
    seg = np.hypot(*np.diff(closed, axis=0).T)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    total = t[-1]
    tq = np.linspace(0.0, total, m, endpoint=False)
    xs = np.interp(tq, t, closed[:, 0])
    ys = np.interp(tq, t, closed[:, 1])
    return np.stack([xs, ys], axis=1)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    from scipy.spatial import cKDTree

    ta, tb = cKDTree(a), cKDTree(b)
    d_ab = tb.query(a)[0].max()
    d_ba = ta.query(b)[0].max()
    return float(max(d_ab, d_ba))


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull, counterclockwise, without collinear points
    (Andrew's monotone chain)."""
    p = np.unique(np.asarray(points, dtype=float), axis=0)  # sorted by x, then y
    if len(p) < 3:
        return p

    def chain(pts):
        out = []
        for x, y in pts:
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                    - (out[-1][1] - out[-2][1]) * (x - out[-2][0])) <= 0.0:
                out.pop()
            out.append((x, y))
        return out[:-1]

    rows = p.tolist()
    return np.array(chain(rows) + chain(rows[::-1]))


def diameter(points: np.ndarray) -> float:
    """Largest distance between two of the points, exactly: the farthest pair
    is a pair of hull vertices antipodal across some hull edge (rotating
    calipers).  Edge k's antipodal vertex starts the first edge whose angle
    reaches edge k's angle + pi; its neighbours are tried too, so rounding
    near a tie loses no pair."""
    h = _convex_hull(points)
    m = len(h)
    if m < 3:
        d = h[-1] - h[0]
    else:
        e = np.roll(h, -1, axis=0) - h
        ang = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))  # increasing: the hull is convex
        far = np.searchsorted(np.concatenate([ang, ang + 2.0 * np.pi]), ang + np.pi)
        ends = np.arange(m)[:, None, None] + np.array([0, 1])[:, None]
        d = h[ends % m] - h[(far[:, None, None] + np.array([-1, 0, 1])) % m]
    return float(np.sqrt(np.max(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])))


# ---------------------------------------------------------------------------
# artifact emission

def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to path via a temp file in the same directory."""
    import os
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def contour_strip_svg(contours: list[Contour], cell: float = 140.0,
                      pad: float = 12.0) -> str:
    """Render contours side by side, bullet at the initial point."""
    if not contours:
        raise ValueError("empty contour sequence")
    spans = []
    for c in contours:
        lo = c.points.min(axis=0)
        hi = c.points.max(axis=0)
        spans.append((lo, hi, max(hi - lo)))
    scale = (cell - 2.0 * pad) / max(sp[2] for sp in spans)
    width = cell * len(contours)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{cell:.0f}" viewBox="0 0 {width:.0f} {cell:.0f}">',
        f'<rect width="{width:.0f}" height="{cell:.0f}" fill="white"/>',
    ]
    for i, (c, (lo, hi, _)) in enumerate(zip(contours, spans)):
        mid = (lo + hi) / 2.0
        cx = cell * (i + 0.5)
        # svg y axis points down
        xy = (c.points - mid) * scale
        px = cx + xy[:, 0]
        py = cell / 2.0 - xy[:, 1]
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polygon points="{pts}" fill="none" stroke="black" '
                     'stroke-width="1.2"/>')
        parts.append(f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3" '
                     'fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_contour_sequence(contours: list[Contour], path: str | Path,
                          fmt: str = "svg") -> Path:
    """Write a contour sequence as an SVG strip or a flat CSV."""
    if not contours:
        raise ValueError("empty contour sequence")
    if fmt == "svg":
        return atomic_write_text(path, contour_strip_svg(contours))
    if fmt == "csv":
        lines = ["index,x,y"]
        for i, c in enumerate(contours):
            for x, y in c.points:
                lines.append(f"{i},{float(x)!r},{float(y)!r}")
        return atomic_write_text(path, "\n".join(lines) + "\n")
    raise ValueError(f"unknown format {fmt!r}")
