"""Command line surface for the contour transport pipeline.

Subcommands cover ingestion of polygon files, geodesic computation,
transplantation of a stored growth path onto a new base shape, parallelity
comparison of two shape series, and the built-in rectangle/hexagon demos.
Exit codes: 0 success, 1 input error, 2 numeric non-convergence.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .contour_io import (
    Contour,
    atomic_write_text,
    contour_strip_svg,
    contour_to_zr,
    diameter,
    emit_contour_sequence,
    load_contour,
    zr_to_contour,
)
from .errors import NumericalError, ParseError, ShapeTransportError
from .kendall import (
    PreShape,
    exp_kendall,
    geodesic_kendall,
    helmertize,
    preshape_from_dict,
    preshape_to_dict,
    unhelmertize,
)
from .parallelity import compare_growth, mu, transplant_growth
from .paths import GeodesicPath, path_from_dict
from .polygons import (
    hexagon_sixgon,
    rectangle_sixgon,
    rectangle_sixgon_shifted,
    self_intersects,
)
from .zr_geodesic import (
    exp_map,
    fit_geodesic_to_series,
    geodesic_between,
    geodesic_between_invariant,
)
from .zr_space import (
    ZRTangent,
    closure_map,
    shape_from_dict,
    shape_to_dict,
)

SPACES = ("zr", "zr_invariant", "kendall")
MU_VARIANTS = ("arccos", "sqrt_arccos")
# reference correlations for the demo parallelity table
TABLE_RHO = (0.17, 0.12, 0.44, 0.083)


@dataclass
class RunConfig:
    """Knobs shared by every subcommand."""

    n_harmonics: int = 100
    space: str = "zr"
    mu_variant: str = "arccos"
    output_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        if self.n_harmonics <= 0:
            raise ValueError("n-harmonics must be positive")
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}")
        if self.mu_variant not in MU_VARIANTS:
            raise ValueError(f"unknown mu variant {self.mu_variant!r}")
        self.output_dir = Path(self.output_dir)


def _write_json(path: Path, payload: dict) -> Path:
    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _read_json(path: Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _load_shape_arg(path: Path, cfg: RunConfig, space: str | None = None):
    """Accept a shape JSON, a pre-shape JSON, or a raw contour file."""
    want_kendall = (space or cfg.space) == "kendall"
    p = Path(path)
    if p.suffix == ".json":
        d = _read_json(p)
        if "mat" in d:
            if not want_kendall:
                raise click.UsageError(
                    f"{p.name} holds landmarks; rerun with --space kendall")
            return preshape_from_dict(d)
        if "xy" in d:
            if want_kendall:
                raise click.UsageError(
                    f"{p.name} is a ZR shape; kendall needs contours or landmarks")
            return shape_from_dict(d)
    c = load_contour(p)
    if want_kendall:
        return helmertize(c.points)
    return contour_to_zr(c, n_harmonics=cfg.n_harmonics)


def _load_path(path: Path) -> GeodesicPath:
    d = _read_json(Path(path))
    if "space" not in d or "samples" not in d:
        raise click.UsageError(f"{path} is not a geodesic file")
    return path_from_dict(d)


def _connect(cfg: RunConfig, a, b) -> GeodesicPath:
    if cfg.space == "kendall":
        return geodesic_kendall(a, b)
    if cfg.space == "zr_invariant":
        return geodesic_between_invariant(a, b)
    return geodesic_between(a, b)


def _replay_growth(growth: GeodesicPath, target, v: np.ndarray) -> GeodesicPath:
    """Shoot the transported growth velocity from the target base."""
    if growth.space == "kendall":
        return exp_kendall(target, v, growth.T, n_samples=growth.n_samples)
    tan = ZRTangent(target.N, v, base=target,
                    horizontal=growth.space == "zr_invariant")
    return exp_map(target, tan, growth.T,
                   invariant=growth.space == "zr_invariant")


def _reconstruct(path_obj: GeodesicPath, t: float) -> Contour:
    p = path_obj.point_at(t)
    if path_obj.space == "kendall":
        pre = PreShape(path_obj.base.m, p.reshape(-1, path_obj.base.m))
        return Contour(unhelmertize(pre))
    return zr_to_contour(path_obj.base.with_coeffs(p))


def _shape_dict_at(path_obj: GeodesicPath, t: float) -> dict:
    p = path_obj.point_at(t)
    if path_obj.space == "kendall":
        return preshape_to_dict(PreShape(path_obj.base.m,
                                         p.reshape(-1, path_obj.base.m)))
    return shape_to_dict(path_obj.base.with_coeffs(p))


def _contours_along(path_obj: GeodesicPath, count: int):
    if path_obj.T <= 0.0:
        ts = np.array([0.0])
    else:
        ts = np.linspace(0.0, path_obj.T, count)
    return [_reconstruct(path_obj, float(t)) for t in ts], ts


def _warn_crossings(contours: list[Contour], label: str) -> list[int]:
    bad = [i for i, c in enumerate(contours) if self_intersects(c.points)]
    for i in bad:
        click.echo(f"warning: {label} sample {i} self-intersects", err=True)
    return bad


@click.group(context_settings={"auto_envvar_prefix": "SHAPE_TRANSPORT",
                               "help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="shape-transport")
@click.option("--n-harmonics", type=int, default=100, show_default=True,
              help="Fourier harmonics kept in the ZR representation.")
@click.option("--space", type=click.Choice(SPACES), default="zr",
              show_default=True, help="Shape space the pipeline runs in.")
@click.option("--mu-variant", type=click.Choice(MU_VARIANTS), default="arccos",
              show_default=True, help="Upper integration limit convention for mu.")
@click.option("--out", "output_dir", default=".", show_default=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="Directory receiving all outputs.")
@click.pass_context
def cli(ctx: click.Context, **kwargs) -> None:
    """Geodesics and parallel transport for closed planar contours."""
    try:
        ctx.obj = RunConfig(**kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@cli.command()
@click.argument("inputs", nargs=-1, type=click.Path(path_type=Path))
@click.pass_obj
def ingest(cfg: RunConfig, inputs: tuple[Path, ...]) -> int:
    """Convert contour files (csv or json) into ZR shape files."""
    if not inputs:
        raise click.UsageError("no input files given")
    written, failed = [], []
    for p in inputs:
        try:
            c = load_contour(p)
            shape = contour_to_zr(c, n_harmonics=cfg.n_harmonics)
            residual = abs(closure_map(shape))
            out = cfg.output_dir / f"{p.stem}.shape.json"
            _write_json(out, shape_to_dict(shape))
            click.echo(f"{p.name}: closure residual {residual:.3e} -> {out.name}")
            written.append({"input": str(p), "output": out.name,
                            "closure_residual": residual})
        except (ShapeTransportError, OSError, ValueError) as exc:
            click.echo(f"{p.name}: {exc}", err=True)
            failed.append({"input": str(p), "error": str(exc)})
    _write_json(cfg.output_dir / "manifest.json",
                {"shapes": written, "errors": failed})
    return 1 if failed else 0


@cli.command()
@click.argument("shape0", type=click.Path(path_type=Path))
@click.argument("shape1", type=click.Path(path_type=Path))
@click.option("--samples", type=int, default=7, show_default=True,
              help="Contours rendered in the SVG strip.")
@click.pass_obj
def geodesic(cfg: RunConfig, shape0: Path, shape1: Path, samples: int) -> None:
    """Connect two shapes by a geodesic; write JSON and an SVG strip."""
    if samples < 1:
        raise click.UsageError("--samples must be at least 1")
    a = _load_shape_arg(shape0, cfg)
    b = _load_shape_arg(shape1, cfg)
    path_obj = _connect(cfg, a, b)
    out = _write_json(cfg.output_dir / "geodesic.json", path_obj.to_dict())
    contours, _ = _contours_along(path_obj, samples)
    _warn_crossings(contours, "geodesic")
    atomic_write_text(cfg.output_dir / "geodesic.svg",
                      contour_strip_svg(contours))
    click.echo(f"distance {path_obj.T!r}; wrote {out.name} and geodesic.svg")


@cli.command()
@click.argument("geodesic_file", type=click.Path(path_type=Path))
@click.argument("target", type=click.Path(path_type=Path))
@click.option("--times", default="0,0.25,0.5,0.75,1", show_default=True,
              help="Comma list of fractions of the path length to sample.")
@click.pass_obj
def transplant(cfg: RunConfig, geodesic_file: Path, target: Path,
               times: str) -> None:
    """Parallel-translate a stored growth geodesic onto a new base shape."""
    try:
        fracs = [float(tok) for tok in times.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --times list: {exc}") from exc
    if not fracs:
        raise click.UsageError("empty --times list")
    path_obj = _load_path(geodesic_file)
    if path_obj.T <= 0.0:
        raise click.UsageError("stored geodesic has zero length")
    tgt = _load_shape_arg(target, cfg, space=path_obj.space)
    outcome = transplant_growth(path_obj, tgt)
    moved = _replay_growth(path_obj, tgt, outcome.transported)
    shapes, contours = [], []
    for f in fracs:
        t = f * moved.T
        contours.append(_reconstruct(moved, t))
        shapes.append(_shape_dict_at(moved, t))
    crossing = set(_warn_crossings(contours, "transplanted"))
    report = {
        "space": moved.space,
        "fractions": fracs,
        "times": [f * moved.T for f in fracs],
        "transport_norm_drift": outcome.transport.norm_drift,
        "transport_self_residual": outcome.self_residual,
        "self_intersecting": [i in crossing for i in range(len(fracs))],
        "shapes": shapes,
    }
    _write_json(cfg.output_dir / "transplant.json", report)
    emit_contour_sequence(contours, cfg.output_dir / "transplant.csv", fmt="csv")
    atomic_write_text(cfg.output_dir / "transplant.svg",
                      contour_strip_svg(contours))
    click.echo(f"transplanted {len(fracs)} samples -> transplant.json, "
               "transplant.svg, transplant.csv")


def _series_from_dir(d: Path):
    files = sorted(Path(d).glob("*.json"))
    if len(files) < 2:
        raise click.UsageError(f"{d}: need at least 2 shape files")
    shapes, times = [], []
    for i, f in enumerate(files):
        payload = _read_json(f)
        if "xy" not in payload:
            raise click.UsageError(f"{f} is not a ZR shape file")
        shapes.append(shape_from_dict(payload))
        m = re.search(r"(\d+(?:\.\d+)?)", f.stem)
        times.append(float(m.group(1)) if m else float(i))
    return shapes, times


@cli.command()
@click.argument("dir_a", type=click.Path(path_type=Path, file_okay=False,
                                         exists=True))
@click.argument("dir_b", type=click.Path(path_type=Path, file_okay=False,
                                         exists=True))
@click.pass_obj
def compare(cfg: RunConfig, dir_a: Path, dir_b: Path) -> None:
    """Fit growth geodesics to two shape series and measure parallelity."""
    if cfg.space == "kendall":
        raise click.UsageError("compare runs on the ZR spaces (zr, zr_invariant)")
    invariant = cfg.space == "zr_invariant"
    shapes_a, times_a = _series_from_dir(dir_a)
    shapes_b, times_b = _series_from_dir(dir_b)
    fit_a, res_a = fit_geodesic_to_series(shapes_a, times_a, invariant=invariant)
    fit_b, res_b = fit_geodesic_to_series(shapes_b, times_b, invariant=invariant)
    report, _ = compare_growth(fit_a, fit_b, mu_variant=cfg.mu_variant,
                               pair=(Path(dir_a).name, Path(dir_b).name))
    report["fit_residuals"] = {
        Path(dir_a).name: [float(r) for r in res_a],
        Path(dir_b).name: [float(r) for r in res_b],
    }
    _write_json(cfg.output_dir / "parallelity.json", report)
    click.echo(f"rho {report['rho']!r}  mu {report['mu']!r}  "
               f"(n={report['n']}, variant={report['mu_variant']})")


def _demo_table1(cfg: RunConfig) -> None:
    n = 2 * cfg.n_harmonics + 1
    rows = {v: [mu(r, n, variant=v) for r in TABLE_RHO] for v in MU_VARIANTS}
    click.echo(f"parallelity measure mu at n={n}")
    click.echo("rho:         " + "  ".join(f"{r:6.3f}" for r in TABLE_RHO))
    for v in MU_VARIANTS:
        click.echo(f"{v:12s} " + "  ".join(f"{x:6.3f}" for x in rows[v]))
    _write_json(cfg.output_dir / "table1.json",
                {"n": n, "rho": list(TABLE_RHO),
                 "mu_arccos": rows["arccos"],
                 "mu_sqrt_arccos": rows["sqrt_arccos"]})
    click.echo("wrote table1.json")


def _demo_strip(cfg: RunConfig, path_obj: GeodesicPath, name: str,
                count: int = 7):
    contours, _ = _contours_along(path_obj, count)
    _warn_crossings(contours, name)
    atomic_write_text(cfg.output_dir / f"{name}.svg",
                      contour_strip_svg(contours))
    return contours


def _demo_hexagon_zr(cfg: RunConfig) -> None:
    s1 = contour_to_zr(rectangle_sixgon(), cfg.n_harmonics)
    s2 = contour_to_zr(rectangle_sixgon_shifted(), cfg.n_harmonics)
    s3 = contour_to_zr(hexagon_sixgon(), cfg.n_harmonics)
    panel_a = geodesic_between(s1, s3)
    panel_b = geodesic_between(s2, s3)
    panel_c = _replay_growth(panel_a, s2, transplant_growth(panel_a, s2).transported)
    report = {"space": "zr_sigma", "panels": {}}
    for name, path_obj in (("demo_zr_a", panel_a), ("demo_zr_b", panel_b),
                           ("demo_zr_c", panel_c)):
        contours = _demo_strip(cfg, path_obj, name)
        gaps = [c.closure_gap / diameter(c.points) for c in contours]
        report["panels"][name] = {"distance": path_obj.T,
                                  "max_gap_over_diameter": max(gaps)}
        click.echo(f"{name}: distance {path_obj.T:.6f}, "
                   f"worst closure gap {max(gaps):.2e} of diameter")
    _write_json(cfg.output_dir / "demo_zr.json", report)
    click.echo("wrote demo_zr.json and 3 SVG strips")


def _demo_hexagon_kendall(cfg: RunConfig) -> None:
    p1 = helmertize(rectangle_sixgon().points)
    p2 = helmertize(rectangle_sixgon_shifted().points)
    p3 = helmertize(hexagon_sixgon().points)
    panel_a = geodesic_kendall(p1, p3)
    panel_b = geodesic_kendall(p2, p3)
    panel_c = _replay_growth(panel_a, p2, transplant_growth(panel_a, p2).transported)
    report = {"space": "kendall", "panels": {}}
    for name, path_obj in (("demo_kendall_a", panel_a),
                           ("demo_kendall_b", panel_b),
                           ("demo_kendall_c", panel_c)):
        contours = _demo_strip(cfg, path_obj, name)
        fracs = np.linspace(0.0, 1.0, len(contours))
        report["panels"][name] = {
            "distance": path_obj.T,
            "landmarks": [{"fraction": float(f),
                           "points": c.points.tolist()}
                          for f, c in zip(fracs, contours)],
        }
        click.echo(f"{name}: distance {path_obj.T:.6f}")
    _write_json(cfg.output_dir / "demo_kendall.json", report)
    click.echo("wrote demo_kendall.json and 3 SVG strips")


@cli.command()
@click.argument("which", type=click.Choice(["hexagon_zr", "hexagon_kendall",
                                            "table1"]))
@click.pass_obj
def demo(cfg: RunConfig, which: str) -> None:
    """Rebuild the rectangle-to-hexagon figures or the parallelity table."""
    if which == "table1":
        _demo_table1(cfg)
    elif which == "hexagon_zr":
        _demo_hexagon_zr(cfg)
    else:
        _demo_hexagon_kendall(cfg)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit code mapping."""
    try:
        rv = cli.main(args=argv, prog_name="shape-transport",
                      standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except NumericalError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 2
    except (ShapeTransportError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return int(rv) if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
