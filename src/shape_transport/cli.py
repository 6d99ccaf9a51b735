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
)
from .errors import NumericalError, ParseError, ShapeTransportError
from .parallelity import TransplantOutcome, compare_growth, mu, transplant_growth
from .paths import GeodesicPath, path_from_dict, space_ops
from .polygons import (
    hexagon_sixgon,
    rectangle_sixgon,
    rectangle_sixgon_shifted,
    self_intersects,
)
from .zr_space import closure_map, shape_to_dict

SPACES = ("zr", "zr_invariant", "kendall")
MU_VARIANTS = ("arccos", "sqrt_arccos")
# reference correlations for the demo parallelity table
TABLE_RHO = (0.17, 0.12, 0.44, 0.083)


@dataclass
class RunConfig:
    """Knobs shared by every subcommand; click checks their values.  space is
    a space tag (--space zr is zr_sigma)."""

    n_harmonics: int = 100
    space: str = "zr_sigma"
    mu_variant: str = "arccos"
    output_dir: Path = field(default_factory=Path)


def _write_json(path: Path, payload: dict) -> Path:
    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _read_json(path: Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ParseError(f"{path}: the JSON is not an object")
    return d


def _load_shape_arg(path: Path, cfg: RunConfig, space: str | None = None):
    """Accept a shape JSON, a pre-shape JSON, or a raw contour file."""
    tag = space or cfg.space
    ops = space_ops(tag)
    p = Path(path)
    if p.suffix == ".json":
        d = _read_json(p)
        if "mat" in d and tag != "kendall":
            raise click.UsageError(f"{p.name} holds landmarks; rerun with --space kendall")
        if "xy" in d and tag == "kendall":
            raise click.UsageError(
                f"{p.name} is a ZR shape; kendall needs contours or landmarks")
        if "mat" in d or "xy" in d:
            return ops.from_dict(d)
    return ops.from_contour(load_contour(p), cfg.n_harmonics)


def _load_path(path: Path) -> GeodesicPath:
    d = _read_json(Path(path))
    try:
        return path_from_dict(d)
    except (ParseError, ValueError) as exc:  # ValueError: e.g. sample times not increasing
        raise click.UsageError(f"{path} is not a geodesic file ({exc})") from exc


def _replay_growth(growth: GeodesicPath, target,
                   outcome: TransplantOutcome) -> GeodesicPath:
    """Shoot the transported growth velocity from the end of the connecting
    path, the target's representative at which the velocity lives."""
    start = target.with_coeffs(outcome.connecting.points[-1])
    return space_ops(growth.space).shoot(start, outcome.transported, growth.T,
                                         growth.n_samples)


def _render_strip(path_obj: GeodesicPath, times, label: str, svg: Path):
    """Sample the path's shapes at times (a list, or a count of even times;
    one time, 0, on a zero-length path), turn them into contours, warn about
    each one that self-intersects and write their SVG strip.  Returns the
    shapes, the contours and the indices of the crossing ones."""
    if isinstance(times, int):
        times = np.linspace(0.0, path_obj.T, times) if path_obj.T > 0.0 else [0.0]
    shapes = [path_obj.base.with_coeffs(p)
              for p in path_obj.point_at(np.asarray(times, dtype=float))]
    contours = [space_ops(path_obj.space).to_contour(s) for s in shapes]
    crossing = [i for i, c in enumerate(contours) if self_intersects(c.points)]
    for i in crossing:
        click.echo(f"warning: {label} sample {i} self-intersects", err=True)
    atomic_write_text(svg, contour_strip_svg(contours))
    return shapes, contours, crossing


@click.group(context_settings={"auto_envvar_prefix": "SHAPE_TRANSPORT",
                               "help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="shape-transport")
@click.option("--n-harmonics", type=click.IntRange(min=1), default=100,
              show_default=True, help="Fourier harmonics kept in the ZR representation.")
@click.option("--space", type=click.Choice(SPACES), default="zr",
              show_default=True, help="Shape space the pipeline runs in.")
@click.option("--mu-variant", type=click.Choice(MU_VARIANTS), default="arccos",
              show_default=True, help="Upper integration limit convention for mu.")
@click.option("--out", "output_dir", default=".", show_default=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="Directory receiving all outputs.")
@click.pass_context
def cli(ctx: click.Context, space: str, **kwargs) -> None:
    """Geodesics and parallel transport for closed planar contours."""
    ctx.obj = RunConfig(space="zr_sigma" if space == "zr" else space, **kwargs)


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
    path_obj = space_ops(cfg.space).connect(a, b)
    out = _write_json(cfg.output_dir / "geodesic.json", path_obj.to_dict())
    _render_strip(path_obj, samples, "geodesic", cfg.output_dir / "geodesic.svg")
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
    if bad := [f for f in fracs if not 0.0 <= f <= 1.0]:  # NaN fails the test too
        raise click.UsageError(f"--times fractions must lie in [0, 1], got {bad}")
    path_obj = _load_path(geodesic_file)
    if path_obj.T <= 0.0:
        raise click.UsageError("stored geodesic has zero length")
    tgt = _load_shape_arg(target, cfg, space=path_obj.space)
    outcome = transplant_growth(path_obj, tgt)
    moved = _replay_growth(path_obj, tgt, outcome)
    along, contours, crossing = _render_strip(
        moved, [f * moved.T for f in fracs], "transplanted",
        cfg.output_dir / "transplant.svg")
    report = {
        "space": moved.space,
        "fractions": fracs,
        "times": [f * moved.T for f in fracs],
        "transport_norm_drift": outcome.transport.norm_drift,
        "transport_self_residual": outcome.self_residual,
        "transport_steps": outcome.transport.steps,
        "self_intersecting": [i in crossing for i in range(len(fracs))],
        "shapes": [space_ops(moved.space).to_dict(s) for s in along],
    }
    _write_json(cfg.output_dir / "transplant.json", report)
    emit_contour_sequence(contours, cfg.output_dir / "transplant.csv")
    click.echo(f"transplanted {len(fracs)} samples -> transplant.json, "
               "transplant.svg, transplant.csv")


def _series_from_dir(d: Path, from_dict):
    """A directory's shapes, read by from_dict, and times in time order: every
    JSON file but ingest's manifest.json.  A file's time is the first number
    in its name, else its place in name order."""
    files = [f for f in sorted(Path(d).glob("*.json")) if f.name != "manifest.json"]
    if len(files) < 2:
        raise click.UsageError(f"{d}: need at least 2 shape files")
    found = [re.search(r"(\d+(?:\.\d+)?)", f.stem) for f in files]
    timed = sorted((float(m.group(1)) if m else float(i), f)
                   for i, (m, f) in enumerate(zip(found, files)))
    for (t, f), (t_next, f_next) in zip(timed, timed[1:]):
        if t == t_next:
            raise click.UsageError(f"{f.name} and {f_next.name} both have time {t:g}")
    return [from_dict(_read_json(f)) for _, f in timed], [t for t, _ in timed]


@cli.command()
@click.argument("dir_a", type=click.Path(path_type=Path, file_okay=False,
                                         exists=True))
@click.argument("dir_b", type=click.Path(path_type=Path, file_okay=False,
                                         exists=True))
@click.pass_obj
def compare(cfg: RunConfig, dir_a: Path, dir_b: Path) -> None:
    """Fit growth geodesics to two shape series and measure parallelity."""
    ops = space_ops(cfg.space)
    if ops.fit is None:
        raise click.UsageError("compare runs on the ZR spaces (zr, zr_invariant)")
    fit_a, res_a = ops.fit(*_series_from_dir(dir_a, ops.from_dict))
    fit_b, res_b = ops.fit(*_series_from_dir(dir_b, ops.from_dict))
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


def _closure_gaps(contours: list[Contour]) -> tuple[dict, str]:
    """ZR panels: the worst closure gap of the reconstructed contours."""
    gap = max(c.closure_gap / diameter(c.points) for c in contours)
    return {"max_gap_over_diameter": gap}, f", worst closure gap {gap:.2e} of diameter"


def _landmarks(contours: list[Contour]) -> tuple[dict, str]:
    """Kendall panels: the landmark configurations along the strip."""
    fracs = np.linspace(0.0, 1.0, len(contours))
    return {"landmarks": [{"fraction": float(f), "points": c.points.tolist()}
                          for f, c in zip(fracs, contours)]}, ""


def _demo_hexagon(cfg: RunConfig, tag: str, name: str, panel_data) -> None:
    """The rectangle-to-hexagon figure in one space: (a) the growth from the
    rectangle, (b) the geodesic from the shifted rectangle, (c) growth (a)
    transplanted onto the shifted rectangle."""
    ops = space_ops(tag)
    s1, s2, s3 = (ops.from_contour(c, cfg.n_harmonics) for c in
                  (rectangle_sixgon(), rectangle_sixgon_shifted(), hexagon_sixgon()))
    panel_a = ops.connect(s1, s3)
    panels = (panel_a, ops.connect(s2, s3),
              _replay_growth(panel_a, s2, transplant_growth(panel_a, s2)))
    report = {"space": tag, "panels": {}}
    for letter, path_obj in zip("abc", panels):
        key = f"{name}_{letter}"
        _, contours, _ = _render_strip(path_obj, 7, key, cfg.output_dir / f"{key}.svg")
        data, note = panel_data(contours)
        report["panels"][key] = {"distance": path_obj.T, **data}
        click.echo(f"{key}: distance {path_obj.T:.6f}{note}")
    _write_json(cfg.output_dir / f"{name}.json", report)
    click.echo(f"wrote {name}.json and 3 SVG strips")


@cli.command()
@click.argument("which", type=click.Choice(["hexagon_zr", "hexagon_kendall",
                                            "table1"]))
@click.pass_obj
def demo(cfg: RunConfig, which: str) -> None:
    """Rebuild the rectangle-to-hexagon figures or the parallelity table."""
    if which == "table1":
        _demo_table1(cfg)
    elif which == "hexagon_zr":
        _demo_hexagon(cfg, "zr_sigma", "demo_zr", _closure_gaps)
    else:
        _demo_hexagon(cfg, "kendall", "demo_kendall", _landmarks)


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
