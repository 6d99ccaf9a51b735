"""End-to-end checks of the command line pipeline (invoked in process)."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import oracles as orc
import pytest
from conftest import random_preshape, random_sigma_shape

from shape_transport import (
    NumericalError,
    exp_kendall,
    geodesic_kendall,
    helmertize,
    mu,
    path_from_dict,
    shape_from_dict,
    shape_to_dict,
    unhelmertize,
)
from shape_transport import cli as cli_mod
from shape_transport import zr_geodesic
from shape_transport.cli import TABLE_RHO, main
from shape_transport.contour_io import Contour
from shape_transport.kendall import PreShape, preshape_to_dict
from shape_transport.polygons import (
    hexagon_sixgon,
    rectangle_sixgon,
    rectangle_sixgon_shifted,
)

SQUARE_CSV = "x,y\n0,0\n1,0\n1,1\n0,1\n"


def _write_square(d, name="square.csv"):
    p = d / name
    p.write_text(SQUARE_CSV)
    return p


def _write_with_nan(path, d, key):
    """d as JSON, its first number under key (rows of numbers) made NaN."""
    d[key][0][0] = math.nan
    path.write_text(json.dumps(d))


def _write_polygon(d, contour, name):
    p = d / name
    rows = "\n".join(f"{x},{y}" for x, y in contour.points)
    p.write_text("x,y\n" + rows + "\n")
    return p


class TestIngest:
    def test_happy_path(self, tmp_path):
        src = _write_square(tmp_path)
        rc = main(["--out", str(tmp_path), "ingest", str(src)])
        assert rc == 0
        shape = shape_from_dict(json.loads((tmp_path / "square.shape.json").read_text()))
        assert shape.N == 100
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["errors"] == []
        assert manifest["shapes"][0]["output"] == "square.shape.json"
        assert manifest["shapes"][0]["closure_residual"] < 1e-6

    def test_partial_failure(self, tmp_path):
        good = _write_square(tmp_path)
        bad = tmp_path / "broken.csv"
        bad.write_text("x,y\n0,0\nnope,1\n")
        rc = main(["--out", str(tmp_path), "ingest", str(good), str(bad)])
        assert rc == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["shapes"]) == 1
        assert len(manifest["errors"]) == 1
        assert "broken" in manifest["errors"][0]["input"]

    def test_no_inputs(self, tmp_path):
        assert main(["--out", str(tmp_path), "ingest"]) == 1

    def test_missing_file(self, tmp_path):
        rc = main(["--out", str(tmp_path), "ingest", str(tmp_path / "ghost.csv")])
        assert rc == 1


class TestGeodesic:
    def test_between_contours(self, tmp_path):
        a = _write_polygon(tmp_path, rectangle_sixgon(), "rect.csv")
        b = _write_polygon(tmp_path, hexagon_sixgon(), "hex.csv")
        rc = main(["--out", str(tmp_path), "geodesic", str(a), str(b)])
        assert rc == 0
        d = json.loads((tmp_path / "geodesic.json").read_text())
        assert d["space"] == "zr_sigma"
        assert d["T"] > 0.0
        svg = (tmp_path / "geodesic.svg").read_text()
        assert svg.count("<polygon") == 7

    def test_json_roundtrip_bit_identical(self, tmp_path):
        a = _write_polygon(tmp_path, rectangle_sixgon(), "rect.csv")
        b = _write_polygon(tmp_path, hexagon_sixgon(), "hex.csv")
        main(["--out", str(tmp_path), "geodesic", str(a), str(b)])
        text = (tmp_path / "geodesic.json").read_text()
        redump = json.dumps(path_from_dict(json.loads(text)).to_dict(),
                            indent=2) + "\n"
        assert redump == text

    def test_identical_endpoints_single_glyph(self, tmp_path):
        a = _write_square(tmp_path)
        rc = main(["--out", str(tmp_path), "geodesic", str(a), str(a)])
        assert rc == 0
        svg = (tmp_path / "geodesic.svg").read_text()
        assert svg.count("<polygon") == 1

    def test_kendall_space(self, tmp_path):
        a = _write_polygon(tmp_path, rectangle_sixgon(), "rect.csv")
        b = _write_polygon(tmp_path, hexagon_sixgon(), "hex.csv")
        rc = main(["--out", str(tmp_path), "--space", "kendall",
                   "geodesic", str(a), str(b)])
        assert rc == 0
        d = json.loads((tmp_path / "geodesic.json").read_text())
        assert d["space"] == "kendall"

    def test_shape_file_in_kendall_mode_rejected(self, tmp_path):
        src = _write_square(tmp_path)
        main(["--out", str(tmp_path), "ingest", str(src)])
        shape_file = tmp_path / "square.shape.json"
        rc = main(["--out", str(tmp_path), "--space", "kendall",
                   "geodesic", str(shape_file), str(shape_file)])
        assert rc == 1

    def test_shape_file_missing_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"xy": [[0.1, 0.2]]}))
        rc = main(["--out", str(tmp_path), "geodesic", str(bad), str(bad)])
        assert rc == 1
        assert "shape is missing N, x0" in capsys.readouterr().err

    def test_shape_file_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("3\n")
        rc = main(["--out", str(tmp_path), "geodesic", str(bad), str(bad)])
        assert rc == 1
        assert "the JSON is not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("space, write, why", [
        ("zr", lambda p: p.mkdir(), "bad.json: [Errno"),
        ("zr", lambda p: p.write_text("{nope"), "bad.json: invalid JSON"),
        ("zr", lambda p: p.write_text(json.dumps(preshape_to_dict(random_preshape(1)))),
         "bad.json holds landmarks; rerun with --space kendall"),
        ("zr", lambda p: _write_with_nan(p, shape_to_dict(random_sigma_shape(1)), "xy"),
         "shape xy holds a non-finite number"),
        ("kendall", lambda p: _write_with_nan(p, preshape_to_dict(random_preshape(1)), "mat"),
         "pre-shape mat holds a non-finite number"),
    ], ids=["unreadable", "invalid_json", "landmarks_under_zr", "xy_nan", "mat_nan"])
    def test_bad_shape_file(self, tmp_path, capsys, space, write, why):
        bad = tmp_path / "bad.json"
        write(bad)
        rc = main(["--out", str(tmp_path), "--space", space,
                   "geodesic", str(bad), str(bad)])
        assert rc == 1
        assert why in capsys.readouterr().err

    def test_zero_samples_refused(self, tmp_path, capsys):
        a = _write_square(tmp_path)
        rc = main(["--out", str(tmp_path), "geodesic", "--samples", "0", str(a), str(a)])
        assert rc == 1
        assert "--samples must be at least 1" in capsys.readouterr().err

    def test_preshape_file_missing_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mat": [[0.5, 0.5], [0.5, -0.5]]}))
        rc = main(["--out", str(tmp_path), "--space", "kendall",
                   "geodesic", str(bad), str(bad)])
        assert rc == 1
        assert "pre-shape is missing m, k" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise NumericalError("synthetic blowup")

        monkeypatch.setattr(zr_geodesic, "geodesic_between", boom)
        a = _write_polygon(tmp_path, rectangle_sixgon(), "rect.csv")
        b = _write_polygon(tmp_path, hexagon_sixgon(), "hex.csv")
        assert main(["--out", str(tmp_path), "geodesic", str(a), str(b)]) == 2


class TestTransplant:
    @pytest.fixture()
    def stored_geodesic(self, tmp_path):
        a = _write_polygon(tmp_path, rectangle_sixgon(), "rect.csv")
        b = _write_polygon(tmp_path, hexagon_sixgon(), "hex.csv")
        assert main(["--out", str(tmp_path), "geodesic", str(a), str(b)]) == 0
        return tmp_path / "geodesic.json"

    def test_reproduces_growth_on_same_base(self, tmp_path, stored_geodesic):
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant",
                   str(stored_geodesic), str(target)])
        assert rc == 0
        rep = json.loads((tmp_path / "transplant.json").read_text())
        assert rep["space"] == "zr_sigma"
        assert rep["fractions"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert len(rep["shapes"]) == 5
        assert rep["transport_norm_drift"] < 1e-8
        # same base: the final transplanted shape is the original endpoint
        src = path_from_dict(json.loads(stored_geodesic.read_text()))
        end = shape_from_dict(rep["shapes"][-1])
        gap = np.abs(end.coeffs - src.points[-1])
        assert gap.max() < 1e-4
        assert (tmp_path / "transplant.svg").exists()
        csv_rows = (tmp_path / "transplant.csv").read_text().strip().splitlines()
        assert csv_rows[0] == "index,x,y"
        assert len(csv_rows) == 1 + 5 * 1024
        for row in csv_rows[1:]:
            i, x, y = row.split(",")
            assert 0 <= int(i) < 5
            float(x), float(y)

    def test_self_transport_residual_reported(self, tmp_path, stored_geodesic):
        target = _write_polygon(tmp_path, hexagon_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant",
                   str(stored_geodesic), str(target)])
        assert rc == 0
        rep = json.loads((tmp_path / "transplant.json").read_text())
        assert 0.0 <= rep["transport_self_residual"] < 1e-3

    def test_transport_steps_reported(self, tmp_path, stored_geodesic):
        # the count the step-doubling ladder chose, at most the fixed
        # 256-per-unit count rounded up to a multiple of 16
        target = _write_polygon(tmp_path, hexagon_sixgon(), "target.csv")
        assert main(["--out", str(tmp_path), "transplant",
                     str(stored_geodesic), str(target)]) == 0
        steps = json.loads((tmp_path / "transplant.json").read_text())["transport_steps"]
        assert isinstance(steps, int) and steps >= 8

    def test_one_crossing_test_per_contour(self, tmp_path, stored_geodesic,
                                           monkeypatch):
        calls = []

        def counting(points):
            calls.append(len(points))
            return False

        monkeypatch.setattr(cli_mod, "self_intersects", counting)
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant",
                   str(stored_geodesic), str(target)])
        assert rc == 0
        assert len(calls) == 5
        rep = json.loads((tmp_path / "transplant.json").read_text())
        assert rep["self_intersecting"] == [False] * 5

    def test_quotient_growth_replays_on_shifted_target(self, tmp_path):
        # the transported velocity is horizontal at the connecting path's end,
        # the target's initial point shifted into alignment, not at the target
        a = _write_polygon(tmp_path, rectangle_sixgon(), "rect.csv")
        b = _write_polygon(tmp_path, hexagon_sixgon(), "hex.csv")
        target = _write_polygon(tmp_path, rectangle_sixgon_shifted(), "shifted.csv")
        head = ["--out", str(tmp_path), "--space", "zr_invariant"]
        assert main(head + ["geodesic", str(a), str(b)]) == 0
        assert main(head + ["transplant", str(tmp_path / "geodesic.json"),
                            str(target)]) == 0
        rep = json.loads((tmp_path / "transplant.json").read_text())
        assert rep["space"] == "zr_invariant"
        assert len(rep["shapes"]) == 5

    def test_kendall_growth_replays_on_rotated_base(self, tmp_path):
        # onto its own base rotated by 0.9 rad, a growth replays to its own
        # end: the replay starts at the target aligned to the growth base
        x, y = random_preshape(1, k=6), random_preshape(2, k=6)
        c, s = np.cos(0.9), np.sin(0.9)
        rotated = PreShape(2, x.mat @ np.array([[c, s], [-s, c]]))
        files = []
        for name, p in (("x", x), ("y", y), ("rotated", rotated)):
            files.append(tmp_path / f"{name}.json")
            files[-1].write_text(json.dumps(preshape_to_dict(p)))
        head = ["--out", str(tmp_path), "--space", "kendall"]
        assert main(head + ["geodesic", str(files[0]), str(files[1])]) == 0
        growth = json.loads((tmp_path / "geodesic.json").read_text())
        assert main(head + ["transplant", str(tmp_path / "geodesic.json"),
                            str(files[2])]) == 0
        rep = json.loads((tmp_path / "transplant.json").read_text())
        end = np.ravel(rep["shapes"][-1]["mat"])
        assert np.linalg.norm(end - growth["samples"][-1][1:]) <= 1e-12

    def test_custom_times(self, tmp_path, stored_geodesic):
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant", "--times", "0,1",
                   str(stored_geodesic), str(target)])
        assert rc == 0
        rep = json.loads((tmp_path / "transplant.json").read_text())
        assert rep["fractions"] == [0.0, 1.0]

    def test_bad_times(self, tmp_path, stored_geodesic):
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant", "--times", "a,b",
                   str(stored_geodesic), str(target)])
        assert rc == 1

    def test_empty_times(self, tmp_path, stored_geodesic, capsys):
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant", "--times", ",",
                   str(stored_geodesic), str(target)])
        assert rc == 1
        assert "empty --times list" in capsys.readouterr().err

    @pytest.mark.parametrize("times", ["0,3", "-0.5,1", "0,nan", "inf"])
    def test_times_outside_the_path_refused(self, tmp_path, stored_geodesic, capsys,
                                           monkeypatch, times):
        # refused before the transport runs; a fraction outside [0, 1] would
        # read the path spline's extrapolated end pieces
        def no_numerics(*args, **kwargs):
            raise AssertionError("transport ran")

        monkeypatch.setattr(cli_mod, "transplant_growth", no_numerics)
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant", "--times", times,
                   str(stored_geodesic), str(target)])
        assert rc == 1
        assert "--times fractions must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "transplant.json").exists()

    def test_zero_length_geodesic(self, tmp_path):
        a = _write_square(tmp_path)
        main(["--out", str(tmp_path), "geodesic", str(a), str(a)])
        target = _write_polygon(tmp_path, hexagon_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant",
                   str(tmp_path / "geodesic.json"), str(target)])
        assert rc == 1

    def test_non_geodesic_file(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"hello\": 1}\n")
        target = _write_square(tmp_path)
        rc = main(["--out", str(tmp_path), "transplant",
                   str(bogus), str(target)])
        assert rc == 1

    def test_geodesic_file_without_base_or_velocities(self, tmp_path, capsys):
        # space and samples alone used to end in a KeyError traceback
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"space": "kendall", "samples": [[0, 1, 2]],
                                       "T": 1.0}))
        target = tmp_path / "target.json"
        target.write_text(json.dumps(preshape_to_dict(random_preshape(1))))
        rc = main(["--out", str(tmp_path), "--space", "kendall", "transplant",
                   str(partial), str(target)])
        assert rc == 1
        assert "is not a geodesic file" in capsys.readouterr().err


    def test_target_missing_keys(self, tmp_path, stored_geodesic, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"xy": [[0.1, 0.2]]}))
        rc = main(["--out", str(tmp_path), "transplant", str(stored_geodesic), str(bad)])
        assert rc == 1
        assert "shape is missing N, x0" in capsys.readouterr().err

    def test_truncated_velocity(self, tmp_path, stored_geodesic, capsys):
        d = json.loads(stored_geodesic.read_text())
        d["v0"] = d["v0"][:-1]
        stored_geodesic.write_text(json.dumps(d))
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant", str(stored_geodesic), str(target)])
        assert rc == 1
        assert "v0 and v_end must match" in capsys.readouterr().err

    def test_kendall_base_of_another_size(self, tmp_path, capsys):
        # a 4-landmark base under 5-landmark samples used to end in NumPy's
        # "all input arrays must have the same shape"
        d = geodesic_kendall(random_preshape(2, k=5), random_preshape(3, k=5)).to_dict()
        d["base"] = preshape_to_dict(random_preshape(4, k=4))
        stored = tmp_path / "geodesic.json"
        stored.write_text(json.dumps(d))
        target = tmp_path / "target.json"
        target.write_text(json.dumps(preshape_to_dict(random_preshape(5, k=4))))
        rc = main(["--out", str(tmp_path), "--space", "kendall", "transplant",
                   str(stored), str(target)])
        assert rc == 1
        assert f"{stored} is not a geodesic file (base has 6" in capsys.readouterr().err

    def test_sample_times_not_increasing(self, tmp_path, stored_geodesic, capsys):
        d = json.loads(stored_geodesic.read_text())
        rows = d["samples"]
        rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
        stored_geodesic.write_text(json.dumps(d))
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant", str(stored_geodesic), str(target)])
        assert rc == 1
        assert (f"usage error: {stored_geodesic} is not a geodesic file (spline knots "
                "must be at least 2 and strictly increasing)") in capsys.readouterr().err

    @pytest.mark.parametrize("edit, why", [
        # T five times the sample span would replay five times the growth
        (lambda d: d.update(T=5.0 * d["T"]), "sample times must run from 0 to T"),
        (lambda d: d["samples"][0].__setitem__(0, 0.01), "sample times must run from 0 to T"),
        (lambda d: d.update(T=math.inf), "hold a non-finite number"),
        (lambda d: d["v0"].__setitem__(3, math.nan), "hold a non-finite number"),
        (lambda d: d["base"]["xy"][0].__setitem__(0, math.nan),
         "shape xy holds a non-finite number"),
    ], ids=["T_five_spans", "first_time_not_0", "T_infinite", "v0_nan", "base_xy_nan"])
    def test_times_and_numbers_checked(self, tmp_path, stored_geodesic, capsys, edit, why):
        d = json.loads(stored_geodesic.read_text())
        edit(d)
        stored_geodesic.write_text(json.dumps(d))  # writes Infinity and NaN
        target = _write_polygon(tmp_path, rectangle_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "transplant", str(stored_geodesic), str(target)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"usage error: {stored_geodesic} is not a geodesic file (" in err
        assert why in err

    def test_truncation_order_mismatch(self, tmp_path, stored_geodesic, capsys):
        target = _write_polygon(tmp_path, hexagon_sixgon(), "target.csv")
        rc = main(["--out", str(tmp_path), "--n-harmonics", "50", "transplant",
                   str(stored_geodesic), str(target)])
        assert rc == 1
        assert "truncation orders differ" in capsys.readouterr().err


WRONG_TYPES = pytest.mark.parametrize("bad", [None, {}, [1, 2]], ids=["null", "object", "list"])


class TestWrongJsonTypes:
    """A JSON null, object or list where numbers belong is an input error:
    exit 1 and one error line, where it used to end in a TypeError
    traceback."""

    @staticmethod
    def _one_error_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err

    @WRONG_TYPES
    @pytest.mark.parametrize("key", ["m", "k", "mat"])
    def test_preshape_file(self, tmp_path, capsys, key, bad):
        d = dict(preshape_to_dict(random_preshape(1)), **{key: bad})
        pre = tmp_path / "pre.json"
        pre.write_text(json.dumps(d))
        rc = main(["--out", str(tmp_path), "--space", "kendall", "geodesic", str(pre), str(pre)])
        assert rc == 1
        self._one_error_line(capsys)

    @WRONG_TYPES
    @pytest.mark.parametrize("key", ["N", "x0", "xy", "length", "base_angle"])
    def test_shape_file(self, tmp_path, capsys, key, bad):
        d = dict(shape_to_dict(random_sigma_shape(1)), **{key: bad})
        shape = tmp_path / "shape.json"
        shape.write_text(json.dumps(d))
        rc = main(["--out", str(tmp_path), "geodesic", str(shape), str(shape)])
        assert rc == 1
        self._one_error_line(capsys)

    @WRONG_TYPES
    @pytest.mark.parametrize("key", ["T", "v0", "v_end", "samples", "sample_row", "base"])
    def test_geodesic_file(self, tmp_path, capsys, key, bad):
        d = geodesic_kendall(random_preshape(2, k=5), random_preshape(3, k=5)).to_dict()
        if key == "sample_row":
            d["samples"][1][3] = bad
        else:
            d[key] = bad
        stored = tmp_path / "geodesic.json"
        stored.write_text(json.dumps(d))
        target = tmp_path / "target.json"
        target.write_text(json.dumps(preshape_to_dict(random_preshape(4, k=5))))
        rc = main(["--out", str(tmp_path), "--space", "kendall", "transplant",
                   str(stored), str(target)])
        assert rc == 1
        self._one_error_line(capsys)

    @pytest.mark.parametrize("points", [
        None, {}, {"a": 1}, [[0, 0], [1, {}], [1, 1], [0, 1]], [[0, 0], [1, None], [1, 1]]],
        ids=["null", "object", "keyed_object", "object_coordinate", "null_coordinate"])
    def test_ingest_goes_on_past_a_bad_contour(self, tmp_path, capsys, points):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": points}))
        good = _write_square(tmp_path, "good.csv")
        rc = main(["--out", str(tmp_path), "ingest", str(bad), str(good)])
        assert rc == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [e["input"] for e in manifest["errors"]] == [str(bad)]
        assert [s["output"] for s in manifest["shapes"]] == ["good.shape.json"]
        self._one_error_line(capsys)


def _series_dir(root, name, base, other, fracs):
    d = root / name
    d.mkdir()
    from shape_transport import contour_to_zr, geodesic_between
    s0 = contour_to_zr(base)
    s1 = contour_to_zr(other)
    path = geodesic_between(s0, s1, n_samples=9)
    from shape_transport.zr_space import shape_to_dict
    for i, f in enumerate(fracs):
        pt = path.point_at(f * path.T)
        payload = shape_to_dict(s0.with_coeffs(pt))
        (d / f"t{i}.json").write_text(json.dumps(payload))
    return d


class TestCompare:
    def test_identical_series(self, tmp_path):
        a = _series_dir(tmp_path, "a", rectangle_sixgon(),
                             hexagon_sixgon(), (0.0, 0.2, 0.4))
        b = _series_dir(tmp_path, "b", rectangle_sixgon(),
                             hexagon_sixgon(), (0.0, 0.2, 0.4))
        rc = main(["--out", str(tmp_path), "compare", str(a), str(b)])
        assert rc == 0
        rep = json.loads((tmp_path / "parallelity.json").read_text())
        assert rep["rho"] == pytest.approx(1.0, abs=1e-6)
        assert rep["mu"] == pytest.approx(1.0, abs=1e-6)
        assert rep["pair"] == ["a", "b"]
        assert set(rep["fit_residuals"]) == {"a", "b"}
        assert max(rep["fit_residuals"]["a"]) < 1e-4

    def test_series_file_missing_keys(self, tmp_path, capsys):
        a = _series_dir(tmp_path, "a", rectangle_sixgon(),
                             hexagon_sixgon(), (0.0, 0.2, 0.4))
        (a / "t3.json").write_text(json.dumps({"xy": [[0.1, 0.2]]}))
        rc = main(["--out", str(tmp_path), "compare", str(a), str(a)])
        assert rc == 1
        assert "shape is missing N, x0" in capsys.readouterr().err

    def test_series_ordered_by_time_not_name(self, tmp_path):
        # t10.json sorts before t2.json by name; the series runs t2, t10, t30,
        # its shapes at path fractions proportional to those times
        a = _series_dir(tmp_path, "a", rectangle_sixgon(),
                             hexagon_sixgon(), (0.02, 0.1, 0.3))
        for old, new in (("t2", "t30"), ("t1", "t10"), ("t0", "t2")):
            (a / f"{old}.json").rename(a / f"{new}.json")
        rc = main(["--out", str(tmp_path), "compare", str(a), str(a)])
        assert rc == 0
        rep = json.loads((tmp_path / "parallelity.json").read_text())
        assert max(rep["fit_residuals"]["a"]) < 1e-4

    def test_series_with_equal_times_refused(self, tmp_path, capsys):
        a = _series_dir(tmp_path, "a", rectangle_sixgon(),
                             hexagon_sixgon(), (0.0, 0.2, 0.4))
        (a / "t1.json").rename(a / "t02.json")  # time 2, as t2.json
        rc = main(["--out", str(tmp_path), "compare", str(a), str(a)])
        assert rc == 1
        assert "t02.json and t2.json both have time 2" in capsys.readouterr().err

    def test_kendall_refused(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        rc = main(["--out", str(tmp_path), "--space", "kendall", "compare",
                   str(tmp_path / "a"), str(tmp_path / "b")])
        assert rc == 1

    def test_sparse_dir_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        rc = main(["--out", str(tmp_path), "compare",
                   str(tmp_path / "a"), str(tmp_path / "b")])
        assert rc == 1


class TestDemo:
    def test_table1(self, tmp_path):
        rc = main(["--out", str(tmp_path), "demo", "table1"])
        assert rc == 0
        t = json.loads((tmp_path / "table1.json").read_text())
        assert t["n"] == 201
        assert t["rho"] == list(TABLE_RHO)
        published = (0.99, 0.96, 1.0, 0.88)
        for got, want in zip(t["mu_arccos"], published):
            assert got == pytest.approx(want, abs=0.015)
        for r, got in zip(TABLE_RHO, t["mu_arccos"]):
            assert got == pytest.approx(mu(r, 201), abs=1e-12)

    def test_hexagon_kendall(self, tmp_path):
        rc = main(["--out", str(tmp_path), "demo", "hexagon_kendall"])
        assert rc == 0
        keys = [f"demo_kendall_{c}" for c in "abc"]
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == [f"{k}.svg" for k in keys]
        panels = json.loads((tmp_path / "demo_kendall.json").read_text())["panels"]
        a, c = panels[keys[0]], panels[keys[2]]
        assert abs(c["distance"] - a["distance"]) <= 1e-12
        # panel c by an independent route: growth (a) moved by the closed-form
        # planar transport, shot from the connecting path's end and sampled at
        # 7 even times as the strip samples it
        rect, shifted, hexa = (helmertize(p.points) for p in
                               (rectangle_sixgon(), rectangle_sixgon_shifted(),
                                hexagon_sixgon()))
        growth = geodesic_kendall(rect, hexa)
        connecting = geodesic_kendall(rect, shifted)
        start = PreShape(2, connecting.points[-1].reshape(-1, 2))
        replay = exp_kendall(start, orc.transport_kendall_m2(connecting, growth.v0),
                             growth.T)
        times = np.linspace(0.0, replay.T, 7)
        assert len(c["landmarks"]) == 7
        for panel, t in zip(c["landmarks"], times):
            want = unhelmertize(start.with_coeffs(replay.point_at(t)))
            assert np.abs(np.array(panel["points"]) - want).max() <= 1e-12


class TestConfig:
    def test_env_var_controls_harmonics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHAPE_TRANSPORT_N_HARMONICS", "40")
        src = _write_square(tmp_path)
        assert main(["--out", str(tmp_path), "ingest", str(src)]) == 0
        shape = shape_from_dict(
            json.loads((tmp_path / "square.shape.json").read_text()))
        assert shape.N == 40

    def test_invalid_option_value(self, tmp_path):
        assert main(["--n-harmonics", "0", "--out", str(tmp_path),
                     "demo", "table1"]) == 1

    def test_unknown_space(self, tmp_path):
        assert main(["--space", "hyperbolic", "--out", str(tmp_path),
                     "demo", "table1"]) == 1

    def test_steps_option_removed(self, tmp_path):
        # no integrator reads a step count from the command line
        assert main(["--steps", "8", "--out", str(tmp_path),
                     "demo", "table1"]) == 1

    def test_grid_option_removed(self, tmp_path):
        # the quadrature grid follows --n-harmonics
        assert main(["--grid", "2048", "--out", str(tmp_path),
                     "demo", "table1"]) == 1

    def test_high_order_ingest(self, tmp_path):
        src = _write_square(tmp_path)
        rc = main(["--n-harmonics", "512", "--out", str(tmp_path), "ingest", str(src)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["shapes"][0]["closure_residual"] <= 1e-12

    def test_import_loads_no_spline_modules(self):
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        code = ("import sys, shape_transport, shape_transport.cli; "
                "print(sorted(m for m in ('scipy.interpolate', 'scipy.spatial') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_commands_import_no_scipy(self, tmp_path):
        # the package imports no scipy module; mu has its closed form
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        a = _write_polygon(tmp_path, rectangle_sixgon(), "rect.csv")
        b = _write_polygon(tmp_path, hexagon_sixgon(), "hex.csv")
        series = [str(_series_dir(tmp_path, name, rectangle_sixgon(), hexagon_sixgon(),
                                  (0.0, 0.2, 0.4))) for name in ("sa", "sb")]
        out = ["--out", str(tmp_path)]
        runs = [out + ["ingest", str(a), str(b)],
                out + ["geodesic", str(a), str(b)],
                out + ["transplant", str(tmp_path / "geodesic.json"), str(b)],
                out + ["demo", "hexagon_zr"],
                out + ["demo", "table1"],
                out + ["compare"] + series]
        code = ("import sys; from shape_transport.cli import main; "
                f"codes = [main(argv) for argv in {runs!r}]; "
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"

    def test_output_dir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested"
        assert main(["--out", str(out), "demo", "table1"]) == 0
        assert (out / "table1.json").exists()


class TestLeafScale:
    def test_ingest_and_geodesic_at_600_harmonics(self, tmp_path):
        # seeded leaf-like contours of 5000 and 5200 vertices; the geodesic's
        # self-intersection tests run on 8192-point reconstructions.  This
        # took about 2 s on a 2-core Xeon, and 46 s while the crossing test
        # was all pairs.  The ingest's traced peak, one complex (N, edges)
        # array, is about 50 MB.
        rng = np.random.default_rng(5)
        files = []
        for name, n in (("a", 5000), ("b", 5200)):
            phi = 2.0 * np.pi * np.arange(n) / n
            r = 1.0 + 0.25 * np.cos(phi) + 0.006 * np.cos(20 * phi)
            for k in range(2, 7):
                r += rng.uniform(0.0, 0.04) * np.cos(k * phi + rng.uniform(0.0, 2.0 * np.pi))
            files.append(_write_polygon(
                tmp_path, Contour(np.stack([1.6 * r * np.cos(phi), r * np.sin(phi)], axis=1)),
                f"{name}.csv"))
        head = ["--n-harmonics", "600", "--out", str(tmp_path)]
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            assert main(head + ["ingest"] + [str(f) for f in files]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6
        assert main(head + ["geodesic", str(tmp_path / "a.shape.json"),
                            str(tmp_path / "b.shape.json")]) == 0
        assert time.perf_counter() - t0 < 20.0
        d = json.loads((tmp_path / "geodesic.json").read_text())
        assert d["T"] > 0.0 and len(d["base"]["xy"]) == 600
