"""Contour ingestion, Fourier conversion, reconstruction, emission."""

import json

import numpy as np
import pytest

import oracles as orc
from conftest import circle_contour, square_contour
from shape_transport import (
    Contour,
    DegenerateContourError,
    OpenCurveError,
    ParseError,
    ZRShape,
    closure_map,
    contour_to_zr,
    diameter,
    emit_contour_sequence,
    hexagon_sixgon,
    load_contour,
    rectangle_sixgon,
    zr_to_contour,
)
from shape_transport.contour_io import atomic_write_text, contour_strip_svg, winding_number

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def write_csv(path, pts):
    path.write_text("x,y\n" + "\n".join(f"{x},{y}" for x, y in pts) + "\n")


class TestLoadContour:
    def test_square_csv(self, tmp_path):
        f = tmp_path / "sq.csv"
        write_csv(f, SQUARE)
        c = load_contour(f)
        assert c.perimeter == pytest.approx(4.0)
        assert np.allclose(c.points, SQUARE)

    def test_clockwise_square_reversed(self, tmp_path):
        f = tmp_path / "cw.csv"
        write_csv(f, SQUARE[::-1])
        c = load_contour(f)
        assert c.perimeter == pytest.approx(4.0)
        assert winding_number(c.points, c.points.mean(axis=0)) == 1
        # first vertex stays first
        assert np.allclose(c.points[0], SQUARE[-1])

    def test_two_points_degenerate(self, tmp_path):
        f = tmp_path / "two.csv"
        write_csv(f, SQUARE[:2])
        with pytest.raises(DegenerateContourError):
            load_contour(f)

    def test_json_roundtrip(self, tmp_path):
        f = tmp_path / "sq.json"
        f.write_text(json.dumps({"points": SQUARE, "name": "sq"}))
        c = load_contour(f)
        assert c.perimeter == pytest.approx(4.0)

    def test_malformed_rows(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x,y\n0,0\n1,zap\n1,1\n")
        with pytest.raises(ParseError, match="row 3"):
            load_contour(f)

    def test_missing_header(self, tmp_path):
        f = tmp_path / "noh.csv"
        f.write_text("0,0\n1,0\n1,1\n")
        with pytest.raises(ParseError):
            load_contour(f)

    def test_zero_edge(self, tmp_path):
        f = tmp_path / "z.csv"
        write_csv(f, [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(DegenerateContourError):
            load_contour(f)

    def test_figure_eight_rejected(self, tmp_path):
        f = tmp_path / "bow.csv"
        write_csv(f, [(0, 0), (1, 1), (1, 0), (0, 1)])
        with pytest.raises(DegenerateContourError):
            load_contour(f)

    def test_unknown_extension_sniffs(self, tmp_path):
        f = tmp_path / "sq.dat"
        f.write_text(json.dumps({"points": SQUARE}))
        assert load_contour(f).perimeter == pytest.approx(4.0)

    def test_unknown_extension_falls_back_to_csv(self, tmp_path):
        f = tmp_path / "sq.txt"
        write_csv(f, SQUARE)
        assert np.allclose(load_contour(f).points, SQUARE)

    @pytest.mark.parametrize("text, why", [
        ('{"points": ', "invalid JSON contour"),
        ("[1, 2]", "contour JSON must be an object"),
        ('{"vertices": []}', "contour JSON must contain a 'points' array"),
    ], ids=["invalid", "not_an_object", "no_points"])
    def test_bad_json_contour(self, tmp_path, text, why):
        f = tmp_path / "bad.json"
        f.write_text(text)
        with pytest.raises(ParseError, match=why):
            load_contour(f)

    def test_empty_csv(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("\n , \n")
        with pytest.raises(ParseError, match="empty contour CSV"):
            load_contour(f)

    def test_non_finite_vertex(self, tmp_path):
        f = tmp_path / "nan.csv"
        write_csv(f, SQUARE[:3] + [(float("nan"), 1.0)])
        with pytest.raises(ParseError, match="non-finite coordinates"):
            load_contour(f)


class TestContourToZR:
    def test_circle_is_origin(self):
        sh = contour_to_zr(circle_contour(256))
        assert np.abs(sh.coeffs).max() < 1e-3

    def test_square_harmonics(self, square_zr):
        c = square_zr.coeffs
        n = np.arange(1, 101)
        off = n % 4 != 0
        assert np.abs(c[1::2][off]).max() < 1e-10
        assert np.abs(c[2::2][off]).max() < 1e-10
        # frozen values: x_n = 0, y_{4m} = 1/(2m)
        quarters = n[~off]
        assert np.abs(c[1::2][~off]).max() < 1e-10
        assert np.allclose(c[2::2][~off], 2.0 / quarters, atol=1e-10)

    def test_rectangle_even_harmonics(self, rect_zr):
        c = rect_zr.coeffs
        n = np.arange(1, 101)
        odd = n % 2 != 0
        assert np.abs(c[1::2][odd]).max() < 1e-10
        assert np.abs(c[2::2][odd]).max() < 1e-10

    @pytest.mark.parametrize("poly", [square_contour, rectangle_sixgon,
                                      hexagon_sixgon])
    def test_against_quadrature_oracle(self, poly):
        c = poly()
        sh = contour_to_zr(c)
        x0i, xs, ys, base = orc.fourier_coeffs_gl(c.points, 100)
        assert np.abs(sh.coeffs[1::2] - xs).max() < 1e-10
        assert np.abs(sh.coeffs[2::2] - ys).max() < 1e-10
        # the constant dropped by x0 slaving reappears in base_angle
        assert sh.base_angle == pytest.approx(base + (x0i - sh.coeffs[0]),
                                              abs=1e-10)

    def test_square_base_angle(self, square_zr):
        assert square_zr.base_angle == pytest.approx(-np.pi / 4, abs=1e-10)

    def test_perimeter_recorded(self, rect_zr):
        assert rect_zr.length == pytest.approx(6.0)


class TestZRToContour:
    def test_zero_shape_is_unit_circle(self):
        sh = ZRShape(100, np.zeros(201), length=2.0 * np.pi)
        c = zr_to_contour(sh, m=512)
        center = c.points.mean(axis=0)
        r = np.hypot(*(c.points - center).T)
        assert np.abs(r - 1.0).max() < 1e-3

    def test_roundtrip_square(self, square_zr):
        rec = zr_to_contour(square_zr, m=1024)
        ref = orc.resample_closed(np.asarray(SQUARE), 1024)
        err = orc.hausdorff_distance(rec.points, ref)
        assert err <= 0.02 * diameter(ref)

    def test_base_angle_rotates(self, square_zr):
        rot = ZRShape(100, square_zr.coeffs, length=square_zr.length,
                      base_angle=square_zr.base_angle + np.pi / 2)
        a = zr_to_contour(square_zr, m=512).points
        b = zr_to_contour(rot, m=512).points
        rmat = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.abs(a @ rmat.T - b).max() < 1e-9

    def test_open_curve_refused(self):
        # random coefficients are nowhere near the closure manifold
        rng = np.random.default_rng(0)
        sh = ZRShape(100, rng.normal(size=201) * 0.3)
        with pytest.raises(OpenCurveError):
            zr_to_contour(sh)

    def test_min_grid(self, square_zr):
        with pytest.raises(ValueError):
            zr_to_contour(square_zr, m=8)

    def test_high_order_round_trip(self):
        # N = 512 needs more than the 1024-point grid; the grid follows N
        shape = contour_to_zr(rectangle_sixgon(), n_harmonics=512)
        assert abs(closure_map(shape)) <= 1e-12
        back = zr_to_contour(shape)
        ref = orc.resample_closed(rectangle_sixgon().points, len(back.points))
        assert orc.hausdorff_distance(back.points, ref) <= 0.02 * diameter(ref)

    def test_closure_gap_reported(self, square_zr):
        c = zr_to_contour(square_zr, m=1024)
        assert c.closure_gap is not None and c.closure_gap < 1e-6


class TestEmit:
    def test_svg_structure(self):
        text = contour_strip_svg([square_contour(), hexagon_sixgon(), rectangle_sixgon()])
        assert text.count("<polygon") == 3
        assert text.count("<circle") == 3

    def test_empty_sequence(self, tmp_path):
        with pytest.raises(ValueError):
            contour_strip_svg([])
        with pytest.raises(ValueError):
            emit_contour_sequence([], tmp_path / "x.csv")

    def test_atomic_write_removes_temp_file_on_failure(self, tmp_path, monkeypatch):
        import os

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write_text(tmp_path / "out.txt", "text")
        assert list(tmp_path.iterdir()) == []

    def test_csv_rows(self, tmp_path):
        c = zr_to_contour(contour_to_zr(square_contour()), m=256)
        p = emit_contour_sequence([c], tmp_path / "one.csv")
        rows = p.read_text().strip().split("\n")
        assert rows[0] == "index,x,y"
        assert len(rows) == 1 + 256
        assert all(len(r.split(",")) == 3 for r in rows[1:])


class TestComparisonHelpers:
    def test_resample_preserves_perimeter(self):
        pts = orc.resample_closed(np.asarray(SQUARE), 400)
        assert Contour(pts).perimeter == pytest.approx(4.0, abs=1e-3)

    def test_hausdorff_symmetric_zero(self):
        a = np.asarray(SQUARE, dtype=float)
        assert orc.hausdorff_distance(a, a) == 0.0

    def test_diameter_square(self):
        assert diameter(np.asarray(SQUARE)) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diameter_brute_force_with_duplicates_and_collinear_points(self, seed):
        # repeated points and points on one line through the cloud must not
        # change the hull's farthest pair
        rng = np.random.default_rng(seed)
        cloud = rng.normal(size=(40, 2))
        line = np.outer(np.linspace(-3.0, 3.0, 13), rng.normal(size=2))
        pts = np.concatenate([cloud, cloud[::3], line, line[::2]])
        pts = pts[rng.permutation(len(pts))]
        gaps = pts[:, None, :] - pts[None, :, :]
        brute = float(np.sqrt((gaps * gaps).sum(axis=-1).max()))
        assert diameter(pts) == pytest.approx(brute, rel=1e-15)
