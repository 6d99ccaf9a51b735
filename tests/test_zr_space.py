"""Coefficient-space metric, constraint projection, quotient machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from conftest import random_sigma_shape, random_tangent
from shape_transport import (
    DimensionMismatchError,
    NumericalError,
    ParseError,
    SingularShapeError,
    ZRShape,
    align_initial_point,
    closure_map,
    horizontal_project,
    project_tangent,
    project_to_sigma,
    shape_from_dict,
    shape_to_dict,
    shift_initial_point,
)
from shape_transport import zr_space
from shape_transport.zr_space import (
    eval_on_grid,
    inner_raw,
    norm_raw,
    project_to_sigma_batch,
)


class TestMetric:
    def test_parseval_first_harmonic(self):
        v = np.zeros(201)
        v[1] = 1.0
        assert inner_raw(v, v) == pytest.approx(0.5)

    def test_x0_full_weight(self):
        v = np.zeros(201)
        v[0] = 2.0
        assert inner_raw(v, v) == pytest.approx(4.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_positive_definite(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=201)
        assert inner_raw(v, v) > 0.0

    def test_agrees_with_function_space_quadrature(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=201) / np.arange(1, 202)
        v = rng.normal(size=201) / np.arange(1, 202)
        s = 2.0 * np.pi * np.arange(4096) / 4096
        quad = np.mean(orc.eval_series(u, s) * orc.eval_series(v, s))
        assert inner_raw(u, v) == pytest.approx(quad, abs=1e-12)


class TestProjection:
    def test_postconditions(self):
        rng = np.random.default_rng(3)
        raw = ZRShape(100, rng.normal(size=201) * 0.3 /
                      np.concatenate([[1.0], np.repeat(np.arange(1, 101), 2)]))
        sh = project_to_sigma(raw)
        assert abs(closure_map(sh)) < 1e-9
        assert sh.coeffs[0] == pytest.approx(-sh.coeffs[1::2].sum(), abs=1e-10)

    def test_idempotent(self):
        sh = random_sigma_shape(11)
        again = project_to_sigma(sh)
        assert np.abs(again.coeffs - sh.coeffs).max() < 1e-9

    def test_keeps_metadata(self):
        sh = ZRShape(100, np.zeros(201), length=5.0, base_angle=0.3)
        out = project_to_sigma(sh)
        assert out.length == 5.0 and out.base_angle == 0.3

    @staticmethod
    def _far_rows():
        # far from the manifold: two undamped Gauss-Newton steps leave a row 5.2e-3 off
        rng = np.random.default_rng(5)
        n = np.concatenate([[1.0], np.repeat(np.arange(1, 101), 2)])
        return rng.normal(size=(8, 201)) * 0.6 / n

    def test_batch_converges_on_far_rows(self):
        out = project_to_sigma_batch(self._far_rows())
        for row in out:
            psi = closure_map(row)
            worst = max(abs(psi.real), abs(psi.imag), abs(row[0] + row[1::2].sum()))
            assert worst <= 1e-10

    def test_batch_matches_per_row(self):
        rows = self._far_rows()
        out = project_to_sigma_batch(rows)
        for row, got in zip(rows, out):
            assert np.abs(project_to_sigma(row).coeffs - got).max() <= 1e-14

    def test_grown_row_halves_its_own_step(self, monkeypatch):
        # row 0's first trial residual is inflated: that row alone retries at
        # half its step, row 1 keeps its full step and its own result
        rows = self._far_rows()[:2]
        alone = project_to_sigma_batch(rows[1:])[0]
        real, seen = zr_space._closure_normals, []

        def inflating(x, along=None):
            seen.append(np.array(x))
            out = real(x, along)
            if len(seen) == 2:  # the first trial
                out[0][0, 0] += 100.0
            return out

        monkeypatch.setattr(zr_space, "_closure_normals", inflating)
        out = project_to_sigma_batch(rows)
        full, half = seen[1] - rows, seen[2] - rows
        assert np.abs(half[0] - 0.5 * full[0]).max() <= 1e-14
        for row in out:
            psi = real(row)
            assert max(abs(2.0 * np.pi * psi[0][0]), abs(2.0 * np.pi * psi[1][0]),
                       abs(row[0] + row[1::2].sum())) <= 1e-10
        assert np.array_equal(out[1], alone)

    def test_batch_raises_when_not_converged(self, monkeypatch):
        monkeypatch.setattr(zr_space, "_PROJ_MAXITER", 1)
        with pytest.raises(NumericalError) as info:
            project_to_sigma_batch(self._far_rows())
        assert len(info.value.history) > 0


class TestClosureNormals:
    @staticmethod
    def _check_against_oracle(c, m):
        # the projector's residuals and representers, against direct trig
        # sums on an own m-point grid
        n_harm = (len(c) - 1) // 2
        v1, v2 = zr_space._closure_normals(c)
        s = 2.0 * np.pi * np.arange(m) / m
        psi = 2.0 * np.pi * np.mean(np.exp(1j * (orc.eval_series(c, s) + s)))
        assert abs(2.0 * np.pi * (v1[0] + 1j * v2[0]) - psi) <= 1e-12
        # a metric representer r maps to the Jacobian row r * weights; the
        # oracle differentiates Psi / (2 pi)
        w = zr_space._metric_weights(n_harm)
        rows = np.stack([-v2 * w, v1 * w, zr_space.g_vector(n_harm) * w])
        assert np.abs(rows - orc.zr_constraint_rows(c, m=m)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 5, 41])
    def test_matches_oracle_rows(self, seed):
        self._check_against_oracle(random_sigma_shape(seed).coeffs, 2048)

    def test_matches_oracle_rows_order_300(self):
        # built like conftest.random_sigma_shape, at N = 300 (grid 4096)
        n = 300
        decay = np.concatenate([[1.0], np.repeat(np.arange(1, n + 1), 2)]) ** 1.5
        raw = np.random.default_rng(3).normal(size=2 * n + 1) * 0.35 / decay
        self._check_against_oracle(project_to_sigma(ZRShape(n, raw)).coeffs, 8192)


class TestGridSize:
    def test_rule(self):
        # every order up to 127 keeps the 1024-point grid, so results there
        # do not depend on the rule; above it, 8*(N+1) points rounded up to
        # a power of two
        assert all(zr_space.grid_size(n) == 1024 for n in range(128))
        assert [zr_space.grid_size(n) for n in (128, 300, 511, 600)] == [
            2048, 4096, 4096, 8192]


class TestTangentProjection:
    def test_in_tangent_space(self):
        sh = random_sigma_shape(5)
        t = random_tangent(sh, 6)
        rows = orc.zr_constraint_rows(sh.coeffs)
        assert np.abs(rows @ t.coeffs).max() < 1e-8

    def test_idempotent(self):
        sh = random_sigma_shape(5)
        rng = np.random.default_rng(8)
        v = rng.normal(size=201)
        once = project_tangent(sh, v).coeffs
        twice = project_tangent(sh, once).coeffs
        assert np.abs(once - twice).max() < 1e-12

    def test_orthogonal_residual(self):
        # the removed part is metric-orthogonal to the kept part
        sh = random_sigma_shape(5)
        rng = np.random.default_rng(9)
        v = rng.normal(size=201)
        kept = project_tangent(sh, v).coeffs
        assert abs(inner_raw(v - kept, kept)) < 1e-10

    def test_matches_oracle(self):
        sh = random_sigma_shape(12)
        rng = np.random.default_rng(13)
        v = rng.normal(size=201)
        lib = project_tangent(sh, v).coeffs
        ref = orc.zr_project_tangent_oracle(sh.coeffs, v)
        assert np.abs(lib - ref).max() < 1e-8


class TestVertical:
    def test_first_harmonic_pattern(self):
        c = np.zeros(201)
        a, b = 0.3, 0.4
        c[1], c[2] = a, b
        u = zr_space._vertical_pattern(c)[0]
        expect = np.zeros(201)
        expect[1], expect[2] = b, -a
        expect /= norm_raw(expect)
        assert np.abs(u - expect).max() < 1e-12

    def test_unit_norm(self):
        u = zr_space._vertical_pattern(random_sigma_shape(21).coeffs)[0]
        assert norm_raw(u) == pytest.approx(1.0, abs=1e-12)

    def test_circle_singular(self):
        with pytest.raises(SingularShapeError):
            zr_space._vertical_pattern(np.zeros(201))


class TestHorizontalProject:
    def test_vertical_maps_to_zero(self):
        sh = random_sigma_shape(30)
        u = zr_space._vertical_pattern(sh.coeffs)[0]
        out = horizontal_project(sh, u)
        assert norm_raw(out.coeffs) < 1e-12

    def test_idempotent_on_horizontal(self):
        sh = random_sigma_shape(30)
        h = random_tangent(sh, 31, horizontal=True)
        again = horizontal_project(sh, h.coeffs)
        assert np.abs(again.coeffs - h.coeffs).max() < 1e-10

    def test_output_orthogonal_to_vertical(self):
        sh = random_sigma_shape(30)
        rng = np.random.default_rng(32)
        out = horizontal_project(sh, rng.normal(size=201))
        assert abs(inner_raw(out.coeffs, zr_space._vertical_pattern(sh.coeffs)[0])) < 1e-12


class TestShift:
    def test_zero_shift_identity(self):
        sh = random_sigma_shape(40)
        out = shift_initial_point(sh, 0.0)
        assert np.abs(out.coeffs - sh.coeffs).max() < 1e-14

    def test_two_symmetric_period(self, rect_zr):
        out = shift_initial_point(rect_zr, np.pi)
        assert np.abs(out.coeffs - rect_zr.coeffs).max() < 1e-10

    @given(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_group_law(self, a, b):
        sh = random_sigma_shape(41)
        lhs = shift_initial_point(shift_initial_point(sh, a), b)
        rhs = shift_initial_point(sh, a + b)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


class TestAlign:
    def test_exact_orbit_recovery(self):
        sh = random_sigma_shape(50)
        eta = shift_initial_point(sh, 0.7)
        s0, dist = align_initial_point(sh, eta)
        assert dist <= 1e-8
        expected = (-0.7) % (2.0 * np.pi)
        assert min(abs(s0 - expected), 2.0 * np.pi - abs(s0 - expected)) < 1e-6

    def test_identical(self):
        sh = random_sigma_shape(51)
        s0, dist = align_initial_point(sh, sh)
        assert dist <= 1e-10
        assert s0 == pytest.approx(0.0, abs=1e-6) or \
            s0 == pytest.approx(2.0 * np.pi, abs=1e-6)

    def test_square_quarter_turn(self, square_zr):
        eta = shift_initial_point(square_zr, np.pi / 2)
        _, dist = align_initial_point(square_zr, eta)
        assert dist <= 1e-8

    def test_orbit_distances_on_grid(self):
        # quotient well-definedness over a whole orbit
        sh = random_sigma_shape(52)
        for s in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            _, dist = align_initial_point(sh, shift_initial_point(sh, s))
            assert dist <= 1e-8

    def test_circle_rejected(self):
        flat = ZRShape(100, np.zeros(201))
        with pytest.raises(SingularShapeError):
            align_initial_point(flat, random_sigma_shape(53))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_shift_stable_under_rounding(self, seed):
        # s0 solves the stationarity condition, so a last-bit change of eta
        # moves it by rounding only, not by the sqrt(eps) flatness of dist^2
        theta, eta = random_sigma_shape(seed), random_sigma_shape(seed + 1)
        s0, _ = align_initial_point(theta, eta)
        s1, _ = align_initial_point(theta, eta.with_coeffs(eta.coeffs * (1 + 1e-15)))
        gap = abs(s1 - s0)
        assert min(gap, 2.0 * np.pi - gap) <= 1e-13


class TestSymmetry:
    def test_demo_polygons(self, square_zr, rect_zr, hex_zr):
        assert orc.is_k_symmetric(square_zr, 4)
        assert orc.is_k_symmetric(square_zr, 2)
        assert orc.is_k_symmetric(rect_zr, 2)
        assert not orc.is_k_symmetric(rect_zr, 4)
        assert orc.is_k_symmetric(hex_zr, 6)
        assert orc.is_k_symmetric(hex_zr, 3)

    def test_projection_produces_symmetry(self):
        sh = random_sigma_shape(60)
        out = orc.project_k_symmetric(sh, 3)
        assert orc.is_k_symmetric(out, 3, tol=1e-9)
        assert abs(closure_map(out)) < 1e-9


class TestSerialization:
    def test_shape_roundtrip(self, rect_zr):
        d = shape_to_dict(rect_zr)
        back = shape_from_dict(d)
        assert np.array_equal(back.coeffs, rect_zr.coeffs)
        assert back.length == rect_zr.length
        assert back.base_angle == rect_zr.base_angle

    @pytest.mark.parametrize("field", ["x0", "xy", "length", "base_angle"])
    def test_non_finite_field_refused(self, rect_zr, field):
        d = shape_to_dict(rect_zr)
        if field == "xy":
            d["xy"][3][1] = float("nan")
        else:
            d[field] = float("inf")
        with pytest.raises(ParseError, match=f"shape {field} holds a non-finite number"):
            shape_from_dict(d)

    def test_harmonic_count_mismatch(self, rect_zr):
        d = shape_to_dict(rect_zr)
        d["xy"] = d["xy"][:-1]
        with pytest.raises(DimensionMismatchError, match="expected 100 harmonic pairs"):
            shape_from_dict(d)


class TestShapeChecks:
    def test_coefficient_count_checked(self):
        with pytest.raises(DimensionMismatchError, match="expected 201 coefficients"):
            ZRShape(100, np.zeros(200))

    def test_grid_too_small(self):
        with pytest.raises(DimensionMismatchError, match="grid 16 too small"):
            eval_on_grid(np.zeros(201), 16)
