"""Shooting and boundary-value geodesics on the closed-curve manifold."""

import logging
import math

import numpy as np
import pytest

import oracles as orc
from conftest import random_sigma_shape, random_tangent, vertical_row
from shape_transport import zr_geodesic, zr_space
from shape_transport import (
    DimensionMismatchError,
    NumericalError,
    SingularShapeError,
    ZRShape,
    ZRTangent,
    align_initial_point,
    exp_map,
    geodesic_between,
    geodesic_between_invariant,
    fit_geodesic_to_series,
    project_to_sigma,
    shift_initial_point,
)
from shape_transport.zr_space import (
    _project_tangent_raw,
    closure_map,
    inner_raw,
    norm_raw,
    project_to_sigma_batch,
)
from shape_transport.zr_geodesic import (
    _RESID_ATOL,
    _RESID_RTOL,
    _accel,
    _path_energy,
    _relax,
)


def _two_symmetric_shape(seed, scale=0.25):
    rng = np.random.default_rng(seed)
    c = np.zeros(201)
    n = np.arange(1, 101)
    keep = n % 2 == 0
    decay = n[keep] ** 1.5
    c[1::2][keep] = rng.normal(size=keep.sum()) * scale / decay
    c[2::2][keep] = rng.normal(size=keep.sum()) * scale / decay
    c[0] = -c[1::2].sum()
    return ZRShape(100, c)


class TestExpMap:
    def test_constant_speed(self):
        base = random_sigma_shape(1)
        v = random_tangent(base, 2)
        path = exp_map(base, v, 0.4)
        seg = np.diff(path.points, axis=0)
        speeds = norm_raw(seg) / np.diff(path.ts)
        assert np.abs(speeds - 1.0).max() < 1e-3

    def test_stays_on_manifold(self):
        base = random_sigma_shape(1)
        v = random_tangent(base, 2)
        path = exp_map(base, v, 0.4)
        again = project_to_sigma(ZRShape(100, path.points[-1]))
        assert norm_raw(path.points[-1] - again.coeffs) < 1e-8

    def test_zero_time(self):
        base = random_sigma_shape(3)
        v = random_tangent(base, 4)
        path = exp_map(base, v, 0.0)
        assert path.T == 0.0 and path.n_samples == 1

    def test_negative_time_rejected(self):
        base = random_sigma_shape(3)
        with pytest.raises(ValueError):
            exp_map(base, random_tangent(base, 4), -0.1)

    def test_nonfinite_time_rejected(self):
        base = random_sigma_shape(3)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="T must be finite and nonnegative"):
                exp_map(base, random_tangent(base, 4), T)

    def test_too_few_steps_rejected(self):
        base = random_sigma_shape(3)
        with pytest.raises(ValueError, match="at least 8 integration steps"):
            exp_map(base, random_tangent(base, 4), 0.2, steps=7)

    def test_nontangent_velocity_rejected(self):
        base = random_sigma_shape(3)
        bad = np.zeros(201)
        bad[1] = 1.0
        with pytest.raises(ValueError):
            exp_map(base, ZRTangent(100, bad, base=base), 0.2)

    def test_vertical_velocity_rejected_in_quotient(self):
        base = random_sigma_shape(3)
        u = vertical_row(base.coeffs)
        with pytest.raises(ValueError):
            exp_map(base, ZRTangent(100, u, base=base), 0.2, invariant=True)

    def test_quotient_costs_no_extra_grid_evaluations(self, monkeypatch):
        # both modes read the acceleration from one frame evaluation with
        # exact rates; the quotient only adds a row that needs no grid
        calls = []
        orig = zr_space.eval_on_grid

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(zr_space, "eval_on_grid", counted)
        base = random_sigma_shape(1)
        counts = []
        for invariant in (False, True):
            v = random_tangent(base, 2, horizontal=invariant)
            calls.clear()
            exp_map(base, v, 0.3, steps=24, invariant=invariant)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("invariant", [False, True])
    def test_one_frame_per_accepted_point(self, monkeypatch, invariant):
        # a step evaluates three stage frames and one frame at its accepted
        # point, whose rates give the next step's first stage; the start
        # adds the velocity check and its first frame.  Every other grid
        # evaluation is the closure projector's.
        steps, counts, inside = 24, {"grid": 0, "frame": 0, "projector": 0}, []
        grid, frame = zr_space.eval_on_grid, zr_space.constraint_frame
        project = zr_geodesic.project_to_sigma_batch

        def counted_grid(*args, **kwargs):
            counts["projector" if inside else "grid"] += 1
            return grid(*args, **kwargs)

        def counted_frame(*args, **kwargs):
            counts["frame"] += 1
            return frame(*args, **kwargs)

        def counted_project(*args, **kwargs):
            inside.append(1)
            try:
                return project(*args, **kwargs)
            finally:
                inside.pop()

        base = random_sigma_shape(1)
        v = random_tangent(base, 2, horizontal=invariant)
        monkeypatch.setattr(zr_space, "eval_on_grid", counted_grid)
        monkeypatch.setattr(zr_geodesic, "constraint_frame", counted_frame)
        monkeypatch.setattr(zr_geodesic, "project_to_sigma_batch", counted_project)
        exp_map(base, v, 0.3, steps=steps, invariant=invariant)
        assert counts["frame"] == counts["grid"] == 4 * steps + 2

    def test_reversibility(self):
        # shoot forward, then back along the negated end velocity
        base = random_sigma_shape(5)
        v = random_tangent(base, 6)
        fwd = exp_map(base, v, 0.3)
        end = base.with_coeffs(fwd.points[-1])
        back = exp_map(end, ZRTangent(100, -fwd.v_end, base=end), 0.3)
        assert norm_raw(back.points[-1] - base.coeffs) < 1e-6

    def test_flat_subspace_is_straight(self):
        # 2-symmetric base and tangent: curvature terms vanish identically
        base = _two_symmetric_shape(7)
        raw = _two_symmetric_shape(8, scale=0.6).coeffs.copy()
        raw[0] = -raw[1::2].sum()
        v = raw / norm_raw(raw)
        path = exp_map(base, ZRTangent(100, v, base=base), 0.5)
        straight = base.coeffs[None, :] + path.ts[:, None] * v[None, :]
        assert np.abs(path.points - straight).max() < 1e-9


class TestAcceleration:
    # exp_map re-projects after every step, so its own tests would not see a
    # wrong acceleration; these check _accel against the geometry directly

    @pytest.mark.parametrize("seed", [1, 7])
    def test_normal_to_tangent_space(self, seed):
        base = random_sigma_shape(seed)
        p, v = base.coeffs, random_tangent(base, seed + 1).coeffs
        a = _accel(p, v, False)
        assert norm_raw(_project_tangent_raw(p, a)) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 7])
    def test_second_order_closure(self, seed):
        # with the right acceleration the closure residual of the Taylor
        # step is O(h^3) (ratio 8 per halving); without it, O(h^2) (ratio 4)
        base = random_sigma_shape(seed)
        p, v = base.coeffs, random_tangent(base, seed + 1).coeffs
        a = _accel(p, v, False)
        r = [abs(closure_map(p + h * v + 0.5 * h * h * a))
             for h in (2e-2, 1e-2, 5e-3)]
        assert r[0] / r[1] >= 7.0 and r[1] / r[2] >= 7.0


class TestGeodesicBetween:
    def test_endpoints_exact(self):
        a, b = random_sigma_shape(10), random_sigma_shape(11)
        path = geodesic_between(a, b, n_samples=17)
        assert np.array_equal(path.points[0], a.coeffs)
        assert np.array_equal(path.points[-1], b.coeffs)

    def test_constant_speed_samples(self):
        a, b = random_sigma_shape(10), random_sigma_shape(11)
        path = geodesic_between(a, b, n_samples=17)
        seg = norm_raw(np.diff(path.points, axis=0))
        assert seg.std() / seg.mean() < 1e-3

    def test_identical_endpoints(self):
        a = random_sigma_shape(12)
        path = geodesic_between(a, a)
        assert path.T == 0.0 and path.n_samples == 1

    def test_too_few_samples(self):
        a, b = random_sigma_shape(10), random_sigma_shape(11)
        with pytest.raises(ValueError):
            geodesic_between(a, b, n_samples=2)
        for n in (1, 2):
            with pytest.raises(ValueError):
                geodesic_between_invariant(a, b, n_samples=n)

    def test_truncation_orders_differ(self):
        a = random_sigma_shape(10)
        b = project_to_sigma(ZRShape(50, a.coeffs[:101]))
        for connect in (geodesic_between, geodesic_between_invariant):
            with pytest.raises(DimensionMismatchError, match="truncation orders differ"):
                connect(a, b)

    def test_length_at_least_chord(self):
        a, b = random_sigma_shape(13), random_sigma_shape(14)
        path = geodesic_between(a, b, n_samples=17)
        chord = norm_raw(a.coeffs - b.coeffs)
        assert path.T >= chord - 1e-9

    def test_energy_not_above_projected_chord(self):
        # relaxation starts from the projected interpolation and only descends
        a, b = random_sigma_shape(13), random_sigma_shape(14)
        lam = np.linspace(0.0, 1.0, 17)[:, None]
        init = (1 - lam) * a.coeffs + lam * b.coeffs
        init = np.stack([project_to_sigma(r).coeffs for r in init])
        path = geodesic_between(a, b, n_samples=17)
        assert _path_energy(path.points) <= _path_energy(init) + 1e-12

    def test_flat_pair_is_straight(self, rect_zr, hex_zr):
        path = geodesic_between(rect_zr, hex_zr, n_samples=17)
        lam = (path.ts / path.T)[:, None]
        straight = (1 - lam) * rect_zr.coeffs + lam * hex_zr.coeffs
        assert np.abs(path.points - straight).max() < 1e-6
        assert path.T == pytest.approx(norm_raw(rect_zr.coeffs - hex_zr.coeffs),
                                       abs=1e-9)

    def test_agrees_with_exp_shooting(self):
        a, b = random_sigma_shape(15), random_sigma_shape(16)
        path = geodesic_between(a, b, n_samples=25)
        shot = exp_map(a, ZRTangent(100, path.v0, base=a), path.T)
        assert norm_raw(shot.points[-1] - b.coeffs) < 1e-4


def _chord_path(a, b, invariant, n=33):
    """The projected linear interpolation that relaxation starts from, with
    the end aligned to a in invariant mode."""
    end = b.coeffs
    if invariant:
        end = shift_initial_point(b, align_initial_point(a, b)[0]).coeffs
    lam = np.linspace(0.0, 1.0, n)[:, None]
    pts = project_to_sigma_batch((1.0 - lam) * a.coeffs + lam * end)
    pts[0], pts[-1] = a.coeffs, end
    return pts


def _oracle_residuals(pts, invariant):
    """Norm of the tangential (horizontal) part of each interior second
    difference, projected with the direct-sum oracles."""
    out = []
    for i in range(1, len(pts) - 1):
        r = orc.zr_project_tangent_oracle(pts[i], pts[i - 1] - 2 * pts[i] + pts[i + 1])
        if invariant:
            u = orc.zr_vertical_oracle(pts[i])
            r = r - orc.coeff_inner(r, u) * u
        out.append(orc.coeff_norm(r))
    return np.array(out)


def _residual_tol(pts):
    seg = norm_raw(np.diff(pts, axis=0)).mean()
    return max(_RESID_RTOL * seg, _RESID_ATOL)


class TestRelaxation:
    @pytest.mark.parametrize("invariant", [False, True])
    @pytest.mark.parametrize("seed", [0, 2, 4, 6])
    def test_interior_meets_residual_tolerance(self, seed, invariant):
        # the returned samples are the relaxed ones
        connect = geodesic_between_invariant if invariant else geodesic_between
        pts = connect(random_sigma_shape(seed), random_sigma_shape(seed + 1)).points
        assert _oracle_residuals(pts, invariant).max() <= _residual_tol(pts)

    @pytest.mark.parametrize("invariant", [False, True])
    def test_sample_times_are_segment_lengths(self, invariant):
        connect = geodesic_between_invariant if invariant else geodesic_between
        path = connect(random_sigma_shape(0), random_sigma_shape(1))
        lengths = np.cumsum([orc.coeff_norm(d) for d in np.diff(path.points, axis=0)])
        assert path.ts[0] == 0.0
        assert np.abs(path.ts[1:] - lengths).max() <= 1e-15
        assert path.T == path.ts[-1]
        assert np.abs(path.point_at(path.ts) - path.points).max() <= 1e-15

    @pytest.mark.parametrize("invariant", [False, True])
    def test_iteration_cap_raises_with_history(self, monkeypatch, invariant):
        monkeypatch.setattr(zr_geodesic, "_MAX_ITERS", 1)
        a, b = random_sigma_shape(0), random_sigma_shape(1)
        with pytest.raises(NumericalError) as info:
            _relax(_chord_path(a, b, invariant), invariant)
        assert len(info.value.history) >= 1

    @pytest.mark.parametrize("seed", [0, 2])
    def test_quotient_steps_are_horizontal(self, monkeypatch, seed):
        # every whole-path step, before it is scaled and projected onto the
        # manifold, lies in the horizontal space of the sample it moves
        bases, steps = [], []
        frame, laplacian_step = zr_geodesic.constraint_frame, zr_geodesic._laplacian_step

        def frame_spy(points, *args, **kwargs):
            bases.append(points.copy())
            return frame(points, *args, **kwargs)

        def step_spy(*args):
            steps.append((bases[-1], laplacian_step(*args)))
            return steps[-1][1]

        pts = _chord_path(random_sigma_shape(seed), random_sigma_shape(seed + 1), True)
        monkeypatch.setattr(zr_geodesic, "constraint_frame", frame_spy)
        monkeypatch.setattr(zr_geodesic, "_laplacian_step", step_spy)
        _relax(pts, True)
        assert len(steps) >= 2
        for base, step in steps:
            size = norm_raw(step)
            vertical = inner_raw(step, vertical_row(base))
            assert np.all(np.abs(vertical) <= 1e-12 * size)
            horiz = _project_tangent_raw(base, step, horizontal=True)
            assert np.all(norm_raw(horiz - step) <= 1e-12 * size)

    @pytest.mark.parametrize("invariant", [False, True])
    @pytest.mark.parametrize("length", [1e-8, 3.0])
    def test_short_and_long_paths(self, length, invariant):
        # a 1e-8 path has segments near 3e-10: 1e-8 of that is below the
        # rounding of its second differences, so only the floor stops it
        base = random_sigma_shape(3)
        v = random_tangent(base, 4, horizontal=invariant)
        end = exp_map(base, v, length, invariant=invariant).points[-1]
        pts = _relax(_chord_path(base, ZRShape(100, end), False), invariant)
        assert _oracle_residuals(pts, invariant).max() <= _residual_tol(pts)
        total = norm_raw(np.diff(pts, axis=0)).sum()
        assert abs(total / length - 1.0) <= 1e-4

    def test_debug_line_per_iteration(self, caplog):
        a, b = random_sigma_shape(0), random_sigma_shape(1)
        with caplog.at_level(logging.DEBUG, logger="shape_transport"):
            geodesic_between(a, b)
        lines = [r.getMessage() for r in caplog.records if r.name == "shape_transport"]
        assert len(lines) >= 1
        for k, line in enumerate(lines):
            assert line.startswith(f"relaxation iteration {k}: max residual ")
            assert "energy" in line and "step scale" in line
        assert not logging.getLogger("shape_transport").handlers


class TestGeodesicInvariant:
    def test_same_orbit_collapses(self):
        a = random_sigma_shape(20)
        b = shift_initial_point(a, 1.3)
        path = geodesic_between_invariant(a, b)
        assert path.T == 0.0

    @pytest.mark.parametrize("seeds", [(1, 2), (21, 22), (0, 1)],
                             ids=lambda s: f"{s[0]}-{s[1]}")
    def test_end_velocity_orthogonal_to_orbit(self, seeds):
        # the aligned end is a critical point of the distance along the
        # target's orbit, so the raw spline velocity there is orthogonal to
        # the orbit tangent, a centred difference of the initial-point shift
        path = geodesic_between_invariant(*map(random_sigma_shape, seeds), n_samples=17)
        end = ZRShape(100, path.points[-1])
        h = 1e-6
        orbit = (shift_initial_point(end, h).coeffs
                 - shift_initial_point(end, -h).coeffs) / (2.0 * h)
        v = path._dspline(path.T)
        assert abs(inner_raw(v, orbit)) <= 1e-4 * norm_raw(v) * norm_raw(orbit)

    def test_not_longer_than_top_path_same_representatives(self):
        a, b = random_sigma_shape(21), random_sigma_shape(22)
        qpath = geodesic_between_invariant(a, b, n_samples=17)
        end = ZRShape(100, qpath.points[-1])
        top = geodesic_between(a, end, n_samples=17)
        assert qpath.T <= top.T + 1e-8

    def test_endpoint_on_target_orbit(self):
        a, b = random_sigma_shape(23), random_sigma_shape(24)
        path = geodesic_between_invariant(a, b, n_samples=17)
        end = ZRShape(100, path.points[-1])
        _, dist = align_initial_point(b, end)
        assert dist <= 1e-8

    def test_circle_rejected(self):
        with pytest.raises(SingularShapeError):
            geodesic_between_invariant(ZRShape(100, np.zeros(201)),
                                       random_sigma_shape(25))


class TestFitSeries:
    def test_exact_series_zero_residuals(self):
        a, b = random_sigma_shape(30), random_sigma_shape(31)
        path = geodesic_between(a, b, n_samples=17)
        times = np.array([0.0, 2.0, 5.0, 10.0])
        shapes = [ZRShape(100, path.point_at(f * path.T)) for f in times / 10.0]
        fitted, res = fit_geodesic_to_series(shapes, times, n_samples=17)
        assert res[0] < 1e-12 and res[-1] < 1e-12
        assert res.max() < 1e-4

    def test_affine_time_map(self):
        # shifting and scaling the clock leaves the fit unchanged
        a, b = random_sigma_shape(30), random_sigma_shape(31)
        path = geodesic_between(a, b, n_samples=9)
        shapes = [ZRShape(100, path.point_at(f * path.T)) for f in (0, 0.5, 1)]
        _, r1 = fit_geodesic_to_series(shapes, [0.0, 1.0, 2.0], n_samples=9)
        _, r2 = fit_geodesic_to_series(shapes, [7.0, 12.0, 17.0], n_samples=9)
        assert np.abs(r1 - r2).max() < 1e-9

    def test_quotient_residuals_are_quotient_distances(self):
        # the series ends on the end shape's orbit at another initial point,
        # which the quotient path reaches
        a, b = random_sigma_shape(0), shift_initial_point(random_sigma_shape(1), 1.3)
        path = geodesic_between_invariant(a, b)
        mid = ZRShape(100, path.point_at(0.5 * path.T))
        _, res = fit_geodesic_to_series([a, mid, b], [0.0, 1.0, 2.0], invariant=True)
        assert res.max() < 1e-6
        _, res = fit_geodesic_to_series([a, mid, b], [0.0, 1.0, 2.0])
        assert res[1] > 0.1  # the submanifold fit pins b's initial point

    def test_input_validation(self):
        a, b = random_sigma_shape(30), random_sigma_shape(31)
        with pytest.raises(ValueError):
            fit_geodesic_to_series([a, b], [0.0])
        with pytest.raises(ValueError):
            fit_geodesic_to_series([a, b], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_geodesic_to_series([a], [0.0])
