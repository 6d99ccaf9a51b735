"""Parallel transport on the contour manifold and in its quotient."""

import logging
from functools import partial

import numpy as np
import pytest

import oracles as orc
from conftest import random_sigma_shape, random_tangent, vertical_row
from shape_transport import (
    GeodesicPath,
    NumericalError,
    SingularShapeError,
    ZRShape,
    ZRTangent,
    exp_map,
    geodesic_between,
    geodesic_between_invariant,
    project_tangent,
    project_to_sigma,
    transport_invariant,
    transport_sigma,
)
from shape_transport import zr_transport
from shape_transport.zr_space import _metric_weights, constraint_frame, inner_raw, norm_raw


def _path(seed, invariant=False, T=0.35):
    base = random_sigma_shape(seed)
    v = random_tangent(base, seed + 1000, horizontal=invariant)
    return exp_map(base, v, T, invariant=invariant)


def _fresh(path):
    """The same path with no transport memo."""
    return GeodesicPath(path.space, path.T, path.ts, path.points, path.v0,
                        path.v_end, base=path.base)


def _transported_pair(seed, invariant):
    path = _path(seed, invariant)
    base = ZRShape(100, path.points[0])
    w = random_tangent(base, seed + 2000, horizontal=invariant)
    fn = transport_invariant if invariant else transport_sigma
    return path, w, fn(path, w)


class TestBasics:
    @pytest.mark.parametrize("invariant", [False, True])
    def test_norm_preserved(self, invariant):
        path, w, res = _transported_pair(40, invariant)
        assert norm_raw(res.w_end) == pytest.approx(norm_raw(w.coeffs), abs=1e-12)
        assert res.norm_drift < 1e-6

    @pytest.mark.parametrize("invariant", [False, True])
    def test_inner_products_preserved(self, invariant):
        path = _path(50, invariant)
        base = ZRShape(100, path.points[0])
        w1 = random_tangent(base, 51, horizontal=invariant)
        w2 = random_tangent(base, 52, horizontal=invariant)
        fn = transport_invariant if invariant else transport_sigma
        r1, r2 = fn(path, w1), fn(path, w2)
        assert inner_raw(r1.w_end, r2.w_end) == pytest.approx(
            inner_raw(w1.coeffs, w2.coeffs), abs=1e-6)

    @pytest.mark.parametrize("invariant", [False, True])
    def test_round_trip(self, invariant):
        path, w, res = _transported_pair(60, invariant)
        fn = transport_invariant if invariant else transport_sigma
        back = fn(path.reversed(), res.w_end)
        assert norm_raw(back.w_end - w.coeffs) < 1e-6

    def test_linearity(self):
        path = _path(70)
        base = ZRShape(100, path.points[0])
        w1 = random_tangent(base, 71)
        w2 = random_tangent(base, 72)
        combo = 0.3 * w1.coeffs - 1.7 * w2.coeffs
        r1 = transport_sigma(path, w1)
        r2 = transport_sigma(path, w2)
        rc = transport_sigma(path, combo)
        assert norm_raw(rc.w_end - (0.3 * r1.w_end - 1.7 * r2.w_end)) < 1e-8

    def test_velocity_self_transport(self):
        path = _path(80)
        res = transport_sigma(path, path.v0)
        assert norm_raw(res.w_end - path.v_end) < 1e-6

    def test_trivial_path(self):
        base = random_sigma_shape(90)
        w = random_tangent(base, 91)
        path = GeodesicPath("zr_sigma", 0.0, np.zeros(1),
                            base.coeffs[None, :], np.zeros(201),
                            np.zeros(201), base=base)
        res = transport_sigma(path, w)
        assert np.array_equal(res.w_end, w.coeffs)
        assert res.steps == 0

    def test_result_lands_in_tangent_space(self):
        path, _, res = _transported_pair(95, False)
        rows = orc.zr_constraint_rows(path.points[-1])
        assert np.abs(rows @ res.w_end).max() < 1e-8

    def test_invariant_result_is_horizontal(self):
        path, _, res = _transported_pair(96, True)
        uhat = vertical_row(path.points[-1])
        assert abs(inner_raw(res.w_end, uhat)) < 1e-9


class TestAgainstSteppingOracle:
    def test_submanifold(self):
        path, w, res = _transported_pair(100, False)
        ref = orc.transport_stepping_richardson(path, w.coeffs, 64)
        assert norm_raw(res.w_end - ref) < 1e-6

    def test_quotient(self):
        path, w, res = _transported_pair(101, True)
        ref = orc.transport_stepping_richardson(path, w.coeffs, 256,
                                                invariant=True)
        assert norm_raw(res.w_end - ref) < 1e-6

    def test_bvp_path_quotient(self):
        a, b = random_sigma_shape(102), random_sigma_shape(103)
        path = geodesic_between_invariant(a, b, n_samples=17)
        base = ZRShape(100, path.points[0])
        w = random_tangent(base, 104, horizontal=True)
        res = transport_invariant(path, w)
        ref = orc.transport_stepping_richardson(path, w.coeffs, 256,
                                                invariant=True)
        assert norm_raw(res.w_end - ref) < 1e-6


class TestAgainstPerFrameLoop:
    @pytest.mark.parametrize("seed,invariant", [(140, False), (141, False),
                                                (142, True), (143, True)])
    def test_matches_per_frame_loop(self, seed, invariant):
        # the oracle's fixed 256 steps per unit, the quotient's only count
        path, w, _ = _transported_pair(seed, invariant)
        res = (transport_invariant(path, w) if invariant
               else transport_sigma(path, w, steps_per_unit=256))
        ref = orc.transport_per_frame(path, w.coeffs, invariant=invariant)
        assert norm_raw(res.w_end - ref) <= 1e-12


class TestFlatSubspace:
    def _sym_tangent(self, seed):
        rng = np.random.default_rng(seed)
        raw = np.zeros(201)
        n = np.arange(1, 101)
        keep = n % 2 == 0
        raw[1::2][keep] = rng.normal(size=keep.sum()) / n[keep] ** 1.5
        raw[2::2][keep] = rng.normal(size=keep.sum()) / n[keep] ** 1.5
        raw[0] = -raw[1::2].sum()
        return raw / norm_raw(raw)

    def test_transport_is_identity(self, rect_zr, hex_zr):
        path = geodesic_between(rect_zr, hex_zr, n_samples=17)
        w = self._sym_tangent(110)
        res = transport_sigma(path, w)
        assert norm_raw(res.w_end - w) < 1e-6

    def test_drift_vanishes(self, rect_zr, hex_zr):
        path = geodesic_between(rect_zr, hex_zr, n_samples=17)
        res = transport_sigma(path, self._sym_tangent(111))
        assert res.norm_drift < 1e-12


class TestConvergence:
    def test_step_halving_shrinks_oracle_gap(self):
        # exact frame rates make the integrator fourth order: halving the
        # step cuts the gap to a converged reference by about 16
        for seed, invariant in ((120, False), (142, True)):
            path, w, _ = _transported_pair(seed, invariant)
            ref = orc.transport_per_frame(path, w.coeffs, 1024, invariant)
            gap = [norm_raw(zr_transport._transport(path, w, n, invariant).w_end - ref)
                   for n in (32, 64)]
            assert gap[1] <= gap[0] / 10.0


def _today_steps(path):
    """The fixed count of 256 steps per unit of metric length."""
    return max(8, int(np.ceil(256 * sum(norm_raw(d) for d in np.diff(path.points, axis=0)))))


class TestLadder:
    """The step-doubling ladder (steps_per_unit None, the submanifold's
    default): every row within 2e-9 relative of a 1024-steps-per-unit
    reference, on relaxed pairs and on the criterion 04 wiggle paths."""

    def _rows_near_reference(self, path, block):
        got = transport_sigma(path, block)
        ref = transport_sigma(_fresh(path), block, steps_per_unit=1024).w_end
        for row, want in zip(got.w_end, ref):
            assert norm_raw(row - want) <= 2e-9 * norm_raw(want)
        return got

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_pairs_take_fewer_steps_than_fixed_count(self, seed):
        path = geodesic_between(random_sigma_shape(seed), random_sigma_shape(seed + 1))
        block = np.stack([random_tangent(path.base, 2100 + 10 * seed + j).coeffs
                          for j in range(3)] + [path.v0])
        got = self._rows_near_reference(path, block)
        assert 0 < got.steps < _today_steps(path)

    def test_wiggle_paths(self):
        from test_acceptance import _wiggle_zr_path
        for i in range(3):
            path = _wiggle_zr_path(400 + i, "zr_sigma")
            start = ZRShape(100, path.points[0])
            block = np.stack([random_tangent(start, s + i).coeffs for s in (5000, 5300)])
            self._rows_near_reference(path, block)

    def test_quotient_default_is_the_fixed_count(self):
        # the quotient is not on the ladder
        path = _path(47, invariant=True)
        w = random_tangent(ZRShape(100, path.points[0]), 48, horizontal=True)
        assert transport_invariant(path, w).steps == _today_steps(path)

    def test_one_debug_line_per_integration(self, caplog):
        path = _path(45)
        w = random_tangent(ZRShape(100, path.points[0]), 46)
        with caplog.at_level(logging.DEBUG, logger="shape_transport"):
            res = transport_sigma(path, w)
            fixed = transport_sigma(path, w, steps_per_unit=64)
        lines = [r.getMessage() for r in caplog.records if r.name == "shape_transport"]
        assert len(lines) == 2
        assert f"used {res.steps}, worst estimate" in lines[0]
        assert f"steps [{fixed.steps}], used {fixed.steps}, worst estimate nan" in lines[1]


class TestValidation:
    def test_kendall_path_rejected(self):
        from conftest import random_preshape
        from shape_transport import geodesic_kendall
        kp = geodesic_kendall(random_preshape(1), random_preshape(2))
        with pytest.raises(ValueError):
            transport_sigma(kp, np.zeros(201))

    def test_nontangent_vector_rejected(self):
        path = _path(130)
        bad = np.zeros(201)
        bad[2] = 1.0
        with pytest.raises(ValueError):
            transport_sigma(path, bad)

    @pytest.mark.parametrize("invariant", [False, True])
    def test_nonfinite_vector_rejected(self, invariant):
        # on the first transport of a path and on its memo route
        path = _path(134, invariant)
        fn = transport_invariant if invariant else transport_sigma
        w = random_tangent(path.base, 135, horizontal=invariant).coeffs
        for _ in range(2):
            bad = w.copy()
            bad[9] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                fn(path, bad)
            fn(path, w)

    def test_path_ending_at_circle_raises(self):
        # the quotient is singular at the circle (all coefficients zero)
        path = geodesic_between(random_sigma_shape(132), ZRShape(100, np.zeros(201)),
                                n_samples=17)
        path = GeodesicPath("zr_invariant", path.T, path.ts, path.points,
                            path.v0, path.v_end, base=path.base)
        w = random_tangent(path.base, 133, horizontal=True)
        with pytest.raises(SingularShapeError):
            transport_invariant(path, w)

    def test_vertical_vector_rejected_in_quotient(self):
        path = _path(131, invariant=True)
        u = vertical_row(path.points[0])
        with pytest.raises(ValueError):
            transport_invariant(path, u)


def _count_frames(monkeypatch) -> list:
    """A list that gains one entry per frame table the ZR transports read:
    its number of points."""
    calls = []

    def counting(points, *args, **kwargs):
        calls.append(len(np.atleast_2d(points)))
        return constraint_frame(points, *args, **kwargs)

    monkeypatch.setattr(zr_transport, "constraint_frame", counting)
    return calls


def _no_span(path, table):
    raise AssertionError("the quotient asked for a span")


class TestTransportMemo:
    """A path's second transport builds its transport matrix; later vectors
    are one product and must equal a fresh integration of the vector."""

    @pytest.mark.parametrize("invariant", [False, True])
    def test_memo_route_matches_fresh_integration(self, invariant, monkeypatch):
        frames = _count_frames(monkeypatch)
        path = _path(150, invariant)
        # the submanifold's ladder and the quotient's fixed count
        fn = transport_invariant if invariant else transport_sigma
        base = ZRShape(100, path.points[0])
        for j in range(8):  # integration, matrix, then products
            w = random_tangent(base, 151 + j, horizontal=invariant)
            before = len(frames)
            got = fn(path, w)
            assert j < 2 or len(frames) == before  # products read no frames
            ref = fn(_fresh(path), w)
            assert norm_raw(got.w_end - ref.w_end) <= 1e-13 * norm_raw(ref.w_end)
            assert abs(got.norm_drift - ref.norm_drift) <= 1e-14
            assert got.steps == ref.steps > 0
        key = (("zr", True), 256) if invariant else (("zr", False), None)
        assert path._transports[key][1] != ()

    def test_rows_past_the_kept_counts_are_integrated(self, monkeypatch):
        # the identity stops below the top count; under a tolerance no
        # estimate meets, a vector passes at no kept count and continues up
        # the ladder: one frame read per count above the kept ones
        import shape_transport.paths as paths_mod
        path = _path(152)
        base = ZRShape(100, path.points[0])
        transport_sigma(path, random_tangent(base, 153))
        transport_sigma(path, random_tangent(base, 154))
        counts, _ = path._transports[(("zr", False), None)][1]
        assert counts == (12, 24)  # of the ladder 12, 24, 48, 96
        monkeypatch.setattr(paths_mod, "_LADDER_TOL", 0.0)
        frames = _count_frames(monkeypatch)
        w = random_tangent(base, 155)
        got = transport_sigma(path, w)
        assert len(frames) == 2  # at 48 and 96 steps
        ref = transport_sigma(_fresh(path), w)
        assert got.steps == ref.steps == 96
        assert norm_raw(got.w_end - ref.w_end) <= 1e-13 * norm_raw(ref.w_end)

    def test_geometries_and_step_counts_never_share(self):
        path = _path(155)
        w = random_tangent(ZRShape(100, path.points[0]), 156, horizontal=True)
        calls = [partial(transport_sigma, steps_per_unit=256), transport_invariant,
                 partial(transport_sigma, steps_per_unit=64)]
        for fn in calls:
            for _ in range(2):
                got = fn(path, w)
                ref = fn(_fresh(path), w)
                assert norm_raw(got.w_end - ref.w_end) <= 1e-13 * norm_raw(ref.w_end)
        assert len(path._transports) == 3
        sigma = transport_sigma(path, w).w_end
        assert norm_raw(sigma - transport_invariant(path, w).w_end) > 1e-6

    def test_nontangent_vector_rejected_on_memo_route(self):
        path = _path(130)
        w = random_tangent(ZRShape(100, path.points[0]), 157)
        transport_sigma(path, w)
        transport_sigma(path, w)
        bad = np.zeros(201)
        bad[2] = 1.0
        with pytest.raises(ValueError):
            transport_sigma(path, bad)

    def test_vertical_vector_rejected_on_memo_route(self):
        path = _path(131, invariant=True)
        w = random_tangent(ZRShape(100, path.points[0]), 158, horizontal=True)
        transport_invariant(path, w)
        transport_invariant(path, w)
        with pytest.raises(ValueError):
            transport_invariant(path, vertical_row(path.points[0]))

    def test_drift_limit_on_both_routes(self, monkeypatch):
        import shape_transport.paths as paths_mod
        path = _path(132)
        w = random_tangent(ZRShape(100, path.points[0]), 159)
        monkeypatch.setattr(paths_mod, "_DRIFT_LIMIT", -1.0)
        for _ in range(3):  # integration, matrix, product
            with pytest.raises(NumericalError):
                transport_sigma(path, w)


def _span_case(case):
    """(path, vectors, transport, steps_per_unit, invariant) of a span-route
    case: two relaxed pairs, a quotient pair, a path of length 2 and an
    N = 300 pair."""
    if case == "quotient":
        path = geodesic_between_invariant(random_sigma_shape(4), random_sigma_shape(5))
        ws = [random_tangent(path.base, 60 + j, horizontal=True).coeffs for j in range(3)]
        return path, ws, transport_invariant, 256, True
    if case == "n300":
        rng = np.random.default_rng(3)
        decay = np.concatenate([[1.0], np.repeat(np.arange(1, 301), 2)]) ** 1.5
        a, b = (project_to_sigma(ZRShape(300, rng.normal(size=601) * 0.35 / decay))
                for _ in range(2))
        path = geodesic_between(a, b)
        ws = [project_tangent(a, rng.normal(size=601) / decay).coeffs for _ in range(3)]
    elif case == "long":
        base = random_sigma_shape(7)
        path = exp_map(base, random_tangent(base, 8), 2.0)
        ws = [random_tangent(base, 9 + j).coeffs for j in range(3)]
    else:
        seed = int(case[-1])
        path = geodesic_between(random_sigma_shape(seed), random_sigma_shape(seed + 1))
        ws = [random_tangent(path.base, 50 + seed + j).coeffs for j in range(3)]
    return path, ws, partial(transport_sigma, steps_per_unit=64), 64, False


class TestSpanRoute:
    """From the second vector on a submanifold path keeps its transport in the
    span of the excluded rows and their rate duals, checked against every
    frame table; the quotient takes no span and keeps its transport in the
    full space."""

    @pytest.mark.parametrize("case", ["pair0", "pair2", "quotient", "long", "n300"])
    def test_products_match_the_rk4_loop(self, case, monkeypatch):
        path, ws, fn, spu, invariant = _span_case(case)
        if invariant:
            monkeypatch.setattr(zr_transport, "_span", _no_span)
        for j, w in enumerate(ws):  # integration, matrices, product
            if j == 1:
                tables = _count_frames(monkeypatch)
            got = fn(path, w)
        weights = _metric_weights(path.points.shape[1] // 2)
        ref, ref_drift = orc.transport_rk4_loop(
            path, ws[-1], partial(orc.zr_frame, horizontal=invariant), weights, spu)
        assert norm_raw(got.w_end - ref) <= 1e-12 * norm_raw(ref)
        assert abs(got.norm_drift - ref_drift) <= 1e-13
        route, (counts, stack) = path._transports[(("zr", invariant), spu)]
        d = path.points.shape[1]
        if case == "quotient":
            assert route.into is None and stack.shape == (1, d, d)
            # the build reads its one count's table, neither the start frame
            # nor a second table; the product reads none
            assert tables == [2 * counts[0] + 1]
        else:
            r = route.into.shape[1]
            assert stack.shape == (len(counts), r, r)
            assert 2 * r < d

    def test_full_space_fallback_agrees(self, monkeypatch):
        import shape_transport.paths as paths_mod
        path, ws, fn, spu, _ = _span_case("pair2")
        got = [fn(path, w).w_end for w in ws]
        monkeypatch.setattr(paths_mod, "_SPAN_TOL", 0.0)
        full = _fresh(path)
        for w, want in zip(ws, got):
            assert norm_raw(fn(full, w).w_end - want) <= 1e-13 * norm_raw(want)
        route, (_, stack) = full._transports[(("zr", False), spu)]
        assert route.into is None and stack.shape == (1, 201, 201)

    def test_rows_past_the_kept_counts_leave_the_span_for_the_full_space(self, monkeypatch):
        # under a tolerance no estimate meets, a product continues up the
        # ladder, and a table no span holds sends the path to the full space
        import shape_transport.paths as paths_mod
        path, ws, _, _, _ = _span_case("pair2")
        for w in ws[:2]:
            transport_sigma(path, w)
        monkeypatch.setattr(paths_mod, "_LADDER_TOL", 0.0)
        monkeypatch.setattr(paths_mod, "_SPAN_TOL", 0.0)
        got = transport_sigma(path, ws[2])
        ref = transport_sigma(_fresh(path), ws[2])
        route, (counts, stack) = path._transports[(("zr", False), None)]
        assert got.steps == ref.steps == counts[-1] == route.counts[-1]
        assert norm_raw(got.w_end - ref.w_end) <= 1e-13 * norm_raw(ref.w_end)
        assert route.into is None and stack.shape == (len(counts), 201, 201)

    def test_products_evaluate_no_grid(self, monkeypatch):
        from shape_transport import zr_space
        path, ws, _, _, _ = _span_case("pair0")
        for w in ws[:2]:
            transport_sigma(path, w)
        calls = []
        orig = zr_space.eval_on_grid

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(zr_space, "eval_on_grid", counted)
        block = np.stack(ws + [path.v0])
        assert transport_sigma(path, block).steps > 0
        assert calls == []

    def test_kept_data_is_the_span_size(self, monkeypatch):
        # the first transport keeps its route; the second asks the span hook
        # once, with a table, and reads no start frame again
        path, ws, _, _, _ = _span_case("pair2")
        transport_sigma(path, ws[0])
        route, kept = path._transports[(("zr", False), None)]
        assert list(path._transports) == [(("zr", False), None)] and kept == ()
        assert route.into is None  # the full space until the build asks for a span
        hook, asked = zr_transport._span, []

        def span(path, table):
            asked.append(table is not None)
            return hook(path, table)

        monkeypatch.setattr(zr_transport, "_span", span)
        tables = _count_frames(monkeypatch)
        transport_sigma(path, ws[1])
        assert asked == [True] and min(tables) > 1  # no one-point start frame
        route, (counts, stack) = path._transports[(("zr", False), None)]
        r = route.into.shape[1]
        assert stack.shape == (len(counts), r, r) and r < 201

    def test_small_path_keeps_from_the_second_vector(self):
        # at N = 4 the d = 9 coordinates equal one fused step's rank 3k: the
        # full space steps, so the first transport keeps nothing, and the
        # second keeps a composed span of at most 9 coordinates
        rng = np.random.default_rng(4)
        decay = np.concatenate([[1.0], np.repeat(np.arange(1, 5), 2)]) ** 1.5
        a, b = (project_to_sigma(ZRShape(4, rng.normal(size=9) * 0.35 / decay))
                for _ in range(2))
        path = geodesic_between(a, b)
        weights = _metric_weights(4)
        for j in range(3):  # integration, composed matrix, product
            w = project_tangent(a, rng.normal(size=9) / decay).coeffs
            got = transport_sigma(path, w, steps_per_unit=64)
            ref, _ = orc.transport_rk4_loop(path, w, orc.zr_frame, weights, 64)
            assert norm_raw(got.w_end - ref) <= 1e-12 * norm_raw(ref)
            route, kept = path._transports[(("zr", False), 64)]
            assert (kept == ()) == (j == 0)
        r = route.into.shape[1]
        assert route.compose and r <= 9 and kept[1].shape == (len(kept[0]), r, r)
