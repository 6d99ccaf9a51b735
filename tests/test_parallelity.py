"""Directional agreement of transplanted deformations: rho and its calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from conftest import random_horizontal_k, random_preshape, random_sigma_shape, random_tangent
from shape_transport import (
    DimensionMismatchError,
    PreShape,
    ZRShape,
    compare_growth,
    exp_kendall,
    exp_map,
    geodesic_kendall,
    mu,
    rho,
    transplant_growth,
    transport_invariant,
    transport_kendall,
    transport_sigma,
)
from shape_transport.zr_space import norm_raw

TABLE_RHO = (0.17, 0.12, 0.44, 0.083)
TABLE_MU = (0.99, 0.96, 1.0, 0.88)


class TestRho:
    def test_aligned(self):
        v = np.arange(1.0, 10.0)
        assert rho(v, 3.0 * v) == pytest.approx(1.0, abs=1e-15)

    def test_sign_blind(self):
        v = np.arange(1.0, 10.0)
        assert rho(v, -v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert rho([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_known_angle(self):
        assert rho([1.0, 0.0], [1.0, 1.0]) == pytest.approx(np.sqrt(0.5))

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant(self, a, b):
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=12), rng.normal(size=12)
        assert rho(a * v, b * w) == pytest.approx(rho(v, w), abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            rho(np.zeros(5), np.ones(5))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rho(np.ones(5), np.ones(6))

    def test_never_above_one(self):
        v = np.ones(4)
        assert rho(v, v + 1e-16) <= 1.0


class TestMu:
    def test_chance_level(self):
        for n in (3, 10, 201):
            assert mu(0.0, n) == pytest.approx(0.5, abs=1e-10)

    def test_perfect_alignment(self):
        for n in (3, 10, 201):
            assert mu(1.0, n) == pytest.approx(1.0, abs=1e-12)

    def test_n3_closed_form(self):
        # in three dimensions the calibration is exactly (1 + rho) / 2
        for r in np.linspace(0.0, 1.0, 100):
            assert mu(r, 3) == pytest.approx((1.0 + r) / 2.0, abs=1e-10)

    def test_monotone_in_rho(self):
        grid = np.linspace(0.0, 1.0, 50)
        vals = [mu(r, 21) for r in grid]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_matches_dense_trapezoid_oracle(self):
        for r in (0.05, 0.17, 0.44, 0.8):
            for variant in ("arccos", "sqrt_arccos"):
                assert mu(r, 201, variant) == pytest.approx(
                    orc.mu_trapz(r, 201, variant), abs=1e-8)

    @pytest.mark.parametrize("variant", ["arccos", "sqrt_arccos"])
    def test_matches_regularized_incomplete_beta(self, variant):
        # mu = 1 - I_x((n-1)/2, 1/2) / 2 at x = sin^2(upper), from SciPy as
        # 1/2 + I_y(1/2, (n-1)/2) / 2 at y = cos^2(upper) = 1 - x: x rounded
        # near 1 (rho near 0) would move I by up to 2e-13 at n = 5001
        from scipy.special import betainc
        for n in [*range(3, 60), 101, 150, 201, 202, 999, 1000, 5001]:
            for r in np.linspace(0.0, 1.0, 241):
                angle = math.acos(r)
                upper = math.sqrt(angle) if variant == "sqrt_arccos" else angle
                ref = 0.5 + 0.5 * betainc(0.5, (n - 1) / 2.0, math.cos(upper) ** 2)
                assert abs(mu(r, n, variant) - ref) <= 1e-14

    @pytest.mark.parametrize("variant", ["arccos", "sqrt_arccos"])
    def test_matches_mpmath_incomplete_beta(self, variant):
        # the same identity against a 40-digit reference, down to rho near 0
        # at large n, where x = sin^2(upper) nears 1
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in (3, 4, 57, 1000, 5001):
                for r in [*np.linspace(0.0, 1.0, 121), 0.0083, 1e-3, 1e-6]:
                    upper = mp.acos(mp.mpf(float(r)))
                    if variant == "sqrt_arccos":
                        upper = mp.sqrt(upper)
                    ref = 1 - mp.betainc((n - 1) / mp.mpf(2), 0.5, 0, mp.sin(upper) ** 2,
                                         regularized=True) / 2
                    assert abs(mu(float(r), n, variant) - float(ref)) <= 5e-14

    def test_published_calibration_row(self):
        for r, expect in zip(TABLE_RHO, TABLE_MU):
            assert mu(r, 201) == pytest.approx(expect, abs=0.015)

    def test_sqrt_variant_saturates(self):
        # sqrt compression of the angle pushes every moderate rho toward 1
        for r in TABLE_RHO:
            assert mu(r, 201, "sqrt_arccos") > 0.999

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            mu(0.5, 2)

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            mu(1.5, 10)
        with pytest.raises(ValueError):
            mu(-0.2, 10)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            mu(0.5, 10, "linear")


def _zr_growth(seed, invariant=False):
    base = random_sigma_shape(seed)
    v = random_tangent(base, seed + 300, horizontal=invariant)
    return exp_map(base, v, 0.25, invariant=invariant)


def _kendall_growth(seed, k=5):
    x = random_preshape(seed, k=k)
    v = random_horizontal_k(x, seed + 300)
    return exp_kendall(x, v, 0.4)


class TestTransplant:
    def test_sigma_norm_preserved(self):
        growth = _zr_growth(200)
        target = random_sigma_shape(201)
        out = transplant_growth(growth, target)
        assert norm_raw(out.transported) == pytest.approx(
            norm_raw(growth.v0), abs=1e-9)
        assert out.connecting.points.shape[1] == 201

    def test_invariant_dispatch(self):
        growth = _zr_growth(202, invariant=True)
        target = random_sigma_shape(203)
        out = transplant_growth(growth, target)
        assert out.connecting.space == "zr_invariant"

    def test_kendall_dispatch(self):
        growth = _kendall_growth(204)
        target = random_preshape(205, k=5)
        out = transplant_growth(growth, target)
        assert out.connecting.space == "kendall"
        assert np.linalg.norm(out.transported) == pytest.approx(
            np.linalg.norm(growth.v0), abs=1e-9)

    def test_self_residual_is_the_connecting_velocity_miss(self):
        # growth.v0 and connecting.v0 travel as one block: no ZR matrix is
        # kept, and the Kendall great circle keeps its composed one
        cases = [(_zr_growth(210), random_sigma_shape(211), transport_sigma, norm_raw),
                 (_zr_growth(212, invariant=True), random_sigma_shape(213),
                  transport_invariant, norm_raw),
                 (_kendall_growth(214), random_preshape(215, k=5), transport_kendall,
                  np.linalg.norm)]
        for growth, target, fn, norm in cases:
            out = transplant_growth(growth, target)
            path = out.connecting
            kept = [v[1] != () for v in path._transports.values()]
            assert kept == [fn is transport_kendall]
            alone = fn(path, path.v0).w_end
            assert out.self_residual == pytest.approx(norm(alone - path.v_end), abs=1e-12)
            moved = fn(path, growth.v0)
            assert np.abs(moved.w_end - out.transported).max() <= 1e-12
            assert moved.norm_drift == pytest.approx(out.transport.norm_drift, abs=1e-14)
        # submanifold and Kendall transports end on the path's own velocity
        assert transplant_growth(*cases[0][:2]).self_residual < 1e-3
        assert transplant_growth(*cases[2][:2]).self_residual < 1e-6

    def test_same_base_passthrough(self):
        # a one-sample connecting path takes no transport step in either space
        for growth in (_zr_growth(206), _kendall_growth(209)):
            out = transplant_growth(growth, growth.base)
            assert out.connecting.T == 0.0
            assert out.transport.steps == 0
            assert out.self_residual == 0.0
            assert np.abs(out.transported - growth.v0).max() < 1e-12

    def test_target_type_checked(self):
        growth = _zr_growth(207)
        with pytest.raises(DimensionMismatchError):
            transplant_growth(growth, random_preshape(1))
        kg = _kendall_growth(208)
        with pytest.raises(DimensionMismatchError):
            transplant_growth(kg, random_sigma_shape(2))


class TestCompare:
    def test_self_comparison_is_perfect(self):
        growth = _zr_growth(210)
        report, _ = compare_growth(growth, growth)
        assert report["rho"] == pytest.approx(1.0, abs=1e-9)
        assert report["mu"] == pytest.approx(1.0, abs=1e-9)

    def test_report_keys(self):
        a, b = _zr_growth(211), _zr_growth(212)
        report, outcome = compare_growth(a, b, pair=("young", "old"))
        assert set(report) == {"pair", "rho", "mu", "n", "mu_variant"}
        assert report["pair"] == ["young", "old"]
        assert report["n"] == 201
        assert 0.0 <= report["rho"] <= 1.0
        assert 0.0 <= report["mu"] <= 1.0
        assert outcome.transport.norm_drift < 1e-6

    def test_variant_forwarded(self):
        a, b = _zr_growth(213), _zr_growth(214)
        r1, _ = compare_growth(a, b, mu_variant="sqrt_arccos")
        assert r1["mu_variant"] == "sqrt_arccos"
        assert r1["mu"] == pytest.approx(
            mu(r1["rho"], 201, "sqrt_arccos"), abs=1e-12)

    def test_explicit_n(self):
        a, b = _zr_growth(215), _zr_growth(216)
        report, _ = compare_growth(a, b, n=33)
        assert report["n"] == 33
        assert report["mu"] == pytest.approx(mu(report["rho"], 33), abs=1e-12)

    def test_mixed_spaces_rejected(self):
        with pytest.raises(DimensionMismatchError):
            compare_growth(_zr_growth(217), _kendall_growth(218))

    def test_kendall_pair(self):
        a = _kendall_growth(219)
        b = _kendall_growth(220)
        report, _ = compare_growth(a, b)
        assert report["n"] == a.base.flat.size
        assert 0.0 <= report["rho"] <= 1.0
