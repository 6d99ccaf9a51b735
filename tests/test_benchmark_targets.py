"""The benchmark's tracer names library functions by (module, attribute);
each must still resolve, or `benchmark/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import random_sigma_shape
from shape_transport import zr_space

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return sorted(mod.TARGETS)


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    obj = importlib.import_module(f"shape_transport.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_grid_evaluations_reach_the_traced_name(monkeypatch):
    # the tracer counts eval_on_grid by replacing the zr_space global; one
    # constraint frame makes exactly one grid evaluation through it
    coeffs = random_sigma_shape(0).coeffs
    calls = []
    orig = zr_space.eval_on_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(zr_space, "eval_on_grid", counted)
    zr_space.constraint_frame(coeffs)
    assert len(calls) == 1
