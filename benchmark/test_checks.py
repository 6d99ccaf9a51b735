"""The benchmark's checks must be able to fail.

Each test runs one smoke round of a workload through the benchmark's own
runner, corrupts one operation's output, and requires that operation (and
no other) to be counted as failed.  One more test requires that a seed
always generates the same inputs.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import importlib
import json
import pickle

import numpy as np
import pytest

import run

run._import_program()


def _pass_with(monkeypatch, wl, state, corrupt_index, corrupt, in_process=False):
    """One timed pass in which operation corrupt_index's output is corrupted."""
    ops = wl.ops(state)
    plain_run = wl.run_op

    def corrupting_run(st, op, in_process):
        out = plain_run(st, op, in_process)
        return corrupt(op, out) if op is ops[corrupt_index] else out

    with monkeypatch.context() as m:
        m.setattr(wl, "run_op", corrupting_run)
        return run.timed_pass(wl, state, ops, in_process)


def _failed(result) -> list[int]:
    return [i for i, f in enumerate(result["failures"]) if f]


def _rotate(w, other, angle):
    """Rotate w by angle toward the part of other orthogonal to it (Euclidean),
    keeping its length."""
    u = other - np.dot(other, w) / np.dot(w, w) * w
    u *= np.linalg.norm(w) / np.linalg.norm(u)
    return np.cos(angle) * w + np.sin(angle) * u


def test_zr_growth_clean_then_perturbed_mu(tmp_path, monkeypatch):
    wl = importlib.import_module("zr_growth")
    state = wl.generate(5, 1, tmp_path)
    clean = run.timed_pass(wl, state, wl.ops(state), False)
    assert _failed(clean) == []

    def bump_mu(op, out):
        out["report"] = dict(out["report"], mu=out["report"]["mu"] + 1e-6)
        return out

    bad = _pass_with(monkeypatch, wl, state, 1, bump_mu)
    assert _failed(bad) == [1]
    assert bad["failures"][1] == ["mu"]


def test_zr_growth_rotated_transport(tmp_path, monkeypatch):
    wl = importlib.import_module("zr_growth")
    state = wl.generate(5, 1, tmp_path)

    def rotate(op, out):
        w = np.asarray(out["transported"], dtype=float)
        out["transported"] = _rotate(w, out["fit_a"].v0, 1e-3)
        return out

    bad = _pass_with(monkeypatch, wl, state, 0, rotate)
    assert _failed(bad) == [0]
    assert "rho" in bad["failures"][0]


@pytest.mark.parametrize("kind", ["zr", "kendall"])
def test_transport_fan_rotated_vector(tmp_path, monkeypatch, kind):
    wl = importlib.import_module("transport_fan")
    state = wl.generate(5, 1, tmp_path)
    paths, ops = state.paths, state.ops
    target = next(i for i, op in enumerate(ops)
                  if paths[op.path_index].kind == kind and op.role == "random"
                  and (kind == "zr" or paths[op.path_index].path.base.m == 2))
    partner = next(i for i, op in enumerate(ops)
                   if op.path_index == ops[target].path_index and op.role == "v0")

    def rotate(op, w):
        return _rotate(w, ops[partner].vector, 1e-3)

    bad = _pass_with(monkeypatch, wl, state, target, rotate)
    failed = _failed(bad)
    assert target in failed
    # the Gram check fails for every vector on that path, nowhere else
    assert {ops[i].path_index for i in failed} == {ops[target].path_index}
    want = "isometry" if kind == "zr" else "planar closed form"
    assert want in bad["failures"][target]


def test_cli_flipped_self_intersecting_flag(tmp_path, monkeypatch):
    wl = importlib.import_module("cli_figures")
    state = wl.generate(5, 1, tmp_path)
    ops = wl.ops(state)
    transplant = next(i for i, (_, argv) in enumerate(ops) if argv[0] == "transplant")
    table = next(i for i, (_, argv) in enumerate(ops) if argv[-1] == "table1")

    def flip(op, rc):
        rnd, argv = op
        name = "transplant.json" if argv[0] == "transplant" else "table1.json"
        path = rnd.workdir / name
        d = json.loads(path.read_text())
        if argv[0] == "transplant":
            d["self_intersecting"][2] = not d["self_intersecting"][2]
        else:
            d["mu_arccos"][0] += 1e-6
        path.write_text(json.dumps(d))
        return rc

    # in process, quicker; the commands and their outputs are the same
    clean = run.timed_pass(wl, state, ops, True)
    # transplant.csv is the one known program fault; nothing else fails
    assert _failed(clean) == [transplant]
    assert clean["failures"][transplant] == [wl.CSV_FAULT]

    bad = _pass_with(monkeypatch, wl, state, transplant, flip, in_process=True)
    assert "self_intersecting flags" in bad["failures"][transplant]
    bad = _pass_with(monkeypatch, wl, state, table, flip, in_process=True)
    assert _failed(bad) == sorted([transplant, table])
    assert bad["failures"][table] == ["mu_arccos"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, name):
    wl = importlib.import_module(name)
    first = pickle.dumps(wl.generate(7, 1, tmp_path))
    assert pickle.dumps(wl.generate(7, 1, tmp_path)) == first
    assert pickle.dumps(wl.generate(8, 1, tmp_path)) != first


def test_benchmark_json_lists_the_metrics():
    import tracing
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_ops_s", "cpu_s_per_op", "setup_s", "peak_rss_mb"}
