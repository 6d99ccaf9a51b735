"""Spans and counts around the public functions of each layer, installed from
the benchmark's own files.

Each traced function is replaced by a wrapper in every ``shape_transport``
module namespace that holds a reference to it (``zr_geodesic`` keeps its own
imported ``project_to_sigma_batch``, the package re-exports most names), and
methods are replaced on their class.  Spans (name, start, end, parent span,
operation id) and counts stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) -> how much to record.  "span" records a span per call;
# "count" only counts calls, for functions called so often that a span would
# distort the run; "command" records a span named after the CLI command.
TARGETS = {
    ("cli", "main"): "command",
    ("zr_space", "project_to_sigma_batch"): "span",
    ("zr_space", "project_to_sigma"): "span",
    ("zr_space", "constraint_frame"): "span",
    ("zr_space", "eval_on_grid"): "count",
    ("zr_geodesic", "geodesic_between"): "span",
    ("zr_geodesic", "exp_map"): "span",
    ("zr_transport", "transport_sigma"): "span",
    ("kendall", "geodesic_kendall"): "span",
    ("kendall", "transport_kendall"): "span",
    ("parallelity", "compare_growth"): "span",
    ("parallelity", "transplant_growth"): "span",
    ("parallelity", "mu"): "span",
    ("paths", "GeodesicPath.point_at"): "span",
    ("contour_io", "contour_to_zr"): "span",
    ("contour_io", "zr_to_contour"): "span",
    ("contour_io", "diameter"): "span",
    ("contour_io", "contour_strip_svg"): "span",
    ("contour_io", "atomic_write_text"): "span",
    ("polygons", "self_intersects"): "span",
}

CLI_COMMANDS = ("ingest", "geodesic", "transplant", "demo")

# Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = [
    ("zr_space.project_to_sigma_batch.calls", "count"),
    ("zr_space.project_to_sigma_batch.time_s", "s"),
    ("zr_space.project_to_sigma.calls", "count"),
    ("zr_space.project_to_sigma.time_s", "s"),
    ("zr_space.constraint_frame.calls", "count"),
    ("zr_space.constraint_frame.time_s", "s"),
    ("zr_space.eval_on_grid.calls", "count"),
    ("zr_geodesic.geodesic_between.calls", "count"),
    ("zr_geodesic.geodesic_between.time_s", "s"),
    ("zr_geodesic.geodesic_between.self_s", "s"),
    ("zr_geodesic.projector_calls_per_geodesic", "count"),
    ("zr_geodesic.exp_map.calls", "count"),
    ("zr_geodesic.exp_map.time_s", "s"),
    ("zr_transport.transport_sigma.calls", "count"),
    ("zr_transport.transport_sigma.time_s", "s"),
    ("zr_transport.steps", "count"),
    ("zr_transport.us_per_step", "us"),
    ("kendall.geodesic_kendall.time_s", "s"),
    ("kendall.transport_kendall.calls", "count"),
    ("kendall.transport_kendall.time_s", "s"),
    ("kendall.steps", "count"),
    ("kendall.us_per_step", "us"),
    ("parallelity.compare_growth.time_s", "s"),
    ("parallelity.compare_growth.self_s", "s"),
    ("parallelity.transplant_growth.time_s", "s"),
    ("parallelity.mu.calls", "count"),
    ("parallelity.mu.time_s", "s"),
    ("paths.point_at.calls", "count"),
    ("paths.point_at.time_s", "s"),
    ("contour_io.contour_to_zr.time_s", "s"),
    ("contour_io.zr_to_contour.calls", "count"),
    ("contour_io.zr_to_contour.time_s", "s"),
    ("contour_io.diameter.calls", "count"),
    ("contour_io.diameter.time_s", "s"),
    ("contour_io.contour_strip_svg.time_s", "s"),
    ("contour_io.atomic_write_text.calls", "count"),
    ("contour_io.atomic_write_text.bytes", "B"),
    ("contour_io.atomic_write_text.time_s", "s"),
    ("polygons.self_intersects.calls", "count"),
    ("polygons.self_intersects.time_s", "s"),
    ("cli.import_s", "s"),
] + [(f"cli.command_s.{c}", "s") for c in CLI_COMMANDS]

# Transport results carry their RK4 step count; summed per integrator.
_STEP_COUNTERS = {"zr_transport.transport_sigma": "zr_transport.steps",
                  "kendall.transport_kendall": "kendall.steps"}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.counts = {}
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, name: str, fn):
        step_key = _STEP_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if step_key is not None:
                self.add(step_key, out.steps)
            elif name == "contour_io.atomic_write_text":
                text = args[1] if len(args) > 1 else kwargs["text"]
                self.add(name + ".bytes", len(text.encode()))
            return out
        return traced

    def _command_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(argv, *args, **kwargs):
            command = next(a for a in argv if a in CLI_COMMANDS)
            idx = self.begin(f"cli.command.{command}")
            try:
                return fn(argv, *args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        homes = {mod_name: importlib.import_module(f"shape_transport.{mod_name}")
                 for mod_name, _ in TARGETS}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "shape_transport"
                                         or k.startswith("shape_transport."))]
        for (mod_name, attr), mode in TARGETS.items():
            home = homes[mod_name]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            make = {"span": self._span_wrapper, "count": self._count_wrapper,
                    "command": self._command_wrapper}[mode]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, make(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = make(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- derived metrics ---------------------------------------------------

    def summary(self) -> dict:
        """calls, time_s and self_s per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["time_s"] += end - start
            s["self_s"] += end - start - child[i]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called name that run inside a span called ancestor."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def metrics(self, import_s: float, rounds: int) -> dict:
        s = self.summary()

        def get(name, key):
            return s.get(name, {}).get(key, 0.0)

        out = {}
        for metric, _ in PER_LAYER:
            head, _, tail = metric.rpartition(".")
            if tail in ("calls", "time_s", "self_s") and head in s:
                out[metric] = get(head, tail)
            elif tail in ("calls", "time_s", "self_s"):
                out[metric] = self.counts.get(head, 0) if tail == "calls" else 0.0
        geodesics = get("zr_geodesic.geodesic_between", "calls")
        out["zr_geodesic.projector_calls_per_geodesic"] = (
            self.calls_under("zr_space.project_to_sigma_batch",
                             "zr_geodesic.geodesic_between") / geodesics
            if geodesics else 0.0)
        for integrator, fn in (("zr_transport", "transport_sigma"),
                               ("kendall", "transport_kendall")):
            steps = self.counts.get(f"{integrator}.steps", 0)
            out[f"{integrator}.steps"] = steps
            out[f"{integrator}.us_per_step"] = (
                1e6 * get(f"{integrator}.{fn}", "time_s") / steps if steps else 0.0)
        out["contour_io.atomic_write_text.bytes"] = self.counts.get(
            "contour_io.atomic_write_text.bytes", 0)
        out["cli.import_s"] = import_s
        for c in CLI_COMMANDS:
            out[f"cli.command_s.{c}"] = get(f"cli.command.{c}", "time_s") / rounds
        return out
