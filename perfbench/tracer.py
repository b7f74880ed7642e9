"""Spans around the calls into fflab's layers, recorded from outside the package.

Tracer.install() replaces each public function of the layer modules, in
every fflab module that holds a reference to it, with a wrapper that
records a span: id, parent, name, start, end and, for a few functions, a
count.  Span ids are (pid, sequence number).  Pool workers forked while
the tracer is installed inherit the wrappers and the stack of open spans,
so their spans name the parent's dispatch span as parent.  A worker's
memory is lost when its pool is torn down, so each worker appends every
finished span tree to a file of its own, and the parent reads the files
back after the unit.

layer_metrics() turns the spans into the per-layer metrics.  Self time is
attributed by wall time: at each instant, the spans that are open and
have no open child share that instant equally.  The shares of all layers
therefore add up to the time covered by spans, also when pool workers
run side by side.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("models", "gf2", "gfp", "analyzer", "theory", "harness")
# Pool dispatch has no public function of its own.
PRIVATE_TRACED = {"harness": ("_pool_map",)}
COUNTERS = {
    "gf2.gf2_rank_nullspace": lambda args, result: args[0].words.nbytes,
    "gfp.gfp_rank": lambda args, result: args[0].entries.nbytes,
    "analyzer.enumerate_codewords": lambda args, result: len(result),
}
LARGE_BASIS = ("analyzer.greedy_large_basis", "analyzer.is_simple_sequence",
               "analyzer.intersection_structure")
MIN_P90_SAMPLES = 100

# (name, unit, better); p90 reads 0 when a run has fewer than MIN_P90_SAMPLES
# samples, and a metric of a layer the workload never calls reads 0.
PER_LAYER = (
    ("models.sample_ms.p50", "ms", "lower"),
    ("models.sample_ms.p90", "ms", "lower"),
    ("models.calls", "count", "higher"),
    ("models.self_share", "ratio", "lower"),
    ("gf2.eliminate_ms.p50", "ms", "lower"),
    ("gf2.eliminate_ms.p90", "ms", "lower"),
    ("gf2.calls", "count", "higher"),
    ("gf2.self_share", "ratio", "lower"),
    ("gf2.matrix_bytes", "bytes_computed", "lower"),
    ("gfp.rank_ms.p50", "ms", "lower"),
    ("gfp.rank_ms.p90", "ms", "lower"),
    ("gfp.calls", "count", "higher"),
    ("gfp.self_share", "ratio", "lower"),
    ("gfp.matrix_bytes", "bytes_computed", "lower"),
    ("analyzer.enumerate_ms.p50", "ms", "lower"),
    ("analyzer.classify_ms.p50", "ms", "lower"),
    ("analyzer.cross_check_ms.p50", "ms", "lower"),
    ("analyzer.large_basis_ms.p50", "ms", "lower"),
    ("analyzer.codewords", "count", "higher"),
    ("analyzer.cross_check_calls", "count", "higher"),
    ("analyzer.self_share", "ratio", "lower"),
    ("theory.build_table_s", "s", "lower"),
    ("theory.self_share", "ratio", "lower"),
    ("harness.summarize_ms", "ms", "lower"),
    ("harness.compare_ms", "ms", "lower"),
    ("harness.self_share", "ratio", "lower"),
    ("harness.pool_efficiency", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self, sink_dir: Path) -> None:
        self.sink_dir = sink_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, int]] = []
        self._seq = 0
        self._patched: list[tuple[object, str, object]] = []
        self._worker_root_depth: int | None = None

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fflab" or name.startswith("fflab.")]
        for layer in LAYERS:
            module = importlib.import_module(f"fflab.{layer}")
            names = [name for name, fn in vars(module).items()
                     if inspect.isfunction(fn) and fn.__module__ == module.__name__
                     and not name.startswith("_")]
            names += [name for name in PRIVATE_TRACED.get(layer, ()) if hasattr(module, name)]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def collect_worker_spans(self) -> None:
        for path in sorted(self.sink_dir.glob("spans.*.jsonl")):
            with open(path, encoding="utf-8") as f:
                self.spans.extend(_span_from_json(json.loads(line)) for line in f)
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(_span_to_json(span)) + "\n")

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, counter, args, kwargs)
        return traced

    def _call(self, name, fn, counter, args, kwargs):
        pid = os.getpid()
        if pid != self.pid:   # first call in a forked pool worker
            self.pid = pid
            self.spans = []
            self._worker_root_depth = len(self._stack)
        self._seq += 1
        sid = (pid, self._seq)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
        count = counter(args, result) if counter else None
        self.spans.append((sid, parent, name, start, end, count))
        if self._worker_root_depth == len(self._stack):
            with open(self.sink_dir / f"spans.{pid}.jsonl", "a", encoding="utf-8") as f:
                f.writelines(json.dumps(_span_to_json(s)) + "\n" for s in self.spans)
            self.spans = []
        return result


def _span_to_json(span: tuple) -> list:
    sid, parent, name, start, end, count = span
    return [list(sid), list(parent) if parent else None, name, start, end, count]


def _span_from_json(row: list) -> tuple:
    sid, parent, name, start, end, count = row
    return (tuple(sid), tuple(parent) if parent else None, name, start, end, count)


def attribute(spans: list[tuple]) -> tuple[dict[str, float], float]:
    """Wall seconds attributed to each layer, and the seconds covered by any span."""
    parent_of = {s[0]: s[1] for s in spans}
    layer_of = {s[0]: s[2].split(".", 1)[0] for s in spans}
    events = sorted([(s[3], 1, s[0]) for s in spans] + [(s[4], 0, s[0]) for s in spans])
    open_children: dict[tuple, int] = defaultdict(int)
    active: set[tuple] = set()
    leaves: set[tuple] = set()
    by_layer: dict[str, float] = defaultdict(float)
    covered = 0
    last = None
    for t, is_start, sid in events:
        if leaves and t > last:
            dt = t - last
            covered += dt
            for leaf in leaves:
                by_layer[layer_of[leaf]] += dt / len(leaves)
        last = t
        parent = parent_of[sid] if parent_of[sid] in parent_of else None
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in active:
                    leaves.add(parent)
    return {k: v / 1e9 for k, v in by_layer.items()}, covered / 1e9


def _p50(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= MIN_P90_SAMPLES else 0.0


def layer_metrics(spans: list[tuple], traced_wall_s: float, untraced_wall_s: float,
                  workers: int) -> dict[str, float]:
    """Every PER_LAYER metric, from the spans of the traced units.

    traced_wall_s and untraced_wall_s are the summed unit times of the
    same units run with and without the tracer.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[tuple, list[tuple]] = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append(s)

    def ms(s: tuple) -> float:
        return (s[4] - s[3]) / 1e6

    def named(*names: str) -> list[tuple]:
        return [s for s in spans if s[2] in names]

    def layer(s: tuple | None) -> str | None:
        return s[2].split(".", 1)[0] if s else None

    models_entries = [ms(s) for s in spans
                      if layer(s) == "models" and layer(by_id.get(s[1])) != "models"]
    eliminate = named("gf2.gf2_rank_nullspace")
    rank = named("gfp.gfp_rank")
    cross = named("analyzer.connected_functional_digraph")
    large = [sum(ms(c) for c in children[s[0]] if c[2] in LARGE_BASIS)
             for s in named("analyzer.analyze_matrix")]
    busy = dispatched = 0.0
    for s in spans:
        worker_children = [c for c in children[s[0]] if c[0][0] != s[0][0]]
        if worker_children:
            busy += sum(ms(c) for c in worker_children)
            dispatched += workers * ms(s)
    shares, covered = attribute(spans)
    out = {
        "models.sample_ms.p50": _p50(models_entries),
        "models.sample_ms.p90": _p90(models_entries),
        "models.calls": len(models_entries),
        "gf2.eliminate_ms.p50": _p50([ms(s) for s in eliminate]),
        "gf2.eliminate_ms.p90": _p90([ms(s) for s in eliminate]),
        "gf2.calls": len(eliminate),
        "gf2.matrix_bytes": _p50([s[5] for s in eliminate]),
        "gfp.rank_ms.p50": _p50([ms(s) for s in rank]),
        "gfp.rank_ms.p90": _p90([ms(s) for s in rank]),
        "gfp.calls": len(rank),
        "gfp.matrix_bytes": _p50([s[5] for s in rank]),
        "analyzer.enumerate_ms.p50": _p50([ms(s) for s in named("analyzer.enumerate_codewords")]),
        "analyzer.classify_ms.p50": _p50([ms(s) for s in named("analyzer.classify")]),
        "analyzer.cross_check_ms.p50": _p50([ms(s) for s in cross]),
        "analyzer.large_basis_ms.p50": _p50(large),
        "analyzer.codewords": sum(s[5] for s in named("analyzer.enumerate_codewords")),
        "analyzer.cross_check_calls": len(cross),
        "theory.build_table_s": _p50([ms(s) / 1e3 for s in named("theory.build_table")]),
        "harness.summarize_ms": _p50([ms(s) for s in named("harness.summarize")]),
        "harness.compare_ms": _p50([ms(s) for s in named("harness.compare_to_theory")]),
        "harness.pool_efficiency": busy / dispatched if dispatched else 0.0,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1 if untraced_wall_s else 0.0,
        "trace.coverage": covered / traced_wall_s if traced_wall_s else 0.0,
    }
    for name in LAYERS:
        out[f"{name}.self_share"] = shares.get(name, 0.0) / covered if covered else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER}
