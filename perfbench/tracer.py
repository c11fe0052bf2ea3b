"""Span tracing of quatlink's layers, installed from outside the package.

`install` replaces the module attributes that callers actually look up with
wrappers that record one span per call: (name, start, end, parent index).
`harness` and `wiener` import most of their collaborators by name, so the
wrappers go on those bindings (`quatlink.harness.run_qlms_batch`,
`quatlink.wiener.solve`, ...); patching only the defining module would
record nothing.  `quat.mul`, `modem.*` and `wiener.*` are looked up as module
attributes and are wrapped where they are defined.

Spans stay in memory and are written once, when the experiment ends.
`layer_metrics` turns them into per-layer busy time (outermost spans of a
layer, children included), self time (children excluded) and counts.

Pool workers forked by the harness inherit the wrappers, but their spans
stay in the worker; with `--workers 2` only the parent-side spans (pool
lifetime, waits on results, summary and output) are reported.
"""

import functools
import importlib
import inspect
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("quat", "linalg", "modem", "channel", "adaptive", "wiener", "harness", "cli")


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = [-1]

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        open_span, close_span, counts = self.open, self.close, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced


def _count_products(counts, args, kwargs, result):
    counts["quat.mul.products"] += result.size // 4


def _count_samples(counts, args, kwargs, result):
    counts["channel.samples"] += result.size // 4


def _count_decisions(counts, args, kwargs, result):
    counts["modem.decisions"] += result.size


def _count_bytes(counts, args, kwargs, result):
    counts["cli.bytes_written"] += sum(os.path.getsize(path) for path in result)


def _count_kernel(counts, args, kwargs, result):
    from quatlink.adaptive import run_qlms_batch

    delay = inspect.signature(run_qlms_batch).bind(*args, **kwargs).arguments.get("delay", 0)
    lanes, n = result.traces.shape
    diverged = result.diverged_at >= 0
    # the lockstep loop stops early only when every lane has diverged
    steps = n - delay if not diverged.all() else int(result.diverged_at.max()) + 1 - delay
    counts["adaptive.lanes"] += lanes
    counts["adaptive.lane_steps"] += lanes * steps
    counts["adaptive.diverged_lanes"] += int(diverged.sum())
    # one kernel batch per chunk run in this process
    counts["harness.chunks"] += 1


# (module under quatlink, attribute callers look up, span name, counter)
BINDINGS = (
    ("quat", "mul", "quat.mul", _count_products),
    ("harness", "run_qlms_batch", "adaptive.run_qlms_batch", _count_kernel),
    ("harness", "lag_matrix", "adaptive.lag_matrix", None),
    ("wiener", "lag_matrix", "adaptive.lag_matrix", None),
    ("harness", "derive_rng", "channel.derive_rng", None),
    ("harness", "random_channel_taps", "channel.draw_taps", None),
    ("harness", "random_mimo_grid", "channel.draw_taps", None),
    ("harness", "apply_mimo", "channel.apply_mimo", None),
    ("harness", "convolve", "channel.convolve", _count_samples),
    ("channel", "convolve", "channel.convolve", _count_samples),
    ("harness", "gaussian_quaternions", "channel.noise", None),
    ("channel", "gaussian_quaternions", "channel.noise", None),
    ("harness", "dot_left", "linalg.dot_left", None),
    ("wiener", "dot_left", "linalg.dot_left", None),
    ("wiener", "mean_outer_h", "linalg.mean_outer_h", None),
    ("wiener", "solve", "linalg.solve", None),
    ("wiener", "estimate_statistics", "wiener.stats", None),
    ("wiener", "solve_wiener", "wiener.solve", None),
    ("wiener", "evaluate_mse", "wiener.eval", None),
    ("modem", "index_to_symbol", "modem.index_to_symbol", None),
    ("modem", "hard_decisions", "modem.hard_decisions", _count_decisions),
    ("modem", "count_errors", "modem.count_errors", None),
    ("cli", "parse_args", "cli.parse", None),
    ("cli", "run_experiment", "harness.run_experiment", None),
    ("cli", "summarize", "harness.summarize", None),
    ("cli", "write_outputs", "cli.emit", _count_bytes),
)


def _traced_pool(tracer: Tracer):
    """ProcessPoolExecutor that counts submitted chunks and times the parent's waits."""

    class TracedPool(ProcessPoolExecutor):
        def __enter__(self):
            self._span = tracer.open("harness.pool")
            return super().__enter__()

        def __exit__(self, *exc_info):
            try:
                return super().__exit__(*exc_info)
            finally:
                tracer.close(self._span)

        def submit(self, fn, /, *args, **kwargs):
            tracer.counts["harness.chunks"] += 1
            future = super().submit(fn, *args, **kwargs)
            future.result = tracer.wrap("harness.pool_wait", future.result)
            return future

    return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap every binding in BINDINGS, and the harness's process pool."""
    for module_name, attribute, span, counter in BINDINGS:
        module = importlib.import_module(f"quatlink.{module_name}")
        setattr(module, attribute, tracer.wrap(span, getattr(module, attribute), counter))
    importlib.import_module("quatlink.harness").ProcessPoolExecutor = _traced_pool(tracer)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics from recorded spans and counters.

    busy: summed duration of the spans of a name (or layer) that have no
    ancestor of the same name (layer), so nested calls are not counted twice.
    self: summed duration minus the time covered by direct child spans.
    """
    counts = Counter(counts)
    durations = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]
    calls, busy, self_s = Counter(), Counter(), Counter()
    for index, (name, _, _, parent) in enumerate(spans):
        layer = _layer(name)
        calls[name] += 1
        self_time = durations[index] - child_time[index]
        self_s[name] += self_time
        self_s[layer] += self_time
        names_above, layers_above = set(), set()
        while parent >= 0:
            names_above.add(spans[parent][0])
            layers_above.add(_layer(spans[parent][0]))
            parent = spans[parent][3]
        if name not in names_above:
            busy[name] += durations[index]
        if layer not in layers_above:
            busy[layer] += durations[index]

    def ratio(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    batches = calls["adaptive.run_qlms_batch"]
    wiener_runs = calls["wiener.solve"]
    run_span = busy["harness.run_experiment"]
    harness_self = self_s["harness"] - self_s["harness.summarize"]
    metrics = {
        "quat.mul.calls": calls["quat.mul"],
        "quat.mul.products": counts["quat.mul.products"],
        "quat.mul.products_per_call": ratio(counts["quat.mul.products"], calls["quat.mul"]),
        "quat.mul.busy_s": busy["quat.mul"],
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.solve.busy_s": busy["linalg.solve"],
        "linalg.mean_outer_h.busy_s": busy["linalg.mean_outer_h"],
        "linalg.dot_left.busy_s": busy["linalg.dot_left"],
        "modem.decisions": counts["modem.decisions"],
        "channel.convolve.busy_s": busy["channel.convolve"],
        "channel.noise.busy_s": busy["channel.noise"],
        "channel.samples": counts["channel.samples"],
        "channel.rng_derivations": calls["channel.derive_rng"],
        "adaptive.lane_steps": counts["adaptive.lane_steps"],
        "adaptive.us_per_lane_step": ratio(busy["adaptive.run_qlms_batch"], counts["adaptive.lane_steps"], 1e6),
        "adaptive.batches": batches,
        "adaptive.lanes_per_batch": ratio(counts["adaptive.lanes"], batches),
        "adaptive.diverged_lanes": counts["adaptive.diverged_lanes"],
        "adaptive.lag_matrix.busy_s": busy["adaptive.lag_matrix"],
        "wiener.stats.busy_s": busy["wiener.stats"],
        "wiener.solve.busy_s": busy["wiener.solve"],
        "wiener.eval.busy_s": busy["wiener.eval"],
        "wiener.runs": wiener_runs,
        "wiener.ms_per_run": ratio(busy["wiener"], wiener_runs, 1e3),
        "harness.self_s": harness_self,
        "harness.chunks": counts["harness.chunks"],
        "harness.pool_wait_s": busy["harness.pool_wait"],
        "harness.summarize.busy_s": busy["harness.summarize"],
        "harness.child_coverage": ratio(run_span - harness_self, run_span),
        "cli.parse.busy_s": busy["cli.parse"],
        "cli.emit.busy_s": busy["cli.emit"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = busy[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics


# Counts that must repeat exactly between two runs of one commit and seed.
EXACT_COUNTERS = (
    "quat.mul.calls",
    "quat.mul.products",
    "adaptive.lane_steps",
    "adaptive.batches",
    "wiener.runs",
    "modem.decisions",
    "harness.chunks",
    "channel.samples",
    "cli.bytes_written",
)
