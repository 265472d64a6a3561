"""In-memory span recording around the serving stack's public entry points.

A :class:`SpanRecorder` keeps one record per call — layer name, start,
end and the index of the enclosing span — in flat arrays, so a
half-million-span pass costs a few megabytes.  :func:`recording` swaps
shims onto the entry points named in :data:`SHIMS` (module functions
and class methods) and puts the originals back afterwards; the serving
code itself carries no instrumentation.

A layer's *self time* is its spans' durations minus the durations of
their direct children, so the self times of every span under one root
add up to the root's duration exactly.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

#: ``(module[:Class], attribute, layer)`` for every shimmed entry point.
#: The pipeline and the serving code look these up at call time, so a
#: shim sees internal calls too (``summary`` -> ``metrics_table`` ->
#: ``record_rows``).
SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serving.trace", "generate_trace", "trace.gen"),
    ("repro.serving.trace", "trace_rows", "trace.rows"),
    ("repro.serving.engine.driver", "simulate_trace", "engine.driver"),
    ("repro.serving.engine.rank_engine:_RankEngine", "__init__", "engine"),
    ("repro.serving.engine.rank_engine:_RankEngine", "submit", "engine"),
    ("repro.serving.engine.rank_engine:_RankEngine", "advance", "engine"),
    ("repro.serving.engine.rank_engine:_RankEngine", "run", "engine"),
    ("repro.serving.engine.rank_engine:_RankEngine", "finalize", "engine"),
    ("repro.serving.engine.costs", "prefill_chunk_stats", "cost.fill"),
    ("repro.serving.engine.costs", "decode_step_weight_stats", "cost.fill"),
    ("repro.serving.engine.costs", "_naive_sum_n", "cost.fill"),
    ("repro.serving.engine.costs", "_naive_sum_k", "cost.fill"),
    ("repro.serving.routing:RoundRobinRouter", "select", "routing.select"),
    ("repro.serving.routing:LeastKvRouter", "select", "routing.select"),
    ("repro.serving.routing:P2cRouter", "select", "routing.select"),
    ("repro.serving.routing:SloAffinityRouter", "select", "routing.select"),
    ("repro.serving.cluster:Deployment", "advance", "routing.probe"),
    ("repro.serving.cluster:Deployment", "queue_depth", "routing.probe"),
    ("repro.serving.cluster:Deployment", "kv_occupancy", "routing.probe"),
    ("repro.serving.autoscale:Autoscaler", "control", "autoscale.control"),
    ("repro.serving.cluster", "simulate_cluster", "cluster.loop"),
    ("repro.serving.metrics", "metrics_table", "metrics"),
    ("repro.serving.metrics", "summary", "metrics"),
    ("repro.serving.metrics", "cluster_rows", "metrics"),
    ("repro.serving.metrics", "cluster_summary", "metrics"),
    ("repro.experiments.tables", "cluster_table", "metrics"),
    ("repro.serving.metrics", "record_rows", "metrics.rows"),
    ("repro.experiments.io", "write_json", "export.json"),
)


class SpanRecorder:
    """Flat in-memory span store with a live parent stack.

    Spans are identified by their index; ``parents[i]`` is the index of
    the span that was open when span ``i`` began (``-1`` at top level).
    """

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.layer_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = []

    def _layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def begin(self, layer: str) -> int:
        """Open a span of ``layer``; returns its index."""
        index = len(self.starts)
        stack = self._stack
        self.layer_of.append(self._layer_id(layer))
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` (the innermost open one)."""
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        """Context-manager form of :meth:`begin` / :meth:`end`."""
        index = self.begin(layer)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, fn, layer: str):
        """``fn`` with every call recorded as a span of ``layer``."""
        begin, end = self.begin, self.end

        def shim(*args, **kwargs):
            index = begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        shim.__wrapped__ = fn
        return shim

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (span count, self seconds)`` over every closed span."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        n = len(self.starts)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.intc)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested],
                            minlength=n)
        layer_of = np.frombuffer(self.layer_of, dtype=np.intc)
        width = len(self.layers)
        counts = np.bincount(layer_of, minlength=width)
        secs = np.bincount(layer_of, weights=duration - child, minlength=width)
        return {
            layer: (int(counts[i]), float(secs[i]))
            for i, layer in enumerate(self.layers)
        }


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextmanager
def recording(recorder: SpanRecorder):
    """A ``recorder`` shim on every :data:`SHIMS` entry point for the
    duration of the ``with`` block; the originals are restored after."""
    saved = []
    try:
        for target, attr, layer in SHIMS:
            owner = _resolve(target)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, layer))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
