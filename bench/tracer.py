"""Spans around calls into the plmetric layers, recorded from outside the package.

The tracer swaps each traced function for a wrapper in every plmetric module
namespace that holds it (``evaluation`` imports ``fit_all_neighborhoods`` by
name, ``trainer`` reaches it through ``manifold``), so every call site is
seen. A wrapper records one span: name, ancestor names, duration and
self time (duration minus the direct child spans), plus counts that a probe
reads from the call's arguments and result. A function missing from the
package is skipped; its metrics then report zero calls.

While ``memory`` is on, spans also record their tracemalloc peak above the
allocation level at entry. Timings taken then are flagged and left out of the
time metrics, since tracemalloc slows every allocation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MIB = float(1 << 20)


def _fit_counts(args, kwargs, result, _state):
    config = args[1] if len(args) > 1 else kwargs["config"]
    sizes = np.array([nb.size for nb in result])
    return {
        "anchors": sizes.size,
        "members": int(sizes.sum()),
        "accepted": int(sizes.sum()) - sizes.size * config.dim,
        "tested": sizes.size * (config.pool_size - config.dim + 1),
    }


def _trial_counts(args, kwargs, result, _state):
    return {"trial_fits": int(np.shape(args[1])[0])}


def _frames_before(args, kwargs):
    return args[0].frames.copy()


def _repair_counts(args, kwargs, result, before):
    changed = np.any(args[0].frames != before, axis=(1, 2))
    return {"frames_repaired": int(changed.sum())}


def _batch_counts(args, kwargs, result, _state):
    return {"rows": int(result.size), "unique_rows": int(np.unique(result).size)}


def _cell_counts(args, kwargs, result, _state):
    return {"cells": int(result.size)}


def _pair_counts(args, kwargs, result, _state):
    return {"pairs": int(np.size(result[0]))}


def _kmeans_counts(args, kwargs, result, _state):
    return {"iters": int(result.n_iter)}


def _checkpoint_bytes(args, kwargs, result, _state):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": Path(path).stat().st_size}


# (module, attribute path, probe before the call, probe after the call).
# ``manifold._batched_accepts`` is private; it is traced only to count the
# candidate tests of the greedy scan.
TARGETS = [
    ("data", "load_dataset", None, None),
    ("embedder", "forward", None, None),
    ("embedder", "forward_cached", None, None),
    ("embedder", "backward", None, None),
    ("embedder", "adam_step", None, None),
    ("embedder", "EmbedderPair.ema_update", None, None),
    ("manifold", "fit_all_neighborhoods", None, _fit_counts),
    ("manifold", "neighbor_lists", None, None),
    ("manifold", "_batched_accepts", None, _trial_counts),
    ("manifold", "ProxySet.renormalize_locations", None, None),
    ("manifold", "ProxySet.reorthonormalize_frames", _frames_before, _repair_counts),
    ("similarity", "pairwise_similarity_matrix", None, _cell_counts),
    ("similarity", "proxy_similarity_batch", None, None),
    ("trainer", "point_loss", None, None),
    ("trainer", "proxy_loss", None, None),
    ("trainer", "neighborhood_loss", None, None),
    ("trainer", "sample_batch", None, _batch_counts),
    ("trainer", "save_checkpoint", None, _checkpoint_bytes),
    ("trainer", "trainer_from_checkpoint", None, None),
    ("trainer", "Trainer.initialize", None, None),
    ("trainer", "Trainer.run_epoch", None, None),
    ("trainer", "Trainer.train_step", None, None),
    ("evaluation", "evaluate_embeddings", None, None),
    ("evaluation", "recall_at_k", None, None),
    ("evaluation", "kmeans_baseline", None, _kmeans_counts),
    ("evaluation", "sample_pairs", None, _pair_counts),
]


@dataclass
class Span:
    name: str
    ancestors: tuple[str, ...]
    duration: float = 0.0
    self_time: float = 0.0
    memory: bool = False
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)


@dataclass
class _Frame:
    span: Span
    start: float = 0.0
    child_time: float = 0.0
    mem_start: int = 0
    peak_seen: int = 0


class Tracer:
    """Span recorder; a disabled tracer patches nothing and records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []
        self._paused = 0
        self._memory = False

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "plmetric") -> None:
        if not self.enabled:
            return
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for module_name, path, before, after in TARGETS:
            module = importlib.import_module(f"{package}.{module_name}")
            span_name = f"{module_name}.{path}"
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(span_name)
                continue
            if owner_name:
                self._patch_method(owner, attr, raw, span_name, before, after)
            else:
                wrapper = self._wrap(raw, span_name, before, after)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw:
                            self._restore.append((ns, key, value))
                            setattr(ns, key, wrapper)

    def _patch_method(self, owner, attr, raw, span_name, before, after) -> None:
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, span_name, before, after))
        else:
            patched = self._wrap(raw, span_name, before, after)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                frame.span.counts = after(args, kwargs, result, state)
            return result

        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name, ancestors=tuple(f.span.name for f in self._stack), memory=self._memory
        )
        self.spans.append(span)
        frame = _Frame(span)
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak_seen = max(parent.peak_seen, peak)
            frame.mem_start = current
            tracemalloc.reset_peak()
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        span = frame.span
        span.duration = end - frame.start
        span.self_time = span.duration - frame.child_time
        self._stack.pop()
        if self._memory:
            peak = max(frame.peak_seen, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = peak - frame.mem_start
            if self._stack:
                self._stack[-1].peak_seen = max(self._stack[-1].peak_seen, peak)
        if self._stack:
            self._stack[-1].child_time += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. a workload phase."""
        if not self.enabled or self._paused:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextlib.contextmanager
    def memory(self):
        """Spans opened inside also record their tracemalloc peaks."""
        if not self.enabled:
            yield
            return
        tracemalloc.start()
        self._memory = True
        try:
            yield
        finally:
            self._memory = False
            tracemalloc.stop()


# -- per-layer metrics from the spans ---------------------------------------

STEP = "trainer.Trainer.train_step"
EPOCH = "trainer.Trainer.run_epoch"
INIT = "trainer.Trainer.initialize"
EVAL = "evaluation.evaluate_embeddings"
FIT = "manifold.fit_all_neighborhoods"
PAIRWISE = "similarity.pairwise_similarity_matrix"


def _under(anchor):
    return lambda s: anchor in s.ancestors


def _child_of(parent):
    return lambda s: bool(s.ancestors) and s.ancestors[-1] == parent


def _anywhere(_s):
    return True


# name -> (unit, span names, where, what, per): the metric is the sum of
# ``what`` ("self", "total" duration, or a count key) over timed spans with one
# of the names that satisfy ``where``, divided by the number of ``per`` spans.
# ``manifold.fit_ms`` takes total time: everything under the fit is manifold.
LAYER_METRICS = {
    # per training step
    "manifold.fit_ms": ("ms", [FIT], _under(STEP), "total", STEP),
    "similarity.pairwise_ms": ("ms", [PAIRWISE], _under(STEP), "self", STEP),
    "similarity.proxy_ms": ("ms", ["similarity.proxy_similarity_batch"], _under(STEP), "self", STEP),
    "trainer.point_loss_ms": ("ms", ["trainer.point_loss"], _under(STEP), "self", STEP),
    "trainer.proxy_loss_ms": ("ms", ["trainer.proxy_loss"], _under(STEP), "self", STEP),
    "trainer.neighborhood_loss_ms": ("ms", ["trainer.neighborhood_loss"], _under(STEP), "self", STEP),
    "manifold.proxy_maint_ms": (
        "ms",
        ["manifold.ProxySet.renormalize_locations", "manifold.ProxySet.reorthonormalize_frames"],
        _under(STEP),
        "self",
        STEP,
    ),
    "embedder.forward_ms": ("ms", ["embedder.forward", "embedder.forward_cached"], _under(STEP), "self", STEP),
    "embedder.backward_ms": ("ms", ["embedder.backward"], _under(STEP), "self", STEP),
    "embedder.adam_ms": ("ms", ["embedder.adam_step"], _under(STEP), "self", STEP),
    "embedder.ema_ms": ("ms", ["embedder.EmbedderPair.ema_update"], _under(STEP), "self", STEP),
    "trainer.step_self_ms": ("ms", [STEP], _anywhere, "self", STEP),
    "manifold.trial_fits": ("count", ["manifold._batched_accepts"], _under(STEP), "trial_fits", STEP),
    "manifold.frames_repaired": (
        "count", ["manifold.ProxySet.reorthonormalize_frames"], _under(STEP), "frames_repaired", STEP
    ),
    # per epoch or per call, outside the step
    "manifold.neighbor_lists_ms": ("ms", ["manifold.neighbor_lists"], _child_of(EPOCH), "self", EPOCH),
    "embedder.epoch_forward_ms": ("ms", ["embedder.forward"], _child_of(EPOCH), "total", EPOCH),
    "trainer.sample_batch_ms": ("ms", ["trainer.sample_batch"], _anywhere, "self", "trainer.sample_batch"),
    "trainer.checkpoint_save_ms": ("ms", ["trainer.save_checkpoint"], _anywhere, "self", "trainer.save_checkpoint"),
    "trainer.checkpoint_load_ms": (
        "ms", ["trainer.trainer_from_checkpoint"], _anywhere, "total", "trainer.trainer_from_checkpoint"
    ),
    "trainer.checkpoint_bytes": ("bytes", ["trainer.save_checkpoint"], _anywhere, "bytes", "trainer.save_checkpoint"),
    # set-up
    "data.load_ms": ("ms", ["data.load_dataset"], _anywhere, "self", "data.load_dataset"),
    "manifold.init_fit_ms": ("ms", [FIT], _under(INIT), "total", INIT),
    # per evaluate_embeddings call
    "evaluation.recall_ms": ("ms", ["evaluation.recall_at_k"], _under(EVAL), "self", EVAL),
    "evaluation.kmeans_ms": ("ms", ["evaluation.kmeans_baseline"], _under(EVAL), "self", EVAL),
    "evaluation.kmeans_iters": ("count", ["evaluation.kmeans_baseline"], _under(EVAL), "iters", EVAL),
    "evaluation.sample_pairs_ms": ("ms", ["evaluation.sample_pairs"], _under(EVAL), "self", EVAL),
    "evaluation.self_ms": ("ms", [EVAL], _anywhere, "self", EVAL),
    "manifold.eval_fit_ms": ("ms", [FIT], _under(EVAL), "total", EVAL),
    "similarity.eval_pairwise_ms": ("ms", [PAIRWISE], _under(EVAL), "self", EVAL),
    "evaluation.pairs_scored": ("count", ["evaluation.sample_pairs"], _under(EVAL), "pairs", EVAL),
    "evaluation.sim_cells": ("count", [PAIRWISE], _under(EVAL), "cells", EVAL),
}

# Peak traced memory above the level at entry, max over memory-pass spans.
PEAK_METRICS = {
    "evaluation.recall_peak_mb": "evaluation.recall_at_k",
    "similarity.pairwise_peak_mb": PAIRWISE,
    "manifold.fit_peak_mb": FIT,
}


def _value(span: Span, what: str) -> float:
    if what == "self":
        return span.self_time * 1000.0
    if what == "total":
        return span.duration * 1000.0
    return float(span.counts.get(what, 0))


def layer_metrics(spans: list[Span], op_span: str) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); absent layers give 0."""
    timed = [s for s in spans if not s.memory]
    calls: dict[str, int] = {}
    for s in timed:
        calls[s.name] = calls.get(s.name, 0) + 1
    out: dict[str, tuple[float, str]] = {}
    for name, (unit, names, where, what, per) in LAYER_METRICS.items():
        total = sum(_value(s, what) for s in timed if s.name in names and where(s))
        out[name] = (total / calls[per] if calls.get(per) else 0.0, unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fits = [s.counts for s in timed if s.name == FIT and STEP in s.ancestors]
    out["manifold.accept_rate"] = (
        ratio(sum(c["accepted"] for c in fits), sum(c["tested"] for c in fits)),
        "ratio",
    )
    out["manifold.mean_size"] = (
        ratio(sum(c["members"] for c in fits), sum(c["anchors"] for c in fits)),
        "count",
    )
    out["trainer.batch_unique_rows"] = (
        float(np.mean([s.counts["unique_rows"] for s in timed if s.name == "trainer.sample_batch"]))
        if calls.get("trainer.sample_batch")
        else 0.0,
        "count",
    )
    out["evaluation.pair_use_ratio"] = (
        ratio(out["evaluation.pairs_scored"][0], out["evaluation.sim_cells"][0]),
        "ratio",
    )
    for name, span_name in PEAK_METRICS.items():
        peaks = [s.peak_bytes for s in spans if s.memory and s.name == span_name]
        out[name] = (max(peaks) / MIB if peaks else 0.0, "MiB")
    op_times = [s.duration * 1000.0 for s in timed if s.name == op_span]
    out["trace.op_ms_p50"] = (float(np.median(op_times)) if op_times else 0.0, "ms")
    return out
