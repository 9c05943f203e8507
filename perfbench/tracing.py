"""Spans around the public functions of each agecontrast module.

The wrappers are installed from outside the package. Every module
namespace that holds a reference to a wrapped function gets the wrapper,
so calls made through ``from .data import load_dataset`` are seen too.

A span is ``[id, parent_id, name, start, end, attrs]``; ids are
``"<pid>.<n>"`` so spans from several processes merge without clashes.
Spans stay in memory. A process writes its spans out when its run ends;
a forked pool worker writes its own after each of its top-level calls,
because pool workers exit without running exit hooks. A worker inherits
the open spans of the process that forked it, so its top-level spans
name the parent process's ``evaluation.run_protocol`` span as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("agecontrast.data", "iter_epoch_batches", "data.sample"),
    ("agecontrast.data", "save_dataset", "data.save_dataset"),
    ("agecontrast.data", "load_dataset", "data.load_dataset"),
    ("agecontrast.data", "LabeledDataset.subset", "data.subset"),
    ("agecontrast.synth", "generate_dataset", "synth.generate"),
    ("agecontrast.synth", "save_ground_truth", "synth.save_ground_truth"),
    ("agecontrast.model", "forward_batch", "model.forward_batch"),
    ("agecontrast.model", "forward_values", "model.forward_values"),
    ("agecontrast.model", "load_model", "model.load_model"),
    ("agecontrast.training", "build_batch_loss", "losses.compose"),
    ("agecontrast.autodiff", "Tape.backward", "autodiff.backward"),
    ("agecontrast.training", "adam_step", "training.adam"),
    ("agecontrast.training", "train", "training.train"),
    ("agecontrast.evaluation", "split_protocol", "evaluation.split"),
    ("agecontrast.evaluation", "evaluate_mae", "evaluation.evaluate_mae"),
    ("agecontrast.evaluation", "identity_variance", "evaluation.identity_variance"),
    ("agecontrast.evaluation", "run_protocol", "evaluation.run_protocol"),
    ("agecontrast.evaluation", "evaluate_checkpoint", "evaluation.evaluate_checkpoint"),
    ("agecontrast.manifest", "sha256_file", "manifest.sha256"),
)

# Names of the per-layer metrics, in report order.
LAYER_METRICS = {
    "data.sample_s": "s",
    "data.sample_us_per_anchor": "us",
    "data.triplets_drawn": "count",
    "data.null_positive_slots": "count",
    "data.null_negative_slots": "count",
    "data.useful_triplet_ratio": "ratio",
    "data.save_dataset_s": "s",
    "data.load_dataset_s": "s",
    "data.subset_s": "s",
    "synth.generate_s": "s",
    "synth.save_ground_truth_s": "s",
    "model.forward_batch_s": "s",
    "model.forward_rows": "count",
    "model.forward_values_s": "s",
    "model.load_model_s": "s",
    "losses.compose_self_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.tape_nodes_per_step": "count",
    "training.adam_s": "s",
    "training.steps": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_p95": "ms",
    "training.train_self_s": "s",
    "evaluation.split_s": "s",
    "evaluation.split_calls": "count",
    "evaluation.evaluate_mae_s": "s",
    "evaluation.evaluate_mae_calls": "count",
    "evaluation.identity_variance_s": "s",
    "evaluation.fold_jobs": "count",
    "evaluation.fold_train_s": "s",
    "evaluation.pool_busy_share": "ratio",
    "evaluation.payload_bytes": "bytes",
    "manifest.sha256_s": "s",
    "cli.import_s": "s",
    "cli.gen_s": "s",
    "cli.eval_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self, out_dir: Path | None = None):
        self.spans: list[list] = []
        self.out_dir = out_dir
        self._stack: list[list] = []
        self._pid = os.getpid()
        self._next = 0
        self._worker_base: int | None = None
        if out_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the open spans as parents but not the finished
        # spans, which the parent process writes itself.
        self._pid = os.getpid()
        self._next = 0
        self.spans = []
        self._worker_base = len(self._stack)

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [f"{self._pid}.{self._next}", parent, name, time.perf_counter(), None, None]
        self._next += 1
        self._stack.append(span)
        return span

    def end(self, span: list, attrs: dict | None = None) -> None:
        span[4] = time.perf_counter()
        span[5] = attrs
        self._stack.pop()
        self.spans.append(span)
        if self._worker_base is not None and len(self._stack) == self._worker_base:
            self.flush()

    def flush(self) -> None:
        if self.out_dir is None or not self.spans:
            return
        with open(self.out_dir / f"spans-{self._pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def read_spans(trace_dir: Path) -> list[list]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# ---------------------------------------------------------------------------
# Wrappers

def _plain(tracer: Tracer, name: str, fn, attrs=None):
    """One span per call; ``attrs(*args)`` gives the span's counts."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span, attrs(*args) if attrs else None)
    return traced


def _batch_counts(batch) -> dict:
    return {
        "drawn": len(batch),
        "null_p": sum(t.p is None for t in batch),
        "null_n": sum(t.n is None for t in batch),
        "complete": sum(t.p is not None and t.n is not None for t in batch),
    }


def _sampler(tracer: Tracer, name: str, fn):
    """Each ``next()`` on the epoch iterator is one span."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            span = tracer.begin(name)
            batch = None
            try:
                batch = next(batches, None)
            finally:
                tracer.end(span, None if batch is None else _batch_counts(batch))
            if batch is None:
                return
            yield batch
    return traced


def _run_protocol(tracer: Tracer, name: str, fn, split_protocol):
    """Records the pool size and the pickled size of the fold-job payloads.
    The size is computed after the span ends, so it is not timed."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        try:
            folds = split_protocol(a["ds"], a["protocol"], a["k"], a["split_seed"])
            span[5] = {
                "jobs": int(a["jobs"]),
                "payload_bytes": sum(len(pickle.dumps((a["ds"], a["cfg"], f))) for f in folds),
            }
        except KeyError:  # a renamed parameter: the attributes read 0
            pass
        return result
    return traced


_ATTRS = {
    "model.forward_batch": lambda model, x_rows, *_: {
        "rows": int(getattr(x_rows, "data", x_rows).shape[0])},
    "autodiff.backward": lambda tape, *_: {"nodes": len(tape)},
}


def install(tracer: Tracer) -> tuple[list[str], callable]:
    """Wrap every target; returns (targets not found, undo)."""
    importlib.import_module("agecontrast.cli")  # loads every module that from-imports a target
    evaluation = importlib.import_module("agecontrast.evaluation")
    split_protocol = getattr(evaluation, "split_protocol", None)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "agecontrast" or n.startswith("agecontrast."))]
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for module_name, attr, span_name in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = getattr(owner, "__dict__", {}).get(fn_name)
            holders = [owner]
        else:
            original = getattr(module, fn_name, None)
            holders = [m for m in modules if getattr(m, fn_name, None) is original]
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if span_name == "data.sample":
            wrapper = _sampler(tracer, span_name, original)
        elif span_name == "evaluation.run_protocol":
            wrapper = _run_protocol(tracer, span_name, original, split_protocol)
        else:
            wrapper = _plain(tracer, span_name, original, _ATTRS.get(span_name))
        for holder in holders:
            setattr(holder, fn_name, wrapper)
            patches.append((holder, fn_name, original))

    def undo() -> None:
        for holder, fn_name, original in reversed(patches):
            setattr(holder, fn_name, original)
    return missing, undo


# ---------------------------------------------------------------------------
# Span arithmetic

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> duration minus the part of its interval that its direct
    children cover (overlapping children count once)."""
    by_id = {s[0]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s[1])
        if parent is not None:
            lo, hi = max(s[3], parent[3]), min(s[4], parent[4])
            if hi > lo:
                children[s[1]].append((lo, hi))
    return {s[0]: (s[4] - s[3]) - _union_length(children[s[0]]) for s in spans}


def _pid(span_id: str) -> str:
    return span_id.split(".", 1)[0]


def _has_ancestor(span: list, name: str, by_id: dict) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[2] == name:
            return True
        parent = by_id.get(parent[1])
    return False


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[list], iterations: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics per traced iteration, plus each derived ratio with
    its numerator and base. Layers a workload never calls read 0."""
    per = 1.0 / max(iterations, 1)
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    named: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in named[name])

    def attr_sum(name: str, key: str) -> float:
        return sum((s[5] or {}).get(key, 0) for s in named[name])

    drawn = attr_sum("data.sample", "drawn")
    sample_s = total("data.sample")
    nodes = [s[5]["nodes"] for s in named["autodiff.backward"] if s[5]]

    # A step runs from the sampler call that produced its batch to the
    # end of its Adam update, in the same process.
    steps_ms = []
    step_start = None
    for s in sorted(named["data.sample"] + named["training.adam"],
                    key=lambda s: (_pid(s[0]), s[3])):
        if s[2] == "data.sample":
            step_start = s[3]
        elif step_start is not None:
            steps_ms.append((s[4] - step_start) * 1e3)
            step_start = None

    fold_trains = [s for s in named["training.train"]
                   if _has_ancestor(s, "evaluation.run_protocol", by_id)]
    pooled = [s for s in named["evaluation.run_protocol"] if s[5] and s[5]["jobs"] > 1]
    pooled_ids = {s[0] for s in pooled}
    worker_busy = sum(s[4] - s[3] for s in spans
                      if s[1] in pooled_ids and _pid(s[0]) != _pid(s[1]))
    pool_capacity = sum(s[5]["jobs"] * (s[4] - s[3]) for s in pooled)

    m = {
        "data.sample_s": sample_s * per,
        "data.sample_us_per_anchor": sample_s / drawn * 1e6 if drawn else 0.0,
        "data.triplets_drawn": drawn * per,
        "data.null_positive_slots": attr_sum("data.sample", "null_p") * per,
        "data.null_negative_slots": attr_sum("data.sample", "null_n") * per,
        "data.useful_triplet_ratio": attr_sum("data.sample", "complete") / drawn if drawn else 0.0,
        "data.save_dataset_s": total("data.save_dataset") * per,
        "data.load_dataset_s": total("data.load_dataset") * per,
        "data.subset_s": total("data.subset") * per,
        "synth.generate_s": total("synth.generate") * per,
        "synth.save_ground_truth_s": total("synth.save_ground_truth") * per,
        "model.forward_batch_s": total("model.forward_batch") * per,
        "model.forward_rows": attr_sum("model.forward_batch", "rows") * per,
        "model.forward_values_s": total("model.forward_values") * per,
        "model.load_model_s": total("model.load_model") * per,
        "losses.compose_self_s": sum(own[s[0]] for s in named["losses.compose"]) * per,
        "autodiff.backward_s": total("autodiff.backward") * per,
        "autodiff.tape_nodes_per_step": statistics.fmean(nodes) if nodes else 0.0,
        "training.adam_s": total("training.adam") * per,
        "training.steps": len(named["training.adam"]) * per,
        "training.step_ms_p50": _percentile(steps_ms, 0.50),
        "training.step_ms_p95": _percentile(steps_ms, 0.95),
        "training.train_self_s": sum(own[s[0]] for s in named["training.train"]) * per,
        "evaluation.split_s": total("evaluation.split") * per,
        "evaluation.split_calls": len(named["evaluation.split"]) * per,
        "evaluation.evaluate_mae_s": total("evaluation.evaluate_mae") * per,
        "evaluation.evaluate_mae_calls": len(named["evaluation.evaluate_mae"]) * per,
        "evaluation.identity_variance_s": total("evaluation.identity_variance") * per,
        "evaluation.fold_jobs": len(fold_trains) * per,
        "evaluation.fold_train_s": sum(s[4] - s[3] for s in fold_trains) * per,
        "evaluation.pool_busy_share": worker_busy / pool_capacity if pool_capacity else 0.0,
        "evaluation.payload_bytes": attr_sum("evaluation.run_protocol", "payload_bytes") * per,
        "manifest.sha256_s": total("manifest.sha256") * per,
    }
    train_s = total("training.train")
    ratios = {
        "data.sample_us_per_anchor": {"numerator_s": sample_s, "base_anchors": drawn},
        "data.useful_triplet_ratio": {"numerator_complete": attr_sum("data.sample", "complete"),
                                      "base_drawn": drawn},
        "data.sample_share_of_train": {
            "value": sample_s / train_s if train_s else 0.0,
            "numerator_s": sample_s, "base_train_s": train_s},
        "evaluation.pool_busy_share": {"numerator_worker_busy_s": worker_busy,
                                       "base_jobs_x_wall_s": pool_capacity},
        "training.step_ms": {"samples": len(steps_ms)},
    }
    return m, ratios
