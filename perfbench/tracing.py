"""Span recorder and layer instrumentation for traced benchmark runs.

Spans are recorded from outside the package. `instrumented(recorder)` swaps
each layer's public functions for timing wrappers in every loaded watchlab
module namespace that holds them, so names that are looked up at call time
(`watchlab.trainer.encode`, the `gauc` that `train` imports when it runs, the
`write_csv` that `CorrectedDataset.to_csv` calls) are covered too. The
originals come back when the `with` block ends.

Per-layer metric names follow one convention: `<span>_s` is the time spent
inside the outermost spans of that name, any other name is a count recorded
at the same boundary. `trainer.train_s` (self time), `trainer.s_per_epoch`,
`cli.import_s` and `trace.spans` (spans recorded) are computed separately;
the other `trace.*` metrics come from the pass timings.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import statistics
import sys
import time

SETUP = "setup"


class SpanRecorder:
    """Spans and counts of one process, kept in memory until the run ends.

    A span is `[name, start, end, parent_index, pass_id]`; a count is
    `[name, value, pass_id]`. `pass_id` is whatever the caller set last.
    """

    def __init__(self):
        self.spans = []
        self.counts = []
        self.pass_id = SETUP
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.pass_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counts.append([name, value, self.pass_id])

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, data: dict, pass_id) -> None:
        """Add another process's spans and counts under `pass_id`."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + offset,
                               pass_id])
        for name, value, _ in data["counts"]:
            self.counts.append([name, value, pass_id])


# --- wrappers -------------------------------------------------------------

def _timed(rec, span_name, fn, after=None):
    layer = fn.__module__.rsplit(".", 1)[-1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span_name if isinstance(span_name, str) else span_name(args, kwargs)
        with rec.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.count(f"{layer}.failures")
                raise
        if after is not None:
            after(rec, result, inspect.signature(fn).bind(*args, **kwargs).arguments)
        return result
    return wrapper


def _with_user_counts(rec, span_name, fn):
    """Time a per-user metric and count evaluated/skipped users from the
    counts the function already returns on request."""

    @functools.wraps(fn)
    def wrapper(*args, return_counts=False, **kwargs):
        rec.count(f"{span_name}_calls")
        with rec.span(span_name):
            try:
                value, n_eval, n_skip = fn(*args, return_counts=True, **kwargs)
            except Exception:
                rec.count("evaluation.failures")
                raise
        rec.count("evaluation.users_evaluated", n_eval)
        rec.count("evaluation.users_skipped", n_skip)
        return (value, n_eval, n_skip) if return_counts else value
    return wrapper


def _after_generate(rec, result, a):
    rec.count("synthgen.rows", len(result[0]))


def _after_write_csv(rec, result, a):
    rec.count("data_model.csv_bytes", os.path.getsize(a["path"]))


def _after_fit_all_groups(rec, result, a):
    rec.count("estimator.groups_fitted", len(result))
    rec.count("estimator.groups_converged", sum(bool(e.converged) for e in result.values()))


def _after_build_vocab(rec, result, a):
    rec.count("trainer.vocab_size", len(result))


def _after_train(rec, result, a):
    epochs = len(result.train_loss)
    rec.count("trainer.epochs_run", epochs)
    rec.count("trainer.batches", epochs * math.ceil(len(a["train_set"]) / a["config"].batch_size))


def _apply_method_span(args, kwargs):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return f"correction.apply_method.{params.method}"


# (module, attribute, span name or name function, hook after a successful call)
FUNCTIONS = (
    ("watchlab.synthgen", "generate", "synthgen.generate", _after_generate),
    ("watchlab.data_model", "write_csv", "data_model.write_csv", _after_write_csv),
    ("watchlab.data_model", "ingest_csv", "data_model.ingest_csv", None),
    ("watchlab.data_model", "chronological_split_indices", "data_model.split", None),
    ("watchlab.data_model", "split_chronological", "data_model.split", None),
    ("watchlab.estimator", "fit_all_groups", "estimator.fit_all_groups", _after_fit_all_groups),
    ("watchlab.estimator", "smooth_curves", "estimator.smooth_curves", None),
    ("watchlab.correction", "apply_method", _apply_method_span, None),
    ("watchlab.correction", "read_labels_csv", "correction.read_labels", None),
    ("watchlab.trainer", "build_vocab", "trainer.build_vocab", _after_build_vocab),
    ("watchlab.trainer", "encode", "trainer.encode", None),
    ("watchlab.trainer", "train", "trainer.train", _after_train),
    ("watchlab.cli", "train_and_score", "cli.train_and_score", None),
)
USER_METRICS = (
    ("watchlab.evaluation", "gauc", "evaluation.gauc"),
    ("watchlab.evaluation", "ndcg_at_k", "evaluation.ndcg"),
)
METHODS = (
    ("watchlab.data_model", "Dataset", "subset", "data_model.split"),
    ("watchlab.correction", "CorrectedDataset", "to_csv", "correction.to_csv"),
)


@contextlib.contextmanager
def instrumented(rec: SpanRecorder):
    """Wrap the layers' public functions while the block runs.

    Only modules already imported are touched, so tracing imports nothing
    the workload would not.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "watchlab" or name.startswith("watchlab."))]
    replacements = {}
    for mod_name, attr, span_name, after in FUNCTIONS:
        if mod_name in sys.modules:
            fn = getattr(sys.modules[mod_name], attr)
            replacements[id(fn)] = (fn, _timed(rec, span_name, fn, after))
    for mod_name, attr, span_name in USER_METRICS:
        if mod_name in sys.modules:
            fn = getattr(sys.modules[mod_name], attr)
            replacements[id(fn)] = (fn, _with_user_counts(rec, span_name, fn))

    undo = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
                undo.append((mod, key, value))
    for mod_name, cls_name, attr, span_name in METHODS:
        if mod_name in sys.modules:
            cls = getattr(sys.modules[mod_name], cls_name)
            fn = cls.__dict__[attr]
            setattr(cls, attr, _timed(rec, span_name, fn))
            undo.append((cls, attr, fn))
    try:
        yield rec
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


# --- reduction ------------------------------------------------------------

def _new_totals() -> dict:
    return {"incl": {}, "self": {}, "calls": {}, "counts": {}}


def pass_totals(rec_json: dict) -> dict:
    """Per pass id: inclusive seconds of outermost spans per name, self
    seconds per name, call counts per span name and counter values."""
    spans = rec_json["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, pid) in enumerate(spans):
        t = out.setdefault(pid, _new_totals())
        p, nested = parent, False
        while p is not None and not nested:
            nested = spans[p][0] == name
            p = spans[p][3]
        if not nested:
            t["incl"][name] = t["incl"].get(name, 0.0) + (end - start)
        t["self"][name] = t["self"].get(name, 0.0) + (end - start) - child_time[i]
        t["calls"][name] = t["calls"].get(name, 0) + 1
    for name, value, pid in rec_json["counts"]:
        counts = out.setdefault(pid, _new_totals())["counts"]
        if name == "trainer.vocab_size":
            counts[name] = max(counts.get(name, 0), value)
        else:
            counts[name] = counts.get(name, 0) + value
    return out


def _pass_value(totals: dict, metric: str) -> float:
    if metric == "trainer.train_s":
        return totals["self"].get("trainer.train", 0.0)
    if metric == "trainer.s_per_epoch":
        epochs = totals["counts"].get("trainer.epochs_run", 0)
        return totals["incl"].get("trainer.train", 0.0) / epochs if epochs else 0.0
    if metric == "trace.spans":
        return sum(totals["calls"].values())
    if metric.endswith("_s"):
        return totals["incl"].get(metric[:-2], 0.0)
    return totals["counts"].get(metric, 0)


def layer_metrics(rec_json: dict, traced_passes, names) -> dict:
    """Per-layer metric values: the set-up's share plus the median over the
    traced passes. `cli.import_s` is the median of all recorded imports."""
    totals = pass_totals(rec_json)
    empty = _new_totals()
    setup = totals.get(SETUP, empty)
    out = {}
    for metric in names:
        if metric.startswith("trace.") and metric != "trace.spans":
            continue
        if metric == "cli.import_s":
            imports = [s[2] - s[1] for s in rec_json["spans"] if s[0] == "cli.import"]
            out[metric] = statistics.median(imports) if imports else 0.0
            continue
        per_pass = [_pass_value(totals.get(p, empty), metric) for p in traced_passes]
        out[metric] = _pass_value(setup, metric) + (statistics.median(per_pass) if per_pass else 0)
    return out


def self_time_report(rec_json: dict, traced_passes) -> list:
    """Rows of (span name, calls, inclusive s, self s) summed over the set-up
    and the traced passes, largest self time first."""
    totals = pass_totals(rec_json)
    rows = {}
    for pid in [SETUP, *traced_passes]:
        t = totals.get(pid)
        if t is None:
            continue
        for name, calls in t["calls"].items():
            r = rows.setdefault(name, [name, 0, 0.0, 0.0])
            r[1] += calls
            r[2] += t["incl"].get(name, 0.0)
            r[3] += t["self"][name]
    return sorted(rows.values(), key=lambda r: -r[3])
