"""One run of one benchmark workload in a fresh interpreter.

Usage: worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON [--setup-only]

The worker imports watchlab, builds the workload's untimed inputs from SEED
and prints READY; the parent times set-up up to that line. With --setup-only
it stops there. Otherwise it runs whole passes of the workload, one after the
other (a closed loop with one client), for about SECONDS after READY. It
checks every pass's outputs outside the timed region and writes RESULT_JSON.

With TRACE=1 passes alternate untraced and traced, so the result carries the
tracing overhead; the set-up is traced as well, and the per-layer metrics are
the set-up's share plus the median over the traced passes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SpanRecorder, instrumented, layer_metrics, self_time_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ALPHA = -0.01
SPLIT = (0.6, 0.2, 0.2)
D2CO = ("d2co_a", "d2co_s")


class PassFailed(Exception):
    pass


class Tally:
    """Operations and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {name} {detail}".rstrip())

    @contextlib.contextmanager
    def op(self, name):
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise PassFailed(name) from exc


def _labels_in_unit_interval(values) -> bool:
    return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


class CliPipeline:
    """generate -> correct -> train-eval -> report as four CLI processes.

    20k rows instead of the default 50k and 2 epochs instead of 10 keep a
    pass near 10 s on 2 cores, so a run holds more than one; patience equal
    to the epoch count means every model trains the same number of epochs on
    every seed. 5 methods plus watch_time and oracle train 7 FMs per pass.
    """

    module = "watchlab.cli"
    methods = ("pcr_denoise", "wtg_denoise", "d2q_denoise", "d2co_a", "d2co_s")

    def __init__(self, seed, workdir, tally):
        self.seed, self.workdir, self.tally = seed, workdir, tally
        self.config = {
            "generate": {"n_rows": 20_000, "n_users": 200, "n_items": 300},
            "estimator": {"window": 2},
            "correction": {"methods": list(self.methods), "alpha": ALPHA},
            "split": {"fractions": list(SPLIT)},
            "trainer": {"epochs": 2, "patience": 2},
            "seed": seed,
        }
        self.report_methods = sorted(["watch_time", *self.methods, "oracle"])

    def setup(self, wl):
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")

    def run_pass(self, wl, pass_dir, rec):
        for cmd in ("generate", "correct", "train-eval", "report"):
            args = [cmd, "--config", str(self.config_path), "--seed", str(self.seed),
                    "--out", str(pass_dir)]
            spans = pass_dir / f"spans_{cmd}.json"
            argv = ([sys.executable, str(HERE / "launch_cli.py"), str(spans), *args]
                    if rec is not None else [sys.executable, "-m", "watchlab.cli", *args])
            with self.tally.op(f"watchlab {cmd}"):
                proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      text=True, timeout=150)
                if rec is not None and spans.exists():
                    rec.merge(json.loads(spans.read_text(encoding="utf-8")), rec.pass_id)
                if proc.returncode != 0:
                    raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
        return None

    def check_pass(self, raw, pass_dir) -> dict:
        report = pass_dir / "report.csv"
        with open(report, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        self.tally.check("report.csv has one row per method",
                         sorted(r["method"] for r in rows) == self.report_methods,
                         str([r["method"] for r in rows]))
        for m in D2CO:
            with open(pass_dir / f"labeled_{m}.csv", newline="", encoding="utf-8") as f:
                labels = [float(r["label"]) for r in csv.DictReader(f)]
            self.tally.check(f"{m} labels finite and in [0,1]", _labels_in_unit_interval(labels))
        gauc = {r["method"]: float(r["gauc"]) for r in rows}
        self.tally.check("gauc d2co_s > watch_time",
                         gauc.get("d2co_s", 0.0) > gauc.get("watch_time", 1.0), str(gauc))
        return {"digest": hashlib.sha256(report.read_bytes()).hexdigest(),
                "gauc_d2co_s": gauc.get("d2co_s"), "gauc_watch_time": gauc.get("watch_time")}

    def direct_gauc(self, wl) -> float:
        """The d2co_s test GAUC from library calls alone, without the CLI."""
        import numpy as np

        g = self.config["generate"]
        ds, truth = wl.synthgen.generate(wl.synthgen.SynthConfig(
            n_rows=g["n_rows"], n_users=g["n_users"], n_items=g["n_items"], seed=self.seed))
        curves = wl.cli.fit_curves(ds, self.config)
        params = wl.correction.CorrectionParams(method="d2co_s", curves=curves, alpha=ALPHA)
        labels = wl.correction.apply_method(ds, params).labels
        splits = wl.data_model.chronological_split_indices(ds, SPLIT)
        oracle = wl.evaluation.oracle_labels(ds, truth).astype(np.float64)
        scores = wl.cli.train_and_score(ds, labels, splits, oracle, self.config, self.seed)
        te = splits[2]
        return wl.evaluation.gauc(scores, oracle[te].astype(np.int64), ds.user_ids[te])


class LargeLogLabels:
    """The labeling half of the pipeline on a large log, in process.

    60k rows, 2.4k users and 3.6k items keep the 500k/20k/30k shape (25 rows
    per user) at a size where a pass takes about 3 s, so a run holds enough
    passes for a steady median.
    """

    module = "watchlab"

    def __init__(self, seed, workdir, tally):
        self.seed, self.workdir, self.tally = seed, workdir, tally
        self.config = {"n_rows": 60_000, "n_users": 2_400, "n_items": 3_600, "window": 2,
                       "alpha": ALPHA, "ndcg_k": 5, "scored": ["watch_time", "d2q", "d2co_s"]}

    def setup(self, wl):
        pass

    def run_pass(self, wl, pass_dir, rec):
        c, op = self.config, self.tally.op
        synth = wl.synthgen.SynthConfig(n_rows=c["n_rows"], n_users=c["n_users"],
                                        n_items=c["n_items"], seed=self.seed)
        with op("generate"):
            ds, truth = wl.synthgen.generate(synth)
        path = pass_dir / "log.csv"
        with op("write_csv"):
            wl.data_model.write_csv(ds, path)
        with op("ingest_csv"):
            log = wl.data_model.ingest_csv(path)
        with op("fit curves"):
            raw = wl.estimator.fit_all_groups(log)
            counts = wl.data_model.compute_stats(log).group_counts
            curves = wl.estimator.smooth_curves(raw, c["window"], counts)
        labels = {}
        for m in wl.correction.METHOD_IDS:
            with op(f"apply_method {m}"):
                params = wl.correction.CorrectionParams(method=m, curves=curves, alpha=c["alpha"])
                labels[m] = wl.correction.apply_method(log, params).labels
        with op("oracle_labels"):
            interest = wl.evaluation.oracle_labels(log, truth)
        users = log.user_ids
        scores = {}
        for m in c["scored"]:
            with op(f"gauc {m}"):
                scores[f"gauc_{m}"] = wl.evaluation.gauc(labels[m], interest, users)
            with op(f"ndcg@{c['ndcg_k']} {m}"):
                scores[f"ndcg_{m}"] = wl.evaluation.ndcg_at_k(labels[m], interest, users,
                                                             c["ndcg_k"])
        return labels, scores

    def check_pass(self, raw, pass_dir) -> dict:
        labels, scores = raw
        for m in D2CO:
            self.tally.check(f"{m} labels finite and in [0,1]",
                             _labels_in_unit_interval(labels[m].tolist()))
        self.tally.check("gauc d2co_s > watch_time",
                         scores["gauc_d2co_s"] > scores["gauc_watch_time"], str(scores))
        h = hashlib.sha256()
        for m in sorted(labels):
            h.update(labels[m].tobytes())
        h.update(repr(sorted(scores.items())).encode())
        return {"digest": h.hexdigest(), **scores}


class WideVocabTrain:
    """One FM over a ~47k-token vocabulary through watchlab.cli.train_and_score.

    2 epochs instead of 4 keep a pass near 6 s; patience equal to the epoch
    count makes every commit do the same work. Generating and labeling the
    data is set-up.
    """

    module = "watchlab.cli"

    def __init__(self, seed, workdir, tally):
        self.seed, self.workdir, self.tally = seed, workdir, tally
        self.config = {"n_rows": 120_000, "n_users": 20_000, "n_items": 30_000,
                       "label": "d2co_s", "alpha": ALPHA, "split": list(SPLIT),
                       "estimator": {"window": 2}, "trainer": {"epochs": 2, "patience": 2}}

    def setup(self, wl):
        import numpy as np

        c = self.config
        ds, truth = wl.synthgen.generate(wl.synthgen.SynthConfig(
            n_rows=c["n_rows"], n_users=c["n_users"], n_items=c["n_items"], seed=self.seed))
        curves = wl.cli.fit_curves(ds, c)
        params = wl.correction.CorrectionParams(method=c["label"], curves=curves, alpha=c["alpha"])
        self.labels = wl.correction.apply_method(ds, params).labels
        self.tally.check(f"{c['label']} labels finite and in [0,1]",
                         _labels_in_unit_interval(self.labels.tolist()))
        self.splits = wl.data_model.chronological_split_indices(ds, SPLIT)
        self.oracle = wl.evaluation.oracle_labels(ds, truth).astype(np.float64)
        te = self.splits[2]
        self.test_y = self.oracle[te].astype(np.int64)
        self.test_users = ds.user_ids[te]
        self.dataset = ds

    def run_pass(self, wl, pass_dir, rec):
        with self.tally.op("train_and_score"):
            scores = wl.cli.train_and_score(self.dataset, self.labels, self.splits, self.oracle,
                                            self.config, self.seed)
        with self.tally.op("gauc"):
            g = wl.evaluation.gauc(scores, self.test_y, self.test_users)
        return scores, g

    def check_pass(self, raw, pass_dir) -> dict:
        scores, g = raw
        self.tally.check("test scores finite", bool(all(map(math.isfinite, scores.tolist()))))
        return {"digest": hashlib.sha256(scores.tobytes()).hexdigest(), "gauc_d2co_s": g}


WORKLOADS = {"cli_pipeline": CliPipeline, "large_log_labels": LargeLogLabels,
             "wide_vocab_train": WideVocabTrain}


def _peak_rss_mb() -> float:
    """High-water RSS of this process and of its finished children so far."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _run_passes(workload, wl, workdir, seconds, trace, rec, tally):
    """Run passes while another one is expected to end within half a pass of
    SECONDS. With tracing, passes alternate untraced and traced, so both
    kinds see the same conditions; there is at least one of each."""
    passes = []
    durations = {False: [], True: []}
    t_ready = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        expected = statistics.median(durations[traced] or durations[False] or [0.0])
        if (len(passes) >= 1 + trace
                and time.perf_counter() - t_ready + expected / 2 > seconds):
            return passes, True
        pass_id = len(passes)
        pass_dir = workdir / f"pass{pass_id}"
        pass_dir.mkdir()
        if rec is not None:
            rec.pass_id = pass_id
        try:
            start = time.perf_counter()
            with instrumented(rec) if traced else contextlib.nullcontext():
                raw = workload.run_pass(wl, pass_dir, rec if traced else None)
            elapsed = time.perf_counter() - start
            out = workload.check_pass(raw, pass_dir)
        except PassFailed:
            return passes, False
        except Exception as exc:  # an output that cannot be read is a failed check
            tally.check("pass outputs readable", False, f"{type(exc).__name__}: {exc}")
            return passes, False
        shutil.rmtree(pass_dir)
        passes.append({"id": pass_id, "traced": traced, "seconds": elapsed,
                       "rss_mb": _peak_rss_mb(), **out})
        durations[traced].append(elapsed)


def main(argv) -> int:
    name, seed, seconds, trace, workdir, result_path = argv[:6]
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    setup_only = "--setup-only" in argv[6:]
    tally = Tally()
    rec = SpanRecorder() if trace else None

    t0 = time.perf_counter()
    with rec.span("cli.import") if rec is not None else contextlib.nullcontext():
        importlib.import_module(WORKLOADS[name].module)
    import_s = time.perf_counter() - t0
    wl = sys.modules["watchlab"]
    if not Path(wl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"watchlab imported from {wl.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[name](seed, workdir, tally)
    with instrumented(rec) if rec is not None else contextlib.nullcontext():
        workload.setup(wl)
    print("READY", flush=True)
    if setup_only:
        return 0 if not tally.failures else 1

    passes, completed = _run_passes(workload, wl, workdir, seconds, trace, rec, tally)
    if completed:
        tally.check("outputs identical across passes",
                    len({p["digest"] for p in passes}) == 1)
    result = {"workload": name, "seed": seed, "config": workload.config, "import_s": import_s,
              "passes": passes}
    if trace and completed and isinstance(workload, CliPipeline):
        direct = workload.direct_gauc(wl)
        cli_value = passes[-1]["gauc_d2co_s"]
        tally.check("report gauc d2co_s equals the library's", abs(direct - cli_value) <= 1e-12,
                    f"{cli_value!r} != {direct!r}")
        result["direct_gauc_d2co_s"] = direct
    if rec is not None:
        layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
        names = [m["name"] for m in layers]
        traced = [p["id"] for p in passes if p["traced"]]
        spans = rec.to_json()
        result["layers"] = layer_metrics(spans, traced, names)
        result["self_time"] = self_time_report(spans, traced)
        Path(result_path).with_suffix(".spans.json").write_text(json.dumps(spans))
    # the high-water mark after the first pass, which later passes of the
    # same work would only raise through allocator fragmentation
    peak = passes[0]["rss_mb"] if passes else _peak_rss_mb()
    result.update(peak_rss_mb=peak, attempted=tally.attempted, failures=tally.failures)
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
