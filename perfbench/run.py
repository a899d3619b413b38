"""watchlab benchmark: one entry point for every workload, plus a compare mode.

Run one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload cli_pipeline --seed 0 --seconds 25 --trace 0

`--workload all` runs every workload in turn. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer metrics of a
traced run (perfbench/layers.json says which end-to-end metric each should
move). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full result, with its samples
and provenance, goes to .perfbench_work/results/<workload>/.

Compare two sets of untraced results, one row per workload x metric:

    python3 perfbench/run.py --compare BASE_DIR NEW_DIR [--workload W] [--metric M ...]

Each run starts fresh worker processes (perfbench/worker.py): two that only
set up, and a third that sets up and then runs the timed passes, so import
cost, set-up time and peak RSS belong to the workload. Only the standard
library is used here; the workers import numpy and watchlab from src/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0
THREAD_ENV = ("WATCHLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the benchmark spec: {exc}")
    listed = [{k: m[k] for k in ("name", "unit", "better")} for m in layers]
    if listed != spec["per_layer"]:
        raise BenchError("perfbench/layers.json and BENCHMARK.json per_layer disagree")
    return spec


# --- one run --------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WATCHLAB_THREADS", None)  # measure the default path
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop(proc) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _worker(args, deadline) -> tuple:
    """Start a worker, time it until it prints READY, wait for it to end.

    Returns (set-up seconds, exit code). The worker runs in its own session
    so that a timeout stops the CLI processes it started as well.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker {args[0]} did not finish set-up"
                             + ("" if ready else " in time"))
        try:
            code = proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} ran out of time")
        proc.stdout.read()
        return setup_s, code
    finally:
        _stop(proc)
        proc.stdout.close()


def provenance(config: dict, seed: int, seconds: float, trace: bool) -> dict:
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
            if sha.returncode == 0 and status.returncode == 0:
                git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git": git,
        "python": platform.python_version(),
        "versions": {p: version(p) for p in ("numpy", "scipy", "click")},
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": config,
    }


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    run_dir = WORK / f"run-{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results = WORK / "results" / name
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_path = results / f"s{seed}-t{int(trace)}-{stamp}-{os.getpid()}.json"
    worker_out = run_dir / "worker.json"
    args = [name, str(seed), repr(seconds), str(int(trace)), str(run_dir), str(worker_out)]
    try:
        setups = [_worker([*args, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        setups.append(_worker(args, deadline))
        if not worker_out.exists():
            raise BenchError(f"worker {name} wrote no result (exit {setups[-1][1]})")
        w = json.loads(worker_out.read_text(encoding="utf-8"))
        if trace:
            shutil.move(worker_out.with_suffix(".spans.json"),
                        result_path.with_suffix(".spans.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = list(w["failures"]) + [f"worker exit {code}" for _, code in setups if code]
    attempted = w["attempted"] + len(setups)
    untraced = [p["seconds"] for p in w["passes"] if not p["traced"]]
    traced = [p["seconds"] for p in w["passes"] if p["traced"]]
    if not untraced:
        raise BenchError(f"no pass of {name} completed: {failures}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        values = dict(w["layers"])
        values["trace.untraced_wall_s"] = statistics.median(untraced)
        values["trace.wall_s"] = statistics.median(traced) if traced else 0.0
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": w["peak_rss_mb"],
            "gauc_d2co_s": next(p["gauc_d2co_s"] for p in w["passes"] if not p["traced"]),
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        names = [m["name"] for m in spec["end_to_end"]]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        "samples": {"pass_s": untraced, "traced_pass_s": traced,
                    "setup_s": [s for s, _ in setups]},
        "provenance": provenance(w["config"], seed, seconds, trace),
        "worker": {k: v for k, v in w.items() if k not in ("attempted", "failures")},
        "elapsed_s": time.perf_counter() - started,
    }
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    result["path"] = str(result_path.relative_to(ROOT))
    return result


def print_result(r: dict) -> None:
    n_pass, n_traced = len(r["samples"]["pass_s"]), len(r["samples"]["traced_pass_s"])
    mode = f"traced ({n_pass} untraced + {n_traced} traced passes)" if r["trace"] else \
        f"untraced ({n_pass} passes)"
    print(f"== {r['workload']} seed {r['seed']}: {mode}, result in {r['path']}")
    notes = {
        "wall_s": f"median of {n_pass} passes",
        "setup_s": f"median of {len(r['samples']['setup_s'])} set-ups",
        "ok_frac": f"fail_frac = {r['failed']}/{r['attempted']}"
                   f" = {r['failed'] / r['attempted']:g}",
    }
    for name, m in r["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    if r["trace"]:
        w = r["worker"]
        print(f"  tracing overhead: {r['metrics']['trace.overhead_s']['value']:+.4f} s per pass")
        print("  self time over set-up and traced passes (span, calls, inclusive s, self s):")
        for span, calls, incl, self_s in w["self_time"][:20]:
            print(f"    {span:40s} {calls:6d} {incl:10.4f} {self_s:10.4f}")
        if "direct_gauc_d2co_s" in w:
            print(f"  gauc_d2co_s from report.csv {w['passes'][-1]['gauc_d2co_s']!r}, "
                  f"from library calls {w['direct_gauc_d2co_s']!r}")
    for f in r["failures"]:
        print(f"  FAILED: {f}")
    print("provenance: " + json.dumps(r["provenance"], sort_keys=True))


# --- compare --------------------------------------------------------------

def _load_results(path: Path, spec: dict) -> dict:
    """{workload: [result, ...]} for the untraced results under path."""
    known_w = {w["name"] for w in spec["workloads"]}
    known_m = {m["name"] for m in spec["end_to_end"]}
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        try:
            r = json.loads(f.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if not isinstance(r, dict) or "workload" not in r or r.get("trace") != 0:
            continue
        if r["workload"] not in known_w:
            raise BenchError(f"{f}: workload {r['workload']!r} is not in BENCHMARK.json")
        unknown = set(r["metrics"]) - known_m
        if unknown:
            raise BenchError(f"{f}: metrics {sorted(unknown)} are not in BENCHMARK.json")
        out.setdefault(r["workload"], []).append(r)
    return out


def _quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3


def _cell(vals) -> str:
    q1, _, q3 = _quartiles(vals)
    return f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}] {len(vals)}"


def verdict(base, new, better: str, bound: float, paired) -> str:
    """Rule of choosing-metrics section 8: improved, no worse, worse or unresolved."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 is worse
    med_b, med_n = statistics.median(base), statistics.median(new)
    q1, _, q3 = _quartiles(base)
    wins = sum(sign * (y - x) < 0 for x, y in paired)
    if (len(paired) >= 10 and wins >= 0.9 * len(paired)
            and sign * (med_n - med_b) < 0 and abs(med_n - med_b) > q3 - q1):
        return "improved"
    if all(sign * (y - x) < 0 for x in base for y in new):
        return "no worse"
    scale = abs(med_b) or float("inf")
    if (q3 - q1) / scale > bound:
        return "unresolved"
    return "no worse" if sign * (med_n - med_b) / scale <= bound else "worse"


def compare(spec: dict, base_path: Path, new_path: Path, workloads, metrics) -> int:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    known_w = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        if w not in known_w:
            raise BenchError(f"workload {w!r} is not in BENCHMARK.json")
    for m in metrics:
        if m not in e2e:
            raise BenchError(f"metric {m!r} is not an end-to-end metric in BENCHMARK.json")
    base, new = _load_results(base_path, spec), _load_results(new_path, spec)
    lengths = {r["provenance"]["seconds"] for side in (base, new) for rs in side.values()
               for r in rs}
    if len(lengths) > 1:
        print(f"warning: the results were measured with different run lengths {sorted(lengths)}")
    print(f"{'workload':18s} {'metric':12s} {'unit':6s} "
          f"{'base median [q1, q3] n':34s} {'new median [q1, q3] n':34s} {'change':>8s}  verdict")
    for w in workloads or known_w:
        for m in metrics or list(e2e):
            rb = sorted(base.get(w, []), key=lambda r: r["seed"])
            rn = sorted(new.get(w, []), key=lambda r: r["seed"])
            b = [r["metrics"][m]["value"] for r in rb if m in r["metrics"]]
            n = [r["metrics"][m]["value"] for r in rn if m in r["metrics"]]
            if not b or not n:
                print(f"{w:18s} {m:12s} {'':6s} {'(no results)':34s}")
                continue
            by_seed = {r["seed"]: r["metrics"][m]["value"] for r in rn if m in r["metrics"]}
            if {r["seed"] for r in rb} == set(by_seed):
                paired = [(r["metrics"][m]["value"], by_seed[r["seed"]]) for r in rb]
            else:
                paired = list(zip(b, n))
            spec_m = e2e[m]
            v = verdict(b, n, spec_m["better"], spec_m["bound"], paired)
            med_b, med_n = statistics.median(b), statistics.median(n)
            change = (med_n - med_b) / abs(med_b) if med_b else float("nan")
            print(f"{w:18s} {m:12s} {spec_m['unit']:6s} {_cell(b):34s} {_cell(n):34s} "
                  f"{change:+8.2%}  {v}")
    return 0


# --- entry ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path)
    parser.add_argument("--metric", action="append", default=[],
                        help="with --compare: restrict to this end-to-end metric")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare, args.workload, args.metric)
        if not (ROOT / "src" / "watchlab" / "__init__.py").is_file():
            raise BenchError(f"watchlab sources not found under {ROOT / 'src'}")
        known = [w["name"] for w in spec["workloads"]]
        names = known if args.workload == ["all"] else args.workload
        if not names or any(n not in known for n in names):
            raise BenchError(f"--workload must be one of {known} or 'all', got {args.workload}")
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        results = []
        for name in names:
            results.append(run_one(spec, name, args.seed, seconds, bool(args.trace)))
            print_result(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
