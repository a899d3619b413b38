"""Command-line pipeline: generate -> correct -> train-eval -> report.

Each subcommand reads a JSON config file, writes its outputs plus a manifest
(config hash, hashes of the files the stage wrote, package version) into the
output directory, and exits 0 on success, 2 on configuration errors and on
a command line the parser rejects (with a usage message), 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .correction import (
    CorrectionParams,
    apply_method,
    error_decomposition,
    read_labels_csv,
)
from .data_model import (
    Dataset,
    chronological_split_indices,
    compute_stats,
    ingest_csv,
    read_float_columns,
    write_columns,
    write_csv,
)
from .errors import ConfigError, CurveOrderViolation, EmptyDataset, LengthMismatch, WatchlabError
from .estimator import BiasNoiseCurves, GmmOptions, fit_all_groups, smooth_curves
from .evaluation import evaluate, gauc, improve_percentage, oracle_labels
from .synthgen import (
    Curve,
    SynthConfig,
    generate,
    read_ground_truth_csv,
    write_ground_truth_csv,
)
from .trainer import FMModel, TrainConfig, build_vocab, train


def _load_config(path) -> dict:
    try:
        with open(_input(path, "config file not found"), encoding="utf-8") as f:
            config = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    return config


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, config: dict, inputs: dict, notes: dict | None = None):
    manifest = {
        "watchlab_version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "input_sha256": {name: _sha256(p) for name, p in inputs.items()},
        "notes": notes or {},
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _curve_from_config(spec, key) -> Curve:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError(f"{key} must be {{'family': ..., params...}}, got {spec!r}")
    curve = Curve(spec["family"], {k: v for k, v in spec.items() if k != "family"})
    for name, value in curve.params.items():
        _json_value(tuple[float, ...], value if isinstance(value, list) else [value],
                    f"{key}.{name}")
    try:
        curve(1.0)  # an unknown family or a missing parameter fails here
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad curve spec {key}: {spec}: {exc!r}")
    return curve


# field annotation -> (JSON types it accepts, how to say so)
_JSON_TYPES = {bool: (bool, "true or false"), int: (int, "an integer"),
               float: ((int, float), "a number"), str: (str, "a string"),
               tuple: (list, "a list"), dict: (dict, "a JSON object")}


def _json_value(hint, value, key):
    """`value` converted to the annotation `hint` (a _JSON_TYPES key, Curve,
    `tuple[X, ...]` or `X | None`); ConfigError when its JSON type, or that
    of one of its elements, does not fit."""
    if hint is Curve:
        return _curve_from_config(value, key)
    if type(None) in typing.get_args(hint):
        if value is None:
            return None
        hint = next(t for t in typing.get_args(hint) if t is not type(None))
    if typing.get_origin(hint) is tuple:
        element = typing.get_args(hint)[0]
        return tuple(_json_value(element, v, key) for v in _json_value(tuple, value, key))
    accepted, what = _JSON_TYPES[hint]
    if isinstance(value, bool) is not (hint is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if hint is float and not abs(value) <= sys.float_info.max:  # NaN, Infinity, 1e999
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return hint(value)


def _section(cls, config: dict, name: str | None, skip=(), **fixed):
    """`cls` built from `config[name]` (from the top level of `config` when
    `name` is None) plus the caller's `fixed` fields.

    Absent keys take the dataclass defaults. A section that is not a JSON
    object, a key that is not a field of `cls` (other than the `skip` keys
    read elsewhere), a fixed field, a value of the wrong JSON type or one
    that `cls.validate` rejects raises ConfigError.
    """
    section = config if name is None else _json_value(dict, config.get(name, {}), name)
    prefix = "" if name is None else f"{name}."
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in section.items():
        if key in skip:
            continue
        if key not in hints or key in fixed:
            raise ConfigError(f"unknown key {prefix}{key}")
        values[key] = _json_value(hints[key], value, prefix + key)
    try:
        obj = cls(**values, **fixed)
        obj.validate()
    except (TypeError, ValueError, CurveOrderViolation) as exc:
        raise ConfigError(str(exc) if name is None else f"bad {name} section: {exc}")
    return obj


def _distinct(values, key) -> None:
    """ValueError naming `key` when `values` repeats one."""
    if len(set(values)) < len(values):
        raise ValueError(f"{key} must not repeat a value, got {list(values)}")


SECTIONS = ("generate", "estimator", "correction", "split", "trainer", "evaluation", "sweep")


@dataclass(frozen=True)
class RunConfig:
    """The top-level keys of a config; each of SECTIONS is read on its own."""

    seed: int = 0
    seeds: tuple[int, ...] | None = None  # the seeds train-eval trains; None: (seed,)
    out_dir: str = "."
    dataset_csv: str | None = None  # None or "": <out>/data.csv
    ground_truth_csv: str | None = None  # None or "": <out>/ground_truth.csv
    feature_fields: tuple[str, ...] = ()  # extra categorical columns of the log

    def validate(self) -> None:
        if self.seeds == ():
            raise ValueError("seeds must list at least one seed")
        if min((self.seed, *(self.seeds or ()))) < 0:  # numpy's generators take none
            raise ValueError(f"seed and seeds must be >= 0, got seed {self.seed}, "
                             f"seeds {list(self.seeds or ())}")
        _distinct(self.seeds or (), "seeds")
        _distinct(self.feature_fields, "feature_fields")
        if {"user_id", "item_id"} & set(self.feature_fields):
            raise ValueError("feature_fields cannot name user_id or item_id")


@dataclass(frozen=True)
class SplitConfig:
    fractions: tuple[float, ...]  # train/val/test shares; required by train-eval

    def validate(self) -> None:
        pass  # chronological_split_indices judges the fractions


@dataclass(frozen=True)
class EvalConfig:
    ndcg_k: tuple[int, ...] = (1, 3, 5)
    n_ranges: int = 3  # equal-frequency duration ranges of breakdown.csv

    def validate(self) -> None:
        ks = self.ndcg_k
        if not ks or min(ks) < 1 or self.n_ranges < 1:
            raise ValueError("ndcg_k needs at least one k, and every k and n_ranges must be >= 1")
        _distinct(ks, "ndcg_k")


@dataclass(frozen=True)
class SweepConfig:
    """The window x alpha grid of the optional sweep; an empty section means no sweep."""

    window: tuple[int, ...] = (1, 2, 3, 4, 5)
    alpha: tuple[float, ...] = (-0.05, -0.03, -0.01)

    def validate(self) -> None:
        for key, values in (("sweep.window", self.window), ("sweep.alpha", self.alpha)):
            if not values:
                raise ValueError(f"{key} must list at least one value")
        if min(self.window) < 0 or 0 in self.alpha:
            raise ValueError("every sweep.window must be >= 0 and every sweep.alpha nonzero")
        _distinct(self.window, "sweep.window")
        _distinct(self.alpha, "sweep.alpha")


def _run_config(config: dict, seed, out_override) -> tuple[RunConfig, Path]:
    """The top-level keys, where a --seed flag replaces seed and seeds, and
    the output directory, which is not made here: generate and correct make
    it right before their first write, and train-eval and report read inputs
    from it, so a failed check leaves none. ConfigError when a seed is bad,
    or when the directory, or the nearest of its parents that exists (a
    dangling symlink too), is not a directory, such as a file."""
    run = _section(RunConfig, config, None, skip=SECTIONS)
    if seed is not None:  # the flag is checked as the keys are
        run = _section(RunConfig, {**config, "seed": seed, "seeds": None}, None, skip=SECTIONS)
    out_dir = Path(out_override or run.out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"output directory: {existing} is not a directory")
    return run, out_dir


def _input(path, what: str) -> Path:
    """`path` as a Path; ConfigError (exit 2) with `what` and the path unless
    it names a file, such as when it is missing or a directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what}: {path}" + (" is not a file" if path.exists() else ""))
    return path


def _ground_truth(run: RunConfig, out_dir: Path) -> Path | None:
    """The ground-truth sidecar, or None where there is none: a file that
    `ground_truth_csv` names must exist, while <out>/ground_truth.csv is
    optional; either must be a file where it exists."""
    path = Path(run.ground_truth_csv or out_dir / "ground_truth.csv")
    if not (run.ground_truth_csv or path.exists()):
        return None
    return _input(path, "ground truth not found")


def _write_rows(path, header, rows, dtypes) -> None:
    """Write `rows` through write_columns, column j as an array of dtypes[j]."""
    columns = list(zip(*rows)) or [()] * len(header)
    write_columns(path, header, [np.array(c, dtype=t) for c, t in zip(columns, dtypes)])


def _cell(value) -> str:
    """A metric as its report cell: blank where no user could be scored."""
    return "" if value is None else repr(float(value))


def run_generate(config: dict, seed=None, out=None) -> Path:
    run, out_dir = _run_config(config, seed, out)
    synth = _section(SynthConfig, config, "generate", seed=run.seed)
    dataset, truth = generate(synth)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.csv"
    truth_path = out_dir / "ground_truth.csv"
    write_csv(dataset, data_path)
    write_ground_truth_csv(truth, truth_path)
    _write_manifest(out_dir, config, {"data.csv": data_path, "ground_truth.csv": truth_path},
                    notes={"n_rows": len(dataset)})
    return out_dir


def _correction_params(config) -> list:
    """One CorrectionParams per entry of correction.methods. `curves` is fixed
    to None, so a `correction.curves` key is unknown; the caller attaches them."""
    section = _json_value(dict, config.get("correction", {}), "correction")
    methods = _json_value(tuple[str, ...], section.get("methods", ["d2co_a", "d2co_s"]),
                          "correction.methods")
    if not methods or len(set(methods)) < len(methods):
        raise ConfigError("correction.methods must list at least one method, none twice")
    return [_section(CorrectionParams, config, "correction", skip=("methods",), method=m,
                     curves=None) for m in methods]


def fit_curves(dataset, config) -> BiasNoiseCurves:
    opts = _section(GmmOptions, config, "estimator")
    raw = fit_all_groups(dataset, opts)
    counts = compute_stats(dataset).group_counts
    return smooth_curves(raw, opts.window, counts)


def run_correct(config: dict, seed=None, out=None) -> Path:
    run, out_dir = _run_config(config, seed, out)
    data_path = _input(run.dataset_csv or out_dir / "data.csv", "input dataset not found")
    params = _correction_params(config)
    _section(GmmOptions, config, "estimator")  # checked before the data is read
    truth_path = _ground_truth(run, out_dir)
    dataset = ingest_csv(data_path, run.feature_fields)
    curves = fit_curves(dataset, config)

    notes = {}
    if truth_path is not None:  # read and checked before the first write
        truth = read_ground_truth_csv(truth_path, ["w_plus_d", "w_minus_d"])
        if len(truth) != len(dataset):
            raise LengthMismatch(f"{len(truth)} ground-truth rows for {len(dataset)} data rows")
        wp_true, wm_true = truth.w_plus_d, truth.w_minus_d
        wp_est, wm_est = curves.value_at(dataset.durations)
        notes["curve_error"] = {
            "max_rel_err_w_plus": float(np.max(np.abs(wp_est - wp_true) / wp_true)),
            "max_rel_err_w_minus": float(
                np.max(np.abs(wm_est - wm_true) / np.maximum(wm_true, 1e-9))
            ),
        }
        del truth, wp_true, wm_true, wp_est, wm_est  # freed before the labels are made

    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = out_dir / "curves.csv"
    curves.to_csv(curves_path)
    outputs = {"curves.csv": curves_path}
    for p in params:
        path = out_dir / f"labeled_{p.method}.csv"
        apply_method(dataset, dataclasses.replace(p, curves=curves)).to_csv(path)
        outputs[path.name] = path
    _write_manifest(out_dir, config, outputs, notes)
    return out_dir


def train_and_score(dataset, labels, splits, oracle, config, seed):
    """Fit an FM on the train rows of each label column, early-stop it on val
    interest and score test: (n_test,) scores for (n,) labels, one column per
    label column for (n, M) labels, whose M fits train as one stack."""
    tr_idx, va_idx, te_idx = splits
    # the columns the FM reads, shared with `dataset`, so that the splits copy no others
    dataset = Dataset.from_codes(dataset.user_table, dataset.user_codes, dataset.item_table,
                                 dataset.item_codes, dataset.watch_times, dataset.durations,
                                 features=dataset.features)
    train_set = dataset.subset(tr_idx)
    val_set = dataset.subset(va_idx)
    vocab = build_vocab(train_set)
    tcfg = _section(TrainConfig, config, "trainer", seed=int(seed))
    model = FMModel(vocab, tcfg.embedding_dim, seed=tcfg.seed)
    train(model, train_set, labels[tr_idx], val_set, oracle[va_idx], tcfg)
    # the test split is built only now, so that training does not hold it
    return model.score_interactions(dataset.subset(te_idx))


def run_train_eval(config: dict, seed=None, out=None) -> Path:
    run, out_dir = _run_config(config, seed, out)
    data_path = _input(run.dataset_csv or out_dir / "data.csv", "input dataset not found")
    split = _section(SplitConfig, config, "split")
    evaluation = _section(EvalConfig, config, "evaluation")
    ks, n_ranges = evaluation.ndcg_k, evaluation.n_ranges
    sweep = _section(SweepConfig, config, "sweep")
    methods = [p.method for p in _correction_params(config)]
    _section(GmmOptions, config, "estimator")  # checked, though the sweep reads curves.csv
    # checked before the data is read; train_and_score reads it again for each seed
    _section(TrainConfig, config, "trainer", seed=0)
    seeds = list(run.seeds or (run.seed,))
    dataset = ingest_csv(data_path, run.feature_fields)
    run_methods = list(dict.fromkeys(["watch_time", *methods, "oracle"]))

    truth_path = _ground_truth(run, out_dir)
    truth = None if truth_path is None else read_ground_truth_csv(truth_path, ["r_sample"])
    oracle = oracle_labels(dataset, truth).astype(np.float64)

    watch_time = apply_method(dataset, CorrectionParams("watch_time")).labels
    labels_by_method = {"watch_time": watch_time, "oracle": oracle}
    for m in methods:
        path = _input(out_dir / f"labeled_{m}.csv", "label file missing (run `correct` first)")
        labels_by_method[m] = read_labels_csv(path, len(dataset))
    curves = None  # the sweep re-smooths the curves `correct` fitted; {} means no sweep
    if config.get("sweep"):
        curves = BiasNoiseCurves.from_csv(
            _input(out_dir / "curves.csv", "curves not found (run `correct` first)"))

    try:
        splits = chronological_split_indices(dataset, split.fractions)
    except ValueError as exc:
        raise ConfigError(f"split.fractions: {exc}")
    te_idx = splits[2]
    test_set = dataset.subset(te_idx)
    test_oracle = oracle[te_idx].astype(np.int64)

    # popped, so that the stack holds the only copy of each method's labels
    stack = np.column_stack([labels_by_method.pop(m) for m in run_methods])
    per_seed = {m: [] for m in run_methods}
    for s in seeds:
        scores = train_and_score(dataset, stack, splits, oracle, config, s)
        for m, column in zip(run_methods, scores.T):
            per_seed[m].append(evaluate(column, test_oracle, test_set, m, ks, n_ranges))

    metrics = {m: [[rep.gauc, *(rep.ndcg_at[k] for k in ks)] for rep in per_seed[m]]
               for m in run_methods}
    rows = [(m, str(s), *v) for m in run_methods for s, v in zip(seeds, metrics[m])]
    if len(seeds) > 1:
        for m in run_methods:
            columns = list(zip(*metrics[m]))
            rows += [(m, "mean", *map(np.mean, columns)), (m, "std", *map(np.std, columns))]
    report_path = out_dir / "report.csv"
    _write_rows(report_path, ["method", "seed", "gauc", *(f"ndcg@{k}" for k in ks)], rows,
                [str, str] + [np.float64] * (1 + len(ks)))

    # Table-3-shaped duration-range breakdown with improve percentage
    rows = []
    for m in run_methods:
        for j, (s, rep) in enumerate(zip(seeds, per_seed[m])):
            for rng, wt, orc in zip(rep.ranges, per_seed["watch_time"][j].ranges,
                                    per_seed["oracle"][j].ranges):
                imp = None
                if None not in (rng.gauc, wt.gauc, orc.gauc) and orc.gauc != wt.gauc:
                    imp = improve_percentage(rng.gauc, wt.gauc, orc.gauc)
                rows.append((m, s, rng.duration_lo, rng.duration_hi, rng.n_rows,
                             *map(_cell, (rng.gauc, rng.ndcg[ks[0]], imp))))
    breakdown_path = out_dir / "breakdown.csv"
    _write_rows(breakdown_path, ["method", "seed", "range_lo", "range_hi", "n_rows", "gauc",
                                 f"ndcg@{ks[0]}", "improve_pct"], rows,
                [str, np.int64, np.float64, np.float64, np.int64, str, str, str])

    outputs = {"report.csv": report_path, "breakdown.csv": breakdown_path}

    # the d2co_s test GAUC over window x alpha, at the first seed only
    if curves is not None:
        cells, columns = [], []
        for T in sweep.window:
            smoothed = curves.smoothed(T)
            for a in sweep.alpha:
                cells.append((T, a))
                columns.append(apply_method(dataset, CorrectionParams("d2co_s", smoothed,
                                                                      alpha=a)).labels)
        scores = train_and_score(dataset, np.column_stack(columns), splits, oracle, config,
                                 seeds[0])
        rows = [(T, a, gauc(column, test_oracle, test_set.user_codes))
                for (T, a), column in zip(cells, scores.T)]
        sweep_path = out_dir / "sweep_gauc.csv"
        _write_rows(sweep_path, ["window", "alpha", "gauc"], rows,
                    [np.int64, np.float64, np.float64])
        outputs["sweep_gauc.csv"] = sweep_path

    _write_manifest(out_dir, config, outputs, notes={"seeds": seeds})
    return out_dir


def run_report(config: dict, seed=None, out=None) -> Path:
    run, out_dir = _run_config(config, seed, out)
    curves_path = _input(out_dir / "curves.csv", "curves not found (run `correct` first)")
    data_path = _input(run.dataset_csv or out_dir / "data.csv", "input dataset not found")
    curves = BiasNoiseCurves.from_csv(curves_path)
    (watch_times,) = read_float_columns(data_path, ["watch_time_s"], nonnegative=["watch_time_s"])
    if watch_times.size == 0:
        raise EmptyDataset(f"no data rows in {data_path}")
    bias_err, noise_err = error_decomposition(curves, float(watch_times.max()))
    err_path = out_dir / "error_curves.csv"
    write_columns(err_path, ["d", "bias_err", "noise_err"],
                  [curves.durations, bias_err, noise_err])
    _write_manifest(out_dir, config, {"error_curves.csv": err_path})
    return out_dir


COMMANDS = {  # name: (run function, help)
    "generate": (run_generate, "Write a synthetic dataset plus its ground-truth sidecar."),
    "correct": (run_correct, "Fit bias/noise curves and write label files."),
    "train-eval": (run_train_eval, "Train one FM per method and write evaluation reports."),
    "report": (run_report, "Write the error-decomposition curves."),
}


def main(args=None, prog_name="watchlab"):
    """Watch-time bias/noise correction pipeline."""
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        command = commands.add_parser(name, help=help_text, description=help_text,
                                      allow_abbrev=False)
        command.add_argument("--config", required=True)
        command.add_argument("--seed", type=int)
        command.add_argument("--out")
    parsed = parser.parse_args(args)
    try:
        COMMANDS[parsed.command][0](_load_config(parsed.config), parsed.seed, parsed.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        sys.exit(2)
    except WatchlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
