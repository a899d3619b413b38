"""Command-line pipeline: generate -> correct -> train-eval -> report.

Each subcommand reads a JSON config file, writes its outputs plus a manifest
(config hash, hashes of the files the stage wrote, package version) into the
output directory, and exits 0 on success, 2 on configuration errors, 1 on
runtime errors.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import typing
from pathlib import Path

import click
import numpy as np

from . import __version__
from .correction import (
    METHOD_IDS,
    CorrectionParams,
    apply_method,
    error_decomposition,
    read_labels_csv,
)
from .data_model import (
    FeatureSchema,
    chronological_split_indices,
    compute_stats,
    ingest_csv,
    write_csv,
)
from .errors import ConfigError, CurveOrderViolation, LengthMismatch, WatchlabError
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
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
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
        _json_list(float, value if isinstance(value, list) else [value], f"{key}.{name}")
    try:
        curve(1.0)  # an unknown family or a missing parameter fails here
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad curve spec {key}: {spec}: {exc!r}")
    return curve


# field annotation -> (JSON types it accepts, how to say so)
_JSON_TYPES = {bool: (bool, "true or false"), int: (int, "an integer"),
               float: ((int, float), "a number"), tuple: (list, "a list")}


def _json_value(hint, value, key):
    """`value` converted to the annotation `hint` (a _JSON_TYPES key, Curve or
    `X | None`); ConfigError when its JSON type does not fit."""
    if hint is Curve:
        return _curve_from_config(value, key)
    if type(None) in typing.get_args(hint):
        if value is None:
            return None
        hint = next(t for t in typing.get_args(hint) if t is not type(None))
    accepted, what = _JSON_TYPES[hint]
    if isinstance(value, bool) is not (hint is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if hint is float and not abs(value) <= sys.float_info.max:  # NaN, Infinity, 1e999
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return hint(value)


def _json_list(hint, value, key) -> list:
    return [_json_value(hint, v, key) for v in _json_value(tuple, value, key)]


def _mapping(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    return section


def _section(cls, config: dict, name: str, skip=(), **fixed):
    """`cls` built from `config[name]` plus the caller's `fixed` fields.

    Absent keys take the dataclass defaults. A key that is not a field of
    `cls` (other than the `skip` keys the caller reads itself), a fixed field,
    a value of the wrong JSON type or one that `cls.validate` rejects raises
    ConfigError.
    """
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in _mapping(config, name).items():
        if key in skip:
            continue
        if key not in hints or key in fixed:
            raise ConfigError(f"unknown key {name}.{key}")
        values[key] = _json_value(hints[key], value, f"{name}.{key}")
    try:
        obj = cls(**values, **fixed)
        obj.validate()
    except (TypeError, ValueError, CurveOrderViolation) as exc:
        raise ConfigError(f"bad {name} section: {exc}")
    return obj


def _out_dir(config, out_override) -> Path:
    out = Path(out_override or config.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_path(config, out_dir: Path) -> Path:
    p = config.get("dataset_csv")
    return Path(p) if p else out_dir / "data.csv"


def _schema(config) -> FeatureSchema:
    return FeatureSchema(feature_fields=tuple(config.get("feature_fields", ())))


def run_generate(config: dict, seed=None, out=None) -> Path:
    out_dir = _out_dir(config, out)
    synth = _section(SynthConfig, config, "generate",
                     seed=_json_value(int, config.get("seed", 0) if seed is None else seed,
                                      "seed"))
    dataset, truth = generate(synth)
    data_path = out_dir / "data.csv"
    truth_path = out_dir / "ground_truth.csv"
    write_csv(dataset, data_path)
    write_ground_truth_csv(truth, truth_path)
    _write_manifest(out_dir, config, {"data.csv": data_path, "ground_truth.csv": truth_path},
                    notes={"n_rows": len(dataset)})
    return out_dir


def _correction_methods(config) -> list:
    methods = _mapping(config, "correction").get("methods", ["d2co_a", "d2co_s"])
    if not (isinstance(methods, list) and methods and all(isinstance(m, str) for m in methods)):
        raise ConfigError(f"correction.methods must be a non-empty list of names, got {methods!r}")
    for m in methods:
        if m not in METHOD_IDS:
            raise ConfigError(f"unknown correction method {m!r}")
    return methods


def fit_curves(dataset, config) -> BiasNoiseCurves:
    opts = _section(GmmOptions, config, "estimator")
    raw = fit_all_groups(dataset, opts)
    counts = compute_stats(dataset).group_counts
    return smooth_curves(raw, opts.window, counts)


def run_correct(config: dict, seed=None, out=None) -> Path:
    out_dir = _out_dir(config, out)
    data_path = _dataset_path(config, out_dir)
    if not data_path.exists():
        raise ConfigError(f"input dataset not found: {data_path}")
    dataset = ingest_csv(data_path, _schema(config))
    methods = _correction_methods(config)
    curves = fit_curves(dataset, config)
    params = [_section(CorrectionParams, config, "correction", skip=("methods",),
                       method=m, curves=curves) for m in methods]
    curves_path = out_dir / "curves.csv"
    curves.to_csv(curves_path)

    outputs = {"curves.csv": curves_path}
    for p in params:
        path = out_dir / f"labeled_{p.method}.csv"
        apply_method(dataset, p).to_csv(path)
        outputs[path.name] = path

    notes = {}
    truth_path = Path(config.get("ground_truth_csv", out_dir / "ground_truth.csv"))
    if truth_path.exists():
        truth = read_ground_truth_csv(truth_path)
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
    _write_manifest(out_dir, config, outputs, notes)
    return out_dir


def train_and_score(dataset, labels, splits, oracle, config, seed):
    """Fit one FM on train labels, early-stop on val interest, score test."""
    tr_idx, va_idx, te_idx = splits
    train_set = dataset.subset(tr_idx)
    val_set = dataset.subset(va_idx)
    test_set = dataset.subset(te_idx)
    vocab = build_vocab(train_set)
    tcfg = _section(TrainConfig, config, "trainer", seed=int(seed))
    model = FMModel(vocab, tcfg.embedding_dim, seed=tcfg.seed)
    train(model, train_set, labels[tr_idx], val_set, oracle[va_idx], tcfg)
    return model.score_interactions(test_set)


def run_train_eval(config: dict, seed=None, out=None) -> Path:
    out_dir = _out_dir(config, out)
    data_path = _dataset_path(config, out_dir)
    if not data_path.exists():
        raise ConfigError(f"input dataset not found: {data_path}")
    fractions = _json_list(float, _mapping(config, "split").get("fractions"), "split.fractions")
    evaluation = _mapping(config, "evaluation")
    ks = _json_list(int, evaluation.get("ndcg_k", [1, 3, 5]), "evaluation.ndcg_k")
    n_ranges = _json_value(int, evaluation.get("n_ranges", 3), "evaluation.n_ranges")
    if not ks or min(ks) < 1 or n_ranges < 1:
        raise ConfigError("evaluation.ndcg_k needs at least one k, and every k and "
                          "evaluation.n_ranges must be >= 1")
    grid = _sweep_grid(config)
    seeds = ([seed] if seed is not None else
             _json_list(int, config.get("seeds", [config.get("seed", 0)]), "seeds"))
    if not seeds:
        raise ConfigError("seeds must list at least one seed")
    dataset = ingest_csv(data_path, _schema(config))
    methods = _correction_methods(config)
    run_methods = list(dict.fromkeys(["watch_time", *methods, "oracle"]))

    truth_path = Path(config.get("ground_truth_csv", out_dir / "ground_truth.csv"))
    truth = read_ground_truth_csv(truth_path) if truth_path.exists() else None
    oracle = oracle_labels(dataset, truth).astype(np.float64)

    watch_time = apply_method(dataset, CorrectionParams("watch_time")).labels
    labels_by_method = {"watch_time": watch_time, "oracle": oracle}
    for m in methods:
        path = out_dir / f"labeled_{m}.csv"
        if not path.exists():
            raise ConfigError(f"label file missing (run `correct` first): {path}")
        labels_by_method[m] = read_labels_csv(path, len(dataset))

    try:
        splits = chronological_split_indices(dataset, fractions)
    except ValueError as exc:
        raise ConfigError(f"split.fractions: {exc}")
    te_idx = splits[2]
    test_set = dataset.subset(te_idx)
    test_oracle = oracle[te_idx].astype(np.int64)

    per_seed = {m: [] for m in run_methods}
    for s in seeds:
        for m in run_methods:
            scores = train_and_score(dataset, labels_by_method[m], splits, oracle, config, s)
            per_seed[m].append(evaluate(scores, test_oracle, test_set, m, ks, n_ranges))

    report_path = out_dir / "report.csv"
    with open(report_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "seed", "gauc"] + [f"ndcg@{k}" for k in ks])
        for m in run_methods:
            for s, rep in zip(seeds, per_seed[m]):
                writer.writerow([m, s, repr(float(rep.gauc))]
                                + [repr(float(rep.ndcg_at[k])) for k in ks])
        if len(seeds) > 1:
            for m in run_methods:
                gs = [rep.gauc for rep in per_seed[m]]
                writer.writerow([m, "mean", repr(float(np.mean(gs)))] + [
                    repr(float(np.mean([rep.ndcg_at[k] for rep in per_seed[m]]))) for k in ks
                ])
                writer.writerow([m, "std", repr(float(np.std(gs)))] + [
                    repr(float(np.std([rep.ndcg_at[k] for rep in per_seed[m]]))) for k in ks
                ])

    # Table-3-shaped duration-range breakdown with improve percentage
    breakdown_path = out_dir / "breakdown.csv"
    with open(breakdown_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "seed", "range_lo", "range_hi", "n_rows", "gauc",
                         f"ndcg@{ks[0]}", "improve_pct"])
        for m in run_methods:
            for s, rep in zip(seeds, per_seed[m]):
                wt = per_seed["watch_time"][seeds.index(s)]
                orc = per_seed["oracle"][seeds.index(s)]
                for i, rng in enumerate(rep.ranges):
                    imp = ""
                    v_wt = wt.ranges[i].gauc
                    v_or = orc.ranges[i].gauc
                    if rng.gauc is not None and v_wt is not None and v_or is not None and v_or != v_wt:
                        imp = repr(float(improve_percentage(rng.gauc, v_wt, v_or)))
                    writer.writerow([
                        m, s, repr(rng.duration_lo), repr(rng.duration_hi), rng.n_rows,
                        "" if rng.gauc is None else repr(float(rng.gauc)),
                        "" if rng.ndcg[ks[0]] is None else repr(float(rng.ndcg[ks[0]])),
                        imp,
                    ])

    outputs = {"report.csv": report_path, "breakdown.csv": breakdown_path}

    if grid:
        sweep_path = out_dir / "sweep_gauc.csv"
        _run_sweep(dataset, splits, oracle, test_set, test_oracle, config, *grid,
                   seeds[0], sweep_path)
        outputs["sweep_gauc.csv"] = sweep_path

    _write_manifest(out_dir, config, outputs, notes={"seeds": seeds})
    return out_dir


def _sweep_grid(config):
    """(windows, alphas) of the optional sweep section, or None without one."""
    sweep = _mapping(config, "sweep")
    if not sweep:
        return None
    unknown = set(sweep) - {"window", "alpha"}
    if unknown:
        raise ConfigError(f"unknown key sweep.{min(unknown)}")
    windows = _json_list(int, sweep.get("window", [1, 2, 3, 4, 5]), "sweep.window")
    alphas = _json_list(float, sweep.get("alpha", [-0.05, -0.03, -0.01]), "sweep.alpha")
    if min(windows, default=0) < 0 or 0 in alphas:
        raise ConfigError("every sweep.window must be >= 0 and every sweep.alpha nonzero")
    return windows, alphas


def _run_sweep(dataset, splits, oracle, test_set, test_oracle, config, windows, alphas, seed,
               path):
    """GAUC grid over moving-average window x alpha for the exponential
    correction (first seed only)."""
    opts = _section(GmmOptions, config, "estimator")
    raw = fit_all_groups(dataset, opts)
    counts = compute_stats(dataset).group_counts
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["window", "alpha", "gauc"])
        for T in windows:
            curves = smooth_curves(raw, T, counts)
            for a in alphas:
                params = CorrectionParams(method="d2co_s", curves=curves, alpha=a)
                labels = apply_method(dataset, params).labels
                scores = train_and_score(dataset, labels, splits, oracle, config, seed)
                g = gauc(scores, test_oracle, test_set.user_codes)
                writer.writerow([T, repr(float(a)), repr(float(g))])


def run_report(config: dict, seed=None, out=None) -> Path:
    out_dir = _out_dir(config, out)
    curves_path = out_dir / "curves.csv"
    if not curves_path.exists():
        raise ConfigError(f"curves not found (run `correct` first): {curves_path}")
    data_path = _dataset_path(config, out_dir)
    if not data_path.exists():
        raise ConfigError(f"input dataset not found: {data_path}")
    curves = BiasNoiseCurves.from_csv(curves_path)
    stats = compute_stats(ingest_csv(data_path, _schema(config)))
    bias_err, noise_err = error_decomposition(curves, stats.w_max)
    err_path = out_dir / "error_curves.csv"
    with open(err_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["d", "bias_err", "noise_err"])
        for i, d in enumerate(curves.durations):
            writer.writerow([int(d), repr(float(bias_err[i])), repr(float(noise_err[i]))])

    outputs = {"error_curves.csv": err_path}
    notes = {}
    sweep_path = out_dir / "sweep_gauc.csv"
    if sweep_path.exists():
        outputs["sweep_gauc.csv"] = sweep_path
    else:
        notes["sweep_grid"] = "omitted: no sweep results found"
    _write_manifest(out_dir, config, outputs, notes)
    return out_dir


def _run(fn, config_path, seed, out):
    try:
        config = _load_config(config_path)
        fn(config, seed, out)
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    except WatchlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@click.group()
def main():
    """Watch-time bias/noise correction pipeline."""


def _command(name, fn, help_text):
    @main.command(name=name, help=help_text)
    @click.option("--config", "config_path", required=True, type=click.Path())
    @click.option("--seed", type=int, default=None)
    @click.option("--out", type=click.Path(), default=None)
    def cmd(config_path, seed, out, _fn=fn):
        _run(_fn, config_path, seed, out)
    return cmd


cmd_generate = _command("generate", run_generate,
                        "Write a synthetic dataset plus its ground-truth sidecar.")
cmd_correct = _command("correct", run_correct,
                       "Fit bias/noise curves and write label files.")
cmd_train_eval = _command("train-eval", run_train_eval,
                          "Train one FM per method and write evaluation reports.")
cmd_report = _command("report", run_report,
                      "Write error-decomposition curves and the sweep grid.")


if __name__ == "__main__":
    main()
