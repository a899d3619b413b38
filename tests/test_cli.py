import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import watchlab.cli
from watchlab.cli import (
    SECTIONS,
    EvalConfig,
    RunConfig,
    SplitConfig,
    SweepConfig,
    _cell,
    _correction_params,
    _section,
    fit_curves,
    main,
    train_and_score,
)
from watchlab.correction import (
    CorrectionParams,
    apply_method,
    error_decomposition,
    read_labels_csv,
)
from watchlab.data_model import (
    chronological_split_indices,
    compute_stats,
    ingest_csv,
    read_float_columns,
)
from watchlab.estimator import BiasNoiseCurves, GmmOptions, fit_all_groups, smooth_curves
from watchlab.evaluation import gauc, improve_percentage, oracle_labels
from watchlab.synthgen import SynthConfig, generate, read_ground_truth_csv
from watchlab.trainer import TrainConfig


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path, **overrides):
    config = {
        "generate": {
            "n_rows": 4000,
            "n_users": 40,
            "n_items": 60,
            "duration_range": [5, 60],
        },
        "estimator": {"min_group_size": 40, "window": 2},
        "correction": {"methods": ["pcr", "d2co_a", "d2co_s"], "alpha": -0.01},
        "split": {"fractions": [0.6, 0.2, 0.2]},
        "trainer": {"epochs": 2, "batch_size": 256},
        "seed": 0,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


@dataclasses.dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr together
    exception: BaseException | None  # the SystemExit of a nonzero exit, or what main raised


def invoke(*args):
    """Run `watchlab ARGS...` in this process."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(list(args), prog_name="watchlab")
        except SystemExit as exc:
            code = exc.code or 0
            return Result(code, output.getvalue(), exc if code else None)
        except Exception as exc:
            return Result(1, output.getvalue(), exc)
    return Result(0, output.getvalue(), None)


@pytest.mark.parametrize("args", [
    (), ("nope",), ("correct",), ("correct", "--config", "c.json", "--seed", "abc"),
    ("correct", "--config", "c.json", "extra"), ("correct", "--conf", "x.json"),
], ids=["no_command", "unknown_command", "no_config", "bad_seed", "extra_argument",
        "abbreviated_option"])
def test_rejected_command_line_exits_2(args):
    result = invoke(*args)
    assert result.exit_code == 2, result.output
    assert "usage: watchlab" in result.output.lower()


@pytest.mark.parametrize("args", [("--help",), ("correct", "--help")])
def test_help_exits_0(args):
    result = invoke(*args)
    assert result.exit_code == 0 and result.exception is None, result.output
    assert "usage: watchlab" in result.output.lower()


@pytest.fixture()
def pipeline_dir(tmp_path):
    """A run directory with generate + correct already done."""
    cfg = write_config(tmp_path / "config.json")
    out = tmp_path / "run"
    assert invoke("generate", "--config", str(cfg), "--out", str(out)).exit_code == 0
    assert invoke("correct", "--config", str(cfg), "--out", str(out)).exit_code == 0
    return cfg, out


class TestGenerate:
    def test_writes_data_truth_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        result = invoke("generate", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.output
        assert (out / "data.csv").exists()
        assert (out / "ground_truth.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["input_sha256"]) == {"data.csv", "ground_truth.csv"}
        assert manifest["input_sha256"]["data.csv"] == sha(out / "data.csv")
        assert manifest["notes"]["n_rows"] == 4000

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        invoke("generate", "--config", str(cfg), "--out", str(out1))
        invoke("generate", "--config", str(cfg), "--out", str(out2))
        assert sha(out1 / "data.csv") == sha(out2 / "data.csv")
        assert sha(out1 / "ground_truth.csv") == sha(out2 / "ground_truth.csv")

    def test_seed_flag_changes_data(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        invoke("generate", "--config", str(cfg), "--out", str(out1))
        invoke("generate", "--config", str(cfg), "--seed", "9", "--out", str(out2))
        assert sha(out1 / "data.csv") != sha(out2 / "data.csv")

    def test_seed_flag_zero_overrides_config_seed(self, tmp_path):
        cfg0 = write_config(tmp_path / "config0.json")
        cfg3 = write_config(tmp_path / "config3.json", seed=3)
        for cfg, out, flag in ((cfg0, "a", ()), (cfg3, "b", ("--seed", "0")), (cfg3, "c", ())):
            result = invoke("generate", "--config", str(cfg), *flag, "--out", str(tmp_path / out))
            assert result.exit_code == 0, result.output
        a, b, c = (sha(tmp_path / out / "data.csv") for out in "abc")
        assert a == b != c

    def test_seed_flag_keeps_the_other_top_level_keys(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "config.json", out_dir="run")
        result = invoke("generate", "--config", str(cfg), "--seed", "9")
        assert result.exit_code == 0, result.output
        invoke("generate", "--config", str(cfg), "--seed", "9", "--out", "flagged")
        assert sha(tmp_path / "run" / "data.csv") == sha(tmp_path / "flagged" / "data.csv")

    def test_missing_config_exits_2(self, tmp_path):
        result = invoke("generate", "--config", str(tmp_path / "nope.json"))
        assert result.exit_code == 2

    def test_invalid_json_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = invoke("generate", "--config", str(cfg))
        assert result.exit_code == 2

    def test_non_object_config_exits_2(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        result = invoke("generate", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "configuration error: config must be a JSON object" in result.output

    @pytest.mark.parametrize("spec", [{"family": "nope"}, {"family": "power_law", "gamma": 0.9}])
    def test_bad_curve_spec_exits_2(self, tmp_path, spec):
        cfg = write_config(tmp_path / "config.json",
                           generate={"n_rows": 100, "bias_curve": spec})
        result = invoke("generate", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert result.exit_code == 2
        assert "configuration error: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

class TestCorrect:
    def test_writes_curves_and_labels(self, pipeline_dir):
        _, out = pipeline_dir
        assert (out / "curves.csv").exists()
        for m in ("pcr", "d2co_a", "d2co_s"):
            path = out / f"labeled_{m}.csv"
            with open(path) as f:
                header, *rows = list(csv.reader(f))
            assert header == ["label"]
            assert len(rows) == 4000
            assert 0.0 <= float(rows[0][0]) <= 1.0

    def test_manifest_reports_curve_error(self, pipeline_dir):
        _, out = pipeline_dir
        manifest = json.loads((out / "manifest.json").read_text())
        err = manifest["notes"]["curve_error"]
        assert err["max_rel_err_w_plus"] < 0.5
        # recomputed from the smoothed curves at every row's duration
        truth = read_ground_truth_csv(out / "ground_truth.csv")
        wp, wm = BiasNoiseCurves.from_csv(out / "curves.csv").value_at(
            ingest_csv(out / "data.csv").durations)
        assert err == {
            "max_rel_err_w_plus": float(np.max(np.abs(wp - truth.w_plus_d) / truth.w_plus_d)),
            "max_rel_err_w_minus": float(
                np.max(np.abs(wm - truth.w_minus_d) / np.maximum(truth.w_minus_d, 1e-9))),
        }

    def test_curve_error_floors_a_zero_noise_mean_at_1e_9(self, tmp_path):
        # a zero noise curve makes every true w- 0, so the floor alone scales the error
        config = json.loads(write_config(tmp_path / "config.json").read_text())
        config["generate"]["noise_curve"] = {"family": "constant", "c": 0.0}
        cfg = tmp_path / "config_zero_noise.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        for command in ("generate", "correct"):
            result = invoke(command, "--config", str(cfg), "--out", str(out))
            assert result.exit_code == 0, result.output
        truth = read_ground_truth_csv(out / "ground_truth.csv")
        assert not truth.w_minus_d.any()
        _, wm = BiasNoiseCurves.from_csv(out / "curves.csv").value_at(
            ingest_csv(out / "data.csv").durations)
        err = json.loads((out / "manifest.json").read_text())["notes"]["curve_error"]
        assert err["max_rel_err_w_minus"] == float(np.max(np.abs(wm) / 1e-9)) > 1e8

    def test_missing_dataset_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        result = invoke("correct", "--config", str(cfg), "--out", str(tmp_path / "empty"))
        assert result.exit_code == 2

    def test_d2co_s_without_alpha_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "config.json",
            correction={"methods": ["d2co_s"]},
        )
        out = tmp_path / "run"
        invoke("generate", "--config", str(cfg), "--out", str(out))
        result = invoke("correct", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2

    def test_unknown_method_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "config.json",
            correction={"methods": ["nonsense"]},
        )
        out = tmp_path / "run"
        invoke("generate", "--config", str(cfg), "--out", str(out))
        result = invoke("correct", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2

    @pytest.mark.parametrize("timestamp, interest, reason", [
        ("1", "1.0", "true_interest not 0 or 1: '1.0'"),
        ("1", "yes", "true_interest not 0 or 1: 'yes'"),
        ("later", "1", "timestamp not numeric: 'later'"),
    ])
    def test_bad_optional_value_exits_1(self, tmp_path, timestamp, interest, reason):
        data = tmp_path / "log.csv"
        data.write_text("user_id,item_id,duration_s,watch_time_s,timestamp,true_interest\n"
                        f"a,x,10,3,0,0\nb,y,20,9,{timestamp},{interest}\n")
        cfg = write_config(tmp_path / "config.json", dataset_csv=str(data))
        result = invoke("correct", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: row 3: {reason}" in result.output

    def test_all_zero_watch_times_exit_1(self, tmp_path):
        data = tmp_path / "log.csv"
        data.write_text("user_id,item_id,duration_s,watch_time_s\n"
                        + "".join(f"u{i % 7},i{i % 11},{10 + i % 2},0\n" for i in range(200)))
        cfg = write_config(tmp_path / "config.json", dataset_csv=str(data),
                           correction={"methods": ["watch_time"]})
        result = invoke("correct", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert result.exit_code == 1, result.output
        assert "error: watch_time labels need a positive watch time" in result.output
        assert not (tmp_path / "run" / "labeled_watch_time.csv").exists()

    @pytest.mark.parametrize("cell, reason", [
        (b"u\xff1", "not valid UTF-8"),
        (b'"' + b"u" * 200_000 + b'"', "field larger than field limit"),
    ], ids=["not_utf8", "over_field_limit"])
    def test_unreadable_cell_exits_1(self, tmp_path, cell, reason):
        data = tmp_path / "log.csv"
        data.write_bytes(b"user_id,item_id,duration_s,watch_time_s\na,x,10,3\n"
                         + cell + b",y,20,9\n")
        cfg = write_config(tmp_path / "config.json", dataset_csv=str(data))
        result = invoke("correct", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: row 3: {reason}" in result.output

    def test_bad_correction_key_exits_2_before_reading_data(self, tmp_path):
        data = tmp_path / "log.csv"
        data.write_text("user_id,item_id,duration_s,watch_time_s\na,x,ten,3\n")
        cfg = write_config(tmp_path / "config.json", dataset_csv=str(data),
                           correction={"methods": ["d2co_a"], "n_bin": 3})
        result = invoke("correct", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert result.exit_code == 2, result.output
        assert "configuration error: unknown key correction.n_bin" in result.output

    @pytest.mark.parametrize("command, section, key", [
        ("correct", "estimator", "windw"),
        ("train-eval", "trainer", "epoch"),
    ])
    def test_bad_stage_key_exits_2_before_reading_data(self, tmp_path, command, section, key):
        data = tmp_path / "log.csv"
        data.write_text("user_id,item_id,duration_s,watch_time_s\na,x,10,3\na,y,ten,3\n")
        cfg = write_config(tmp_path / "config.json", dataset_csv=str(data), **{section: {key: 2}})
        result = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert result.exit_code == 2, result.output
        assert f"configuration error: unknown key {section}.{key}" in result.output

    def test_short_ground_truth_exits_1(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        short = out / "short_truth.csv"
        short.write_text("".join((out / "ground_truth.csv").read_text().splitlines(True)[:100]))
        cfg = write_config(cfg_path.parent / "config_short.json", ground_truth_csv=str(short))
        result = invoke("correct", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: 99 ground-truth rows for 4000 data rows" in result.output


class TestTrainEval:
    def test_report_rows_and_determinism(self, pipeline_dir):
        cfg, out = pipeline_dir
        result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.output
        with open(out / "report.csv") as f:
            rows = list(csv.DictReader(f))
        methods = [r["method"] for r in rows]
        assert methods == ["watch_time", "pcr", "d2co_a", "d2co_s", "oracle"]
        for r in rows:
            assert 0.0 <= float(r["gauc"]) <= 1.0
            assert 0.0 <= float(r["ndcg@1"]) <= 1.0
        first = sha(out / "report.csv")
        invoke("train-eval", "--config", str(cfg), "--out", str(out))
        assert sha(out / "report.csv") == first

    def test_breakdown_has_improve_column(self, pipeline_dir):
        cfg, out = pipeline_dir
        invoke("train-eval", "--config", str(cfg), "--out", str(out))
        with open(out / "breakdown.csv") as f:
            rows = list(csv.DictReader(f))
        assert {"method", "range_lo", "range_hi", "gauc", "improve_pct"} <= set(rows[0])
        assert {r["method"] for r in rows} == {"watch_time", "pcr", "d2co_a", "d2co_s", "oracle"}
        # each improve_pct cell recomputed from the same file's GAUC cells
        gauc_of = {(r["method"], r["seed"], r["range_lo"]): r["gauc"] for r in rows}
        checked = 0
        for r in rows:
            if r["improve_pct"]:
                wt, orc = (float(gauc_of[m, r["seed"], r["range_lo"]])
                           for m in ("watch_time", "oracle"))
                assert float(r["improve_pct"]) == improve_percentage(float(r["gauc"]), wt, orc)
                checked += 1
        assert checked

    def test_breakdown_ndcg_cells_hold_the_first_k(self, pipeline_dir, monkeypatch):
        """Each breakdown nDCG cell is its range's nDCG at the first k (1),
        as the report that evaluate returned holds it."""
        cfg, out = pipeline_dir
        reports = {}  # method -> its reports, one per seed
        real = watchlab.cli.evaluate

        def recording(*args, **kwargs):
            report = real(*args, **kwargs)
            reports.setdefault(report.method, []).append(report)
            return report

        monkeypatch.setattr(watchlab.cli, "evaluate", recording)
        assert invoke("train-eval", "--config", str(cfg), "--out", str(out)).exit_code == 0
        with open(out / "breakdown.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        expected = [(m, _cell(rng.ndcg[1])) for m, per_seed in reports.items()
                    for report in per_seed for rng in report.ranges]
        assert [(r["method"], r["ndcg@1"]) for r in rows] == expected
        assert len({cell for _, cell in expected}) > 1

    def test_breakdown_leaves_unscored_cells_blank(self, tmp_path):
        cfg = write_config(tmp_path / "config.json", evaluation={"n_ranges": 12},
                           generate={"n_rows": 500, "n_users": 60, "n_items": 40,
                                     "duration_range": [5, 60]},
                           estimator={"min_group_size": 5, "window": 1})
        out = tmp_path / "run"
        for cmd in ("generate", "correct", "train-eval"):
            result = invoke(cmd, "--config", str(cfg), "--out", str(out))
            assert result.exit_code == 0, result.output
        with open(out / "breakdown.csv") as f:
            rows = list(csv.DictReader(f))
        blank = [r for r in rows if r["gauc"] == ""]
        assert blank and all(r["improve_pct"] == "" for r in blank)
        for r in rows:
            for key in ("gauc", "ndcg@1", "improve_pct"):
                assert r[key] == "" or repr(float(r[key])) == r[key]

    def test_multi_seed_appends_mean_std(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        config = json.loads(cfg_path.read_text())
        config["seeds"] = [0, 1]
        cfg2 = cfg_path.parent / "config2.json"
        cfg2.write_text(json.dumps(config))
        result = invoke("train-eval", "--config", str(cfg2), "--out", str(out))
        assert result.exit_code == 0, result.output
        with open(out / "report.csv") as f:
            rows = list(csv.DictReader(f))
        d2co = [r for r in rows if r["method"] == "d2co_a"]
        assert [r["seed"] for r in d2co] == ["0", "1", "mean", "std"]
        for key in ("gauc", "ndcg@1", "ndcg@3", "ndcg@5"):
            values = [float(r[key]) for r in d2co[:2]]
            assert [r[key] for r in d2co[2:]] == [repr(float(np.mean(values))),
                                                 repr(float(np.std(values)))]

    def test_seed_flag_overrides_config_seeds(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        config = json.loads(cfg_path.read_text())
        config["seeds"] = [0, 1]
        cfg2 = cfg_path.parent / "config_seeds.json"
        cfg2.write_text(json.dumps(config))
        result = invoke("train-eval", "--config", str(cfg2), "--seed", "5", "--out", str(out))
        assert result.exit_code == 0, result.output
        with open(out / "report.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["seed"] for r in rows] == ["5"] * 5
        assert json.loads((out / "manifest.json").read_text())["notes"]["seeds"] == [5]

    def test_seed_flag_zero_overrides_config_seeds(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        cfg2 = write_config(cfg_path.parent / "config_seeds12.json", seeds=[1, 2])
        result = invoke("train-eval", "--config", str(cfg2), "--seed", "0", "--out", str(out))
        assert result.exit_code == 0, result.output
        with open(out / "report.csv") as f:
            assert [r["seed"] for r in csv.DictReader(f)] == ["0"] * 5
        assert json.loads((out / "manifest.json").read_text())["notes"]["seeds"] == [0]

    def test_empty_seeds_exits_2(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        cfg = write_config(cfg_path.parent / "config_noseeds.json", seeds=[])
        result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert "configuration error: seeds" in result.output
        assert not (out / "report.csv").exists()

    def test_sweep_grid(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        config = json.loads(cfg_path.read_text())
        config["sweep"] = {"window": [1, 2], "alpha": [-0.02, -0.01]}
        cfg2 = cfg_path.parent / "config_sweep.json"
        cfg2.write_text(json.dumps(config))
        result = invoke("train-eval", "--config", str(cfg2), "--out", str(out))
        assert result.exit_code == 0, result.output
        with open(out / "sweep_gauc.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert {(r["window"], r["alpha"]) for r in rows} == {
            ("1", "-0.02"), ("1", "-0.01"), ("2", "-0.02"), ("2", "-0.01"),
        }

    def test_sweep_cell_matches_library(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        config = json.loads(cfg_path.read_text())
        config["trainer"]["epochs"] = 1
        config["seeds"] = [3, 0]
        config["sweep"] = {"window": [1, 3], "alpha": [-0.03]}
        cfg2 = cfg_path.parent / "config_sweep_cell.json"
        cfg2.write_text(json.dumps(config))
        result = invoke("train-eval", "--config", str(cfg2), "--out", str(out))
        assert result.exit_code == 0, result.output
        window, alpha, cell = read_float_columns(out / "sweep_gauc.csv",
                                                 ["window", "alpha", "gauc"])
        assert (window[-1], alpha[-1]) == (3, -0.03)
        # the (3, -0.03) cell recomputed from the library, at the first seed
        dataset = ingest_csv(out / "data.csv")
        raw = fit_all_groups(dataset, _section(GmmOptions, config, "estimator"))
        curves = smooth_curves(raw, 3, compute_stats(dataset).group_counts)
        labels = apply_method(dataset, CorrectionParams("d2co_s", curves=curves,
                                                        alpha=-0.03)).labels
        oracle = oracle_labels(dataset, read_ground_truth_csv(out / "ground_truth.csv"))
        splits = chronological_split_indices(dataset, config["split"]["fractions"])
        scores = train_and_score(dataset, labels, splits, oracle.astype(np.float64), config, 3)
        te_idx = splits[2]
        assert cell[-1] == gauc(scores, oracle[te_idx].astype(np.int64),
                                dataset.user_codes[te_idx])

    def test_one_stacked_train_per_seed_and_one_for_the_sweep(self, pipeline_dir, monkeypatch):
        cfg_path, out = pipeline_dir
        config = json.loads(cfg_path.read_text())
        config["trainer"]["epochs"] = 1
        config["seeds"] = [3, 0]
        config["sweep"] = {"window": [1, 2], "alpha": [-0.03, -0.02, -0.01]}
        cfg2 = cfg_path.parent / "config_stacks.json"
        cfg2.write_text(json.dumps(config))
        calls = []
        real = watchlab.cli.train

        def counting(model, train_set, train_labels, *args):
            calls.append(np.shape(train_labels)[1:])
            return real(model, train_set, train_labels, *args)

        monkeypatch.setattr(watchlab.cli, "train", counting)
        result = invoke("train-eval", "--config", str(cfg2), "--out", str(out))
        assert result.exit_code == 0, result.output
        # watch_time, pcr, d2co_a, d2co_s and oracle at each seed, then the 2 x 3 sweep
        assert calls == [(5,), (5,), (6,)]

    def test_sweep_resmooths_curves_csv_and_fits_nothing(self, pipeline_dir, monkeypatch):
        cfg_path, out = pipeline_dir
        cfg = write_config(cfg_path.parent / "config_sweep_nofit.json",
                           sweep={"window": [3], "alpha": [-0.03, -0.01]})

        def refit(*args, **kwargs):
            raise AssertionError("train-eval refitted the curves")

        monkeypatch.setattr(watchlab.cli, "fit_all_groups", refit)
        monkeypatch.setattr(watchlab.cli, "compute_stats", refit)
        result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.output
        window, _, _ = read_float_columns(out / "sweep_gauc.csv", ["window", "alpha", "gauc"])
        assert window.tolist() == [3, 3]

    def test_sweep_without_curves_exits_2_before_training(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        cfg = write_config(cfg_path.parent / "config_sweep_nocurves.json",
                           sweep={"window": [1], "alpha": [-0.01]})
        (out / "curves.csv").unlink()
        result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert (f"configuration error: curves not found (run `correct` first): "
                f"{out / 'curves.csv'}\n") in result.output
        assert not (out / "report.csv").exists()
        # without a sweep, train-eval reads no curves
        result = invoke("train-eval", "--config", str(cfg_path), "--out", str(out))
        assert result.exit_code == 0, result.output

    def test_training_splits_hold_only_the_columns_the_fm_reads(self, monkeypatch):
        ds, truth = generate(SynthConfig(n_rows=600, n_users=20, n_items=30, seed=1))
        splits = chronological_split_indices(ds, (0.6, 0.2, 0.2))
        parts = []
        real = watchlab.cli.train

        def recording(model, train_set, train_labels, val_set, *args):
            parts.extend((train_set, val_set))
            return real(model, train_set, train_labels, val_set, *args)

        monkeypatch.setattr(watchlab.cli, "train", recording)
        oracle = truth.r_sample.astype(np.float64)
        scores = train_and_score(ds, oracle, splits, oracle, {"trainer": {"epochs": 1}}, 0)
        assert scores.shape == splits[2].shape and len(parts) == 2
        for part, idx in zip(parts, splits):
            assert part.timestamps is None and part.true_interest is None
            assert part.user_ids.tolist() == ds.user_ids[idx].tolist()
            assert part.durations.tolist() == ds.durations[idx].tolist()

    def test_feature_field_through_correct_and_train_eval(self, tmp_path):
        cfg = write_config(tmp_path / "config.json", feature_fields=["tab"])
        out = tmp_path / "run"
        assert invoke("generate", "--config", str(cfg), "--out", str(out)).exit_code == 0
        data = out / "data.csv"
        with open(data, newline="") as f:
            header, *rows = list(csv.reader(f))
        with open(data, "w", newline="") as f:
            csv.writer(f).writerows([header + ["tab"]]
                                    + [r + [f"t{i % 3}"] for i, r in enumerate(rows)])
        for cmd in ("correct", "train-eval"):
            result = invoke(cmd, "--config", str(cfg), "--out", str(out))
            assert result.exit_code == 0, result.output
        config = json.loads(cfg.read_text())
        dataset = ingest_csv(data, feature_fields=("tab",))
        assert dataset.features["tab"][:3].tolist() == ["t0", "t1", "t2"]
        curves = fit_curves(dataset, config)
        for m in config["correction"]["methods"]:
            path = out / f"labeled_{m}.csv"
            assert path.read_text().split("\n", 1)[0] == "label"
            params = CorrectionParams(m, curves=curves, alpha=config["correction"]["alpha"])
            assert (read_labels_csv(path, len(dataset)).tolist()
                    == apply_method(dataset, params).labels.tolist())

    def test_missing_labels_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        invoke("generate", "--config", str(cfg), "--out", str(out))
        result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2

    def test_missing_split_exits_2(self, pipeline_dir):
        cfg_path, out = pipeline_dir
        config = json.loads(cfg_path.read_text())
        del config["split"]
        cfg2 = cfg_path.parent / "config_nosplit.json"
        cfg2.write_text(json.dumps(config))
        result = invoke("train-eval", "--config", str(cfg2), "--out", str(out))
        assert result.exit_code == 2


class TestReport:
    def test_error_curves(self, pipeline_dir):
        cfg, out = pipeline_dir
        result = invoke("report", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.output
        with open(out / "error_curves.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows
        for r in rows:
            assert 0.0 <= float(r["bias_err"]) <= 1.0
            assert 0.0 <= float(r["noise_err"]) <= 1.0
        curves = BiasNoiseCurves.from_csv(out / "curves.csv")
        expected = error_decomposition(curves, ingest_csv(out / "data.csv").watch_times.max())
        written = read_float_columns(out / "error_curves.csv", ["d", "bias_err", "noise_err"])
        for got, want in zip(written, (curves.durations, *expected)):
            assert np.array_equal(got, want)

    def test_requires_curves(self, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "run"
        invoke("generate", "--config", str(cfg), "--out", str(out))
        result = invoke("report", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2


@pytest.fixture(scope="module")
def corrected_run(tmp_path_factory):
    """generate + correct with the base test config, copied by each user."""
    root = tmp_path_factory.mktemp("corrected")
    cfg = write_config(root / "config.json")
    out = root / "run"
    assert invoke("generate", "--config", str(cfg), "--out", str(out)).exit_code == 0
    assert invoke("correct", "--config", str(cfg), "--out", str(out)).exit_code == 0
    return out


# (subcommand, section, key, value); key None replaces the whole section, or
# sets a top-level key when `section` names one
BAD_CONFIGS = [
    ("correct", "estimator", "tol", "abc"),
    ("train-eval", "trainer", "learning_rate", "fast"),
    ("train-eval", "trainer", "epochs", 0),
    ("generate", "generate", "noise_std_plus", -1),
    ("correct", "estimator", None, [1, 2]),
    ("correct", "correction", "n_bins", "x"),
    ("correct", "correction", "alpha", "x"),
    ("correct", "estimator", "min_group_sise", 40),
    ("train-eval", "trainer", "epoch", 2),
    ("generate", "generate", "n_row", 100),
    ("correct", "estimator", "max_iter", 2.7),
    ("correct", "correction", "clip", "false"),
    ("correct", "correction", "methods", "pcr"),
    ("correct", "correction", "method", "pcr"),
    ("generate", "generate", "seed", 3),
    ("train-eval", "split", "fractions", [0.5, 0.5, 0.5]),
    ("train-eval", "evaluation", "ndcg_k", "abc"),
    ("generate", "generate", "noise_curve", {"family": "constant", "c": 1000.0}),
    ("train-eval", "split", "fractions", [0.0001, 0.5, 0.4999]),
    ("correct", "correction", "alpha", float("nan")),
    ("train-eval", "trainer", "learning_rate", float("inf")),
    ("correct", "estimator", "var_floor", float("nan")),
    ("generate", "generate", "noise_std_plus", float("nan")),
    ("generate", "generate", "bias_curve", {"family": "power_law", "a": float("nan"),
                                            "gamma": 0.9}),
    ("generate", "generate", "bias_curve", {"family": "table", "durations": [1, 300],
                                            "values": [30.0, float("inf")]}),
    ("correct", "correction", "n_bins", 0),
    ("correct", "correction", "n_bins", -3),
    ("train-eval", "evaluation", "ndcg_K", [1]),
    ("train-eval", "evaluation", "n_range", 3),
    ("train-eval", "split", "fraction", [0.6, 0.2, 0.2]),
    ("generate", "seeed", None, 3),
    ("train-eval", "sweeps", None, {"window": [1]}),
    ("correct", "dataset_csv", None, 7),
    ("correct", "ground_truth_csv", None, 7),
    ("correct", "feature_fields", None, "tab"),
    ("correct", "feature_fields", None, [3]),
    ("correct", "correction", "curves", None),
    ("train-eval", "evaluation", "ndcg_k", [3, 3]),
    ("train-eval", "trainer", "patience", -5),
    ("train-eval", "seeds", None, [0, 0]),
    ("train-eval", "sweep", "window", [1, 1]),
    ("train-eval", "sweep", "alpha", [-0.01, -0.01]),
    ("correct", "correction", "methods", ["pcr", "d2co_a", "pcr"]),
    ("train-eval", "correction", "methods", ["pcr", "d2co_a", "pcr"]),
    ("correct", "feature_fields", None, ["user_id"]),
    ("train-eval", "feature_fields", None, ["item_id"]),
    ("correct", "feature_fields", None, ["tab", "tab"]),
    ("generate", "generate", "n_users", 0),
    ("generate", "generate", "n_items", 0),
    ("generate", "generate", "n_rows", -5),
    ("generate", "generate", "n_rows", 0),
    ("generate", "seed", None, -2),
    ("train-eval", "seed", None, -2),
    ("generate", "seeds", None, [1, -4]),
    ("train-eval", "seeds", None, [1, -4]),
]


@pytest.mark.parametrize("command, section, key, value", BAD_CONFIGS)
def test_bad_config_exits_2(tmp_path, corrected_run, command, section, key, value):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    base = json.loads(write_config(tmp_path / "base.json").read_text())
    bad = value if key is None else {**base.get(section, {}), key: value}
    cfg = write_config(tmp_path / "config.json", **{section: bad})
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    message = result.output.split("configuration error: ", 1)[1]
    assert section in message and (key is None or key in message), message


@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_overflowing_number_literal_exits_2(tmp_path, corrected_run, literal):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    cfg = write_config(tmp_path / "config.json")
    text = cfg.read_text().replace('"alpha": -0.01', f'"alpha": {literal}')
    assert literal in text
    cfg.write_text(text)
    result = invoke("correct", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert "correction.alpha" in result.output.split("configuration error: ", 1)[1]


def test_readme_config_block_matches_dataclass_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    config = json.loads(re.sub(r"//[^\n]*", "", block))
    assert _section(SynthConfig, config, "generate", seed=0) == SynthConfig()
    assert _section(GmmOptions, config, "estimator") == GmmOptions()
    assert _section(TrainConfig, config, "trainer", seed=0) == TrainConfig()
    params = _section(CorrectionParams, config, "correction", skip=("methods",), method="pcr")
    assert dataclasses.replace(params, alpha=None) == CorrectionParams("pcr")
    assert _correction_params(config) == _correction_params({"correction": {"alpha": -0.01}})
    assert _section(EvalConfig, config, "evaluation") == EvalConfig()
    assert _section(SweepConfig, config, "sweep") == SweepConfig()
    _section(SplitConfig, config, "split")  # no default: train-eval requires it
    # the top-level values are examples, but every key must be known and shown
    _section(RunConfig, config, None, skip=SECTIONS)
    assert set(config) == {f.name for f in dataclasses.fields(RunConfig)} | set(SECTIONS)


@pytest.mark.parametrize("sweep, key", [
    ({"window": ["x"]}, "sweep.window"),
    ({"window": [1, -1]}, "sweep.window"),
    ({"alpha": [-0.01, 0]}, "sweep.alpha"),
    ({"alpha": "-0.01"}, "sweep.alpha"),
    ({"windows": [1]}, "sweep.windows"),
    ([1, 2], "sweep"),
    ({"window": []}, "sweep.window"),
    ({"alpha": []}, "sweep.alpha"),
])
def test_bad_sweep_exits_2_before_training(tmp_path, corrected_run, sweep, key):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    cfg = write_config(tmp_path / "config.json", sweep=sweep)
    result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert key in result.output.split("configuration error: ", 1)[1]
    assert not (out / "report.csv").exists()


def test_sweep_on_edited_curves_exits_1_before_training(tmp_path, corrected_run):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    path = out / "curves.csv"
    header, first, *rest = path.read_text().splitlines(True)
    d, *cells = first.split(",")
    cells[BiasNoiseCurves.CSV_HEADER.index("count") - 1] = "-5"
    path.write_text("".join([header, ",".join([d, *cells]), *rest]))
    cfg = write_config(tmp_path / "config.json", sweep={"window": [1], "alpha": [-0.01]})
    result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: {path}: d {d}: negative count: -5\n" in result.output
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("command", ["train-eval", "report"])
def test_curves_count_an_int64_cannot_hold_exits_1(tmp_path, corrected_run, command):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    path = out / "curves.csv"
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[1].split(b",")
    cells[BiasNoiseCurves.CSV_HEADER.index("count")] = b"1e19"
    lines[1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    cfg = write_config(tmp_path / "config.json", sweep={"window": [1], "alpha": [-0.01]})
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: row 2: count not an int64: '1e19'\n" in result.output
    assert not (out / "report.csv").exists() and not (out / "error_curves.csv").exists()


def _fail_training(*args, **kwargs):
    raise AssertionError("training started")


def test_non_binary_oracle_exits_1_before_training(tmp_path, corrected_run, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    path = out / "ground_truth.csv"
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[10].split(b",")
    cells[1] = b"2"  # r_sample of the tenth data row, row index 9
    lines[10] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    monkeypatch.setattr(watchlab.cli, "train", _fail_training)
    cfg = write_config(tmp_path / "config.json")
    result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: oracle interest not 0 or 1: 2 (row index 9)\n" in result.output
    assert not (out / "report.csv").exists()


def test_label_file_cut_inside_its_last_line_exits_1(tmp_path, corrected_run, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    path = out / "labeled_d2co_a.csv"
    raw = path.read_bytes()
    last = raw.rstrip(b"\r\n").rsplit(b"\r\n", 1)[1]
    path.write_bytes(raw[:len(raw) - len(last) - 2] + last[:4])  # e.g. 0.8300520580639517 -> 0.83
    monkeypatch.setattr(watchlab.cli, "train", _fail_training)
    cfg = write_config(tmp_path / "config.json")
    result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: row 4001: {path} does not end with a line break\n" in result.output
    assert not (out / "report.csv").exists()


def test_bad_estimator_key_exits_2_before_training(tmp_path, corrected_run):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    cfg = write_config(tmp_path / "config.json", sweep={"window": [1], "alpha": [-0.01]},
                       estimator={"min_group_size": 40, "windw": 2})
    result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert "configuration error: unknown key estimator.windw" in result.output
    assert not (out / "report.csv").exists()


def _truncate_last_row(lines):
    # a cut float still parses in a one-column file, so the damage is a stray field
    return lines[:-1] + [lines[-1].rstrip("\r\n") + ",0\n"]


def _bad_label(lines):
    return [lines[0], "abc\n", *lines[2:]]


def _nan_label(lines):
    return [lines[0], lines[1], "nan\n", *lines[3:]]


def _bad_truth_cell(lines, column):
    """The lines with cell `column` of the second data row replaced by x."""
    body = lines[2].rstrip("\r\n")
    cells = body.split(",")
    cells[column] = "x"
    return [*lines[:2], ",".join(cells) + lines[2][len(body):], *lines[3:]]


def _bad_r_sample(lines):
    return _bad_truth_cell(lines, 1)


def _bad_w_plus_d(lines):
    return _bad_truth_cell(lines, 2)


def _drop_second_column(lines):
    return [",".join(c for i, c in enumerate(line.split(",")) if i != 1) for line in lines]


def _repeat_last_column(lines):
    return [f"{line.rstrip()},{line.rstrip().rsplit(',', 1)[-1]}\r\n" for line in lines]


# (subcommand, sidecar file, edit of its lines, expected message)
BAD_SIDECARS = [
    ("train-eval", "labeled_d2co_a.csv", _truncate_last_row, "error: row 4001: expected "),
    ("train-eval", "labeled_d2co_a.csv", _bad_label,
     "error: row 2: label not a finite number: 'abc'"),
    ("train-eval", "labeled_pcr.csv", _nan_label, "error: row 3: label not a finite number: 'nan'"),
    ("train-eval", "labeled_d2co_s.csv", lambda ls: ls + ls[-1:], "error: 4001 labels in "),
    ("train-eval", "labeled_d2co_s.csv", lambda ls: ls[:-1], "error: 3999 labels in "),
    ("train-eval", "ground_truth.csv", _bad_r_sample, "error: row 3: r_sample not an int64: 'x'"),
    ("correct", "ground_truth.csv", _bad_w_plus_d,
     "error: row 3: w_plus_d not a finite number: 'x'"),
    ("report", "curves.csv", _drop_second_column, "error: missing column: w_plus_raw"),
    ("correct", "data.csv", _repeat_last_column, "error: row 1: repeated column: true_interest"),
]


@pytest.mark.parametrize("command, name, edit, message", BAD_SIDECARS)
def test_bad_sidecar_exits_1(tmp_path, corrected_run, command, name, edit, message):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    path = out / name
    path.write_text("".join(edit(path.read_text(encoding="utf-8").splitlines(True))),
                    encoding="utf-8")
    cfg = write_config(tmp_path / "config.json")
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


@pytest.mark.parametrize("command, name, message", [
    ("correct", "data.csv", "input dataset not found"),
    ("train-eval", "data.csv", "input dataset not found"),
    ("train-eval", "labeled_d2co_a.csv", "label file missing (run `correct` first)"),
    ("report", "curves.csv", "curves not found (run `correct` first)"),
    ("report", "data.csv", "input dataset not found"),
], ids=["correct-data", "train-eval-data", "train-eval-labels", "report-curves", "report-data"])
def test_missing_input_exits_2_naming_it(tmp_path, corrected_run, command, name, message):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    (out / name).unlink()
    cfg = write_config(tmp_path / "config.json")
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"configuration error: {message}: {out / name}\n" in result.output


@pytest.mark.parametrize("command", ["correct", "train-eval"])
def test_named_ground_truth_missing_exits_2(tmp_path, corrected_run, command):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    missing = tmp_path / "no_such_truth.csv"
    cfg = write_config(tmp_path / "config.json", ground_truth_csv=str(missing))
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"configuration error: ground truth not found: {missing}\n" in result.output


@pytest.mark.parametrize("command, overrides", [
    ("generate", {"generate": {"n_rows": 0}}),
    ("correct", {"estimator": {"windw": 2}}),
    ("correct", {"ground_truth_csv": "no_such_truth.csv"}),
    ("train-eval", {"trainer": {"epoch": 2}}),
    ("report", {}),  # no curves.csv in the output directory
], ids=["generate", "correct-key", "correct-truth", "train-eval", "report"])
def test_config_error_leaves_no_output_directory(tmp_path, corrected_run, command, overrides):
    cfg = write_config(tmp_path / "config.json", dataset_csv=str(corrected_run / "data.csv"),
                       **overrides)
    out = tmp_path / "fresh" / "run"
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert "configuration error: " in result.output
    assert not (tmp_path / "fresh").exists()


def _short_truth(out):
    short = out / "short_truth.csv"
    short.write_text("".join((out / "ground_truth.csv").read_text().splitlines(True)[:100]))
    return {"ground_truth_csv": str(short)}


def _bad_truth(out):
    path = out / "ground_truth.csv"
    path.write_text("".join(_bad_w_plus_d(path.read_text().splitlines(True))))
    return {}


@pytest.mark.parametrize("truth, code, message", [
    (lambda out: {"ground_truth_csv": str(out / "no_such_truth.csv")}, 2,
     "configuration error: ground truth not found: "),
    (_short_truth, 1, "error: 99 ground-truth rows for 4000 data rows"),
    (_bad_truth, 1, "error: row 3: w_plus_d not a finite number: 'x'"),
], ids=["missing", "short", "bad-cell"])
def test_correct_checks_ground_truth_before_writing(tmp_path, corrected_run, truth, code,
                                                    message):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    written = [out / "curves.csv", *out.glob("labeled_*.csv")]
    for path in written:
        path.unlink()
    manifest = (out / "manifest.json").read_bytes()
    cfg = write_config(tmp_path / "config.json", **truth(out))
    result = invoke("correct", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == code, result.output
    assert message in result.output
    assert not any(path.exists() for path in written)
    assert (out / "manifest.json").read_bytes() == manifest


def test_default_ground_truth_stays_optional(tmp_path, corrected_run):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    (out / "ground_truth.csv").unlink()
    cfg = write_config(tmp_path / "config.json")
    result = invoke("correct", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert "curve_error" not in json.loads((out / "manifest.json").read_text())["notes"]
    result = invoke("train-eval", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("where", ["dataset_csv", "ground_truth_csv", "default_ground_truth"])
def test_input_that_is_a_directory_exits_2(tmp_path, corrected_run, where):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    folder = tmp_path / "folder"
    folder.mkdir()
    overrides = {"correction": {"methods": ["d2co_a"]}}
    if where == "default_ground_truth":
        (out / "ground_truth.csv").unlink()
        folder = out / "ground_truth.csv"
        folder.mkdir()
    else:
        overrides[where] = str(folder)
    cfg = write_config(tmp_path / "config.json", **overrides)
    result = invoke("correct", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f": {folder} is not a file\n" in result.output.split("configuration error: ", 1)[1]


@pytest.mark.parametrize("command", list(watchlab.cli.COMMANDS))
def test_config_that_is_a_directory_exits_2(tmp_path, command):
    result = invoke(command, "--config", str(tmp_path), "--out", str(tmp_path / "run"))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"configuration error: config file not found: {tmp_path} is not a file\n" in (
        result.output)


@pytest.mark.parametrize("command", list(watchlab.cli.COMMANDS))
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_output_path_through_a_file_exits_2_before_writing(tmp_path, corrected_run, command,
                                                            below):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    cfg = write_config(tmp_path / "config.json", dataset_csv=str(corrected_run / "data.csv"))
    out = afile / "run" if below else afile
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"configuration error: output directory: {afile} is not a directory\n" in (
        result.output)
    assert sorted(tmp_path.iterdir()) == [afile, cfg] and afile.read_text() == "kept"


@pytest.mark.parametrize("command", list(watchlab.cli.COMMANDS))
@pytest.mark.parametrize("below", [False, True], ids=["link", "below-a-link"])
def test_dangling_symlink_output_exits_2_before_writing(tmp_path, corrected_run, command, below):
    link = tmp_path / "dangling"
    link.symlink_to(tmp_path / "nowhere")
    cfg = write_config(tmp_path / "config.json", dataset_csv=str(corrected_run / "data.csv"))
    out = link / "run" if below else link
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"configuration error: output directory: {link} is not a directory\n" in (
        result.output)
    assert sorted(tmp_path.iterdir()) == [cfg, link] and link.is_symlink()


@pytest.mark.parametrize("command", list(watchlab.cli.COMMANDS))
# a negative seed key is an error where the flag would stand in for it too
@pytest.mark.parametrize("seeds, flag, named", [({}, "-1", "-1"), ({"seed": -2}, None, "-2"),
                                                ({"seeds": [1, -4]}, None, "-4"),
                                                ({"seeds": [-4]}, "3", "-4")],
                         ids=["flag", "seed", "seeds", "seeds-and-flag"])
def test_negative_seed_exits_2_before_reading_or_writing(tmp_path, corrected_run, monkeypatch,
                                                         command, seeds, flag, named):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    before = {p.name: sha(p) for p in out.iterdir()}
    monkeypatch.setattr(watchlab.cli, "ingest_csv", None)  # reading the data would fail
    cfg = write_config(tmp_path / "config.json", **seeds)
    result = invoke(command, "--config", str(cfg), "--out", str(out),
                    *(() if flag is None else ("--seed", flag)))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    message = result.output.split("configuration error: ", 1)[1]
    assert message.startswith("seed") and named in message, message
    assert {p.name: sha(p) for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["correct", "train-eval"])
def test_bad_cell_in_an_unread_truth_column_is_not_an_error(tmp_path, corrected_run, command):
    # correct reads w_plus_d and w_minus_d of the ground truth, train-eval r_sample
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    path = out / "ground_truth.csv"
    path.write_text("".join(_bad_truth_cell(path.read_text().splitlines(True), 0)))
    cfg = write_config(tmp_path / "config.json")
    result = invoke(command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 0, result.output
    for name in ("curves.csv", "labeled_d2co_a.csv") if command == "correct" else ():
        assert sha(out / name) == sha(corrected_run / name)


def _edit_data_row(out, column, cell):
    """Set `column` of the second data row of <out>/data.csv to `cell`."""
    path = out / "data.csv"
    header, first, second, *rest = path.read_bytes().split(b"\r\n")
    cells = second.split(b",")
    cells[header.split(b",").index(column.encode())] = cell.encode()
    path.write_bytes(b"\r\n".join([header, first, b",".join(cells), *rest]))


def test_report_reads_only_the_watch_times(tmp_path, corrected_run):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    cfg = write_config(tmp_path / "config.json")
    assert invoke("report", "--config", str(cfg), "--out", str(out)).exit_code == 0
    expected = sha(out / "error_curves.csv")
    (out / "error_curves.csv").unlink()
    _edit_data_row(out, "item_id", "")
    result = invoke("report", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert sha(out / "error_curves.csv") == expected


@pytest.mark.parametrize("cell, message", [
    ("-1.5", "error: row 3: watch_time_s not a finite number >= 0: '-1.5'\n"),
    ("inf", "error: row 3: watch_time_s not a finite number >= 0: 'inf'\n"),
    ("x", "error: row 3: watch_time_s not a finite number >= 0: 'x'\n"),
    (None, "error: no data rows in "),
])
def test_report_rejects_a_bad_watch_time_or_an_empty_log(tmp_path, corrected_run, cell,
                                                         message):
    out = tmp_path / "run"
    shutil.copytree(corrected_run, out)
    if cell is None:
        path = out / "data.csv"
        path.write_bytes(path.read_bytes().split(b"\r\n", 1)[0] + b"\r\n")
    else:
        _edit_data_row(out, "watch_time_s", cell)
    cfg = write_config(tmp_path / "config.json")
    result = invoke("report", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert not (out / "error_curves.csv").exists()
