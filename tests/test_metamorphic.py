"""Metamorphic checks: curves, labels, trained scores and metrics must not
depend on the order of the log's rows or on how its ids are spelled, and
curves must barely move when every row is repeated.

The log leaves some durations too thin to fit, so the curves' fill from
fitted neighbours runs on both sides of every relation.
"""

import csv
import shutil

import numpy as np
import pytest

from watchlab.cli import run_correct, run_generate, run_train_eval, train_and_score
from watchlab.correction import METHOD_IDS, CorrectionParams, apply_method
from watchlab.data_model import (
    Dataset,
    chronological_split_indices,
    compute_stats,
    ingest_csv,
    write_csv,
)
from watchlab.estimator import GmmOptions, fit_all_groups, smooth_curves
from watchlab.evaluation import evaluate, gauc, ndcg_at_k, oracle_labels
from watchlab.synthgen import SynthConfig, generate

MIN_GROUP_SIZE = 150
CURVE_COLUMNS = ("w_plus_raw", "w_minus_raw", "w_plus", "w_minus")
FIT_COLUMNS = (*CURVE_COLUMNS, "weight_plus")
EXACT_UNDER_PERMUTATION = ("watch_time", "pcr", "pcr_denoise", "d2q", "d2q_denoise")
KS = (1, 3, 5)


def curves_of(dataset, min_group_size=MIN_GROUP_SIZE):
    raw = fit_all_groups(dataset, GmmOptions(min_group_size=min_group_size))
    return smooth_curves(raw, 2, compute_stats(dataset).group_counts)


def labels_of(dataset, curves):
    return {m: apply_method(dataset, CorrectionParams(m, curves=curves, alpha=-0.01)).labels
            for m in METHOD_IDS}


@pytest.fixture(scope="module")
def log():
    dataset, _ = generate(SynthConfig(n_rows=30_000, duration_range=(3, 300), seed=1))
    curves = curves_of(dataset)
    assert 0 < curves.fitted.sum() < curves.fitted.size  # some keys are filled
    return dataset, curves


@pytest.fixture(scope="module")
def permuted(log):
    perm = np.random.default_rng(0).permutation(len(log[0]))
    return perm, log[0].subset(perm)


def test_row_permutation(log, permuted):
    dataset, curves = log
    perm, shuffled = permuted
    moved = curves_of(shuffled)
    np.testing.assert_array_equal(moved.durations, curves.durations)
    np.testing.assert_array_equal(moved.fitted, curves.fitted)
    np.testing.assert_array_equal(moved.counts, curves.counts)
    for name in FIT_COLUMNS:
        np.testing.assert_allclose(getattr(moved, name), getattr(curves, name), rtol=1e-12)

    unpermute = np.argsort(perm)
    before, after = labels_of(dataset, curves), labels_of(shuffled, moved)
    for m in METHOD_IDS:
        if m in EXACT_UNDER_PERMUTATION:
            np.testing.assert_array_equal(after[m][unpermute], before[m], err_msg=m)
        else:  # EM and the group sums add in another order; labels lie in [0, 1]
            np.testing.assert_allclose(after[m][unpermute], before[m], rtol=0, atol=1e-12)


def test_metric_row_permutation(log, permuted):
    """On tie-free scores the metrics see the same per-user rankings."""
    dataset, _ = log
    perm, shuffled = permuted
    scores = np.random.default_rng(2).normal(size=len(dataset))
    assert np.unique(scores).size == scores.size
    y = oracle_labels(dataset)
    report = evaluate(scores, y, dataset, "m", KS, 3)
    assert evaluate(scores[perm], y[perm], shuffled, "m", KS, 3) == report
    users = dataset.user_ids
    assert gauc(scores[perm], y[perm], users[perm]) == gauc(scores, y, users) == report.gauc
    for k in KS:
        assert ndcg_at_k(scores[perm], y[perm], users[perm], k) == ndcg_at_k(scores, y, users, k)


def test_permuted_log_round_trips(tmp_path, log, permuted):
    dataset, _ = log
    perm, shuffled = permuted
    write_csv(shuffled, tmp_path / "data.csv")
    back = ingest_csv(tmp_path / "data.csv")
    for name in ("user_ids", "item_ids", "watch_times", "durations", "timestamps",
                 "true_interest"):
        np.testing.assert_array_equal(getattr(back, name), getattr(dataset, name)[perm],
                                      err_msg=name)


def renamed(dataset, seed):
    """`dataset` with its user and item ids sent through a random bijection."""
    rng = np.random.default_rng(seed)

    def rename(table, codes):
        return np.array([f"x{j}" for j in rng.permutation(table.size)])[codes]

    return Dataset(rename(dataset.user_table, dataset.user_codes),
                   rename(dataset.item_table, dataset.item_codes), dataset.watch_times,
                   dataset.durations, dataset.timestamps, dataset.true_interest,
                   dataset.features)


def metric_values(report):
    """Every number of an EvalReport, ranges included; NaN where None."""
    values = [report.gauc, *report.ndcg_at.values(), report.n_users_evaluated,
              report.n_users_skipped]
    for r in report.ranges:
        values += [r.duration_lo, r.duration_hi, r.n_rows, r.gauc, *r.ndcg.values()]
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def test_id_renaming():
    """Ids only group rows, so renaming them moves nothing but the order in
    which the metrics add up per-user values."""
    dataset, truth = generate(SynthConfig(n_rows=8000, seed=1))
    curves = curves_of(dataset, GmmOptions().min_group_size)
    labels = labels_of(dataset, curves)
    oracle = oracle_labels(dataset, truth).astype(np.float64)
    splits = chronological_split_indices(dataset, (0.6, 0.2, 0.2))
    te = splits[2]
    y = oracle[te].astype(np.int64)
    config = {"trainer": {"epochs": 3}}
    scores = train_and_score(dataset, labels["d2co_s"], splits, oracle, config, 0)
    report = evaluate(scores, y, dataset.subset(te), "m", KS, 3)
    for seed in range(3):
        other = renamed(dataset, seed)
        assert (other.user_codes != dataset.user_codes).any()
        assert (other.item_codes != dataset.item_codes).any()
        moved = curves_of(other, GmmOptions().min_group_size)
        for name in ("durations", "counts", "fitted", *FIT_COLUMNS):
            np.testing.assert_array_equal(getattr(moved, name), getattr(curves, name), name)
        moved_labels = labels_of(other, moved)
        for m in METHOD_IDS:
            np.testing.assert_array_equal(moved_labels[m], labels[m], err_msg=m)
        moved_scores = train_and_score(other, moved_labels["d2co_s"], splits, oracle, config, 0)
        np.testing.assert_array_equal(moved_scores, scores)
        moved_report = evaluate(scores, y, other.subset(te), "m", KS, 3)
        np.testing.assert_allclose(metric_values(moved_report), metric_values(report),
                                   rtol=0, atol=1e-15)
        other_users = other.user_ids[te]
        public = [gauc(scores, y, other_users), *(ndcg_at_k(scores, y, other_users, k)
                                                  for k in KS)]
        np.testing.assert_allclose(public, [report.gauc, *report.ndcg_at.values()],
                                   rtol=0, atol=1e-15)


def test_cli_on_renamed_log(tmp_path):
    config = {
        "generate": {"n_rows": 3000, "n_users": 40, "n_items": 60, "duration_range": [5, 60]},
        "estimator": {"min_group_size": 40},
        "correction": {"methods": ["d2co_s"], "alpha": -0.01},
        "split": {"fractions": [0.6, 0.2, 0.2]},
        "trainer": {"epochs": 1, "batch_size": 256},
    }
    first, second = tmp_path / "a", tmp_path / "b"
    run_generate(config, out=first)
    second.mkdir()
    write_csv(renamed(ingest_csv(first / "data.csv"), 0), second / "data.csv")
    shutil.copy(first / "ground_truth.csv", second)
    reports = []
    for out in (first, second):
        run_correct(config, out=out)
        run_train_eval(config, out=out)
        with open(out / "report.csv", newline="", encoding="utf-8") as f:
            reports.append(list(csv.reader(f)))
    (header, *rows), (header_b, *rows_b) = reports
    assert header == header_b
    assert [r[:2] for r in rows] == [r[:2] for r in rows_b]
    np.testing.assert_allclose(np.array([r[2:] for r in rows_b], dtype=float),
                               np.array([r[2:] for r in rows], dtype=float), rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def twice(log):
    dataset, _ = log
    repeated = dataset.subset(np.tile(np.arange(len(dataset)), 2))
    return repeated, curves_of(repeated, 2 * MIN_GROUP_SIZE)  # the same durations are fitted


def test_every_row_twice(log, twice):
    (dataset, curves), (repeated, doubled) = log, twice
    np.testing.assert_array_equal(doubled.durations, curves.durations)
    np.testing.assert_array_equal(doubled.fitted, curves.fitted)
    np.testing.assert_array_equal(doubled.counts, 2 * curves.counts)
    # the fitted columns are held to 1e-12 in test_every_row_twice_leaves_fits_unchanged
    for name in CURVE_COLUMNS:
        np.testing.assert_allclose(getattr(doubled, name), getattr(curves, name), rtol=1e-3)
    pcr = apply_method(dataset, CorrectionParams("pcr")).labels
    np.testing.assert_array_equal(apply_method(repeated, CorrectionParams("pcr")).labels,
                                  np.tile(pcr, 2))


def test_every_row_twice_leaves_fits_unchanged(log, twice):
    curves, doubled = log[1], twice[1]
    for name in FIT_COLUMNS:
        np.testing.assert_allclose(getattr(doubled, name), getattr(curves, name), rtol=1e-12)


@pytest.mark.parametrize("with_counts", [True, False])
def test_fill_keeps_fitted_values(log, with_counts):
    dataset, _ = log
    raw = fit_all_groups(dataset, GmmOptions(min_group_size=MIN_GROUP_SIZE))
    counts = compute_stats(dataset).group_counts if with_counts else None
    curves = smooth_curves(raw, 2, counts)
    assert curves.fitted.all() == (not with_counts)
    keys = curves.durations[curves.fitted].tolist()
    assert keys == sorted(raw)
    for column, attr in (("w_plus_raw", "w_plus_hat"), ("w_minus_raw", "w_minus_hat"),
                         ("weight_plus", "weight_plus")):
        fitted_values = getattr(curves, column)[curves.fitted].tolist()
        assert fitted_values == [getattr(raw[k], attr) for k in keys], column
