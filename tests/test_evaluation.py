import numpy as np
import pytest

from watchlab.errors import (
    DegenerateDenominator,
    LengthMismatch,
    NoEvaluableUsers,
    NonBinaryLabels,
    NonFiniteScores,
)
from watchlab.evaluation import (
    evaluate,
    gauc,
    improve_percentage,
    ndcg_at_k,
    oracle_labels,
)
import watchlab.correction
import watchlab.evaluation
import watchlab.ranking
from watchlab.correction import label_d2q
from watchlab.ranking import quantile_bins
from watchlab.synthgen import GroundTruth

from rows import rows_dataset


class TestGauc:
    def test_perfect_ranking(self):
        assert gauc([0.1, 0.9], [0, 1], ["u", "u"]) == 1.0

    def test_reversed_ranking(self):
        assert gauc([0.9, 0.1], [0, 1], ["u", "u"]) == 0.0

    def test_tied_scores_half(self):
        assert gauc([0.5, 0.5], [0, 1], ["u", "u"]) == 0.5

    def test_impression_weighting(self):
        # u1: 4 rows AUC 1.0; u2: 2 rows AUC 0.0 -> (4*1 + 2*0)/6
        scores = [0.1, 0.2, 0.8, 0.9, 0.9, 0.1]
        labels = [0, 0, 1, 1, 0, 1]
        users = ["u1"] * 4 + ["u2"] * 2
        assert gauc(scores, labels, users) == pytest.approx(4.0 / 6.0)

    def test_single_class_users_skipped(self):
        scores = [0.5, 0.6, 0.1, 0.9]
        labels = [1, 1, 0, 1]
        users = ["a", "a", "b", "b"]
        value, n_eval, n_skip = gauc(scores, labels, users, return_counts=True)
        assert value == 1.0
        assert (n_eval, n_skip) == (1, 1)

    def test_no_evaluable(self):
        with pytest.raises(NoEvaluableUsers):
            gauc([0.1, 0.2], [1, 1], ["a", "a"])

    def test_misaligned(self):
        with pytest.raises(LengthMismatch):
            gauc([0.1], [1, 0], ["a", "a"])

    @pytest.mark.parametrize("metric", [gauc, lambda s, y, u: ndcg_at_k(s, y, u, k=1)],
                             ids=["gauc", "ndcg_at_k"])
    def test_one_user_id_too_few(self, metric):
        with pytest.raises(LengthMismatch):
            metric([0.1, 0.2, 0.3], [1, 0, 1], ["a", "a"])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(0, 1, 500)
        labels = rng.integers(0, 2, 500)
        users = rng.integers(0, 20, 500).astype(str)
        a = gauc(scores, labels, users)
        b = gauc(np.exp(3 * scores), labels, users)
        assert a == pytest.approx(b, abs=1e-12)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        n = 100_000
        scores = rng.uniform(0, 1, n)
        labels = rng.integers(0, 2, n)
        users = (np.arange(n) % 200).astype(str)
        assert gauc(scores, labels, users) == pytest.approx(0.5, abs=0.02)


class TestNdcg:
    def test_relevant_below_irrelevant(self):
        # best item irrelevant, second relevant: DCG = 1/log2(3), IDCG = 1
        v = ndcg_at_k([0.9, 0.5], [0, 1], ["u", "u"], k=2)
        assert v == pytest.approx(1.0 / np.log2(3.0))
        assert v == pytest.approx(0.6309297535714574)

    def test_all_relevant_is_one(self):
        assert ndcg_at_k([0.2, 0.9, 0.5], [1, 1, 1], ["u"] * 3, k=3) == 1.0

    def test_perfect_order_is_one(self):
        assert ndcg_at_k([0.9, 0.5, 0.1], [1, 1, 0], ["u"] * 3, k=3) == 1.0

    def test_monotone_in_k_for_fixed_ranking(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(0, 1, 50)
        labels = (rng.uniform(0, 1, 50) < 0.3).astype(int)
        users = ["u"] * 50
        # a relevant item outside the top-k can only help as k grows once the
        # ideal DCG has saturated; here just check values stay within [0, 1]
        vals = [ndcg_at_k(scores, labels, users, k) for k in (1, 3, 5, 10, 50)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals[-1] > 0.0

    def test_users_without_positives_skipped(self):
        v, n_eval, n_skip = ndcg_at_k(
            [0.9, 0.1, 0.5], [1, 0, 0], ["a", "a", "b"], k=1, return_counts=True
        )
        assert v == 1.0
        assert (n_eval, n_skip) == (1, 1)

    def test_unweighted_mean_over_users(self):
        # a: nDCG@1 = 1, b: nDCG@1 = 0; mean 0.5 regardless of row counts
        scores = [0.9, 0.1, 0.2, 0.3, 0.8, 0.7]
        labels = [1, 0, 1, 1, 0, 0]
        users = ["a", "a", "b", "b", "b", "b"]
        assert ndcg_at_k(scores, labels, users, k=1) == pytest.approx(0.5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ndcg_at_k([0.1], [1], ["u"], k=0)


@pytest.mark.parametrize("metric", [gauc, lambda s, y, u: ndcg_at_k(s, y, u, k=3)],
                         ids=["gauc", "ndcg"])
class TestBadInput:
    def test_empty(self, metric):
        with pytest.raises(NoEvaluableUsers):
            metric([], [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score(self, metric, bad):
        with pytest.raises(NonFiniteScores):
            metric([0.1, bad, 0.3, 0.4], [0, 1, 1, 0], ["a", "a", "b", "b"])

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_non_binary_label(self, metric, bad):
        with pytest.raises(NonBinaryLabels):
            metric([0.1, 0.2, 0.3, 0.4], [0, 1, bad, 1], ["a", "a", "b", "b"])

    def test_float_binary_labels_accepted(self, metric):
        scores, users = [0.1, 0.9, 0.3, 0.4], ["a", "a", "b", "b"]
        assert metric(scores, [0.0, 1.0, 1.0, 0.0], users) == metric(scores, [0, 1, 1, 0], users)


class TestImprovePercentage:
    def test_full_recovery(self):
        assert improve_percentage(0.8, 0.6, 0.8) == pytest.approx(1.0)

    def test_no_recovery(self):
        assert improve_percentage(0.6, 0.6, 0.8) == 0.0

    def test_partial(self):
        v = improve_percentage(0.391, 0.380, 0.409)
        assert v == pytest.approx(0.3793, abs=0.05)

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            improve_percentage(0.7, 0.5, 0.5)


def tiny_dataset():
    rows = []
    for i, (u, d, w, y) in enumerate([
        ("a", 10, 10.0, 1), ("a", 10, 2.0, 0), ("a", 40, 30.0, 1),
        ("b", 40, 5.0, 0), ("b", 40, 39.0, 1), ("b", 10, 1.0, 0),
    ]):
        rows.append((u, f"i{i}", w, d, i, y))
    return rows_dataset(rows, "timestamp", "true_interest")


class TestOracleLabels:
    def test_sidecar_truth_wins(self):
        ds = tiny_dataset()
        truth = GroundTruth(np.full(len(ds), 0.5), 1 - ds.true_interest, np.full(len(ds), 2.0),
                            np.full(len(ds), 1.0))
        assert oracle_labels(ds, truth).tolist() == [0, 1, 0, 1, 0, 1]

    def test_true_interest_column(self):
        assert oracle_labels(tiny_dataset()).tolist() == [1, 0, 1, 0, 1, 0]

    def test_long_view_fallback(self):
        ds = rows_dataset([
            ("a", "x", 10.0, 10),   # complete play, short video
            ("a", "y", 17.0, 60),   # below the threshold
            ("a", "z", 25.0, 60),   # above the threshold
        ])
        assert oracle_labels(ds).tolist() == [1, 0, 1]

    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_binary_truth_rejected(self, bad):
        ds = tiny_dataset()
        r = ds.true_interest.copy()
        r[3] = bad
        truth = GroundTruth(np.full(len(ds), 0.5), r, np.full(len(ds), 2.0),
                            np.full(len(ds), 1.0))
        with pytest.raises(NonBinaryLabels, match=f"not 0 or 1: {bad} \\(row index 3\\)"):
            oracle_labels(ds, truth)

    def test_misaligned_truth(self):
        with pytest.raises(LengthMismatch):
            oracle_labels(tiny_dataset(), truth=[])


class TestBreakdownAndReport:
    def test_single_range_matches_global(self):
        ds = tiny_dataset()
        scores = ds.watch_times
        labels = oracle_labels(ds)
        (r,) = evaluate(scores, labels, ds, "watch_time", ks=(1, 3, 5), n_ranges=1).ranges
        assert r.n_rows == len(ds)
        assert r.gauc == pytest.approx(gauc(scores, labels, ds.user_ids))

    def test_ranges_partition_rows(self):
        ds = tiny_dataset()
        out = evaluate(ds.watch_times, oracle_labels(ds), ds, "watch_time", ks=(1, 3, 5),
                       n_ranges=2).ranges
        assert sum(r.n_rows for r in out) == len(ds)

    def test_unevaluable_range_reports_none(self):
        ds = rows_dataset([
            ("a", "x", 5.0, 10, 1),
            ("a", "y", 1.0, 10, 1),
            ("a", "z", 9.0, 100, 1),
            ("a", "w", 2.0, 100, 0),
        ], "true_interest")
        out = evaluate(ds.watch_times, oracle_labels(ds), ds, "watch_time", ks=(1, 3, 5),
                       n_ranges=2).ranges
        assert out[0].gauc is None
        assert out[1].gauc == 1.0

    def test_evaluate_report_fields(self):
        ds = tiny_dataset()
        report = evaluate(ds.watch_times, oracle_labels(ds), ds, "watch_time",
                          ks=(1, 3), n_ranges=2)
        assert report.method == "watch_time"
        assert 0.0 <= report.gauc <= 1.0
        assert set(report.ndcg_at) == {1, 3}
        assert [set(r.ndcg) for r in report.ranges] == [{1, 3}] * len(report.ranges)

    def test_evaluate_computes_user_codes_once(self, monkeypatch):
        calls = []
        real = watchlab.evaluation.group_codes

        def counting(keys):
            calls.append(len(keys))
            return real(keys)

        ds = tiny_dataset()
        labels = oracle_labels(ds)
        expected = evaluate(ds.watch_times, labels, ds, "watch_time", ks=(1, 3, 5), n_ranges=3)
        monkeypatch.setattr(watchlab.evaluation, "group_codes", counting)
        report = evaluate(ds.watch_times, labels, ds, "watch_time", ks=(1, 3, 5), n_ranges=3)
        assert calls == [len(ds)]
        assert report == expected

    def test_evaluate_and_d2q_sort_once(self, monkeypatch):
        """One ranking sort per evaluate call whatever the number of ranges,
        and one per D2Q label."""
        from watchlab import SynthConfig, generate

        calls = []
        real = watchlab.ranking.descending_order

        def counting(values, codes):
            calls.append(len(values))
            return real(values, codes)

        for module in (watchlab.evaluation, watchlab.correction):
            monkeypatch.setattr(module, "descending_order", counting)
        ds, truth = generate(SynthConfig(n_rows=600, n_users=20, seed=2))
        y = oracle_labels(ds, truth)
        for n_ranges in (1, 3, 7):
            report = evaluate(ds.watch_times, y, ds, "m", ks=(1, 3, 5), n_ranges=n_ranges)
            assert len(report.ranges) == n_ranges
            assert calls == [len(ds)]
            calls.clear()
        label_d2q(ds, quantile_bins(ds.durations, 4)[1])
        assert calls == [len(ds)]

    def test_empty_range_reports_none(self):
        ds = rows_dataset([
            ("a", "x", 5.0, 1, 1),
            ("a", "y", 1.0, 1, 0),
            ("b", "z", 9.0, 10, 1),
            ("b", "w", 2.0, 10, 0),
        ], "true_interest")
        out = evaluate(ds.watch_times, oracle_labels(ds), ds, "m", ks=(3, 1), n_ranges=7).ranges
        assert [r.n_rows for r in out] == [2, 0, 2]
        assert (out[1].gauc, out[1].ndcg) == (None, {3: None, 1: None})
        assert out[0].gauc == out[2].gauc == 1.0

    def test_no_ks_gives_empty_ndcg(self):
        ds = tiny_dataset()
        report = evaluate(ds.watch_times, oracle_labels(ds), ds, "m", ks=(), n_ranges=2)
        assert report.ndcg_at == {}
        assert [r.ndcg for r in report.ranges] == [{}] * len(report.ranges)

    @pytest.mark.parametrize("ks, n_ranges", [((0, 1), 2), ((1,), 0)])
    def test_bad_k_or_n_ranges(self, ks, n_ranges):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            evaluate(ds.watch_times, oracle_labels(ds), ds, "m", ks=ks, n_ranges=n_ranges)

    def test_evaluate_matches_per_range_metric_calls(self):
        """The shared user codes and the one ranking per row group give the
        values separate per-k metric calls give, for any order of ks."""
        from watchlab import SynthConfig, generate

        ds, truth = generate(SynthConfig(n_rows=3000, n_users=60, seed=5))
        y = oracle_labels(ds, truth)
        scores = np.round(ds.watch_times, 0)  # plenty of ties
        users = ds.user_ids
        d = ds.durations
        for ks, n_ranges in (((1, 3, 5), 3), ((5, 1, 3, 2), 7)):
            report = evaluate(scores, y, ds, "m", ks=ks, n_ranges=n_ranges)
            assert report.gauc == gauc(scores, y, users)
            assert report.ndcg_at == {k: ndcg_at_k(scores, y, users, k) for k in ks}
            assert len(report.ranges) == n_ranges
            for r in report.ranges:
                mask = (d > r.duration_lo) & (d <= r.duration_hi)
                assert r.n_rows == int(mask.sum())
                assert r.gauc == gauc(scores[mask], y[mask], users[mask])
                assert r.ndcg == {k: ndcg_at_k(scores[mask], y[mask], users[mask], k)
                                  for k in ks}
