import csv
import dataclasses
import re

import numpy as np
import pytest

from watchlab import estimator
from watchlab.data_model import compute_stats
from watchlab.errors import (
    EmptyCurve,
    GroupTooSmall,
    LikelihoodDecrease,
    MalformedRow,
    NoFittableGroups,
    WatchlabError,
)
from watchlab.estimator import (
    BiasNoiseCurves,
    GmmOptions,
    GroupEstimate,
    fit_all_groups,
    fit_group_gmm,
    smooth_curves,
)
from watchlab.synthgen import SynthConfig, generate

from rows import rows_dataset


def mixture_sample(rng, n, w_minus, w_plus, weight_plus, s_minus=1.0, s_plus=4.0):
    r = rng.uniform(size=n) < weight_plus
    return np.where(r, rng.normal(w_plus, s_plus, n), rng.normal(w_minus, s_minus, n))


class TestFitGroupGmm:
    def test_recovers_separated_mixture(self):
        rng = np.random.default_rng(0)
        x = mixture_sample(rng, 10_000, 5.0, 40.0, 0.7, 1.0, 4.0)
        est = fit_group_gmm(x)
        assert est.w_minus_hat == pytest.approx(5.0, abs=0.2)
        assert est.w_plus_hat == pytest.approx(40.0, abs=0.5)
        assert est.weight_plus == pytest.approx(0.7, abs=0.03)
        assert est.converged

    def test_degenerate_group(self):
        est = fit_group_gmm(np.full(100, 12.0))
        assert est.degenerate
        assert not est.converged
        assert est.w_plus_hat == est.w_minus_hat == 12.0

    def test_too_small(self):
        with pytest.raises(GroupTooSmall):
            fit_group_gmm(np.ones(10), GmmOptions(min_group_size=50))

    def test_negative_watch_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fit_group_gmm(np.r_[np.ones(99), -1.0])

    def test_component_order(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            x = np.abs(mixture_sample(np.random.default_rng(seed), 2000, 3.0, 20.0, 0.4))
            est = fit_group_gmm(x)
            assert est.w_minus_hat <= est.w_plus_hat

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = mixture_sample(rng, 4000, 4.0, 30.0, 0.6)
        a = fit_group_gmm(x)
        b = fit_group_gmm(rng.permutation(x))
        assert a.w_plus_hat == pytest.approx(b.w_plus_hat, rel=1e-6)
        assert a.w_minus_hat == pytest.approx(b.w_minus_hat, rel=1e-6)

    def test_constant_lower_component_sits_on_the_variance_floor(self):
        x = np.concatenate([np.full(100, 3.0), np.random.default_rng(0).normal(50.0, 5.0, 100)])
        est = fit_group_gmm(x)
        assert est.w_minus_hat == 3.0
        assert est.var_minus == 1e-4

    def test_likelihood_drop_names_the_group(self, monkeypatch):
        # every E-step scores the data lower than the one before
        steps = iter(range(100))
        monkeypatch.setattr(estimator, "_log_gauss",
                            lambda x, mu, var: np.full((2, x.shape[1]), -float(next(steps))))
        x = mixture_sample(np.random.default_rng(0), 200, 4.0, 30.0, 0.6)
        with pytest.raises(LikelihoodDecrease, match="^duration group 7: "):
            fit_group_gmm(x, d=7)


def dataset_with_groups(spec, seed=0):
    """spec: {duration: n_rows}; each group is a separated mixture."""
    rng = np.random.default_rng(seed)
    rows = []
    for d, n in spec.items():
        x = mixture_sample(rng, n, 0.1 * d + 1, 0.8 * d + 5, 0.6, 0.5, 1.0)
        x = np.abs(x)
        for i, w in enumerate(x):
            rows.append((f"u{i%17}", f"i{i}", float(w), int(d)))
    return rows_dataset(rows)


class TestFitAllGroups:
    def test_counts_groups(self):
        ds = dataset_with_groups({10: 1000, 20: 1000})
        assert set(fit_all_groups(ds)) == {10, 20}

    def test_no_fittable(self):
        ds = dataset_with_groups({d: 1 for d in range(10, 40)})
        with pytest.raises(NoFittableGroups):
            fit_all_groups(ds)
        with pytest.raises(NoFittableGroups, match="empty dataset"):
            fit_all_groups(ds.subset([]))

    def test_thin_groups_skipped(self):
        ds = dataset_with_groups({10: 1000, 15: 10, 20: 1000})
        fits = fit_all_groups(ds)
        assert set(fits) == {10, 20}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_group_mask_reference(self, seed):
        ds, _ = generate(SynthConfig(n_rows=6000, duration_range=(5, 120), seed=seed))
        options = GmmOptions()
        w, d = ds.watch_times, ds.durations
        reference = {int(k): fit_group_gmm(w[d == k], options, d=int(k)) for k in np.unique(d)
                     if (d == k).sum() >= options.min_group_size}
        fits = fit_all_groups(ds, options)
        assert 0 < len(fits) < np.unique(d).size  # some groups are too thin
        assert list(fits) == list(reference)
        assert fits == reference

    def test_loglik_path_never_drops(self, monkeypatch):
        """The log-likelihood after k EM steps, k = 1..25, never falls by more
        than the relative 1e-8 that fit_group_gmm tolerates."""
        ds, _ = generate(SynthConfig(n_rows=6000, duration_range=(5, 120), seed=0))
        monkeypatch.setattr(estimator, "EM_TOL", 0.0)
        paths = []
        for k in range(1, 26):
            monkeypatch.setattr(estimator, "EM_MAX_ITER", k)
            paths.append(fit_all_groups(ds))
        groups = [d for d, est in paths[0].items() if not est.degenerate]
        assert groups
        for d in groups:
            lls = [fits[d].loglik for fits in paths]
            assert lls[-1] > lls[0]
            for prev, ll in zip(lls, lls[1:]):
                assert ll >= prev - 1e-8 * max(1.0, abs(prev)), (d, prev, ll)

    def test_em_runs_to_its_stopping_rule(self):
        """One more EM step from each converged fit moves the log-likelihood
        by less than EM_TOL relative to it: the fit stopped where the rule says,
        not earlier."""
        ds, _ = generate(SynthConfig(n_rows=20000, seed=0))
        fits = fit_all_groups(ds)

        def log_joint(x, mu, var, pi):
            """log(pi_c * N(x; mu_c, var_c)), one column per component."""
            return np.log(pi) - 0.5 * np.log(2 * np.pi * var) - (x - mu) ** 2 / (2 * var)

        checked = 0
        for d, est in fits.items():
            if est.degenerate or not est.converged:
                continue
            x = ds.watch_times[ds.durations == d][:, None]
            joint = log_joint(x, np.array([est.w_plus_hat, est.w_minus_hat]),
                              np.array([est.var_plus, est.var_minus]),
                              np.array([est.weight_plus, 1.0 - est.weight_plus]))
            log_px = np.logaddexp(joint[:, 0], joint[:, 1])
            resp = np.exp(joint - log_px[:, None])
            nk = resp.sum(axis=0)
            mu = (resp * x).sum(axis=0) / nk
            var = np.maximum((resp * (x - mu) ** 2).sum(axis=0) / nk, estimator.VAR_FLOOR)
            joint = log_joint(x, mu, var, nk / x.size)
            ll, next_ll = log_px.sum(), np.logaddexp(joint[:, 0], joint[:, 1]).sum()
            assert abs(next_ll - ll) < estimator.EM_TOL * abs(ll), (d, ll, next_ll)
            checked += 1
        assert checked > 100


def make_raw(counts, plus, minus=None):
    out = {}
    for i, (d, c) in enumerate(counts.items()):
        wm = minus[i] if minus is not None else plus[i] / 10
        out[d] = GroupEstimate(
            w_plus_hat=plus[i], w_minus_hat=wm, var_plus=1.0,
            var_minus=1.0, weight_plus=0.5, count=c, converged=True, loglik=0.0,
        )
    return out


class TestSmoothCurves:
    def test_hand_example(self):
        raw = make_raw({1: 2, 2: 3, 3: 5}, [10.0, 20.0, 30.0])
        curves = smooth_curves(raw, window=1)
        assert curves.w_plus[1] == pytest.approx(23.0, abs=1e-12)

    def test_window_zero_identity(self):
        raw = make_raw({1: 2, 2: 3, 3: 5}, [10.0, 20.0, 30.0])
        curves = smooth_curves(raw, window=0)
        assert np.allclose(curves.w_plus, [10, 20, 30])

    def test_full_window_global_mean(self):
        raw = make_raw({1: 2, 2: 3, 3: 5}, [10.0, 20.0, 30.0])
        curves = smooth_curves(raw, window=10)
        assert np.allclose(curves.w_plus, 23.0)

    def test_missing_interior_interpolated(self):
        raw = make_raw({10: 100, 30: 100}, [10.0, 30.0])
        curves = smooth_curves(raw, window=0, group_counts={10: 100, 20: 5, 30: 100})
        i = list(curves.durations).index(20)
        assert curves.w_plus_raw[i] == pytest.approx(20.0)
        assert not curves.fitted[i]

    def test_repair_when_noise_crosses_bias(self):
        raw = make_raw({1: 10, 2: 10}, [10.0, 10.0], minus=[10.0, 12.0])
        curves = smooth_curves(raw, window=0)
        assert (curves.w_minus < curves.w_plus).all()
        assert curves.w_minus.tolist() == (curves.w_plus * (1.0 - 1e-3)).tolist()

    def test_empty(self):
        with pytest.raises(EmptyCurve):
            smooth_curves({}, window=1)

    def test_zero_group_count_weighs_one(self):
        # an unfitted key may count no rows; weighed 0, its T = 0 window would divide 0 by 0
        raw = make_raw({10: 100, 30: 100}, [10.0, 30.0])
        curves = smooth_curves(raw, window=0, group_counts={10: 100, 20: 0, 30: 100})
        assert curves.counts.tolist() == [100, 0, 100]
        assert np.isfinite(curves.w_plus).all() and np.isfinite(curves.w_minus).all()
        assert curves.w_plus.tolist() == curves.w_plus_raw.tolist() == [10.0, 20.0, 30.0]
        assert curves.w_minus.tolist() == curves.w_minus_raw.tolist() == [1.0, 2.0, 3.0]

    def test_smoothed_resmooths_the_raw_columns(self):
        raw = make_raw({1: 2, 2: 3, 3: 5}, [10.0, 20.0, 30.0])
        curves = smooth_curves(raw, window=0)
        wide = curves.smoothed(1)
        assert wide.w_plus[1] == pytest.approx(23.0, abs=1e-12)
        assert wide.w_plus.tolist() == smooth_curves(raw, window=1).w_plus.tolist()
        assert curves.w_plus.tolist() == [10.0, 20.0, 30.0]  # the original is left as it was
        assert wide.w_plus_raw is curves.w_plus_raw and wide.counts is curves.counts
        with pytest.raises(ValueError, match="window must be >= 0"):
            curves.smoothed(-1)

    def test_csv_round_trip(self, tmp_path):
        raw = make_raw({5: 10, 9: 20, 14: 5}, [8.0, 12.0, 20.0])
        curves = smooth_curves(raw, window=1)
        path = tmp_path / "curves.csv"
        curves.to_csv(path)
        back = BiasNoiseCurves.from_csv(path)
        assert np.allclose(back.w_plus, curves.w_plus)
        assert np.allclose(back.w_minus_raw, curves.w_minus_raw)
        assert np.array_equal(back.durations, curves.durations)

    def test_csv_flag_is_the_fitted_mask(self, tmp_path):
        raw = make_raw({10: 100, 30: 100}, [10.0, 30.0])
        curves = smooth_curves(raw, window=0, group_counts={10: 100, 20: 5, 30: 100})
        path = tmp_path / "curves.csv"
        curves.to_csv(path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert "converged" not in rows[0]
        assert [r["fitted"] for r in rows] == ["1", "0", "1"]
        assert BiasNoiseCurves.from_csv(path).fitted.tolist() == [True, False, True]

    @pytest.mark.parametrize("column, cell, message", [
        ("count", "-5", "d 9: negative count: -5"),
        ("fitted", "7", "d 9: fitted not 0 or 1: 7"),
        ("fitted", "-1", "d 9: fitted not 0 or 1: -1"),
        ("d", "5", "d 5: d not above the previous row's: 5"),
        ("d", "3", "d 3: d not above the previous row's: 5"),
    ])
    def test_from_csv_rejects_a_bad_row(self, tmp_path, column, cell, message):
        path = tmp_path / "curves.csv"
        smooth_curves(make_raw({5: 10, 9: 20, 14: 5}, [8.0, 12.0, 20.0]), window=1).to_csv(path)
        lines = path.read_text().splitlines(True)
        cells = lines[2].rstrip("\r\n").split(",")
        cells[BiasNoiseCurves.CSV_HEADER.index(column)] = cell
        lines[2] = ",".join(cells) + "\r\n"
        path.write_text("".join(lines))
        with pytest.raises(WatchlabError, match=re.escape(f"{path}: {message}")):
            BiasNoiseCurves.from_csv(path)

    def test_from_csv_rejects_a_count_an_int64_cannot_hold(self, tmp_path):
        # a cast of 1e19 wraps to -2**63 with a RuntimeWarning, an error in these tests
        path = tmp_path / "curves.csv"
        smooth_curves(make_raw({5: 10, 9: 20, 14: 5}, [8.0, 12.0, 20.0]), window=1).to_csv(path)
        lines = path.read_text().splitlines(True)
        for line, column in ((2, "count"), (3, "d")):
            cells = lines[line].rstrip("\r\n").split(",")
            cells[BiasNoiseCurves.CSV_HEADER.index(column)] = "1e19"
            lines[line] = ",".join(cells) + "\r\n"
        path.write_text("".join(lines))
        with pytest.raises(MalformedRow) as info:
            BiasNoiseCurves.from_csv(path)
        assert str(info.value) == "row 3: count not an int64: '1e19'"

    def test_from_csv_rejects_a_file_without_rows(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(",".join(BiasNoiseCurves.CSV_HEADER) + "\r\n")
        with pytest.raises(EmptyCurve, match=re.escape(f"no curve rows in {path}")):
            BiasNoiseCurves.from_csv(path)

    def test_from_csv_reads_a_zero_count(self, tmp_path):
        raw = make_raw({10: 100, 30: 100}, [10.0, 30.0])
        curves = smooth_curves(raw, window=0, group_counts={10: 100, 20: 0, 30: 100})
        curves.to_csv(tmp_path / "curves.csv")
        assert BiasNoiseCurves.from_csv(tmp_path / "curves.csv").counts.tolist() == [100, 0, 100]

    def test_value_at_interpolates_and_extends(self):
        raw = make_raw({10: 1, 20: 1}, [10.0, 20.0])
        curves = smooth_curves(raw, window=0)
        wp, _ = curves.value_at([15, 5, 50])
        assert wp[0] == pytest.approx(15.0)
        assert wp[1] == pytest.approx(10.0)  # nearest-key extension
        assert wp[2] == pytest.approx(20.0)


@pytest.mark.parametrize("min_group_size, n_interpolated", [(40, 0), (200, 25)])
def test_curves_from_csv_resmooth_as_a_refit(tmp_path, min_group_size, n_interpolated):
    """curves.csv keeps the raw columns and counts exactly, so re-smoothing
    what it holds equals smoothing a fresh fit, interpolated keys included."""
    dataset, _ = generate(SynthConfig(n_rows=4000, n_users=40, n_items=60,
                                      duration_range=(5, 60), seed=0))
    raw = fit_all_groups(dataset, GmmOptions(min_group_size=min_group_size))
    counts = compute_stats(dataset).group_counts
    smooth_curves(raw, 2, counts).to_csv(tmp_path / "curves.csv")
    read = BiasNoiseCurves.from_csv(tmp_path / "curves.csv")
    assert (~read.fitted).sum() == n_interpolated
    for window in range(6):
        got, want = read.smoothed(window), smooth_curves(raw, window, counts)
        for field in dataclasses.fields(BiasNoiseCurves):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), (
                window, field.name)
