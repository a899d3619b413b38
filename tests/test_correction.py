import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from watchlab.correction import (
    METHOD_IDS,
    CorrectedDataset,
    CorrectionParams,
    apply_method,
    denoise_postprocess,
    error_decomposition,
    group_watch_stats,
    label_d2co_affine,
    label_d2co_sensitivity,
    label_d2q,
    label_pcr,
    label_wtg,
    read_labels_csv,
)
from watchlab.data_model import Dataset
from watchlab.errors import (
    CurveCollapse,
    DegenerateDenominator,
    EmptyDataset,
    LengthMismatch,
    NumericOverflow,
)
from watchlab.estimator import BiasNoiseCurves, GroupEstimate, smooth_curves
from watchlab.ranking import quantile_bins
from watchlab.synthgen import SynthConfig, generate
from tests.test_estimator import make_raw

from oracles import sensitivity_affine, sensitivity_scontrolled_numeric


def simple_dataset(watch_times, durations):
    ids = range(len(watch_times))
    return Dataset([f"u{i}" for i in ids], [f"i{i}" for i in ids], watch_times, durations,
                   timestamps=ids)


class TestPcr:
    def test_ratio(self):
        assert label_pcr(15, 30) == pytest.approx(0.5)

    def test_zero(self):
        assert label_pcr(0, 17) == 0.0

    def test_complete_play(self):
        assert label_pcr(30, 30) == 1.0


class TestWtg:
    def test_at_mean(self):
        assert label_wtg(10.0, 10.0, 2.0) == pytest.approx(0.5)

    def test_degenerate_sigma(self):
        assert label_wtg(10.0, 10.0, 0.0) == pytest.approx(0.5)

    def test_one_sigma_against_erf(self):
        # oracle: Phi(1) from the error function
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert label_wtg(12.0, 10.0, 2.0) == pytest.approx(phi1, abs=1e-12)
        assert phi1 == pytest.approx(0.8413447460685429)

    def test_matches_ndtr(self):
        z = np.linspace(-40.0, 40.0, 800_001)
        assert np.abs(label_wtg(z, 0.0, 1.0) - ndtr(z)).max() <= 4.5e-16
        w = np.random.default_rng(0).normal(7.0, 8.0, 100_000)
        assert np.abs(label_wtg(w, 7.0, 2.5) - ndtr((w - 7.0) / 2.5)).max() <= 4.5e-16

    def test_exactly_half_at_zero_and_for_zero_sigma(self):
        assert label_wtg(np.array([3.0, -1.0, 0.0]), np.array([3.0, 2.0, 5.0]),
                         np.array([1.0, 0.0, 0.0])).tolist() == [0.5] * 3


class TestD2q:
    def test_top_and_bottom_rank(self):
        w = np.arange(100, dtype=float)
        ds = simple_dataset(w, [10] * 100)
        labels = label_d2q(ds, quantile_bins(ds.durations, 1)[1])
        assert labels[w.argmax()] == pytest.approx(0.99)
        assert labels[w.argmin()] == 0.0

    def test_two_way_tie(self):
        # two tied at the top of a bin of 4: rank 1.5 each -> (4-1.5)/4
        ds = simple_dataset([9.0, 9.0, 5.0, 1.0], [10] * 4)
        labels = label_d2q(ds, quantile_bins(ds.durations, 1)[1])
        assert labels[0] == pytest.approx(0.625)
        assert labels[1] == pytest.approx(0.625)

    def test_rows_partition_bins(self):
        ds = simple_dataset(np.arange(300, dtype=float), [5] * 100 + [20] * 100 + [90] * 100)
        edges, bin_of_row = quantile_bins(ds.durations, 3)
        sizes = np.bincount(bin_of_row, minlength=edges.size - 1)
        assert sizes.sum() == 300
        assert np.bincount(bin_of_row).tolist() == sizes.tolist()


class TestDenoise:
    def test_below_threshold_zeroed(self):
        ds = simple_dataset([4.9, 5.0], [30, 30])
        out = denoise_postprocess(np.array([0.8, 0.8]), ds, 5.0)
        assert out.tolist() == [0.0, 0.8]

    def test_zero_threshold_identity(self):
        ds = simple_dataset([1.0, 2.0], [30, 30])
        labels = np.array([0.3, 0.4])
        assert denoise_postprocess(labels, ds, 0.0).tolist() == labels.tolist()

    def test_length_mismatch(self):
        ds = simple_dataset([1.0], [30])
        with pytest.raises(LengthMismatch):
            denoise_postprocess(np.array([0.1, 0.2]), ds, 5.0)


class TestD2coAffine:
    def test_anchors_and_midpoint(self):
        assert label_d2co_affine(2.0, 10.0, 2.0) == 0.0
        assert label_d2co_affine(10.0, 10.0, 2.0) == 1.0
        assert label_d2co_affine(6.0, 10.0, 2.0) == pytest.approx(0.5)

    def test_collapse_guard(self):
        with pytest.raises(CurveCollapse):
            label_d2co_affine(5.0, 2.0, 2.0)

    def test_clip(self):
        assert label_d2co_affine(100.0, 10.0, 2.0) == 1.0
        assert label_d2co_affine(100.0, 10.0, 2.0, clip=False) > 1.0


class TestD2coSensitivityLabel:
    def test_anchors_any_alpha(self):
        for alpha in (-2.0, -0.03, 0.03, 2.0):
            assert label_d2co_sensitivity(2.0, 10.0, 2.0, alpha) == pytest.approx(0.0, abs=1e-15)
            assert label_d2co_sensitivity(10.0, 10.0, 2.0, alpha) == pytest.approx(1.0)

    def test_small_alpha_matches_affine(self):
        rng = np.random.default_rng(8)
        wm = rng.uniform(0, 20, 500)
        wp = wm + rng.uniform(0.5, 50, 500)
        w = wm + rng.uniform(0, 1, 500) * (wp - wm)
        a = label_d2co_affine(w, wp, wm)
        s = label_d2co_sensitivity(w, wp, wm, 1e-8)
        assert np.abs(a - s).max() < 1e-6

    @pytest.mark.parametrize("alpha", [1e-20, 1e-16, 1e-12])
    def test_tiny_positive_alpha_matches_affine(self, alpha):
        # exp(e1) - exp(e2) cancels to 0 when both exponents round to 1
        w = np.linspace(2.0, 10.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = label_d2co_sensitivity(w, 10.0, 2.0, alpha)
        assert np.abs(s - label_d2co_affine(w, 10.0, 2.0)).max() <= 1e-12

    def test_zero_alpha_and_collapsed_curves_rejected(self):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            label_d2co_sensitivity(5.0, 10.0, 2.0, 0.0)
        with pytest.raises(CurveCollapse):
            label_d2co_sensitivity(5.0, 2.0, 2.0, 0.03)

    def test_sign_of_alpha_orders_results(self):
        lo = label_d2co_sensitivity(6.0, 10.0, 2.0, +0.05)
        hi = label_d2co_sensitivity(6.0, 10.0, 2.0, -0.05)
        assert hi > lo

    @pytest.mark.parametrize("alpha", [5e-324, -5e-324])
    def test_underflowing_alpha_raises_instead_of_nan(self, alpha):
        # |alpha| * (w+ - w-) rounds to zero, so the ratio would be 0/0
        with pytest.raises(NumericOverflow):
            label_d2co_sensitivity([2.0, 2.1], 2.5, 2.0, alpha)

    def test_monotone_in_w_for_both_signs(self):
        w = np.linspace(2.0, 10.0, 200)
        for alpha in (-0.5, 0.5):
            lab = label_d2co_sensitivity(w, 10.0, 2.0, alpha)
            assert (np.diff(lab) >= 0).all()


class TestSensitivities:
    def test_affine_hand_value(self):
        s_plus, _ = sensitivity_affine(6.0, 10.0, 2.0, 0.1, 0.1)
        assert s_plus == pytest.approx(4.0 / 64.0 * 0.1)

    def test_affine_zero_numerators(self):
        s_plus, _ = sensitivity_affine(2.0, 10.0, 2.0, 0.1, 0.1)
        assert s_plus == 0.0
        _, s_minus = sensitivity_affine(10.0, 10.0, 2.0, 0.1, 0.1)
        assert s_minus == 0.0

    def test_out_of_interval(self):
        with pytest.raises(ValueError):
            sensitivity_affine(11.0, 10.0, 2.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            sensitivity_scontrolled_numeric(1.0, 10.0, 2.0, -0.03, 0.1)

    def test_small_alpha_limit(self):
        s_plus, s_minus = sensitivity_affine(6.0, 10.0, 2.0, 0.1, 0.1)
        sp, sm = sensitivity_scontrolled_numeric(6.0, 10.0, 2.0, 1e-8, 0.1)
        assert sp == pytest.approx(s_plus, rel=1e-4)
        assert sm == pytest.approx(s_minus, rel=1e-4)
        sp, sm = sensitivity_scontrolled_numeric(6.0, 10.0, 2.0, -1e-8, 0.1)
        assert sp == pytest.approx(s_plus, rel=1e-4)

    def test_negative_alpha_lowers_plus_sensitivity(self):
        s_plus, s_minus = sensitivity_affine(6.0, 10.0, 2.0, 0.1, 0.1)
        sp, _ = sensitivity_scontrolled_numeric(6.0, 10.0, 2.0, -0.03, 0.1)
        assert sp < s_plus
        _, sm = sensitivity_scontrolled_numeric(6.0, 10.0, 2.0, +0.03, 0.1)
        assert sm < s_minus


class TestErrorDecomposition:
    def test_hand_values(self):
        raw = make_raw({10: 1}, [60.0], minus=[10.0])
        curves = smooth_curves(raw, window=0)
        bias_err, noise_err = error_decomposition(curves, 100.0)
        assert bias_err[0] == pytest.approx(0.4)
        assert noise_err[0] == pytest.approx(0.1)

    def test_zero_cases(self):
        raw = make_raw({10: 1}, [100.0], minus=[0.0])
        curves = smooth_curves(raw, window=0)
        bias_err, noise_err = error_decomposition(curves, 100.0)
        assert bias_err[0] == 0.0
        assert noise_err[0] == 0.0


    @pytest.mark.parametrize("w_max", [0.0, -1.0])
    def test_non_positive_w_max_rejected(self, w_max):
        curves = smooth_curves(make_raw({10: 1}, [60.0], minus=[10.0]), window=0)
        with pytest.raises(DegenerateDenominator, match="w_max must be positive"):
            error_decomposition(curves, w_max)


class TestApplyMethod:
    def test_watch_time_scaling(self):
        ds = simple_dataset([1.0, 5.0, 10.0], [30, 30, 30])
        labels = apply_method(ds, CorrectionParams("watch_time")).labels
        assert labels.max() == 1.0
        assert labels.tolist() == [0.1, 0.5, 1.0]

    def test_watch_time_of_an_all_zero_log_raises(self):
        # w / w.max() would be 0/0: NaN labels that only the next stage notices
        ds = simple_dataset([0.0, 0.0, 0.0], [10, 20, 30])
        with pytest.raises(DegenerateDenominator, match="positive watch time"):
            apply_method(ds, CorrectionParams("watch_time"))

    def test_pcr_denoise_zeroes_short_watch(self):
        ds = simple_dataset([3.0, 20.0], [30, 30])
        labels = apply_method(ds, CorrectionParams("pcr_denoise")).labels
        assert labels[0] == 0.0
        assert labels[1] == pytest.approx(20 / 30)

    def test_labels_in_unit_interval_when_clipped(self):
        rng = np.random.default_rng(0)
        ds = simple_dataset(rng.uniform(0, 120, 400), rng.integers(5, 60, 400))
        raw = make_raw({5: 1, 60: 1}, [50.0, 100.0], minus=[1.0, 5.0])
        curves = smooth_curves(raw, window=0)
        for m in ("watch_time", "pcr", "wtg", "d2q", "d2co_a", "d2co_s",
                  "pcr_denoise", "wtg_denoise", "d2q_denoise"):
            params = CorrectionParams(m, curves=curves, alpha=-0.02)
            labels = apply_method(ds, params).labels
            assert (labels >= 0).all() and (labels <= 1).all(), m

    def test_monotone_in_w_within_duration(self):
        rng = np.random.default_rng(1)
        n = 500
        ds = simple_dataset(np.sort(rng.uniform(0, 60, n)), [30] * n)
        raw = make_raw({30: n}, [45.0], minus=[3.0])
        curves = smooth_curves(raw, window=0)
        for m in ("watch_time", "pcr", "wtg", "d2q", "d2co_a", "d2co_s"):
            params = CorrectionParams(m, curves=curves, alpha=0.04)
            labels = apply_method(ds, params).labels
            assert (np.diff(labels) >= -1e-12).all(), m

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_empty_dataset_raises(self, method):
        # every method, d2co with its curves and alpha, names the empty log
        curves = smooth_curves(make_raw({10: 1}, [20.0]), window=0)
        empty = simple_dataset([1.0, 2.0], [10, 20]).subset([])
        with pytest.raises(EmptyDataset, match="empty dataset"):
            apply_method(empty, CorrectionParams(method, curves=curves, alpha=-0.01))

    def test_validation(self):
        with pytest.raises(ValueError, match="d2co_a needs fitted bias/noise curves"):
            apply_method(simple_dataset([1.0], [10]), CorrectionParams("d2co_a"))
        with pytest.raises(ValueError):
            CorrectionParams("nope").validate()
        raw = make_raw({10: 1}, [20.0])
        curves = smooth_curves(raw, window=0)
        with pytest.raises(ValueError):
            CorrectionParams("d2co_s", curves=curves).validate()

    def test_group_watch_stats(self):
        ds = simple_dataset([1.0, 3.0, 10.0], [10, 10, 20])
        durations, group, mu, sigma = group_watch_stats(ds)
        assert durations.tolist() == [10, 20]
        assert mu[0] == pytest.approx(2.0)
        assert sigma[0] == pytest.approx(1.0)
        assert np.bincount(group)[1] == 1


def true_curve_table(config, plus_scale=1.0):
    """BiasNoiseCurves holding the configured curves at every duration of the
    range, with w+ scaled by plus_scale."""
    d = np.arange(config.duration_range[0], config.duration_range[1] + 1)
    wp, wm = config.bias_curve(d), config.noise_curve(d)
    ones = np.ones(d.size)
    return BiasNoiseCurves(d, wp, wm, plus_scale * wp, wm, 0.5 * ones, ones.astype(np.int64),
                           ones.astype(bool))


class TestD2coThroughApplyMethod:
    """The d2co_s branch of apply_method, the one the pipeline runs."""

    @pytest.mark.parametrize("alpha", [-0.03, 0.03])
    def test_d2co_s_is_the_sensitivity_label(self, alpha):
        config = SynthConfig(n_rows=2000, seed=0)
        ds, _ = generate(config)
        curves = true_curve_table(config)
        labels = apply_method(ds, CorrectionParams("d2co_s", curves, alpha)).labels
        expected = label_d2co_sensitivity(ds.watch_times, *curves.value_at(ds.durations), alpha)
        assert (labels == expected).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negative_alpha_tolerates_error_in_w_plus(self, seed):
        """The paper's robustness claim: with w+ overestimated by 20 %, the
        labels move least at alpha < 0 and most at alpha > 0, with the affine
        correction between them."""
        config = SynthConfig(n_rows=20_000, seed=seed)
        ds, _ = generate(config)
        exact, biased = true_curve_table(config), true_curve_table(config, plus_scale=1.2)

        def shift(method, alpha=None):
            before = apply_method(ds, CorrectionParams(method, exact, alpha)).labels
            after = apply_method(ds, CorrectionParams(method, biased, alpha)).labels
            return float(np.abs(after - before).mean())

        assert shift("d2co_s", -0.03) < shift("d2co_a") < shift("d2co_s", 0.03)


def reference_wtg_labels(dataset):
    """The earlier wtg branch: a per-duration loop of mean/std into a dict,
    then a dict -> list -> array gather."""
    w, d = dataset.watch_times, dataset.durations
    uniq, inverse = np.unique(d, return_inverse=True)
    stats = []
    for k in range(uniq.size):
        xs = w[inverse == k]
        stats.append((float(xs.mean()), float(xs.std())))
    mu = np.array([m for m, _ in stats])[inverse]
    sigma = np.array([s for _, s in stats])[inverse]
    return label_wtg(w, mu, sigma)


class TestWtgGroups:
    @pytest.mark.parametrize("seed, decimals", [(3, None), (4, None), (5, 0), (6, 1)])
    def test_matches_loop_reference(self, seed, decimals):
        from watchlab import SynthConfig, generate

        ds, _ = generate(SynthConfig(n_rows=6000, seed=seed))
        if decimals is not None:  # many tied watch times inside each group
            ds = Dataset(ds.user_ids, ds.item_ids, np.round(ds.watch_times, decimals),
                         ds.durations, ds.timestamps)
        ref = reference_wtg_labels(ds)
        labels = apply_method(ds, CorrectionParams("wtg")).labels
        assert np.abs(labels - ref).max() <= 1e-12
        denoised = apply_method(ds, CorrectionParams("wtg_denoise")).labels
        assert np.abs(denoised - np.where(ds.watch_times < 5.0, 0.0, ref)).max() <= 1e-12

    def test_constant_group_is_exactly_half(self):
        # the group mean of three 0.1s is not 0.1 in float sums; the label must
        # still be the zero-variance 0.5, not Phi(+-1)
        ds = simple_dataset([0.1, 0.1, 0.1, 1.0, 2.0], [10, 10, 10, 20, 20])
        _, _, mu, sigma = group_watch_stats(ds)
        assert mu[0] == 0.1 and sigma[0] == 0.0
        assert apply_method(ds, CorrectionParams("wtg")).labels[:3].tolist() == [0.5] * 3


class TestLabeledCsv:
    labeled = CorrectedDataset(labels=np.random.default_rng(0).uniform(0, 1, 500) ** 3)

    def test_bytes_are_label_header_and_repr_lines(self, tmp_path):
        self.labeled.to_csv(tmp_path / "l.csv")
        expected = "label\r\n" + "".join(f"{float(x)!r}\r\n" for x in self.labeled.labels)
        assert (tmp_path / "l.csv").read_bytes() == expected.encode()
        written = io.StringIO(newline="")
        csv.writer(written).writerows([["label"], *([x] for x in self.labeled.labels.tolist())])
        assert written.getvalue() == expected
        with open(tmp_path / "l.csv", newline="", encoding="utf-8") as f:
            assert [float(r["label"]) for r in csv.DictReader(f)] == self.labeled.labels.tolist()

    def test_labels_read_back_exactly(self, tmp_path):
        self.labeled.to_csv(tmp_path / "l.csv")
        assert (read_labels_csv(tmp_path / "l.csv", 500).tolist()
                == self.labeled.labels.tolist())


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1, 300),
                       st.tuples(st.floats(0.0, 200.0, **finite), st.floats(1e-3, 200.0, **finite),
                                 st.integers(1, 1000)),
                       min_size=1, max_size=8),
       st.integers(0, 3),
       st.lists(st.tuples(st.integers(1, 320), st.floats(0.0, 500.0, **finite)),
                min_size=1, max_size=60),
       st.one_of(st.floats(-1.0, -1e-300, **finite), st.floats(1e-300, 1.0, **finite)))
def test_d2co_labels_in_unit_interval_and_monotone_in_w(groups, window, rows, alpha):
    """On random curves, watch times and alpha, d2co labels lie in [0,1] and
    never decrease in w within a duration. |alpha| stays >= 1e-300, because a
    smaller one can make alpha * (w+ - w-) underflow to zero, which raises
    (test_underflowing_alpha_raises_instead_of_nan)."""
    raw = {d: GroupEstimate(w_plus_hat=wm + gap, w_minus_hat=wm, var_plus=1.0,
                            var_minus=1.0, weight_plus=0.5, count=c, converged=True, loglik=0.0)
           for d, (wm, gap, c) in groups.items()}
    curves = smooth_curves(raw, window)
    d, w = (np.array(c) for c in zip(*rows))
    ds = Dataset(np.arange(d.size).astype(str), np.zeros(d.size, str), w, d)
    order = np.lexsort((w, d))
    same_d = d[order][1:] == d[order][:-1]
    for method in ("d2co_a", "d2co_s"):
        labels = apply_method(ds, CorrectionParams(method, curves=curves, alpha=alpha)).labels
        assert ((labels >= 0.0) & (labels <= 1.0)).all(), method
        assert (np.diff(labels[order])[same_d] >= 0.0).all(), method
