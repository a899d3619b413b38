"""Metamorphic checks: curves and labels must not depend on the order of the
log's rows, and must barely move when every row is repeated.

The log leaves some durations too thin to fit, so the curves' fill from
fitted neighbours runs on both sides of every relation.
"""

import numpy as np
import pytest

from watchlab.correction import METHOD_IDS, CorrectionParams, apply_method
from watchlab.data_model import compute_stats
from watchlab.estimator import GmmOptions, fit_all_groups, smooth_curves
from watchlab.synthgen import SynthConfig, generate

MIN_GROUP_SIZE = 150
CURVE_COLUMNS = ("w_plus_raw", "w_minus_raw", "w_plus", "w_minus")
FIT_COLUMNS = (*CURVE_COLUMNS, "weight_plus")
EXACT_UNDER_PERMUTATION = ("watch_time", "pcr", "pcr_denoise", "d2q", "d2q_denoise")


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


def test_row_permutation(log):
    dataset, curves = log
    perm = np.random.default_rng(0).permutation(len(dataset))
    shuffled = dataset.subset(perm)
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
    # EM starts elsewhere on the doubled log (test_every_row_twice_leaves_fits_unchanged)
    for name in CURVE_COLUMNS:
        np.testing.assert_allclose(getattr(doubled, name), getattr(curves, name), rtol=1e-3)
    pcr = apply_method(dataset, CorrectionParams("pcr")).labels
    np.testing.assert_array_equal(apply_method(repeated, CorrectionParams("pcr")).labels,
                                  np.tile(pcr, 2))


@pytest.mark.xfail(strict=True, reason="fit_group_gmm starts EM at np.percentile's "
                   "interpolated 10th/90th percentiles, which move when every row repeats")
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
