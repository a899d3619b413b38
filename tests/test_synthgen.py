import numpy as np
import pytest
from scipy.stats import kendalltau

from watchlab.errors import (
    CurveOrderViolation,
    MalformedRow,
    MissingColumn,
    OutOfRangeDuration,
)
from watchlab.synthgen import (
    GROUND_TRUTH_COLUMNS,
    Curve,
    GroundTruth,
    SynthConfig,
    generate,
    read_ground_truth_csv,
    true_curves,
    write_ground_truth_csv,
)

from oracles import expected_watch_dataset


def test_power_law_direct():
    wp, _ = true_curves(
        SynthConfig(bias_curve=Curve("power_law", {"a": 2.0, "gamma": 1.0}),
                    duration_range=(5, 100)),
        10,
    )
    assert wp == pytest.approx(20.0)


def test_saturating_linear_regime():
    # c * (1 - exp(-d/tau)) ~ c*d/tau when d << tau
    curve = Curve("saturating", {"c": 5.0, "tau": 1e6})
    assert float(curve(10)) == pytest.approx(5.0 * 10 / 1e6, rel=1e-4)


def test_out_of_range_duration():
    cfg = SynthConfig(duration_range=(10, 50))
    with pytest.raises(OutOfRangeDuration):
        true_curves(cfg, 5)


def test_curve_order_enforced():
    cfg = SynthConfig(
        bias_curve=Curve("constant", {"c": 2.0}),
        noise_curve=Curve("constant", {"c": 5.0}),
    )
    with pytest.raises(CurveOrderViolation):
        generate(cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("curves", [
    lambda v: {"bias_curve": Curve("power_law", {"a": v, "gamma": 0.9})},
    lambda v: {"noise_curve": Curve("saturating", {"c": v, "tau": 60.0})},
], ids=["bias_curve", "noise_curve"])
def test_non_finite_curve_parameter_rejected(curves, value):
    with pytest.raises(CurveOrderViolation):
        generate(SynthConfig(n_rows=50, **curves(value)))


def test_same_seed_identical():
    cfg = SynthConfig(n_rows=500, seed=11)
    ds1, t1 = generate(cfg)
    ds2, t2 = generate(cfg)
    assert np.array_equal(ds1.watch_times, ds2.watch_times)
    assert np.array_equal(ds1.durations, ds2.durations)
    assert all(np.array_equal(getattr(t1, c), getattr(t2, c)) for c in GROUND_TRUTH_COLUMNS)


def test_id_tables_sort_as_strings():
    ds, _ = generate(SynthConfig(n_rows=2000, n_users=12, n_items=25, seed=3))
    for prefix, n, table, codes in (("u", 12, ds.user_table, ds.user_codes),
                                    ("i", 25, ds.item_table, ds.item_codes)):
        ids = [f"{prefix}{k}" for k in range(n)]
        assert table.tolist() == np.unique(ids).tolist()
        assert table.tolist()[:3] == [f"{prefix}0", f"{prefix}1", f"{prefix}10"]
        # every id is drawn, so the table is also np.unique of the id column
        ref_table, ref_codes = np.unique(table[codes], return_inverse=True)
        assert ref_table.tolist() == table.tolist() and ref_codes.tolist() == codes.tolist()


def test_watch_times_non_negative():
    ds, _ = generate(SynthConfig(n_rows=2000, seed=2, noise_std_minus=5.0))
    assert (ds.watch_times >= 0).all()


def test_expected_watch_matches_mixture():
    """With noise switched to its expectation, w equals p*w+ + (1-p)*w-."""
    ds, truth = generate(SynthConfig(n_rows=300, seed=4))
    eds = expected_watch_dataset(ds, truth)
    p = truth.p_interest
    assert eds.watch_times == pytest.approx(p * truth.w_plus_d + (1 - p) * truth.w_minus_d)


def test_empirical_mean_matches_decomposition():
    # zero-coupling config with a single duration so every row shares curves
    cfg = SynthConfig(
        n_rows=40_000, n_users=1, n_items=1, duration_range=(30, 30),
        duration_interest_coupling=0.0, seed=9,
    )
    ds, truth = generate(cfg)
    p = truth.p_interest[0]
    expected = p * truth.w_plus_d[0] + (1 - p) * truth.w_minus_d[0]
    assert ds.watch_times.mean() == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_component_residual_stds_match_config(seed):
    """Each component's watch times scatter around its curve with its
    configured std; rows with w- >= 4 * noise_std_minus make the truncation
    at 0 negligible."""
    cfg = SynthConfig(n_rows=20_000, seed=seed)
    ds, truth = generate(cfg)
    far = truth.w_minus_d >= 4 * cfg.noise_std_minus
    engaged = far & (truth.r_sample == 1)
    noise = far & (truth.r_sample == 0)
    residual = ds.watch_times - np.where(truth.r_sample == 1, truth.w_plus_d, truth.w_minus_d)
    assert residual[engaged].std() == pytest.approx(cfg.noise_std_plus, rel=0.05)
    assert residual[noise].std() == pytest.approx(cfg.noise_std_minus, rel=0.05)


def test_pcr_regime_rank_order():
    """Linear curves with vanishing noise: w/d rank-orders like p among
    engaged rows."""
    cfg = SynthConfig(
        n_rows=1000,
        bias_curve=Curve("linear", {"c": 1.0}),
        noise_curve=Curve("saturating", {"c": 1e-4, "tau": 1.0}),
        seed=21,
    )
    ds, truth = generate(cfg)
    eds = expected_watch_dataset(ds, truth)
    engaged = np.flatnonzero(truth.r_sample == 1)
    pcr = eds.watch_times[engaged] / eds.durations[engaged]
    p = truth.p_interest[engaged]
    tau = kendalltau(pcr, p).statistic
    assert tau > 0.9999


def test_ground_truth_round_trip(tmp_path):
    _, truth = generate(SynthConfig(n_rows=50, seed=1))
    path = tmp_path / "gt.csv"
    write_ground_truth_csv(truth, path)
    back = read_ground_truth_csv(path)
    assert all(np.array_equal(getattr(back, c), getattr(truth, c)) for c in GROUND_TRUTH_COLUMNS)


def test_ground_truth_missing_column(tmp_path):
    _, truth = generate(SynthConfig(n_rows=5, seed=1))
    path = tmp_path / "gt.csv"
    write_ground_truth_csv(truth, path)
    path.write_text(path.read_text().replace("w_minus_d", "w_minus"))
    with pytest.raises(MissingColumn, match="w_minus_d"):
        read_ground_truth_csv(path)


def test_ground_truth_r_sample_an_int64_cannot_hold(tmp_path):
    _, truth = generate(SynthConfig(n_rows=5, seed=1))
    path = tmp_path / "gt.csv"
    write_ground_truth_csv(truth, path)
    lines = path.read_text().splitlines(True)
    cells = lines[2].split(",")
    cells[GROUND_TRUTH_COLUMNS.index("r_sample")] = "1e19"
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(MalformedRow) as info:
        read_ground_truth_csv(path)
    assert str(info.value) == "row 3: r_sample not an int64: '1e19'"


def test_ground_truth_r_sample_is_an_int64_column():
    ones = np.ones(2)
    r = np.array([0, 1])
    assert np.shares_memory(GroundTruth(ones, r, ones, ones).r_sample, r)
    back = GroundTruth(ones, [1.0, 0.0], ones, ones).r_sample
    assert (back.dtype, back.tolist()) == (np.int64, [1, 0])
    with pytest.raises(ValueError, match=r"row 1: r_sample not an int64: 0\.5"):
        GroundTruth(ones, [1.0, 0.5], ones, ones)


def test_bimodal_groups_prefer_two_components():
    """Well-separated components: 2-Gaussian likelihood beats 1 Gaussian."""
    from watchlab.estimator import fit_group_gmm

    cfg = SynthConfig(n_rows=50_000, seed=6, duration_per_item=False,
                      noise_std_plus=2.0, noise_std_minus=1.0)
    ds, _ = generate(cfg)
    d = ds.durations
    w = ds.watch_times
    checked = 0
    for dur in np.unique(d):
        x = w[d == dur]
        if x.size < 400:
            continue
        wp, wm = true_curves(cfg, int(dur))
        if wp - wm < 3 * cfg.noise_std_plus:
            continue
        est = fit_group_gmm(x)
        single = -0.5 * x.size * (np.log(2 * np.pi * x.var()) + 1)
        assert est.loglik > single
        checked += 1
    assert checked >= 3
