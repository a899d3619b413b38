"""Acceptance gate: ten end-to-end properties, one printed verdict each.

Run with plain pytest; verdict lines bypass output capture so they always
appear in the log. Criterion 7 trains fifty factorization machines and
dominates the suite's runtime (a few minutes).
"""

import time

import numpy as np
import pytest
from scipy.stats import kendalltau

import watchlab as wl
from watchlab.cli import train_and_score
from watchlab.correction import (
    CorrectionParams,
    apply_method,
    label_d2co_affine,
    label_d2co_sensitivity,
)
from watchlab.data_model import chronological_split_indices
from watchlab.estimator import GroupEstimate, fit_group_gmm, smooth_curves
from watchlab.evaluation import gauc, ndcg_at_k, oracle_labels
from watchlab.trainer import (
    FMModel,
    bce_grad,
    bce_loss,
    build_vocab,
    encode,
)

from oracles import (
    expected_watch_dataset,
    fm_score_bruteforce,
    matched_interest_dataset,
    sensitivity_affine,
    sensitivity_scontrolled_numeric,
)


def verdict(capsys, n, passed, detail=""):
    with capsys.disabled():
        print(f"\n[criterion {n:2d}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {n} failed: {detail}"


def test_criterion_01_exact_recovery(capsys):
    """Affine correction with true curves and expectation-valued watch time
    recovers the interest probability exactly."""
    t0 = time.perf_counter()
    ds, truth = wl.generate(wl.SynthConfig(n_rows=10_000, seed=0))
    eds = expected_watch_dataset(ds, truth)
    wp = truth.w_plus_d
    wm = truth.w_minus_d
    p = truth.p_interest
    labels = label_d2co_affine(eds.watch_times, wp, wm)
    err = float(np.abs(labels - p).max())
    elapsed = time.perf_counter() - t0
    verdict(capsys, 1, err < 1e-9 and elapsed < 1.0,
            f"max abs error {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_gmm_recovery(capsys):
    """Twenty well-separated mixtures of 10k samples: means within 5%
    relative error, weights within 0.03."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_wgt = 0.0
    for g in range(20):
        rng = np.random.default_rng(100 + g)
        wm = 2.0 + 0.8 * g
        wp = wm + 12.0 + 1.5 * g  # separation >> 3 * max std (2.0)
        weight = 0.35 + 0.015 * g
        n = 10_000
        r = rng.uniform(size=n) < weight
        x = np.where(r, rng.normal(wp, 2.0, n), rng.normal(wm, 1.0, n))
        x = np.abs(x)
        est = fit_group_gmm(x)
        worst_rel = max(worst_rel,
                        abs(est.w_plus_hat - wp) / wp,
                        abs(est.w_minus_hat - wm) / wm)
        worst_wgt = max(worst_wgt, abs(est.weight_plus - weight))
    elapsed = time.perf_counter() - t0
    verdict(capsys, 2, worst_rel < 0.05 and worst_wgt < 0.03 and elapsed < 30.0,
            f"worst mean rel err {worst_rel:.3f}, worst weight err {worst_wgt:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_03_moving_average(capsys):
    """Frequency-weighted moving average hand example plus its two limits."""
    def raw_for(counts, values):
        return {
            d: GroupEstimate(w_plus_hat=v, w_minus_hat=v / 10, var_plus=1.0, var_minus=1.0,
                             weight_plus=0.5, count=c, converged=True, loglik=0.0)
            for d, c, v in zip((1, 2, 3), counts, values)
        }

    raw = raw_for([2, 3, 5], [10.0, 20.0, 30.0])
    mid = smooth_curves(raw, window=1).w_plus[1]
    identity = smooth_curves(raw, window=0).w_plus
    full = smooth_curves(raw, window=10).w_plus
    ok = (
        abs(mid - 23.0) < 1e-12
        and np.abs(identity - [10.0, 20.0, 30.0]).max() < 1e-12
        and np.abs(full - 23.0).max() < 1e-12
    )
    verdict(capsys, 3, ok, f"middle value {mid!r}")


def test_criterion_04_sensitivity_ordering(capsys):
    """Negative alpha strictly lowers the bias-side sensitivity and positive
    alpha the noise side, on a 20x20x20 interior grid."""
    t0 = time.perf_counter()
    wm_grid = np.linspace(0.0, 30.0, 20)
    gap_grid = np.linspace(0.5, 50.0, 20)
    frac_grid = np.linspace(0.05, 0.95, 20)
    delta = 0.1
    ok = True
    for wm in wm_grid:
        for gap in gap_grid:
            wp = wm + gap
            w = wm + frac_grid * gap
            s_plus, s_minus = sensitivity_affine(w, wp, wm, delta, delta)
            sp_neg, _ = sensitivity_scontrolled_numeric(w, wp, wm, -0.03, delta)
            _, sm_pos = sensitivity_scontrolled_numeric(w, wp, wm, +0.03, delta)
            if not (np.all(sp_neg < s_plus) and np.all(sm_pos < s_minus)):
                ok = False
    elapsed = time.perf_counter() - t0
    verdict(capsys, 4, ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_05_small_alpha_consistency(capsys):
    """At alpha = 1e-8 the exponential correction matches the affine one."""
    rng = np.random.default_rng(3)
    n = 10_000
    wm = rng.uniform(0.0, 30.0, n)
    wp = wm + rng.uniform(0.5, 60.0, n)
    w = wm + rng.uniform(0.0, 1.0, n) * (wp - wm)
    diff = np.abs(
        label_d2co_sensitivity(w, wp, wm, 1e-8) - label_d2co_affine(w, wp, wm)
    ).max()
    verdict(capsys, 5, diff < 1e-6, f"max diff {diff:.2e}")


def test_criterion_06_rank_equivalence(capsys):
    """Each baseline is rank-faithful in its assumption-satisfying regime;
    the affine correction dominates all baselines when the assumptions are
    violated."""
    def tau(labels, p):
        # round away <=1e-15 float noise so matched values tie exactly
        return kendalltau(np.round(labels, 9), np.round(p, 9)).statistic

    # linear-curves regime, expectation-valued w -> PCR is rank-faithful
    cfg = wl.SynthConfig(n_rows=3000, bias_curve=wl.Curve("linear", {"c": 0.8}),
                         noise_curve=wl.Curve("linear", {"c": 0.1}), seed=5)
    ds, truth = wl.generate(cfg)
    eds = expected_watch_dataset(ds, truth)
    p = truth.p_interest
    tau_a1 = tau(apply_method(eds, CorrectionParams("pcr")).labels, p)

    # matched-moments / shared-ranking regimes: every duration group carries
    # the same interest multiset
    rng = np.random.default_rng(7)
    pm = rng.uniform(0.05, 0.95, 200)
    durs = list(range(10, 60, 5))
    ds2, truth2 = matched_interest_dataset(
        pm, durs, wl.Curve("power_law", {"a": 0.8, "gamma": 0.9}),
        wl.Curve("saturating", {"c": 12.0, "tau": 60.0}))
    p2 = truth2.p_interest
    tau_a2 = tau(apply_method(ds2, CorrectionParams("wtg")).labels, p2)

    ds3, truth3 = matched_interest_dataset(
        pm, durs, wl.Curve("constant", {"c": 30.0}), wl.Curve("constant", {"c": 3.0}))
    p3 = truth3.p_interest
    tau_a3 = tau(apply_method(ds3, CorrectionParams("d2q", n_bins=len(durs))).labels, p3)

    # violation regime: default config (duration-coupled interest, nonlinear
    # curves, sampling noise) with estimated curves
    taus = {m: [] for m in ("d2co_a", "pcr", "wtg", "d2q")}
    for seed in range(5):
        dsv, truthv = wl.generate(wl.SynthConfig(n_rows=20_000, seed=seed))
        pv = truthv.p_interest
        raw = wl.fit_all_groups(dsv)
        counts = wl.compute_stats(dsv).group_counts
        curves = wl.smooth_curves(raw, 2, counts)
        for m in taus:
            labels = apply_method(dsv, CorrectionParams(m, curves=curves)).labels
            taus[m].append(kendalltau(labels, pv).statistic)
    means = {m: float(np.mean(v)) for m, v in taus.items()}
    margin = min(means["d2co_a"] - means[m] for m in ("pcr", "wtg", "d2q"))

    ok = tau_a1 == 1.0 and tau_a2 == 1.0 and tau_a3 == 1.0 and margin >= 0.02
    verdict(capsys, 6, ok,
            f"tau linear={tau_a1} matched={tau_a2} shared={tau_a3}, "
            f"violation margin {margin:.3f}")


def test_criterion_07_end_to_end_ordering(capsys):
    """Mean test GAUC over 5 seeds follows the expected method ordering."""
    t0 = time.perf_counter()
    names = ["watch_time", "pcr", "pcr_denoise", "wtg", "wtg_denoise",
             "d2q", "d2q_denoise", "d2co_a", "d2co_s", "oracle"]
    res = {m: [] for m in names}
    for seed in range(5):
        ds, truth = wl.generate(wl.SynthConfig(n_rows=50_000, seed=seed))
        oracle = oracle_labels(ds, truth).astype(float)
        splits = chronological_split_indices(ds, (0.6, 0.2, 0.2))
        test = ds.subset(splits[2])
        test_y = oracle[splits[2]].astype(int)
        raw = wl.fit_all_groups(ds)
        counts = wl.compute_stats(ds).group_counts
        curves = wl.smooth_curves(raw, 2, counts)
        config = {"trainer": {"epochs": 30, "patience": 4}}
        labels = {
            "watch_time": ds.watch_times / ds.watch_times.max(),
            "d2co_a": apply_method(ds, CorrectionParams("d2co_a", curves=curves)).labels,
            "d2co_s": apply_method(
                ds, CorrectionParams("d2co_s", curves=curves, alpha=-0.01)).labels,
            "oracle": oracle,
        }
        for m in ("pcr", "pcr_denoise", "wtg", "wtg_denoise", "d2q", "d2q_denoise"):
            labels[m] = apply_method(ds, CorrectionParams(m)).labels
        # one stacked fit of the ten label sets, each slice equal to its own fit
        scores = train_and_score(ds, np.column_stack([labels[m] for m in names]), splits,
                                 oracle, config, seed)
        for m, column in zip(names, scores.T):
            res[m].append(gauc(column, test_y, test.user_ids))
    means = {m: float(np.mean(v)) for m, v in res.items()}
    best = max(("pcr", "wtg", "d2q"), key=lambda b: means[b + "_denoise"])
    gaps_strict = (
        means["d2co_a"] - means[best + "_denoise"],
        means[best + "_denoise"] - means[best],
        means[best] - means["watch_time"],
    )
    ties = (
        means["oracle"] - means["d2co_s"],
        means["d2co_s"] - means["d2co_a"],
    )
    elapsed = time.perf_counter() - t0
    ok = (all(g >= 0.005 for g in gaps_strict)
          and all(t >= -0.003 for t in ties)
          and elapsed < 600.0)
    detail = (" ".join(f"{m}={means[m]:.4f}" for m in names)
              + f" | best denoised={best}, strict gaps="
              + ",".join(f"{g:.4f}" for g in gaps_strict)
              + f", tie gaps=" + ",".join(f"{t:.4f}" for t in ties)
              + f", {elapsed:.0f}s")
    verdict(capsys, 7, ok, detail)


def test_criterion_08_metric_hand_examples(capsys):
    """Metric hand examples to 1e-12; random GAUC near one half."""
    checks = [
        abs(gauc([0.1, 0.9], [0, 1], ["u", "u"]) - 1.0) < 1e-12,
        abs(gauc([0.5, 0.5], [0, 1], ["u", "u"]) - 0.5) < 1e-12,
        abs(gauc([0.1, 0.2, 0.8, 0.9, 0.9, 0.1], [0, 0, 1, 1, 0, 1],
                 ["a"] * 4 + ["b"] * 2) - 4.0 / 6.0) < 1e-12,
        abs(ndcg_at_k([0.9, 0.5], [0, 1], ["u", "u"], 2) - 1.0 / np.log2(3.0)) < 1e-12,
        abs(ndcg_at_k([0.2, 0.9, 0.5], [1, 1, 1], ["u"] * 3, 3) - 1.0) < 1e-12,
    ]
    rng = np.random.default_rng(11)
    n = 100_000
    labels = rng.permutation(np.tile([0, 1], n // 2))
    g = gauc(rng.uniform(0, 1, n), labels, (np.arange(n) % 200).astype(str))
    checks.append(abs(g - 0.5) <= 0.02)
    verdict(capsys, 8, all(checks), f"random GAUC {g:.4f}")


def test_criterion_09_gradient_and_identity(capsys):
    """BCE gradient vs central differences; FM identity vs brute force."""
    rng = np.random.default_rng(13)
    z = rng.normal(0.0, 2.0, 1000)
    y = rng.uniform(0.0, 1.0, 1000)
    g = bce_grad(z, y)

    def pointwise_loss(zz):
        return np.maximum(zz, 0.0) - y * zz + np.log1p(np.exp(-np.abs(zz)))

    h = 1e-5
    num = (pointwise_loss(z + h) - pointwise_loss(z - h)) / (2 * h)
    worst = float((np.abs(g - num) / np.maximum(np.abs(num), 1e-6)).max())

    ds, _ = wl.generate(wl.SynthConfig(n_rows=200, n_users=10, n_items=15, seed=1))
    vocab = build_vocab(ds)
    model = FMModel(vocab, k=6, seed=2)
    model.bias = 0.3
    model.linear = rng.normal(0, 1, len(vocab))
    model.embeddings = rng.normal(0, 1, (len(vocab), 6))
    idx = encode(vocab, ds)
    fm_err = float(np.abs(
        model.score(idx) - np.array([fm_score_bruteforce(model, r) for r in idx])
    ).max())
    verdict(capsys, 9, worst < 1e-5 and fm_err < 1e-9,
            f"grad rel err {worst:.2e}, fm identity err {fm_err:.2e}")


def test_criterion_10_determinism(capsys, tmp_path):
    """Identical config and seed give byte-identical report CSVs."""
    import hashlib
    import json

    from watchlab.cli import run_correct, run_generate, run_train_eval

    config = {
        "generate": {"n_rows": 4000, "n_users": 40, "n_items": 60,
                     "duration_range": [5, 60]},
        "estimator": {"min_group_size": 40, "window": 2},
        "correction": {"methods": ["pcr", "d2co_a", "d2co_s"], "alpha": -0.01},
        "split": {"fractions": [0.6, 0.2, 0.2]},
        "trainer": {"epochs": 2, "batch_size": 256},
        "seed": 0,
    }
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        run_generate(config, out=out)
        run_correct(config, out=out)
        run_train_eval(config, out=out)
        digests.append(tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("report.csv", "breakdown.csv")
        ))
    verdict(capsys, 10, digests[0] == digests[1],
            f"report sha {digests[0][0][:12]}... both runs")
