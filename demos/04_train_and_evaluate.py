"""Train one factorization machine per labeling method and rank them.

A single synthetic log is split chronologically; each method relabels the
training rows, an FM learns from those labels, and every model is judged on
the same held-out rows against the latent binary interest. The oracle model
trains directly on that latent interest and upper-bounds everything else.
"""

import numpy as np

import watchlab as wl
from watchlab.cli import train_and_score
from watchlab.correction import CorrectionParams, apply_method
from watchlab.data_model import chronological_split_indices
from watchlab.evaluation import evaluate, improve_percentage, oracle_labels

cfg = wl.SynthConfig(n_rows=30_000, seed=3)
dataset, truth = wl.generate(cfg)
oracle = oracle_labels(dataset, truth).astype(float)
splits = chronological_split_indices(dataset, (0.6, 0.2, 0.2))
test_set = dataset.subset(splits[2])
test_y = oracle[splits[2]].astype(int)

raw = wl.fit_all_groups(dataset)
counts = wl.compute_stats(dataset).group_counts
curves = wl.smooth_curves(raw, window=2, group_counts=counts)

labels = {
    "watch_time": dataset.watch_times / dataset.watch_times.max(),
    "pcr": apply_method(dataset, CorrectionParams("pcr")).labels,
    "wtg_denoise": apply_method(dataset, CorrectionParams("wtg_denoise")).labels,
    "d2co_a": apply_method(dataset, CorrectionParams("d2co_a", curves=curves)).labels,
    "d2co_s": apply_method(
        dataset, CorrectionParams("d2co_s", curves=curves, alpha=-0.01)).labels,
    "oracle": oracle,
}

config = {"trainer": {"epochs": 20, "patience": 3}}
reports = {}
for method, lab in labels.items():
    scores = train_and_score(dataset, lab, splits, oracle, config, seed=0)
    reports[method] = evaluate(scores, test_y, test_set, method, ks=(1, 3, 5), n_ranges=3)
    r = reports[method]
    print(f"{method:12s} GAUC {r.gauc:.4f}  "
          + "  ".join(f"nDCG@{k} {v:.4f}" for k, v in r.ndcg_at.items()))

wt, orc = reports["watch_time"].gauc, reports["oracle"].gauc
print("\nfraction of the watch-time-to-oracle gap recovered:")
for method in ("pcr", "wtg_denoise", "d2co_a", "d2co_s"):
    pct = improve_percentage(reports[method].gauc, wt, orc)
    print(f"  {method:12s} {pct:+.1%}")

print("\nper-duration-range GAUC (short / medium / long videos):")
for method in ("watch_time", "d2co_a", "oracle"):
    cells = ["     -" if r.gauc is None else f"{r.gauc:.4f}"
             for r in reports[method].ranges]
    print(f"  {method:12s} " + "  ".join(cells))
