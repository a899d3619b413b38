"""Compare every correction method's labels against the latent interest.

Rank agreement (Kendall tau) against the true interest probability is the
cleanest way to compare label transforms without involving a model: a label
is only as good as the ordering it induces. The affine and exponential
corrections use the estimated curves from the mixture fits; the baselines
need no curve estimates but inherit duration bias or noisy-watching noise.
"""

import numpy as np
from scipy.stats import kendalltau

import watchlab as wl
from watchlab.correction import METHOD_IDS, CorrectionParams, apply_method

cfg = wl.SynthConfig(n_rows=30_000, seed=2)
dataset, truth = wl.generate(cfg)
p = truth.p_interest

raw = wl.fit_all_groups(dataset)
counts = wl.compute_stats(dataset).group_counts
curves = wl.smooth_curves(raw, window=2, group_counts=counts)

print("method        Kendall tau vs p    label mean")
for method in METHOD_IDS:
    params = CorrectionParams(method, curves=curves, alpha=-0.01)
    labels = apply_method(dataset, params).labels
    tau = kendalltau(labels, p).statistic
    print(f"{method:13s}  {tau:+.4f}            {labels.mean():.3f}")

# The sensitivity-controlled variant: alpha trades robustness to bias-curve
# error against robustness to noise-curve error.
print("\nalpha sweep for the exponential correction:")
for alpha in (-0.05, -0.02, -0.01, 0.01, 0.02, 0.05):
    labels = apply_method(
        dataset, CorrectionParams("d2co_s", curves=curves, alpha=alpha)).labels
    tau = kendalltau(labels, p).statistic
    print(f"  alpha={alpha:+.2f}  tau {tau:+.4f}")
