"""Estimate the bias/noise curves from raw watch times alone.

Per duration group, an EM-fitted two-component Gaussian mixture separates
engaged watching from noisy watching; the per-duration component means are
then smoothed with a frequency-weighted moving average. The demo compares
the estimates against the generator's true curves, which the estimator never
sees.
"""

import numpy as np

import watchlab as wl

cfg = wl.SynthConfig(n_rows=50_000, seed=1)
dataset, truth = wl.generate(cfg)

raw = wl.fit_all_groups(dataset)
counts = wl.compute_stats(dataset).group_counts
curves = wl.smooth_curves(raw, window=2, group_counts=counts)

print(f"fitted {len(raw)} of {len(counts)} duration groups "
      f"(the rest were too thin and got interpolated)")

wp_true, wm_true = cfg.bias_curve(curves.durations), cfg.noise_curve(curves.durations)
err_p = np.abs(curves.w_plus - wp_true) / wp_true
err_m = np.abs(curves.w_minus - wm_true) / np.maximum(wm_true, 1e-9)
print(f"bias curve  relative error: median {np.median(err_p):.3f}, "
      f"max {err_p.max():.3f}")
print(f"noise curve relative error: median {np.median(err_m):.3f}, "
      f"max {err_m.max():.3f}")

print("\n   d   w+ est  w+ true   w- est  w- true   weight+  rows")
step = max(1, curves.durations.size // 12)
for i in range(0, curves.durations.size, step):
    print(f"{curves.durations[i]:4d}  {curves.w_plus[i]:7.2f}  {wp_true[i]:7.2f}"
          f"  {curves.w_minus[i]:7.2f}  {wm_true[i]:7.2f}"
          f"   {curves.weight_plus[i]:.3f}  {curves.counts[i]:5d}")

# Raw vs smoothed: the moving average trades a little bias for variance
# reduction, which pays off most on thin, jittery groups.
raw_err = np.abs(curves.w_plus_raw - wp_true) / wp_true
print(f"\nmean bias-curve error: raw {raw_err.mean():.3f}, "
      f"smoothed {err_p.mean():.3f} "
      f"(worst group: raw {raw_err.max():.3f}, smoothed {err_p.max():.3f})")
