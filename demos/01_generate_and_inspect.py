"""Generate a synthetic watch-time log and look at what's inside it.

The generator draws user/item embeddings, turns their dot product into an
interest probability, and samples watch time from one of two Gaussians: the
engaged component rides the duration-bias curve, the disengaged one the
noisy-watching curve. A row-aligned ground-truth sidecar records the latent
interest of every interaction, which is what makes the later demos honest:
we can always check a correction against the probabilities it is trying to
recover.
"""

import numpy as np

import watchlab as wl
from watchlab.data_model import long_view_labels

cfg = wl.SynthConfig(n_rows=20_000, seed=0)
dataset, truth = wl.generate(cfg)
stats = wl.compute_stats(dataset)

print(f"rows: {stats.n}, distinct durations: {len(stats.group_counts)}")
print(f"watch time: max {stats.w_max:.1f}s, mean {dataset.watch_times.mean():.1f}s")

# The two mixture components are visible in any reasonably large group.
d = dataset.durations
for dur in (30, 60, 120):
    nearest = min(stats.group_counts, key=lambda k: abs(k - dur))
    w = dataset.watch_times[d == nearest]
    wp, wm = wl.true_curves(cfg, nearest)
    print(f"\nduration {nearest}s ({w.size} rows): "
          f"true curves w+={wp:.1f}, w-={wm:.1f}")
    hist, edges = np.histogram(w, bins=12)
    for h, lo in zip(hist, edges):
        print(f"  {lo:6.1f}s | {'#' * (60 * h // max(hist.max(), 1))}")

# The heuristic long-view rule vs the sampled latent interest.
long_view = long_view_labels(dataset.watch_times, dataset.durations)
agree = float((long_view == truth.r_sample).mean())
print(f"\nlong-view label agrees with latent interest on {agree:.1%} of rows")
