#!/usr/bin/env bash
# The same pipeline as demos 01-04, driven entirely through the CLI.
# Each stage reads one JSON config, writes its artifacts plus a manifest
# (config hash + hashes of the files it wrote) into the run directory, and
# later stages pick up where earlier ones left off: the sweep in train-eval
# re-smooths the curves.csv that correct wrote, once per window. The FM
# takes duration_s as an item feature too, read through the same loader.
set -euo pipefail

run=$(mktemp -d)
cfg="$run/config.json"

cat > "$cfg" <<'JSON'
{
  "generate": {"n_rows": 10000, "n_users": 80, "n_items": 120,
               "duration_range": [5, 120]},
  "estimator": {"min_group_size": 40, "window": 2},
  "correction": {"methods": ["pcr", "wtg_denoise", "d2co_a", "d2co_s"],
                 "alpha": -0.01},
  "split": {"fractions": [0.6, 0.2, 0.2]},
  "trainer": {"epochs": 5, "batch_size": 256},
  "sweep": {"window": [1, 3], "alpha": [-0.01]},
  "feature_fields": ["duration_s"],
  "seed": 0
}
JSON

watchlab generate  --config "$cfg" --out "$run"
watchlab correct   --config "$cfg" --out "$run"
watchlab train-eval --config "$cfg" --out "$run"
watchlab report    --config "$cfg" --out "$run"

echo
echo "artifacts in $run:"
ls "$run"
echo
echo "=== report.csv ==="
cat "$run/report.csv"
echo
echo "=== sweep_gauc.csv ==="
cat "$run/sweep_gauc.csv"
echo
echo "=== error_curves.csv (head) ==="
head -8 "$run/error_curves.csv"
