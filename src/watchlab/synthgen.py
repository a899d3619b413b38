"""Synthetic watch-time logs with known interest probability and known
bias/noise curves.

The generative story: each user and item carries a latent embedding; the
interest probability of a pair is sigmoid of their dot product plus an
optional duration-coupling term; the realized watch time is a draw from one
of two Gaussians, the engaged one centered on the duration-bias curve, the
disengaged one on the noisy-watching curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, not_int64, raise_first_bad, read_float_columns, write_columns
from .errors import CurveOrderViolation, OutOfRangeDuration


@dataclass(frozen=True)
class Curve:
    """Parametric mean-watch-time curve over duration.

    Families:
      power_law:  a * d**gamma
      saturating: c * (1 - exp(-d / tau))
      constant:   c
      linear:     c * d
      table:      piecewise-linear through (durations, values)
    """

    family: str
    params: dict = field(default_factory=dict)

    def __call__(self, d):
        d = np.asarray(d, dtype=np.float64)
        p = self.params
        if self.family == "power_law":
            return p["a"] * d ** p["gamma"]
        if self.family == "saturating":
            return p["c"] * (1.0 - np.exp(-d / p["tau"]))
        if self.family == "constant":
            return np.full_like(d, float(p["c"]))
        if self.family == "linear":
            return p["c"] * d
        if self.family == "table":
            return np.interp(d, np.asarray(p["durations"], dtype=np.float64),
                             np.asarray(p["values"], dtype=np.float64))
        raise ValueError(f"unknown curve family: {self.family}")


@dataclass(frozen=True)
class SynthConfig:
    n_rows: int = 50_000
    n_users: int = 200
    n_items: int = 300
    latent_dim: int = 8
    duration_range: tuple = (5, 240)
    bias_curve: Curve = Curve("power_law", {"a": 0.8, "gamma": 0.9})
    noise_curve: Curve = Curve("saturating", {"c": 12.0, "tau": 60.0})
    noise_std_plus: float = 2.0
    noise_std_minus: float = 1.0
    duration_interest_coupling: float = 1.0  # lambda; 0 removes the d -> p link
    interest_scale: float = 5.0  # gain on the embedding dot product
    duration_per_item: bool = True
    seed: int = 0

    def validate(self) -> None:
        if min(self.n_rows, self.n_users, self.n_items) < 1:
            raise ValueError("n_rows, n_users and n_items must be >= 1")
        if self.noise_std_plus <= 0 or self.noise_std_minus <= 0:
            raise ValueError("noise_std_plus and noise_std_minus must be positive")
        d_lo, d_hi = self.duration_range
        if not (1 <= d_lo <= d_hi):
            raise ValueError(f"bad duration_range {self.duration_range}")
        grid = np.arange(d_lo, d_hi + 1)
        wp, wm = self.bias_curve(grid), self.noise_curve(grid)
        if not np.all((0 <= wm) & (wm < wp) & np.isfinite(wp)):
            raise CurveOrderViolation(
                "need finite 0 <= noise_curve < bias_curve over the whole duration_range"
            )


class GroundTruth:
    """Row-aligned latent truth of a synthetic log, as numpy columns: the
    interest probability, the sampled interest and both curves at the row's
    duration."""

    def __init__(self, p_interest, r_sample, w_plus_d, w_minus_d):
        self.p_interest = np.asarray(p_interest, dtype=np.float64)
        r = np.asarray(r_sample)
        if r.dtype != np.int64:  # kept as given; any other is read as float64
            r = np.asarray(r, dtype=np.float64)
            raise_first_bad([(not_int64(r), lambda i: f"r_sample not an int64: {r[i]}")],
                            lambda i, message: ValueError(f"row {i}: {message}"))
        self.r_sample = r.astype(np.int64, copy=False)
        self.w_plus_d = np.asarray(w_plus_d, dtype=np.float64)
        self.w_minus_d = np.asarray(w_minus_d, dtype=np.float64)
        if {c.shape for c in self._columns()} != {(self.p_interest.size,)}:
            raise ValueError("ground-truth columns must be 1-D and equally long")

    def _columns(self):
        return self.p_interest, self.r_sample, self.w_plus_d, self.w_minus_d

    def __len__(self):
        return self.p_interest.size


def true_curves(config: SynthConfig, d) -> tuple:
    """Evaluate the configured bias/noise curves at duration d."""
    d_lo, d_hi = config.duration_range
    if np.any(np.asarray(d) < d_lo) or np.any(np.asarray(d) > d_hi):
        raise OutOfRangeDuration(f"duration {d} outside {config.duration_range}")
    return float(config.bias_curve(d)), float(config.noise_curve(d))


def _truncated_normal(rng, means, stds):
    """Normal draws resampled (not clamped) until non-negative."""
    out = rng.normal(means, stds)
    bad = out < 0
    while np.any(bad):
        out[bad] = rng.normal(means[bad], np.broadcast_to(stds, out.shape)[bad])
        bad = out < 0
    return out


def generate(config: SynthConfig) -> tuple:
    """Sample a synthetic Dataset plus its row-aligned GroundTruth."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n_rows
    d_lo, d_hi = config.duration_range

    emb_u = rng.normal(0.0, 1.0, (config.n_users, config.latent_dim)) / np.sqrt(config.latent_dim)
    emb_v = rng.normal(0.0, 1.0, (config.n_items, config.latent_dim)) / np.sqrt(config.latent_dim)

    log_lo, log_hi = np.log(d_lo), np.log(d_hi)
    item_durations = np.round(np.exp(rng.uniform(log_lo, log_hi, config.n_items))).astype(np.int64)
    item_durations = np.clip(item_durations, d_lo, d_hi)

    users = rng.integers(0, config.n_users, n)
    items = rng.integers(0, config.n_items, n)
    if config.duration_per_item:
        durations = item_durations[items]
    else:
        durations = np.round(np.exp(rng.uniform(log_lo, log_hi, n))).astype(np.int64)
        durations = np.clip(durations, d_lo, d_hi)

    # standardized log-duration couples interest to duration when lambda != 0
    if log_hi > log_lo:
        z = (np.log(durations) - (log_lo + log_hi) / 2.0) / ((log_hi - log_lo) / np.sqrt(12.0))
    else:
        z = np.zeros(n)
    logits = config.interest_scale * np.einsum(
        "ij,ij->i", emb_u[users], emb_v[items]
    ) + config.duration_interest_coupling * z
    p = 1.0 / (1.0 + np.exp(-logits))
    r = (rng.uniform(0.0, 1.0, n) < p).astype(np.int64)

    w_plus = np.asarray(config.bias_curve(durations), dtype=np.float64)
    w_minus = np.asarray(config.noise_curve(durations), dtype=np.float64)
    means = np.where(r == 1, w_plus, w_minus)
    stds = np.where(r == 1, config.noise_std_plus, config.noise_std_minus)
    w = _truncated_normal(rng, means, stds)

    # ids u0.. and i0.. as sorted string tables ("u10" < "u2") plus each number's code
    user_table, user_code = np.unique([f"u{k}" for k in range(config.n_users)],
                                      return_inverse=True)
    item_table, item_code = np.unique([f"i{k}" for k in range(config.n_items)],
                                      return_inverse=True)
    dataset = Dataset.from_codes(user_table, user_code[users], item_table, item_code[items],
                                 w, durations, timestamps=np.arange(n), true_interest=r)
    return dataset, GroundTruth(p, r, w_plus, w_minus)


GROUND_TRUTH_COLUMNS = ["p_interest", "r_sample", "w_plus_d", "w_minus_d"]


def write_ground_truth_csv(truth: GroundTruth, path) -> None:
    write_columns(path, GROUND_TRUTH_COLUMNS, truth._columns())


def read_ground_truth_csv(path) -> GroundTruth:
    return GroundTruth(*read_float_columns(path, GROUND_TRUTH_COLUMNS, whole=("r_sample",)))
