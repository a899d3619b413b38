"""Watch time -> interest label transforms: the affine and
sensitivity-controlled corrections, the PCR/WTG/D2Q baselines with optional
denoise post-processing, and the error diagnostics."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, read_float_columns, write_columns
from .errors import (
    CurveCollapse,
    DegenerateDenominator,
    EmptyDataset,
    LengthMismatch,
    MalformedRow,
    NumericOverflow,
)
from .estimator import BiasNoiseCurves
from .ranking import descending_order, descending_ranks, group_codes, quantile_bins

METHOD_IDS = (
    "watch_time",
    "pcr",
    "pcr_denoise",
    "wtg",
    "wtg_denoise",
    "d2q",
    "d2q_denoise",
    "d2co_a",
    "d2co_s",
)

_EXP_LIMIT = 700.0  # exp argument above which float64 overflows
_erfc = np.frompyfunc(math.erfc, 1, 1)


def group_watch_stats(dataset: Dataset) -> tuple:
    """(sorted distinct durations, each row's index into them, per-duration
    mean and population std of watch time).

    Sums run over deviations from each group's first watch time, so a group
    whose watch times are all equal gets exactly that mean and a zero std.
    """
    w = dataset.watch_times
    durations, group = group_codes(dataset.durations)
    counts = np.bincount(group)
    # each group's first row: a stable radix sort of the narrow codes keeps row order
    first = np.argsort(group, kind="stable")[np.cumsum(counts) - counts]
    ref = w[first]
    dev = w - ref[group]
    shift = np.bincount(group, dev) / counts
    sigma = np.sqrt(np.bincount(group, (dev - shift[group]) ** 2) / counts)
    return durations, group, ref + shift, sigma


def label_pcr(w, d):
    """Play-complete rate w/d (unclipped; replays can exceed 1)."""
    return np.asarray(w, dtype=np.float64) / np.asarray(d, dtype=np.float64)


def label_wtg(w, mu_w, sigma_w):
    """Duration-group z-score of watch time mapped to [0,1] through the
    standard normal CDF erfc(-z/sqrt 2)/2; a zero-variance group gives 0.5."""
    w, mu, sigma = (np.asarray(a, dtype=np.float64) for a in (w, mu_w, sigma_w))
    z = np.where(sigma > 0, (w - mu) / np.where(sigma > 0, sigma, 1.0), 0.0)
    return 0.5 * np.asarray(_erfc(-z / math.sqrt(2.0)), dtype=np.float64)


def label_d2q(dataset: Dataset, bin_of_row) -> np.ndarray:
    """Quantile label: (bin_size - rank)/bin_size with descending average
    ranks of watch time inside each row's duration bin."""
    order = descending_order(dataset.watch_times, bin_of_row)
    rank = np.empty(len(dataset))
    rank[order] = descending_ranks(dataset.watch_times[order], bin_of_row[order])[1]
    size = np.bincount(bin_of_row)[bin_of_row]
    return (size - rank) / size


def label_d2co_affine(w, w_plus, w_minus, clip: bool = True):
    """Affine correction (w - w-)/(w+ - w-)."""
    w, wp, wm = (np.asarray(a, dtype=np.float64) for a in (w, w_plus, w_minus))
    if np.any(wp <= wm):
        raise CurveCollapse("bias curve must stay above noise curve")
    r = (w - wm) / (wp - wm)
    return np.clip(r, 0.0, 1.0) if clip else r


def label_d2co_sensitivity(w, w_plus, w_minus, alpha: float, clip: bool = True):
    """Exponential correction (e^{aw} - e^{aw-})/(e^{aw+} - e^{aw-}).

    Computed anchored at w- for alpha<0 and at w+ for alpha>0 so every
    exponent stays non-positive for in-interval w; expm1 keeps the small-|a|
    limit consistent with the affine correction (for alpha>0 on the rows with
    e2 > -1, where exp(e1) - exp(e2) would cancel).
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero; use label_d2co_affine instead")
    w, wp, wm = (np.asarray(a, dtype=np.float64) for a in (w, w_plus, w_minus))
    if np.any(wp <= wm):
        raise CurveCollapse("bias curve must stay above noise curve")
    if alpha > 0:
        e1, e2 = alpha * (w - wp), alpha * (wm - wp)
    else:
        e1, e2 = alpha * (w - wm), alpha * (wp - wm)
    # e2 == 0 where |alpha| * (w+ - w-) underflows: the ratio would be 0/0
    if np.any(np.maximum(e1, e2) > _EXP_LIMIT) or np.any(e2 == 0):
        raise NumericOverflow("alpha * watch time out of stable range")
    if alpha > 0:
        w, wm, e1, e2 = np.broadcast_arrays(w, wm, e1, e2)
        small = e2 > -1
        num = np.empty(e2.shape)
        num[small] = np.exp(e2[small]) * np.expm1(alpha * (w[small] - wm[small]))
        num[~small] = np.exp(e1[~small]) - np.exp(e2[~small])
        r = num / (-np.expm1(e2))
    else:
        r = np.expm1(e1) / np.expm1(e2)
    return np.clip(r, 0.0, 1.0) if clip else r


def denoise_postprocess(labels, dataset: Dataset, threshold_s: float):
    """Zero the label wherever watch time is strictly below the threshold."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape[0] != len(dataset):
        raise LengthMismatch(f"{labels.shape[0]} labels for {len(dataset)} rows")
    return np.where(dataset.watch_times < threshold_s, 0.0, labels)


def error_decomposition(curves: BiasNoiseCurves, w_max: float):
    """Per-duration upper-bound error terms of raw scaled watch time:
    (w_max - w+)/w_max from duration bias and w-/w_max from noisy watching."""
    if w_max <= 0:
        raise DegenerateDenominator("w_max must be positive")
    bias_err = (w_max - curves.w_plus) / w_max
    noise_err = curves.w_minus / w_max
    return bias_err, noise_err


@dataclass(frozen=True)
class CorrectionParams:
    method: str
    curves: BiasNoiseCurves | None = None
    alpha: float | None = None
    n_bins: int = 60
    denoise_threshold_s: float = 5.0

    def validate(self) -> None:
        if self.method not in METHOD_IDS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHOD_IDS}")
        if self.method == "d2co_s" and not self.alpha:
            raise ValueError("d2co_s needs a nonzero alpha")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")


@dataclass
class CorrectedDataset:
    labels: np.ndarray

    def to_csv(self, path) -> None:
        """A `label` column, one exact repr float per row of the labeled log."""
        write_columns(path, ["label"], [np.asarray(self.labels, dtype=np.float64)])


def read_labels_csv(path, n_rows: int) -> np.ndarray:
    """The `label` column of a labeled_<method>.csv file of n_rows rows.
    The file must end with a line break, so that a cut inside its last line
    fails as a cut at a line boundary does."""
    (labels,) = read_float_columns(path, ["label"])
    with open(path, "rb") as f:
        f.seek(-1, os.SEEK_END)  # the reader accepts no empty file
        if f.read() != b"\n":
            f.seek(0)
            raise MalformedRow(len(f.read().splitlines()),
                               f"{path} does not end with a line break")
    if labels.size != n_rows:
        raise LengthMismatch(f"{labels.size} labels in {path} for {n_rows} data rows")
    return labels


def apply_method(dataset: Dataset, params: CorrectionParams) -> CorrectedDataset:
    """Label every row with the requested correction method."""
    params.validate()
    if len(dataset) == 0:
        raise EmptyDataset("cannot label an empty dataset")
    w = dataset.watch_times
    d = dataset.durations
    method = params.method
    base = method.replace("_denoise", "")

    if base == "watch_time":
        if not w.max() > 0:
            raise DegenerateDenominator("watch_time labels need a positive watch time")
        labels = w / w.max()
    elif base == "pcr":
        labels = np.clip(label_pcr(w, d), 0.0, 1.0)
    elif base == "wtg":
        _, group, mu, sigma = group_watch_stats(dataset)
        labels = label_wtg(w, mu[group], sigma[group])
    elif base == "d2q":
        labels = label_d2q(dataset, quantile_bins(d, params.n_bins)[1])
    else:  # d2co_a or d2co_s, the methods validate() leaves
        if params.curves is None:
            raise ValueError(f"{method} needs fitted bias/noise curves")
        wp, wm = params.curves.value_at(d)
        labels = (label_d2co_affine(w, wp, wm) if base == "d2co_a"
                  else label_d2co_sensitivity(w, wp, wm, params.alpha))

    if method.endswith("_denoise"):
        labels = denoise_postprocess(labels, dataset, params.denoise_threshold_s)
    return CorrectedDataset(labels=labels)
