"""Per-duration two-component Gaussian mixture fits plus the bi-directional
frequency-weighted moving average over the fitted mean sequences."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data_model import Dataset, raise_first_bad, read_float_columns, write_columns
from .errors import EmptyCurve, GroupTooSmall, LikelihoodDecrease, NoFittableGroups, WatchlabError


@dataclass(frozen=True)
class GmmOptions:
    min_group_size: int = 50
    tol: float = 1e-6
    max_iter: int = 200
    var_floor: float = 1e-4
    window: int = 2  # T: smooth_curves averages each fit with T neighbours per side

    def validate(self) -> None:
        if self.window < 0:
            raise ValueError("window must be >= 0")


@dataclass(frozen=True)
class GroupEstimate:
    w_plus_hat: float
    w_minus_hat: float
    var_plus: float
    var_minus: float
    weight_plus: float  # mixture weight of the engaged component
    count: int
    converged: bool
    loglik: float
    degenerate: bool = False


def _log_gauss(x, mu, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mu) ** 2 / var)


def fit_group_gmm(watch_times, options: GmmOptions | None = None, d: int = 0) -> GroupEstimate:
    """EM fit of a 1-D two-component Gaussian mixture to one duration group.

    Deterministic init: means at the 10th/90th percentiles taken as sample
    values (inverted CDF, so repeating every row leaves them in place), both
    variances at the sample variance, equal weights. The larger-mean
    component is reported as the engaged (bias) one.
    """
    options = options or GmmOptions()
    x = np.asarray(watch_times, dtype=np.float64)
    n = x.size
    if n < options.min_group_size:
        raise GroupTooSmall(n)
    if np.any(x < 0):
        raise ValueError("watch times must be non-negative")

    if np.all(x == x[0]):
        v = float(x[0])
        return GroupEstimate(
            w_plus_hat=v, w_minus_hat=v,
            var_plus=options.var_floor, var_minus=options.var_floor,
            weight_plus=0.5, count=n, converged=False, loglik=float("nan"),
            degenerate=True,
        )

    mu = np.percentile(x, [10, 90], method="inverted_cdf")
    var = np.full(2, max(float(np.var(x)), options.var_floor))
    pi = np.array([0.5, 0.5])

    prev_ll = -np.inf
    converged = False
    ll = prev_ll
    for _ in range(options.max_iter):
        # E-step
        log_comp = np.log(pi)[:, None] + _log_gauss(x[None, :], mu[:, None], var[:, None])
        m = log_comp.max(axis=0)
        log_norm = m + np.log(np.exp(log_comp - m).sum(axis=0))
        resp = np.exp(log_comp - log_norm)
        ll = float(log_norm.sum())
        # the likelihood must not fall between iterations (1e-8 relative slack)
        if not ll >= prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise LikelihoodDecrease(d, ll, prev_ll)
        if np.isfinite(prev_ll) and abs(ll - prev_ll) < options.tol * abs(prev_ll):
            converged = True
            break
        prev_ll = ll
        # M-step
        nk = resp.sum(axis=1)
        nk = np.maximum(nk, 1e-12)
        mu = (resp * x[None, :]).sum(axis=1) / nk
        var = (resp * (x[None, :] - mu[:, None]) ** 2).sum(axis=1) / nk
        var = np.maximum(var, options.var_floor)
        pi = nk / n

    hi, lo = (0, 1) if mu[0] >= mu[1] else (1, 0)
    return GroupEstimate(
        w_plus_hat=float(mu[hi]),
        w_minus_hat=float(mu[lo]),
        var_plus=float(var[hi]),
        var_minus=float(var[lo]),
        weight_plus=float(pi[hi]),
        count=n,
        converged=converged,
        loglik=ll,
    )


def fit_all_groups(dataset: Dataset, options: GmmOptions | None = None) -> dict:
    """Fit one mixture per duration value with enough rows.

    Returns {duration: GroupEstimate}. Thin groups are simply absent from the
    result (smooth_curves interpolates them).
    """
    options = options or GmmOptions()
    if len(dataset) == 0:
        raise NoFittableGroups("empty dataset")
    w = dataset.watch_times
    d = dataset.durations
    order = np.argsort(d, kind="stable")  # keeps row order inside each group
    uniq, first = np.unique(d[order], return_index=True)
    groups = [(int(dk), x) for dk, x in zip(uniq, np.split(w[order], first[1:]))
              if x.size >= options.min_group_size]
    if not groups:
        raise NoFittableGroups("no duration group reaches min_group_size")
    return {dk: fit_group_gmm(x, options, d=dk) for dk, x in groups}


@dataclass
class BiasNoiseCurves:
    """Raw and smoothed per-duration bias/noise means, sorted by duration."""

    durations: np.ndarray
    w_plus_raw: np.ndarray
    w_minus_raw: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    weight_plus: np.ndarray
    counts: np.ndarray
    fitted: np.ndarray  # False where interpolated

    def value_at(self, d):
        """Curve values for arbitrary durations: linear interpolation inside
        the key range, nearest-key extension outside."""
        d = np.asarray(d, dtype=np.float64)
        keys = self.durations.astype(np.float64)
        wp = np.interp(d, keys, self.w_plus)
        wm = np.interp(d, keys, self.w_minus)
        return wp, wm

    CSV_HEADER = ["d", "w_plus_raw", "w_minus_raw", "w_plus_smooth",
                  "w_minus_smooth", "weight_plus", "count", "fitted"]

    def to_csv(self, path) -> None:
        floats = (self.w_plus_raw, self.w_minus_raw, self.w_plus, self.w_minus, self.weight_plus)
        write_columns(path, self.CSV_HEADER, [
            np.asarray(self.durations, dtype=np.int64),
            *(np.asarray(c, dtype=np.float64) for c in floats),
            np.asarray(self.counts, dtype=np.int64),
            np.asarray(self.fitted, dtype=np.int64),
        ])

    @classmethod
    def from_csv(cls, path) -> "BiasNoiseCurves":
        """Curves from a to_csv file. WatchlabError names the file and the d
        of the first row with a negative count, a fitted flag other than 0 or
        1, or a d not above the previous row's."""
        d, wp_raw, wm_raw, wp, wm, wgt, counts, fitted = read_float_columns(
            path, cls.CSV_HEADER, whole=("d", "count", "fitted"))
        if d.size == 0:
            raise EmptyCurve(f"no curve rows in {path}")
        raise_first_bad([(counts < 0, lambda i: f"negative count: {int(counts[i])}"),
                         ((fitted != 0) & (fitted != 1),
                          lambda i: f"fitted not 0 or 1: {int(fitted[i])}"),
                         (np.r_[False, d[1:] <= d[:-1]],
                          lambda i: f"d not above the previous row's: {int(d[i - 1])}")],
                        lambda i, message: WatchlabError(f"{path}: d {int(d[i])}: {message}"))
        return cls(d, wp_raw, wm_raw, wp, wm, wgt, counts, fitted != 0)

    def smoothed(self, window: int) -> "BiasNoiseCurves":
        """These curves with w+/w- re-averaged from the raw columns.

        For key index i the smoothed value averages the raw values at indices
        i-T..i+T (T = `window`) weighted by group sizes; the window shrinks at
        the boundaries, and a zero size still weighs 1, so no window divides 0
        by 0. Any key where the smoothed noise mean reaches the bias mean is
        repaired to sit just below it. The other columns are shared, not copied.
        """
        if window < 0:
            raise ValueError("window must be >= 0")
        weights = np.maximum(self.counts, 1).astype(np.float64)
        K = weights.size
        wp, wm = np.empty(K), np.empty(K)
        for i in range(K):
            lo, hi = max(0, i - window), min(K, i + window + 1)
            wsum = weights[lo:hi].sum()
            wp[i] = float(np.dot(weights[lo:hi], self.w_plus_raw[lo:hi]) / wsum)
            wm[i] = float(np.dot(weights[lo:hi], self.w_minus_raw[lo:hi]) / wsum)
        repaired = wm >= wp
        wm[repaired] = wp[repaired] * (1.0 - 1e-3)
        return replace(self, w_plus=wp, w_minus=wm)


def smooth_curves(raw: dict, window: int, group_counts: dict | None = None) -> BiasNoiseCurves:
    """Curves from per-duration fits, smoothed by BiasNoiseCurves.smoothed.

    If group_counts lists durations with no fitted estimate, those keys are
    first filled by interpolation between fitted neighbors, then smoothed
    like the rest.
    """
    if not raw:
        raise EmptyCurve("no fitted groups to smooth")
    sizes = {**(group_counts or {}), **{k: e.count for k, e in raw.items()}}
    keys, counts = np.array(sorted(sizes.items()), dtype=np.int64).T
    fitted = np.isin(keys, list(raw))
    columns = np.array([(e.w_plus_hat, e.w_minus_hat, e.weight_plus)
                        for _, e in sorted(raw.items())], dtype=np.float64).T
    # np.interp returns a fitted key's own value exactly
    wp_raw, wm_raw, wgt = (np.interp(keys, keys[fitted], c) for c in columns)
    # the raw columns stand in for the smoothed ones until smoothed() replaces them
    return BiasNoiseCurves(keys, wp_raw, wm_raw, wp_raw, wm_raw, wgt, counts,
                           fitted).smoothed(window)
