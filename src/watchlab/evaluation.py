"""Ranking metrics against ground-truth interest: GAUC, nDCG@k,
duration-range breakdowns and the improve-percentage statistic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, long_view_labels
from .errors import (
    DegenerateDenominator,
    LengthMismatch,
    NoEvaluableUsers,
    NonBinaryLabels,
    NonFiniteScores,
)
from .ranking import descending_order, descending_ranks, group_codes, quantile_bins


def _scores_and_positives(scores, labels, n_ids):
    """Validated float scores and the positive-row mask."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(scores)
    if len(labels) != n or n_ids != n:
        raise LengthMismatch("scores, labels and user ids must be row-aligned")
    if not np.isfinite(scores).all():
        raise NonFiniteScores(f"{int((~np.isfinite(scores)).sum())} scores are NaN or infinite")
    pos = labels == 1
    if not (pos | (labels == 0)).all():
        raise NonBinaryLabels("labels must be 0 or 1")
    return scores, pos


def _ranked(scores, labels, user_ids):
    """Validated rows in ranking order: (pos, codes, position, rank, n_users)."""
    table, codes = group_codes(user_ids)
    scores, pos = _scores_and_positives(scores, labels, len(codes))
    order = descending_order(scores, codes)
    codes = codes[order]
    return pos[order], codes, *descending_ranks(scores[order], codes), table.size


def gauc(scores, labels, user_ids, return_counts: bool = False):
    """Per-user AUC averaged with each user weighted by their row count.

    Tied scores share their average rank, so a tied positive/negative pair
    counts 0.5. Users whose labels are all one class carry no ranking signal
    and are skipped. User ids may be strings or Dataset.user_codes.
    """
    out = _gauc(*_ranked(scores, labels, user_ids))
    return out if return_counts else out[0]


def _gauc(pos, codes, position, rank, n_users):
    """(GAUC, users evaluated, users skipped) of _ranked rows over integer
    user codes below n_users; codes with no rows count as skipped."""
    size = np.bincount(codes, minlength=n_users)
    n_pos = np.bincount(codes[pos], minlength=n_users)
    # a row's ascending rank is size + 1 - rank; the sums of half-integers are exact
    rank_sum = n_pos * (size + 1) - np.bincount(codes[pos], rank[pos], minlength=n_users)
    ok = (n_pos > 0) & (n_pos < size)
    n_eval = int(ok.sum())
    if n_eval == 0:
        raise NoEvaluableUsers("every user has single-class labels")
    size, n_pos, rank_sum = size[ok], n_pos[ok], rank_sum[ok]
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (size - n_pos))
    # cumsum adds user by user, in the order a running total would
    total = np.cumsum(auc * size)[-1]
    return float(total / int(size.sum())), n_eval, n_users - n_eval


def ndcg_at_k(scores, labels, user_ids, k: int, return_counts: bool = False):
    """Mean per-user nDCG@k with binary relevance, unweighted over users.

    Score ties break by original row order (stable); users with no positive
    rows are skipped.
    """
    values, n_eval, n_skip = _ndcg(*_ranked(scores, labels, user_ids), [k])
    return (values[k], n_eval, n_skip) if return_counts else values[k]


def _ndcg(pos, codes, position, rank, n_users, ks):
    """({k: nDCG@k} for every k in ks, users evaluated, users skipped) of
    _ranked rows over integer user codes."""
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    top = max(ks, default=0)
    discounts = 1.0 / np.log2(np.arange(2, top + 2))
    hit = pos & (position < top)
    user, place = codes[hit], position[hit]
    n_pos = np.bincount(codes[pos], minlength=n_users)
    ok = n_pos > 0
    n_eval = int(ok.sum())
    if n_eval == 0:
        raise NoEvaluableUsers("no user has a positive label")
    ideal = np.array([discounts[:m].sum() for m in range(top + 1)])
    dcg = np.zeros(n_users)
    at = {}
    for r in range(top):  # position by position, as a left-to-right sum would
        dcg[user[place == r]] += discounts[r]
        if r + 1 in ks:  # DCG@k is the running sum once position k is in
            idcg = ideal[np.minimum(r + 1, n_pos[ok])]
            at[r + 1] = float(np.cumsum(dcg[ok] / idcg)[-1] / n_eval)
    return {k: at[k] for k in ks}, n_eval, n_users - n_eval


def improve_percentage(v_method, v_watchtime, v_oracle) -> float:
    """Fraction of the watch-time-to-oracle gap the method recovers."""
    denom = v_oracle - v_watchtime
    if denom == 0:
        raise DegenerateDenominator("oracle equals the watch-time reference")
    return (v_method - v_watchtime) / denom


def oracle_labels(dataset: Dataset, truth=None) -> np.ndarray:
    """Binary interest ground truth: the sampled interest for synthetic rows,
    the long_view rule otherwise."""
    if truth is not None:
        if len(truth) != len(dataset):
            raise LengthMismatch("ground-truth records not aligned with rows")
        return truth.r_sample.astype(np.int64)
    if dataset.true_interest is not None:
        return dataset.true_interest.astype(np.int64)
    return long_view_labels(dataset.watch_times, dataset.durations)


@dataclass
class RangeMetrics:
    duration_lo: float
    duration_hi: float
    n_rows: int
    gauc: float | None
    ndcg: dict


@dataclass
class EvalReport:
    method: str
    gauc: float
    ndcg_at: dict
    n_users_evaluated: int
    n_users_skipped: int
    ranges: list = field(default_factory=list)


def evaluate(scores, labels, dataset: Dataset, method: str, ks, n_ranges: int) -> EvalReport:
    """Full report: global GAUC/nDCG plus the same metrics inside
    equal-frequency duration ranges.

    Ranges come from duration quantiles of the evaluated rows; each row falls
    in exactly one range. A range where no user is evaluable reports None.
    The rows sort into ranking order once, and each range is that order
    restricted by a mask, which is still in ranking order.
    """
    if n_ranges < 1:
        raise ValueError("n_ranges must be >= 1")
    scores, pos = _scores_and_positives(scores, labels, len(dataset))
    table, codes = group_codes(dataset.user_codes)
    order = descending_order(scores, codes)
    scores, pos, codes, d = scores[order], pos[order], codes[order], dataset.durations[order]
    ranked = pos, codes, *descending_ranks(scores, codes), table.size
    g, n_eval, n_skip = _gauc(*ranked)
    report = EvalReport(method, g, _ndcg(*ranked, ks)[0], n_eval, n_skip)
    edges, assign = quantile_bins(d, n_ranges)
    for b in range(max(1, edges.size - 1)):
        mask = assign == b
        ranked = pos[mask], codes[mask], *descending_ranks(scores[mask], codes[mask]), table.size
        try:
            g = _gauc(*ranked)[0]
        except NoEvaluableUsers:
            g = None
        try:
            ndcg = _ndcg(*ranked, ks)[0]
        except NoEvaluableUsers:
            ndcg = dict.fromkeys(ks)
        lo = float(edges[b]) if b > 0 else 0.0
        hi = float(edges[b + 1]) if edges.size > 1 else float(d.max())
        report.ranges.append(RangeMetrics(lo, hi, int(mask.sum()), g, ndcg))
    return report
