"""Segmented rank kernel shared by the GAUC/nDCG metrics and the D2Q label:
group keys become integer codes, rows sort once by (code, value), and run
starts mark where each group and each tie begins."""

from __future__ import annotations

import numpy as np


def group_codes(keys) -> tuple[np.ndarray, int]:
    """Integer code of each row's key, numbered in sorted key order, and the
    number of distinct keys."""
    keys = np.asarray(keys)
    if keys.dtype == object:
        # a typed array sorts far faster than Python objects; tolist() lets
        # numpy pick str or int so keys keep their natural order
        keys = np.array(keys.tolist())
    uniq, codes = np.unique(keys, return_inverse=True)
    return codes.reshape(-1), uniq.size


def run_starts(a: np.ndarray) -> np.ndarray:
    """True where a sorted array starts a run of equal values."""
    starts = np.empty(a.size, dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def offsets_in_run(starts: np.ndarray) -> np.ndarray:
    """0-based position of each element inside the run it belongs to."""
    idx = np.arange(starts.size)
    return idx - np.maximum.accumulate(np.where(starts, idx, 0))


def average_ranks(values, codes) -> np.ndarray:
    """1-based ranks of `values` within each group of `codes`, in row order.

    Tied values share the mean of the positions they span (the "average" tie
    method), so every rank is an exact half-integer and needs no rounding.
    """
    values = np.asarray(values)
    order = np.lexsort((values, codes))
    v = values[order]
    group_start = run_starts(codes[order])
    tie_start = group_start | run_starts(v)
    first = np.flatnonzero(tie_start)
    run = np.cumsum(tie_start) - 1
    size = np.diff(np.append(first, v.size))
    pos = offsets_in_run(group_start)
    ranks = np.empty(v.size)
    ranks[order] = pos[first][run] + 1 + (size[run] - 1) * 0.5
    return ranks
