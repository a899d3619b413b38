"""Segmented rank kernel shared by the GAUC/nDCG metrics and the D2Q label:
group keys become integer codes, rows sort once by (code, value), and run
starts mark where each group and each tie begins. The equal-frequency bins
of the D2Q label and of the duration-range breakdown are cut here too."""

from __future__ import annotations

import numpy as np


def _hashed_codes(keys: list):
    """np.unique(np.asarray(keys, dtype=str), return_inverse=True) when every
    key is a str, else None. Only the distinct keys are sorted; each key then
    takes its code from a dict."""
    distinct = list(set(keys))
    if not set(map(type, distinct)) <= {str}:
        return None
    table, inverse = np.unique(np.array(distinct, dtype=str), return_inverse=True)
    code = dict(zip(distinct, inverse.tolist()))
    return table, np.fromiter(map(code.__getitem__, keys), dtype=np.int64, count=len(keys))


def string_codes(keys) -> tuple[np.ndarray, np.ndarray]:
    """(sorted table of the distinct keys, int64 code of each key into it),
    equal to np.unique(np.asarray(keys, dtype=str), return_inverse=True)."""
    dtype = None
    if isinstance(keys, np.ndarray):
        dtype = keys.dtype if keys.dtype.kind == "U" else None
        keys = keys.reshape(-1).tolist()
    coded = _hashed_codes(keys)
    if coded is None:
        table, codes = np.unique(np.asarray(keys, dtype=str), return_inverse=True)
        return table, codes.reshape(-1)
    table, codes = coded
    return np.asarray(table, dtype=dtype), codes  # a str array keeps its width


def group_codes(keys) -> tuple[np.ndarray, int]:
    """Code of each row's key in sorted key order, in the narrowest unsigned
    type (which numpy sorts fastest), and the number of distinct keys."""
    keys = np.asarray(keys)
    coded = None
    if keys.dtype.kind in "OU":
        items = keys.reshape(-1).tolist()
        coded = _hashed_codes(items)
        if coded is None:
            # mixed objects: tolist() lets numpy pick str or int, so keys keep
            # their natural order
            keys = np.array(items)
    uniq, codes = coded or np.unique(keys, return_inverse=True)
    return codes.reshape(-1).astype(np.min_scalar_type(uniq.size)), uniq.size


def quantile_bins(values, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(edges, bin of each value) of equal-frequency bins: the edges are the
    distinct n_bins-quantiles and the bins are right-closed, so equal values
    share a bin and a skewed histogram can give fewer bins than asked for."""
    edges = np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1)))
    return edges, np.searchsorted(edges[1:-1], values, side="left")


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
