"""Segmented rank kernel shared by GAUC, nDCG and the D2Q label, with one
convention: rows sort by group code, then by descending value, ties in row
order, and tied values share their average rank. `group_codes` is the one
coder of keys: dataset ids, trainer feature columns and the metrics' user
groups all become a sorted table plus codes through it. The equal-frequency
bins of D2Q and of the duration ranges are made here too."""

from __future__ import annotations

import numpy as np


def _hashed_codes(keys: list):
    """np.unique(np.asarray(keys, dtype=str), return_inverse=True) when every
    key is a str, else None; the codes come in the narrowest unsigned type.
    Only the distinct keys are sorted; each key then takes its code from a dict."""
    distinct = list(set(keys))
    if not set(map(type, distinct)) <= {str}:
        return None
    table, inverse = np.unique(np.array(distinct, dtype=str), return_inverse=True)
    code = dict(zip(distinct, inverse.tolist()))
    return table, np.fromiter(map(code.__getitem__, keys), dtype=np.min_scalar_type(table.size),
                              count=len(keys))


def group_codes(keys) -> tuple[np.ndarray, np.ndarray]:
    """(sorted table of the distinct keys, code of each key into it in the
    narrowest unsigned type, which numpy sorts fastest), the values of
    np.unique(keys, return_inverse=True). A list, or an object array, of str
    is hashed as it comes; a str array, such as a loaded id column, goes to
    np.unique itself, so that no Python str is made per row."""
    if not isinstance(keys, list):
        keys = np.asarray(keys)
        if keys.dtype.kind == "O":
            keys = keys.reshape(-1).tolist()
    coded = None
    if isinstance(keys, list):
        coded = _hashed_codes(keys)
        if coded is None:
            # not all str: from a list numpy picks str or int, so keys keep
            # their natural order
            keys = np.array(keys)
    table, codes = coded or np.unique(keys, return_inverse=True)
    return table, codes.reshape(-1).astype(np.min_scalar_type(table.size), copy=False)


def quantile_bins(values, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(edges, bin of each value) of equal-frequency bins: the edges are the
    distinct n_bins-quantiles and the bins are right-closed, so equal values
    share a bin and a skewed histogram can give fewer bins than asked for.

    The quantiles are np.quantile's default linear ones, computed by its own
    steps: the sorted values at numpy's virtual index (n - 1) * q, where an
    index at or past the last value takes the last value twice with weight
    index + 1, then numpy's _lerp, which interpolates from the upper value
    when the weight t >= 0.5. So for NaN-free values the edges equal
    np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1))) bit for
    bit, without np.quantile, which imports numpy.ma on numpy 2.
    """
    v = np.sort(values)
    index = (v.size - 1) * np.linspace(0, 1, n_bins + 1)
    lo = np.floor(index)
    hi = lo + 1
    last = index >= v.size - 1
    lo[last] = hi[last] = -1
    t = index - lo
    a, b = v[lo.astype(np.intp)], v[hi.astype(np.intp)]
    diff = b - a
    q = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    q.sort()  # np.unique's own steps: sort, then keep the first of equal neighbours
    edges = q[np.r_[True, q[1:] != q[:-1]]]
    return edges, np.searchsorted(edges[1:-1], values, side="left")


def descending_order(values, codes) -> np.ndarray:
    """Row order by group code, then by descending value, ties in row order."""
    return np.lexsort((-np.asarray(values), codes))


def descending_ranks(values, codes) -> tuple[np.ndarray, np.ndarray]:
    """(0-based position of each row in its group, descending average rank)
    of rows in descending_order or any subsequence of it; tied values share
    the mean of the 1-based places they span, an exact half-integer."""
    group_start = np.ones(codes.size, dtype=bool)
    group_start[1:] = codes[1:] != codes[:-1]
    tie_start = group_start.copy()
    tie_start[1:] |= values[1:] != values[:-1]
    position = np.arange(codes.size)
    position -= np.maximum.accumulate(np.where(group_start, position, 0))
    first = np.flatnonzero(tie_start)
    size = np.diff(np.append(first, values.size))
    rank = position[first] + 1 + (size - 1) * 0.5  # of each run of tied values
    return position, rank[np.cumsum(tie_start) - 1]
