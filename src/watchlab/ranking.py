"""Segmented rank kernel shared by GAUC, nDCG and the D2Q label, with one
convention: rows sort by group code, then by descending value, ties in row
order, and tied values share their average rank. That order is
np.lexsort((-values, codes)); descending_order makes it from numpy's fast
unstable sorts, an argsort of the values for dense value ranks and a sort of
one int64 key per row, (code, descending rank, row), that no two rows share.

`group_codes` is the one coder of keys: dataset ids, trainer feature columns
and the metrics' user groups all become a sorted table plus codes through it.
A str array whose strings are at most 8 characters, all below U+0100, such
as the synthetic ids u17 and i2048, sorts as packed uint64s; any other str
array sorts as strings. The equal-frequency bins of D2Q and of the duration
ranges are made here too."""

from __future__ import annotations

import numpy as np


def _packed(keys: np.ndarray):
    """A 1-D str array whose strings are at most 8 characters, all below
    U+0100, as uint64s in the strings' order: each string's code points,
    NUL-padded as numpy pads them, are the bytes of a big-endian number.
    None for any other array."""
    width = keys.dtype.itemsize // 4
    if keys.dtype.kind != "U" or width > 8:
        return None
    points = np.ascontiguousarray(keys).view(np.uint32).reshape(-1, width)
    # in a byte-swapped array every character but NUL reads as above U+00FF
    if points.size and points.max() > 0xFF:
        return None
    digits = np.zeros((points.shape[0], 8), dtype=np.uint8)
    digits[:, :width] = points
    return digits.view(">u8").reshape(-1).astype(np.uint64)


def group_codes(keys) -> tuple[np.ndarray, np.ndarray]:
    """(sorted table of the distinct keys, code of each key into it in the
    narrowest unsigned type, which numpy sorts fastest), the values of
    np.unique(keys, return_inverse=True). A list or an object array becomes
    the str or int array that numpy picks for its keys (an empty str array
    when there are none). A str array, such as a loaded id column, makes no
    Python str per row: where _packed turns it into uint64s, np.unique sorts
    those with numpy's fast integer sort, and else it sorts the strings."""
    keys = np.asarray(keys, dtype=object if isinstance(keys, list) else None)
    if keys.dtype.kind == "O":
        keys = np.array(keys.tolist(), dtype=None if keys.size else str)
    keys = keys.reshape(-1)
    packed = _packed(keys)
    if packed is None:
        table, codes = np.unique(keys, return_inverse=True)
    else:
        distinct, codes = np.unique(packed, return_inverse=True)
        table = np.empty(distinct.size, dtype=keys.dtype)
        table[codes] = keys  # the rows of one code hold one string
    return table, codes.astype(np.min_scalar_type(table.size), copy=False)


def quantile_bins(values, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(edges, bin of each value) of equal-frequency bins: the edges are the
    distinct n_bins-quantiles and the bins are right-closed, so equal values
    share a bin and a skewed histogram can give fewer bins than asked for.

    The quantiles are np.quantile's default linear ones, computed by its own
    steps: a copy partitioned at numpy's own kth, which orders 0.0 and -0.0
    as numpy does, and its values at the virtual index (n - 1) * q, where an
    index at or past the last value takes the last value twice with weight
    index + 1, then numpy's _lerp, which interpolates from the upper value
    when the weight t >= 0.5. So for NaN-free values the edges equal
    np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1))) bit for
    bit without np.quantile or a plain np.unique (both import numpy.ma).
    """
    v = np.array(values)
    index = (v.size - 1) * np.linspace(0, 1, n_bins + 1)
    lo = np.floor(index).astype(np.intp)
    hi = lo + 1
    last = index >= v.size - 1
    lo[last] = hi[last] = -1
    t = index - lo
    # numpy's kth, np.unique of 0, -1, lo and hi, which lo holds already
    v.partition(np.unique(np.r_[lo, hi], return_index=True)[0])
    a, b = v[lo], v[hi]
    diff = b - a
    q = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    q.sort()  # np.unique's own steps: sort, then keep the first of equal neighbours
    edges = q[np.r_[True, q[1:] != q[:-1]]]
    return edges, np.searchsorted(edges[1:-1], values, side="left")


def descending_order(values, codes) -> np.ndarray:
    """Row order by group code, then by descending value, ties in row order:
    np.lexsort((-values, codes)) for NaN-free float values and integer codes.

    One unstable argsort of the values, numpy's fastest sort, gives each row
    a dense rank in which tied values, 0.0 and -0.0 too, share one. Each row
    then gets one int64 key, (code, descending rank, row), which no two rows
    share, so that sorting the keys themselves gives the stable order, and
    each sorted key modulo the row count is its row. Where that key could
    overflow int64, lexsort itself sorts.
    """
    values, codes = np.asarray(values), np.asarray(codes)
    n = values.size
    by_value = np.argsort(values)
    if n == 0:
        return by_value
    v = values[by_value]
    new = v[1:] != v[:-1]  # a new value starts at each True, in value order
    del v
    n_ranks, lo = 1 + int(np.count_nonzero(new)), int(codes.min())
    if (int(codes.max()) - lo + 1) * n_ranks * n > 2 ** 63:
        return np.lexsort((-values, codes))
    # key = ((code - lo) * n_ranks - rank) * n + row, made in place and with the
    # rank in by_value's buffer, so that at most two int64 columns are held
    key = codes[by_value].astype(np.int64)
    key -= lo
    key *= n_ranks * n
    key += by_value
    rank = by_value
    rank[0] = 0
    rank[1:] = new
    np.cumsum(rank, out=rank)  # in place: a bool input would be cast into a buffer
    rank *= n
    key -= rank
    key.sort()
    key %= n
    return key


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
