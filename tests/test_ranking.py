"""The segmented rank kernel against per-group loops built on scipy's
rankdata, which the metrics and the D2Q label used before the kernel."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import watchlab
from watchlab.correction import label_d2q
from watchlab.errors import NoEvaluableUsers
from watchlab.evaluation import gauc, ndcg_at_k
from watchlab.ranking import descending_order, descending_ranks, group_codes, quantile_bins

from rows import rows_dataset


def _user_slices(user_ids):
    order = np.argsort(np.asarray(user_ids, dtype=object), kind="stable")
    sorted_users = np.asarray(user_ids, dtype=object)[order]
    boundaries = np.flatnonzero(sorted_users[1:] != sorted_users[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(order)]))
    return [order[s:e] for s, e in zip(starts, ends)]


def reference_gauc(scores, labels, user_ids):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    total = 0.0
    weight = 0
    n_eval = n_skip = 0
    for rows in _user_slices(user_ids):
        y = labels[rows]
        if y.min() == y.max():
            n_skip += 1
            continue
        pos = y == 1
        n_pos = int(pos.sum())
        ranks = rankdata(scores[rows], method="average")
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (y.size - n_pos))
        total += auc * rows.size
        weight += rows.size
        n_eval += 1
    if n_eval == 0:
        raise NoEvaluableUsers()
    return float(total / weight), n_eval, n_skip


def reference_ndcg(scores, labels, user_ids, k):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    total = 0.0
    n_eval = n_skip = 0
    for rows in _user_slices(user_ids):
        y = labels[rows]
        n_pos = int((y == 1).sum())
        if n_pos == 0:
            n_skip += 1
            continue
        top = y[np.argsort(-scores[rows], kind="stable")][:k]
        dcg = float((top * discounts[: top.size]).sum())
        total += dcg / float(discounts[: min(k, n_pos)].sum())
        n_eval += 1
    if n_eval == 0:
        raise NoEvaluableUsers()
    return total / n_eval, n_eval, n_skip


def reference_d2q(dataset, bin_of_row):
    w = dataset.watch_times
    labels = np.empty(len(dataset))
    for b in range(bin_of_row.max() + 1):
        mask = bin_of_row == b
        if not mask.any():
            continue
        size = mask.sum()
        labels[mask] = (size - rankdata(-w[mask], method="average")) / size
    return labels


def _same(metric, reference):
    """Both raise NoEvaluableUsers, or both return identical results."""
    try:
        expected = reference()
    except NoEvaluableUsers:
        with pytest.raises(NoEvaluableUsers):
            metric()
        return
    assert metric() == expected


# scores rounded to one decimal tie often (and include -0.0 next to 0.0)
tied_scores = st.floats(-2, 2).map(lambda x: round(x, 1))
user_pools = st.sampled_from([
    [f"u{i}" for i in range(12)],
    ["b", "a", "ab", "B", "é"],
    [3, -1, 10, 2, 0, 7],
    ["solo"],
])


@st.composite
def logs(draw):
    pool = draw(user_pools)
    n = draw(st.integers(1, 60))
    users = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    scores = draw(st.lists(st.one_of(tied_scores, st.floats(-1e3, 1e3)), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    as_array = draw(st.booleans())
    if as_array:
        users = np.array(users, dtype=object)
    return scores, labels, users


@settings(max_examples=300, deadline=None)
@given(logs())
def test_gauc_matches_reference(log):
    scores, labels, users = log
    _same(lambda: gauc(scores, labels, users, return_counts=True),
          lambda: reference_gauc(scores, labels, users))


@settings(max_examples=300, deadline=None)
@given(logs(), st.integers(1, 6))
def test_ndcg_matches_reference(log, k):
    scores, labels, users = log
    _same(lambda: ndcg_at_k(scores, labels, users, k, return_counts=True),
          lambda: reference_ndcg(scores, labels, users, k))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 30).map(lambda x: round(x, 0)), st.integers(1, 40)),
                min_size=1, max_size=80),
       st.integers(1, 8))
def test_d2q_matches_reference(rows, n_bins):
    ds = rows_dataset((f"u{i}", f"i{i}", w, d) for i, (w, d) in enumerate(rows))
    bin_of_row = quantile_bins(ds.durations, n_bins)[1]
    assert label_d2q(ds, bin_of_row).tolist() == reference_d2q(ds, bin_of_row).tolist()


def test_descending_ranks_hand_example():
    values = np.array([3.0, 1.0, 3.0, 2.0, 5.0, 5.0, 5.0])
    codes = np.array([0, 0, 0, 0, 1, 1, 1])
    order = descending_order(values, codes)
    assert order.tolist() == [0, 2, 3, 1, 4, 5, 6]  # ties keep row order
    v, c = values[order], codes[order]
    position, rank = descending_ranks(v, c)
    assert position.tolist() == [0, 1, 2, 3, 0, 1, 2]
    assert rank.tolist() == [1.5, 1.5, 3.0, 4.0, 2.0, 2.0, 2.0]
    # a subsequence of the order is still in it: rows 2 and 5 left out
    keep = np.array([True, False, True, True, True, False, True])
    position, rank = descending_ranks(v[keep], c[keep])
    assert position.tolist() == [0, 1, 2, 0, 1]
    assert rank.tolist() == [1.0, 2.0, 3.0, 1.5, 1.5]


def test_group_codes_follow_key_order():
    codes, n = group_codes(np.array(["b", "a", "c", "a"], dtype=object))
    assert (codes.tolist(), n, codes.dtype) == ([1, 0, 2, 0], 3, np.uint8)
    codes, n = group_codes(np.array([10, 9, 10], dtype=object))
    assert (codes.tolist(), n, codes.dtype) == ([1, 0, 1], 2, np.uint8)
    codes, n = group_codes(np.arange(256, -1, -1))
    assert (codes.tolist(), n, codes.dtype) == (list(range(256, -1, -1)), 257, np.uint16)


def test_cli_import_leaves_scipy_stats_out():
    env = dict(os.environ)
    src = str(Path(watchlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, watchlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_out():
    """Neither the CLI import nor the WTG labels, the one former scipy user,
    load any scipy module, and every module they add comes from numpy,
    watchlab or the standard library. Modules loaded before the import (a
    .pth file can load third-party ones) are left out, and so are the runtime
    modules that numpy.random's Cython extensions create in memory."""
    env = dict(os.environ)
    src = str(Path(watchlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import watchlab.cli\n"
            "from watchlab import SynthConfig, generate\n"
            "from watchlab.correction import CorrectionParams, apply_method\n"
            "ds, _ = generate(SynthConfig(n_rows=2000))\n"
            "for m in ('wtg', 'wtg_denoise'):\n"
            "    assert 0 < apply_method(ds, CorrectionParams(m)).labels.max() <= 1\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "tops -= {'numpy', 'watchlab', 'cython_runtime'} | sys.stdlib_module_names\n"
            "print(sorted(t for t in tops if not t.startswith('_cython_')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]
