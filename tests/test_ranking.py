"""The segmented rank kernel against per-group loops built on scipy's
rankdata, which the metrics and the D2Q label used before the kernel, and
its sorts against the numpy sorts they replaced."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import watchlab
from watchlab.correction import group_watch_stats, label_d2q
from watchlab.errors import NoEvaluableUsers
from watchlab.estimator import GmmOptions, fit_all_groups, fit_group_gmm
from watchlab.evaluation import gauc, ndcg_at_k
from watchlab.ranking import descending_order, descending_ranks, group_codes, quantile_bins
from watchlab.synthgen import SynthConfig, generate

from oracles import numpy_quantile_bins
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


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(1, 3000), min_size=1, max_size=200),
                 st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200)),
       st.integers(1, 12))
def test_quantile_bins_match_numpy_quantiles(values, n_bins):
    edges, bins = quantile_bins(np.array(values), n_bins)
    ref = np.unique(np.quantile(np.array(values), np.linspace(0, 1, n_bins + 1)))
    assert (edges.dtype, edges.tobytes()) == (ref.dtype, ref.tobytes())
    assert bins.tolist() == np.searchsorted(ref[1:-1], values, side="left").tolist()


def test_quantile_bins_equal_numpy_quantile_bins_bit_for_bit():
    rng = np.random.default_rng(0)
    # one value (each virtual index is at the last value), more bins than
    # values, all-equal values, -0.0 (whose sign shows which of numpy's two
    # interpolations ran), then random int64 columns
    cases = [(np.array([7]), 1), (np.array([7]), 4), (np.array([3, 1]), 9),
             (np.full(9, -4), 3), (np.arange(5), 4), (np.array([-0.0]), 1),
             (np.array([-0.0, -0.0, 2.5]), 3)]
    for _ in range(1000):
        n = int(rng.integers(1, 300))
        high = int(rng.choice([3, 60, 4000, 2 ** 40, 2 ** 62]))
        cases.append((rng.integers(-high, high, n), int(rng.integers(1, 2 * n + 3))))
    for values, n_bins in cases:
        edges, bins = quantile_bins(values, n_bins)
        ref_edges, ref_bins = numpy_quantile_bins(values, n_bins)
        assert (edges.dtype, edges.tobytes()) == (ref_edges.dtype, ref_edges.tobytes()), (
            values.tolist(), n_bins)
        assert bins.tolist() == ref_bins.tolist()


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


# values that tie often, signed zeros, subnormals and magnitudes up to 1e300
rank_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e300, -1e300]),
    st.floats(-2, 2).map(lambda x: round(x, 1)), st.floats(-1e300, 1e300))


@st.composite
def value_code_columns(draw):
    """(values, codes) of up to 300 rows, each drawn from a pool of a few
    distinct ones. int64 codes from its whole range overflow the int64 sort
    key as often as not; uint8, uint16 and small int64 codes do not."""
    n = draw(st.integers(0, 300))
    pool = draw(st.lists(rank_values, min_size=1, max_size=40))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    info = np.iinfo(draw(st.sampled_from([np.uint8, np.uint16, np.int64])))
    pool = draw(st.lists(st.integers(int(info.min), int(info.max)), min_size=1, max_size=6))
    codes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64), np.array(codes, dtype=info.dtype)


@settings(max_examples=200, deadline=None)
@given(value_code_columns())
@example((np.array([]), np.array([], dtype=np.int64)))
# the key's largest value is 2**63 - 1, then one code further it would be 2**63
@example((np.array([1.0, 1.0]), np.array([2 ** 62 - 1, 0])))
@example((np.array([1.0, 1.0]), np.array([2 ** 62, 0])))
# one group whose codes times rows, if not taken from the smallest code, would reach 2**63
@example((np.ones(3), np.full(3, (2 ** 63 - 2) // 3)))
@example((np.array([-0.0, 0.0, 5e-324, -0.0]), np.array([3, 3, 3, 3], dtype=np.uint8)))
def test_descending_order_equals_lexsort(columns):
    values, codes = columns
    order = descending_order(values, codes)
    expected = np.lexsort((-values, codes))
    assert (order.dtype, order.tolist()) == (expected.dtype, expected.tolist())


def test_duration_grouping_equals_the_int64_sorts():
    """fit_all_groups and group_watch_stats against the algorithms they
    replaced, a stable sort and np.unique of the int64 durations, on logs
    whose durations come unsorted and repeated."""
    for seed in range(3):
        ds, _ = generate(SynthConfig(n_rows=3000, n_users=30, n_items=40, seed=seed))
        assert np.any(np.diff(ds.durations) < 0) and np.unique(ds.durations).size < 300
        w, d = ds.watch_times, ds.durations
        order = np.argsort(d, kind="stable")
        uniq, first = np.unique(d[order], return_index=True)
        options = GmmOptions(min_group_size=10)
        expected = {int(dk): fit_group_gmm(x, options, d=int(dk))
                    for dk, x in zip(uniq, np.split(w[order], first[1:])) if x.size >= 10}
        assert fit_all_groups(ds, options) == expected
        durations, first, group = np.unique(d, return_index=True, return_inverse=True)
        counts = np.bincount(group)
        ref = w[first]
        dev = w - ref[group]
        shift = np.bincount(group, dev) / counts
        sigma = np.sqrt(np.bincount(group, (dev - shift[group]) ** 2) / counts)
        got = group_watch_stats(ds)
        for a, b in zip(got, (durations, group, ref + shift, sigma)):
            assert a.tolist() == b.tolist()


def test_group_codes_follow_key_order():
    table, codes = group_codes(np.array(["b", "a", "c", "a"], dtype=object))
    assert (table.tolist(), codes.tolist(), codes.dtype) == (["a", "b", "c"], [1, 0, 2, 0],
                                                             np.uint8)
    table, codes = group_codes(np.array([10, 9, 10], dtype=object))
    assert (table.tolist(), codes.tolist(), codes.dtype) == ([9, 10], [1, 0, 1], np.uint8)
    table, codes = group_codes(np.arange(256, -1, -1))
    assert (table.tolist(), codes.tolist(), codes.dtype) == (
        list(range(257)), list(range(256, -1, -1)), np.uint16)
    # a 2-D str array codes as its flattened rows, on the packed route and off it
    table, codes = group_codes(np.array([["b", "a"], ["c", "a"]]))
    assert (table.tolist(), codes.tolist()) == (["a", "b", "c"], [1, 0, 2, 0])
    table, codes = group_codes(np.array([["日", "a"], ["c", "a"]]))
    assert (table.tolist(), codes.tolist()) == (["a", "c", "日"], [2, 0, 1, 0])


def test_short_latin1_str_ids_sort_as_packed_integers(monkeypatch):
    """A str array of at most 8 characters, all below U+0100, reaches np.unique
    as big-endian uint64s of its code points; any other str array as strings."""
    seen = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda a, **kw: seen.append(a) or unique(a, **kw))
    for keys in (["ab", "b", "ÿ"], ["日"], ["abcdefghi"]):
        group_codes(np.array(keys))
    assert seen[0].tolist() == [0x6162 << 48, 0x62 << 56, 0xFF << 56]
    assert [a.dtype.kind for a in seen] == ["u", "U", "U"]


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


def test_correct_and_train_eval_leave_numpy_ma_out(tmp_path):
    """No stage imports numpy.ma (np.quantile does on numpy 2); where numpy's
    own import loads it, as numpy 1.24 does, there is nothing to check."""
    env = dict(os.environ)
    src = str(Path(watchlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def loads_numpy_ma(code):
        out = subprocess.run([sys.executable, "-c", code + "\nprint('numpy.ma' in sys.modules)"],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        return out.stdout.splitlines()[-1] == "True"

    if loads_numpy_ma("import sys, numpy"):
        pytest.skip("import numpy loads numpy.ma")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "generate": {"n_rows": 2000, "n_users": 30, "n_items": 40},
        "correction": {"methods": ["d2q", "d2co_a"], "alpha": -0.01},
        "split": {"fractions": [0.6, 0.2, 0.2]}, "trainer": {"epochs": 1}}))
    for command in ("generate", "correct", "train-eval"):
        args = [command, "--config", str(config), "--out", str(tmp_path / "run")]
        assert not loads_numpy_ma(f"import sys, watchlab.cli\nwatchlab.cli.main({args!r})"), (
            command)
