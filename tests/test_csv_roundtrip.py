"""CSV round trip of arbitrary logs; write_csv's bytes against the
row-by-row writer it replaced, which is kept here as the reference; the
np.loadtxt reader against csv.reader; the memory CSV I/O takes; and the
id coder against np.unique."""

import csv
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from watchlab import data_model
from watchlab.correction import CorrectedDataset, read_labels_csv
from watchlab.data_model import BASE_COLUMNS, Dataset, ingest_csv, read_float_columns, write_csv
from watchlab.errors import MalformedRow, MissingColumn
from watchlab.estimator import BiasNoiseCurves, fit_all_groups, smooth_curves
from watchlab.ranking import group_codes
from watchlab.synthgen import (
    GROUND_TRUTH_COLUMNS,
    SynthConfig,
    generate,
    read_ground_truth_csv,
    write_ground_truth_csv,
)

# any text but NUL and lone surrogates, which a UTF-8 file cannot hold
text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=8)
ids = text.filter(bool)


def reference_write_csv(dataset, path):
    """The earlier write_csv: one writerow per row, each cell formatted on
    its own."""
    fields = tuple(dataset.features)
    ts, interest = dataset.timestamps, dataset.true_interest
    header = list(BASE_COLUMNS)
    if ts is not None:
        header.append("timestamp")
    if interest is not None:
        header.append("true_interest")
    header.extend(fields)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i, (user_id, item_id) in enumerate(zip(dataset.user_ids, dataset.item_ids)):
            row = [user_id, item_id, repr(int(dataset.durations[i])),
                   repr(float(dataset.watch_times[i]))]
            if ts is not None:
                row.append(repr(int(ts[i])))
            if interest is not None:
                row.append(repr(int(interest[i])))
            row.extend(str(dataset.features[fname][i]) for fname in fields)
            writer.writerow(row)


@st.composite
def logs(draw):
    n = draw(st.integers(0, 12))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))  # noqa: E731
    fields = ("genre", "tab")[:draw(st.integers(0, 2))]
    dataset = Dataset(
        column(ids), column(ids),
        column(st.floats(0, 1e12, allow_nan=False, allow_infinity=False)),
        column(st.integers(1, 10**6)),
        timestamps=column(st.integers(-2**53, 2**53)) if draw(st.booleans()) else None,
        true_interest=column(st.integers(0, 1)) if draw(st.booleans()) else None,
        features={f: column(text) for f in fields},
    )
    return dataset


def columns(ds):
    ts, interest = ds.timestamps, ds.true_interest
    return (ds.user_ids.tolist(), ds.item_ids.tolist(),
            [repr(w) for w in ds.watch_times.tolist()], ds.durations.tolist(),
            None if ts is None else ts.tolist(),
            None if interest is None else interest.tolist(),
            {f: c.tolist() for f, c in ds.features.items()})


@settings(max_examples=300, deadline=None)
@given(logs())
def test_write_then_ingest_gives_back_the_columns(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_csv(dataset, path)
        assert columns(ingest_csv(path, tuple(dataset.features))) == columns(dataset)


@settings(max_examples=300, deadline=None)
@given(logs())
def test_write_csv_bytes_match_row_writer(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(dataset, Path(tmp) / "new.csv")
        reference_write_csv(dataset, Path(tmp) / "old.csv")
        assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "old.csv").read_bytes()


def test_large_floats_and_ids_survive():
    ds = Dataset(["u,1", 'u"2'], ["é", "i\n2"], [np.nextafter(1.0, 2.0), 5e-324], [1, 7])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_csv(ds, path)
        assert columns(ingest_csv(path)) == columns(ds)


def test_empty_log_header_lists_only_its_columns():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_csv(Dataset([], [], [], []), path)
        assert path.read_bytes() == b"user_id,item_id,duration_s,watch_time_s\r\n"
        write_csv(Dataset([], [], [], [], timestamps=[]), path)
        assert ingest_csv(path).timestamps.tolist() == []


LOG_AND_LABEL_COLUMNS = [*BASE_COLUMNS, "timestamp", "true_interest", "label", "genre"]
NUMBER_CELLS = ["0", "1", "2.5", " 1", "1 ", "1_0", "١", "nan", "1e400"]


@st.composite
def csv_texts(draw):
    """Raw CSV bytes: a header of log and label column names (one of them
    now and then repeated), then plain text half the time, else with quoted
    and unquoted commas, quotes, CRs and newlines in cells, CR-only line
    ends, blank lines and ragged rows; any number of data rows (none: header
    only) and an optional final line end. Half the files hold number-like
    cells only, so that many of them read without error."""
    plain = draw(st.booleans())
    chars = ["a", "1", " ", ".", "é", "日", "#", " 1", "1 ", "1_0", "١", "nan", "1e400",
             "a\x00b"] + ([] if plain else [",", '"', "\r", "\n", "\r\n"])
    cell = (st.sampled_from(NUMBER_CELLS) if draw(st.booleans())
            else st.lists(st.sampled_from(chars), max_size=4).map("".join))
    names = [c for c in draw(st.permutations(LOG_AND_LABEL_COLUMNS)) if draw(st.integers(0, 4))]
    names = names or ["label"]
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(names)))
    k = len(names)
    width = st.just(k) if plain else st.sampled_from([k, k, k, 0, 1, k + 1])
    rows = [names] + [draw(st.lists(cell, min_size=m, max_size=m))
                      for m in draw(st.lists(width, max_size=6))]
    ends = st.sampled_from(["\n", "\r\n"] + ([] if plain else ["\r", "\n\n", "\r\n\r\n"]))
    quote = st.just(False) if plain else st.booleans()
    text = ""
    for row in rows:
        text += ",".join('"' + c.replace('"', '""') + '"' if draw(quote) else c for c in row)
        text += draw(ends)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def outcome(read, path):
    """What a reader makes of a file: the values it returns, as lists, or
    the kind, line and message of the MalformedRow or MissingColumn it
    raises."""
    try:
        result = read(path)
    except (MalformedRow, MissingColumn) as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)
    return columns(result) if isinstance(result, Dataset) else [c.tolist() for c in result]


@settings(max_examples=500, deadline=None)
@given(csv_texts())
@example(b"")
@example(b"a,b")
@example(b"a,b\r\n1,2\r\n")
@example(b"a,b\n1,2\n\n")
@example(b"a,b\r1,2\r")
@example(b"label\n1_0\n2\n")
@example(b"user_id,item_id,duration_s,watch_time_s\r\na\x00b,#,10,1e400\r\n")
@example(b"user_id,item_id,duration_s,watch_time_s\n\xd9\xa1,x, 1,1 \n")
def test_loader_agrees_with_csv_reader(raw):
    fields = ("genre",) if b"genre" in raw else ()
    floats = [c for c in ("duration_s", "watch_time_s", "label") if c.encode() in raw] or ["label"]
    readers = [lambda path: ingest_csv(path, fields),
               lambda path: read_float_columns(path, floats, whole=("duration_s",))]
    if b"duration_s" in raw:  # a numeric column declared as a feature
        readers.append(lambda path: ingest_csv(path, (*fields, "duration_s")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "any.csv"
        path.write_bytes(raw)
        loaded = [outcome(read, path) for read in readers]
        with mock.patch.object(data_model, "_load_columns", lambda path, numeric: None):
            assert loaded == [outcome(read, path) for read in readers]


def test_written_files_take_the_loader(tmp_path, monkeypatch):
    dataset, truth = generate(SynthConfig(n_rows=2000, seed=3))
    curves = smooth_curves(fit_all_groups(dataset), window=2)
    labels = CorrectedDataset(dataset.watch_times / dataset.watch_times.max())
    write_csv(dataset, tmp_path / "data.csv")
    write_ground_truth_csv(truth, tmp_path / "truth.csv")
    curves.to_csv(tmp_path / "curves.csv")
    labels.to_csv(tmp_path / "labels.csv")

    def no_csv_reader(raw):
        raise AssertionError("plain file fell back to csv.reader")

    monkeypatch.setattr(data_model, "_csv_reader_columns", no_csv_reader)
    assert columns(ingest_csv(tmp_path / "data.csv")) == columns(dataset)
    back = read_ground_truth_csv(tmp_path / "truth.csv")
    assert all(np.array_equal(getattr(back, c), getattr(truth, c)) for c in GROUND_TRUTH_COLUMNS)
    assert np.array_equal(BiasNoiseCurves.from_csv(tmp_path / "curves.csv").w_plus, curves.w_plus)
    assert np.array_equal(read_labels_csv(tmp_path / "labels.csv", len(dataset)), labels.labels)


@pytest.mark.parametrize("fields", [("duration_s",), ("duration_s", "watch_time_s", "timestamp")])
def test_numeric_feature_takes_the_loader(tmp_path, monkeypatch, fields):
    dataset, _ = generate(SynthConfig(n_rows=2000, seed=3))
    write_csv(dataset, tmp_path / "data.csv")
    with mock.patch.object(data_model, "_load_columns", lambda path, numeric: None):
        via_csv_reader = columns(ingest_csv(tmp_path / "data.csv", fields))

    def no_csv_reader(raw):
        raise AssertionError("a numeric feature sent the log to csv.reader")

    monkeypatch.setattr(data_model, "_csv_reader_columns", no_csv_reader)
    loaded = ingest_csv(tmp_path / "data.csv", fields)
    assert columns(loaded) == via_csv_reader
    assert loaded.features["duration_s"].tolist() == list(map(str, dataset.durations.tolist()))
    assert np.array_equal(loaded.durations, dataset.durations)


def test_chunked_write_matches_row_writer(tmp_path, monkeypatch):
    dataset, truth = generate(SynthConfig(n_rows=50, seed=4))
    monkeypatch.setattr(data_model, "WRITE_CHUNK_ROWS", 7)  # 50 rows: 7 full chunks and 1 row
    write_csv(dataset, tmp_path / "new.csv")
    reference_write_csv(dataset, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    write_ground_truth_csv(truth, tmp_path / "truth.csv")
    with open(tmp_path / "truth_old.csv", "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([["p_interest", "r_sample", "w_plus_d", "w_minus_d"],
                                 *(list(r) for r in zip(*(c.tolist() for c in truth._columns())))])
    assert (tmp_path / "truth.csv").read_bytes() == (tmp_path / "truth_old.csv").read_bytes()


@pytest.mark.parametrize("step", ["ingest_csv", "read_ground_truth_csv", "write_csv",
                                  "write_ground_truth_csv"])
def test_csv_io_peaks_below_eight_times_the_log_size(tmp_path, step):
    dataset, truth = generate(SynthConfig(n_rows=20_000, seed=5))
    write_csv(dataset, tmp_path / "data.csv")
    write_ground_truth_csv(truth, tmp_path / "truth.csv")
    run = {"ingest_csv": lambda: ingest_csv(tmp_path / "data.csv"),
           "read_ground_truth_csv": lambda: read_ground_truth_csv(tmp_path / "truth.csv"),
           "write_csv": lambda: write_csv(dataset, tmp_path / "out.csv"),
           "write_ground_truth_csv": lambda: write_ground_truth_csv(truth, tmp_path / "out.csv")}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run[step]()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * (tmp_path / "data.csv").stat().st_size


# "ÿ" is U+00FF, the last character the packed route takes, and "Ā" U+0100
@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from(["a", "b", "é", "ÿ", "Ā", "日", "\x00"]), max_size=9),
                max_size=8))
@example([])
@example([""])
@example(["", "a", ""])
@example(["only"])
@example(["é", "e", "日本", "z", "e"])
@example(["a", "a\x00", "a\x00\x00", "\x00", ""])
@example(["ÿÿÿÿÿÿÿÿ", "abcdefgh", "abcdefg", "\x00abcdefg", "b", "abcdefgh"])  # width 8
@example(["abcdefghi", "abcdefgh", "ÿ", "abcdefghi"])  # width 9
@example(["ÿÿÿÿÿÿÿĀ", "ÿ", "Ā"])
def test_string_codes_equal_np_unique(keys):
    ref_table, ref_codes = np.unique(np.asarray(keys, dtype=str), return_inverse=True)
    swapped = np.asarray(keys, dtype=str)
    swapped = swapped.astype(swapped.dtype.newbyteorder())
    for given_keys in (keys, np.asarray(keys, dtype=str), np.asarray(keys, dtype=object),
                       swapped, np.repeat(np.asarray(keys, dtype=str), 2)[::2]):
        table, codes = group_codes(given_keys)
        assert table.tolist() == ref_table.tolist() and codes.tolist() == ref_codes.tolist()
        assert table.dtype.str[1:] == ref_table.dtype.str[1:]  # kind and width, any byte order
        assert codes.dtype == np.min_scalar_type(table.size) and codes.dtype.kind == "u"


@pytest.mark.parametrize("keys", [[3, 1, 2, 1], ["b", 1, "a"], ["b", "a", "b"],
                                  [f"u{i}" for i in range(300, 0, -1)],
                                  [*range(70_000, 0, -1), "a"], list(range(-5, 300))])
def test_group_codes_of_non_string_objects_keep_numpy_order(keys):
    objects = np.asarray(keys, dtype=object)
    uniq, codes = np.unique(np.array(keys), return_inverse=True)
    for given_keys in (objects, np.array(keys)):
        table, group = group_codes(given_keys)
        assert table.tolist() == uniq.tolist() and group.tolist() == codes.tolist()
        assert group.dtype == np.min_scalar_type(uniq.size) and group.dtype.kind == "u"
    # as Dataset ids, the same keys code in string order
    assert group_codes(np.asarray(objects, dtype=str))[1].tolist() == np.unique(
        np.asarray(keys, dtype=str), return_inverse=True)[1].tolist()
