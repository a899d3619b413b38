"""CSV round trip of arbitrary logs, and write_csv's bytes against the
row-by-row writer it replaced, which is kept here as the reference."""

import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from watchlab.data_model import BASE_COLUMNS, Dataset, FeatureSchema, ingest_csv, write_csv

# any text but NUL and lone surrogates, which a UTF-8 file cannot hold
text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=8)
ids = text.filter(bool)


def reference_write_csv(dataset, path, schema=None):
    """The earlier write_csv: one writerow per Interaction."""
    schema = schema or FeatureSchema()
    has_ts = all(r.timestamp is not None for r in dataset)
    has_interest = all(r.true_interest is not None for r in dataset)
    header = list(BASE_COLUMNS)
    if has_ts:
        header.append("timestamp")
    if has_interest:
        header.append("true_interest")
    header.extend(schema.feature_fields)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for r in dataset:
            feats = dict(r.features)
            row = [r.user_id, r.item_id, repr(r.duration_s), repr(r.watch_time_s)]
            if has_ts:
                row.append(repr(r.timestamp))
            if has_interest:
                row.append(repr(r.true_interest))
            row.extend(feats.get(fname, "") for fname in schema.feature_fields)
            writer.writerow(row)


@st.composite
def logs(draw, min_rows=0):
    n = draw(st.integers(min_rows, 12))
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
    return dataset, FeatureSchema(feature_fields=fields)


def columns(ds):
    ts, interest = ds.timestamps, ds.true_interest
    return (ds.user_ids.tolist(), ds.item_ids.tolist(),
            [repr(w) for w in ds.watch_times.tolist()], ds.durations.tolist(),
            None if ts is None else ts.tolist(),
            None if interest is None else interest.tolist(),
            {f: c.tolist() for f, c in ds.features.items()})


@settings(max_examples=300, deadline=None)
@given(logs())
def test_write_then_ingest_gives_back_the_columns(log):
    dataset, schema = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_csv(dataset, path, schema)
        assert columns(ingest_csv(path, schema)) == columns(dataset)


# An empty log is left to the test below: the row writer gave it timestamp
# and true_interest headers whether or not the dataset had those columns.
@settings(max_examples=300, deadline=None)
@given(logs(min_rows=1))
def test_write_csv_bytes_match_row_writer(log):
    dataset, schema = log
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(dataset, Path(tmp) / "new.csv", schema)
        reference_write_csv(dataset, Path(tmp) / "old.csv", schema)
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
