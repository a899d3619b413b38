import math
import re

import numpy as np
import pytest

import watchlab.data_model
from watchlab.data_model import (
    Dataset,
    chronological_split_indices,
    compute_stats,
    ingest_csv,
    long_view_labels,
    read_float_columns,
    split_chronological,
    write_csv,
)
from watchlab.errors import (
    EmptyDataset,
    MalformedRow,
    MissingColumn,
    MissingTimestamps,
)


def make_rows(watch_times, durations, timestamps=None):
    ids = range(len(watch_times))
    return Dataset([f"u{i}" for i in ids], [f"i{i}" for i in ids], watch_times, durations,
                   timestamps=timestamps)


class TestInteraction:
    """One interaction is a one-row Dataset; its numbers are checked on construction."""

    def test_negative_watch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(["u"], ["i"], [-1.0], [10])

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            Dataset(["u"], ["i"], [1.0], [0])

    @pytest.mark.parametrize("w, d", [
        (math.nan, 10), (math.inf, 10), (-math.inf, 10), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_non_finite_rejected(self, w, d):
        with pytest.raises(ValueError, match="finite"):
            Dataset(["u"], ["i"], [w], [d])

    def test_replay_above_duration_kept(self):
        assert Dataset(["u"], ["i"], [25.0], [10]).watch_times.tolist() == [25.0]


class TestComputeStats:
    def test_max_and_count(self):
        ds = make_rows([3, 7, 7], [10, 10, 20])
        st = compute_stats(ds)
        assert st.w_max == 7
        assert st.n == 3

    def test_group_counts(self):
        st = compute_stats(make_rows([1, 1, 1], [10, 10, 20]))
        assert st.group_counts == {10: 2, 20: 1}
        assert sum(st.group_counts.values()) == st.n

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            compute_stats(Dataset([], [], [], []))


class TestSplit:
    def test_sizes(self):
        ds = make_rows([1] * 10, [5] * 10, timestamps=list(range(10)))
        tr, va, te = split_chronological(ds, (0.6, 0.2, 0.2))
        assert (len(tr), len(va), len(te)) == (6, 2, 2)
        # the cuts round: 0.6 * 8 = 4.8 rows give 5, where truncating gives 4
        parts = chronological_split_indices(ds.subset(range(8)), (0.6, 0.2, 0.2))
        assert [p.size for p in parts] == [5, 1, 2]

    def test_equal_timestamps_stable(self):
        ds = make_rows([1] * 6, [5] * 6, timestamps=[7] * 6)
        tr, va, te = split_chronological(ds, (0.5, 0.25, 0.25))
        got = [u for part in (tr, va, te) for u in part.user_ids]
        assert got == [f"u{i}" for i in range(6)]

    def test_mixed_ties_split_in_timestamp_then_row_order(self):
        ds = make_rows([1] * 8, [5] * 8, timestamps=[3, 1, 2, 1, 3, 2, 1, 2])
        parts = chronological_split_indices(ds, (0.5, 0.25, 0.25))
        assert [p.tolist() for p in parts] == [[1, 3, 6, 2], [5, 7], [0, 4]]

    def test_shuffled_timestamps_split_in_time_order(self):
        ts = np.random.default_rng(0).permutation(20)
        parts = split_chronological(make_rows([1] * 20, [5] * 20, timestamps=ts), (0.6, 0.2, 0.2))
        assert np.concatenate([p.timestamps for p in parts]).tolist() == list(range(20))

    @pytest.mark.parametrize("fractions", [(0.001, 0.5, 0.499), (0.5, 0.001, 0.499),
                                           (0.5, 0.499, 0.001)])
    def test_empty_part_rejected(self, fractions):
        ds = make_rows([1] * 10, [5] * 10, timestamps=list(range(10)))
        with pytest.raises(ValueError, match="empty"):
            split_chronological(ds, fractions)

    def test_missing_timestamps(self):
        with pytest.raises(MissingTimestamps):
            split_chronological(make_rows([1], [5]), (0.4, 0.3, 0.3))


class TestInterestLabel:
    @pytest.mark.parametrize("w,d,expected", [
        (10.0, 10, 1),     # complete play of a short video
        (18.0, 30, 0),     # exactly 18s watched is not enough
        (18.5, 30, 1),
        (9.9, 10, 0),
        (19.0, 20, 1),
        (14.0, 15, 0),
    ])
    def test_rule(self, w, d, expected):
        assert long_view_labels([w], [d]).tolist() == [expected]

    def test_monotone_in_watch_time(self):
        for d in (5, 18, 19, 60):
            labels = long_view_labels(np.linspace(0, 2 * d, 100), np.full(100, d)).tolist()
            assert labels == sorted(labels)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = make_rows([3.5, 7.25, 7.0], [10, 10, 20], timestamps=[3, 1, 2])
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        back = ingest_csv(path)
        assert compute_stats(back) == compute_stats(ds)
        assert back.watch_times.tolist() == ds.watch_times.tolist()

    def test_three_valid_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "user_id,item_id,duration_s,watch_time_s\n"
            "a,x,10,3\na,y,20,7\nb,x,10,10\n"
        )
        assert len(ingest_csv(path)) == 3

    def test_negative_watch_time(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s\na,x,10,-1\n")
        with pytest.raises(MalformedRow):
            ingest_csv(path)

    def test_zero_duration(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s\na,x,0,1\n")
        with pytest.raises(MalformedRow):
            ingest_csv(path)

    @pytest.mark.parametrize("duration, watch", [
        ("10", "nan"), ("10", "inf"), ("10", "-inf"), ("inf", "3"), ("nan", "3"),
    ])
    def test_non_finite_number(self, tmp_path, duration, watch):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s\n"
                        f"a,x,10,3\na,y,{duration},{watch}\n")
        with pytest.raises(MalformedRow, match="not finite") as info:
            ingest_csv(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loader", "csv_reader"])
    def test_repeated_column_rejected(self, tmp_path, quote):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s,watch_time_s\n"
                        f"{quote}a{quote},x,10,3,7\nb,y,10,9,1\n")
        for read in (ingest_csv, lambda p: read_float_columns(p, ["watch_time_s"])):
            with pytest.raises(MalformedRow) as info:
                read(path)
            assert str(info.value) == "row 1: repeated column: watch_time_s"

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loader", "csv_reader"])
    @pytest.mark.parametrize("body, line, message", [
        ("a\0,x,10,3,t\na,y,10,3,t\n\0,z,10,3,t\n", 2,
         "user_id ends in a NUL character: 'a\\x00'"),
        ("a,x,10,3,t\na,y,10,3,t\0\n", 3, "tab ends in a NUL character: 't\\x00'"),
    ], ids=["user_id", "feature"])
    def test_trailing_nul_rejected(self, tmp_path, quote, body, line, message):
        """numpy's str arrays drop trailing NULs, which would merge `a\\x00` and `a`."""
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s,tab\n"
                        + body.replace("x", f"{quote}x{quote}"))
        with pytest.raises(MalformedRow) as info:
            ingest_csv(path, feature_fields=("tab",))
        assert str(info.value) == f"row {line}: {message}"

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loader", "csv_reader"])
    def test_non_ascii_ids_keep_their_width(self, tmp_path, quote):
        # the feature column is the reader's own str column, which no coder resizes
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s,tag\n"
                        f"{quote}é日{quote},x,10,3,{quote}é日{quote}\nu,y,10,3,u\n",
                        encoding="utf-8")
        ds = ingest_csv(path, feature_fields=("tag",))
        assert (ds.user_table.dtype, ds.user_table.tolist()) == (np.dtype("<U2"), ["u", "é日"])
        assert (ds.features["tag"].dtype, ds.features["tag"].tolist()) == (np.dtype("<U2"),
                                                                          ["é日", "u"])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s\na,x,10\n")
        with pytest.raises(MissingColumn):
            ingest_csv(path)

    @pytest.mark.parametrize("timestamp, interest, message", [
        ("2", "1.0", "true_interest not 0 or 1: '1.0'"),
        ("2", "yes", "true_interest not 0 or 1: 'yes'"),
        ("2", "2", "true_interest not 0 or 1: '2'"),
        ("soon", "1", "timestamp not numeric: 'soon'"),
        ("inf", "1", "timestamp out of range: 'inf'"),
        ("-1e19", "1", "timestamp out of range: '-1e19'"),
    ])
    def test_bad_optional_value(self, tmp_path, timestamp, interest, message):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s,timestamp,true_interest\n"
                        f"a,x,10,3,1,0\n\nb,y,10,3,{timestamp},{interest}\n")
        with pytest.raises(MalformedRow, match=message) as info:
            ingest_csv(path)
        assert info.value.line == 4  # the blank line still counts

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loader", "csv_reader"])
    @pytest.mark.parametrize("column, body, line, message", [
        ("true_interest", "a,x,10,3,1\0\nb,y,10,4,0\n", 2,
         "true_interest ends in a NUL character: '1\\x00'"),
        ("timestamp", "a,x,10,3,5\0\nb,y,10,4,6\n", 2,
         "timestamp ends in a NUL character: '5\\x00'"),
        ("true_interest", "a,x,10,3,1\nb,y,10,10,0\nc,z,10,10,\n", 4, "missing required value"),
        ("timestamp", "a,x,10,3,1\nb,y,10,10,\nc,z,10,10,3\n", 3, "missing required value"),
    ], ids=["interest_nul", "timestamp_nul", "interest_blank", "timestamp_blank"])
    def test_optional_columns_follow_required_rules(self, tmp_path, quote, column, body, line,
                                                    message):
        """A blank optional cell fails its row instead of dropping the whole
        column, and a trailing NUL fails as it does in an id column."""
        path = tmp_path / "d.csv"
        path.write_text(f"user_id,item_id,duration_s,watch_time_s,{column}\n"
                        + body.replace("x", f"{quote}x{quote}"))
        with pytest.raises(MalformedRow) as info:
            ingest_csv(path)
        assert str(info.value) == f"row {line}: {message}"

    def test_whole_columns_come_back_as_int64(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("d,w,count\n1,2.5,3\n-4,1e1,5e0\n")
        d, w, count = read_float_columns(path, ["d", "w", "count"], whole=("d", "count"))
        assert [c.dtype for c in (d, w, count)] == [np.int64, np.float64, np.int64]
        assert (d.tolist(), w.tolist(), count.tolist()) == ([1, -4], [2.5, 10.0], [3, 5])

    @pytest.mark.parametrize("cell", ["1.5", "1e19", "9223372036854775808", "-inf", "nan"])
    def test_whole_cell_an_int64_cannot_hold_names_the_line(self, tmp_path, cell):
        path = tmp_path / "c.csv"
        path.write_text(f"w,count\n1,2\n1,{cell}\n")
        with pytest.raises(MalformedRow) as info:
            read_float_columns(path, ["w", "count"], whole=("count",))
        assert str(info.value) == f"row 3: count not an int64: '{cell}'"

    def test_leftmost_bad_float_cell_wins(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("w_plus_d,w_minus_d\n1,2\nx,y\n")
        with pytest.raises(MalformedRow) as info:
            read_float_columns(path, ["w_plus_d", "w_minus_d"])
        assert str(info.value) == "row 3: w_plus_d not a finite number: 'x'"

    @pytest.mark.parametrize("body, line, message", [
        ("a,x,10,3\nb,y,10\n", 3, "expected 4 fields, got 3"),
        ("a,x,10,oops\nb,y,10\n", 2, "watch_time_s not numeric: 'oops'"),
        ("a,x,10,3\nb,,10,3\nc,z,0,3\n", 3, "missing required value"),
        ("a,x,10,-1\nb,y,ten,3\n", 2, "watch_time_s negative: -1.0"),
        ("a,x,0,3\nb,y,ten,3\n", 2, "duration_s below 1: 0.0"),
        ("a,x,ten,nan\n", 2, "duration_s not numeric: 'ten'"),
        ("a,x,,nan\n", 2, "missing required value"),
        ("a,x,1e19,3\n", 2, "duration_s too large: 1e\\+19"),
    ])
    def test_first_bad_row_and_check_win(self, tmp_path, body, line, message):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s\n" + body)
        with pytest.raises(MalformedRow, match=message) as info:
            ingest_csv(path)
        assert info.value.line == line

    @pytest.mark.parametrize("body, line, message", [
        ('"a\nb",x,10,3\nc,y,ten,3\n', 4, "duration_s not numeric: 'ten'"),
        ('"a\nb",x,10,3\nc,y,"te\nn",3\nd,z,ten,3\n', 4, "duration_s not numeric: 'te\\nn'"),
        ('"a\nb",x,10,3\n\n"c\r\nd",y,10\n', 5, "expected 4 fields, got 3"),
    ], ids=["after_multiline", "inside_multiline", "field_count"])
    def test_quoted_line_breaks_count_as_lines(self, tmp_path, body, line, message):
        path = tmp_path / "d.csv"
        path.write_bytes(b"user_id,item_id,duration_s,watch_time_s\n" + body.encode())
        with pytest.raises(MalformedRow) as info:
            ingest_csv(path)
        assert str(info.value) == f"row {line}: {message}"

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("quote", [b"", b'"'], ids=["one_split", "csv_reader"])
    def test_invalid_utf8_names_its_line(self, tmp_path, end, quote):
        path = tmp_path / "d.csv"
        lines = [b"user_id,item_id,duration_s,watch_time_s", b"a,x,10,3",
                 quote + b"b" + quote + b",y,10,3", b"u\xff1,z,10,3", b"c,x,10,3"]
        path.write_bytes(end.join(lines) + end)
        with pytest.raises(MalformedRow, match="not valid UTF-8") as info:
            ingest_csv(path)
        assert info.value.line == 4

    def test_csv_reader_error_names_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s\na,x,10,3\n"
                        f'"{"u" * 200_000}",y,10,3\nc,x,10,3\n')
        with pytest.raises(MalformedRow, match="field larger than field limit") as info:
            ingest_csv(path)
        assert info.value.line == 3

    def test_plain_file_with_a_very_long_cell_takes_csv_reader(self, tmp_path):
        # as str arrays its three ids would take 3 x 200000 x 4 bytes
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s\na,x,10,3\n"
                        f"{'u' * 200_000},y,10,3\nc,x,10,3\n")
        with pytest.raises(MalformedRow, match="field larger than field limit") as info:
            ingest_csv(path)
        assert info.value.line == 3

    def test_optional_columns_parsed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s,timestamp,true_interest\n"
                        "a,x,10.4,3,7.9,1\nb,y,10.6,3,8,0\n")
        ds = ingest_csv(path)
        assert ds.durations.tolist() == [10, 11]
        assert ds.timestamps.tolist() == [7, 8]
        assert ds.true_interest.tolist() == [1, 0]

    def test_declared_features(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "user_id,item_id,duration_s,watch_time_s,tab\na,x,10,3,2\n"
        )
        ds = ingest_csv(path, feature_fields=("tab",))
        assert {f: c.tolist() for f, c in ds.features.items()} == {"tab": ["2"]}

    def test_numeric_column_as_feature_keeps_its_text(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,duration_s,watch_time_s\na,x,10,3\nb,y,1e1,2.50\n")
        ds = ingest_csv(path, feature_fields=("duration_s", "watch_time_s"))
        assert ds.features["duration_s"].tolist() == ["10", "1e1"]
        assert ds.features["watch_time_s"].tolist() == ["3", "2.50"]
        assert ds.durations.tolist() == [10, 10] and ds.watch_times.tolist() == [3.0, 2.5]


class TestColumns:
    @pytest.mark.parametrize("w, d, message", [
        ([1.0, math.nan], [10, 10], "row 1: watch_time_s not finite: nan"),
        ([1.0, math.inf], [10, 10], "row 1: watch_time_s not finite: inf"),
        ([1.0, 2.0], [10, -math.inf], "row 1: duration_s not finite: -inf"),
        ([1.0, 2.0], [math.nan, 10], "row 0: duration_s not finite: nan"),
        ([1.0, -2.0], [10, 10], "row 1: watch_time_s negative: -2.0"),
        ([1.0, 2.0], [10, 0], "row 1: duration_s not an int64 >= 1: 0.0"),
        ([1.0, 2.0], [10, 10.5], "row 1: duration_s not an int64 >= 1: 10.5"),
        ([1.0, 2.0], [10, 1e19], "row 1: duration_s not an int64 >= 1: 1e\\+19"),
        # the earliest bad row wins, though watch times are checked first
        ([1.0, math.nan], [math.nan, 10], "row 0: duration_s not finite: nan"),
        # within a row: not finite, negative, duration not finite, not an int64 >= 1
        ([math.nan, 1.0], [math.nan, 10], "row 0: watch_time_s not finite: nan"),
        ([-math.inf, 1.0], [10, 10], "row 0: watch_time_s not finite: -inf"),
        ([-1.0, 1.0], [math.inf, 10], "row 0: watch_time_s negative: -1.0"),
    ])
    def test_bad_numbers_name_the_row(self, w, d, message):
        with pytest.raises(ValueError, match=message):
            Dataset(["a", "b"], ["x", "y"], w, d)

    @pytest.mark.parametrize("column, values, message", [
        ("timestamps", [1.5, 2.0], "row 0: timestamp not an int64: 1.5"),
        ("timestamps", [1e19, 0.0], "row 0: timestamp not an int64: 1e+19"),
        ("timestamps", [2.0 ** 63, 0.0], "row 0: timestamp not an int64: 9.223372036854776e+18"),
        ("timestamps", [math.nan, 0.0], "row 0: timestamp not an int64: nan"),
        ("timestamps", [0.0, -math.inf], "row 1: timestamp not an int64: -inf"),
        ("true_interest", [0.5, 1], "row 0: true_interest not 0 or 1: 0.5"),
        ("true_interest", [2, 0], "row 0: true_interest not 0 or 1: 2"),
        ("true_interest", [1, math.nan], "row 1: true_interest not 0 or 1: nan"),
    ])
    def test_bad_timestamp_or_interest_names_the_row(self, column, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(["a", "b"], ["x", "y"], [1.0, 2.0], [5, 7], **{column: values})

    def test_timestamp_and_interest_checks_follow_the_duration_checks(self):
        def build(durations):
            Dataset(["a", "b"], ["x", "y"], [1.0, 2.0], durations, timestamps=[1.5, 0.0],
                    true_interest=[2, 3])
        with pytest.raises(ValueError, match=re.escape("row 0: duration_s not an int64 >= 1")):
            build([0, 5])
        with pytest.raises(ValueError, match=re.escape("row 0: timestamp not an int64: 1.5")):
            build([5, 0])  # the earliest bad row wins

    def test_int64_timestamps_are_kept_and_other_columns_become_int64(self):
        ts = np.array([2 ** 63 - 1, -2 ** 63])
        ds = Dataset(["a", "b"], ["x", "y"], [1.0, 2.0], [5, 7], timestamps=ts,
                     true_interest=np.array([True, False]))
        assert np.shares_memory(ds.timestamps, ts)
        assert (ds.true_interest.dtype, ds.true_interest.tolist()) == (np.int64, [1, 0])
        ds = Dataset(["a", "b"], ["x", "y"], [1.0, 2.0], [5, 7], timestamps=[3.0, -2.0],
                     true_interest=[1.0, 0.0])
        for column, values in ((ds.timestamps, [3, -2]), (ds.true_interest, [1, 0])):
            assert (column.dtype, column.tolist()) == (np.int64, values)

    def test_ids_are_codes_into_sorted_table(self):
        ds = Dataset(["u2", "u10", "u2"], ["i1", "i1", "i0"], [1.0, 2.0, 3.0], [5, 6, 7])
        assert ds.user_table.tolist() == ["u10", "u2"]
        assert ds.user_codes.tolist() == [1, 0, 1]
        assert ds.item_codes.tolist() == [1, 1, 0]
        assert ds.user_ids.dtype == object
        assert ds.user_ids.tolist() == ["u2", "u10", "u2"]
        assert ds.timestamps is None and ds.true_interest is None

    def test_id_columns_share_one_string_per_id(self):
        rng = np.random.default_rng(0)
        users, items = rng.integers(0, 40, 500), rng.integers(0, 60, 500)
        ds = Dataset([f"user{u}" for u in users], [f"item{i}" for i in items], np.ones(500),
                     np.full(500, 10)).subset(np.arange(0, 500, 7))
        for ids, table, codes in ((ds.user_ids, ds.user_table, ds.user_codes),
                                  (ds.item_ids, ds.item_table, ds.item_codes)):
            assert ids.dtype == object and ids.tolist() == table[codes].tolist()
            assert len({id(v) for v in ids}) == np.unique(codes).size < codes.size

    def test_codes_take_the_narrowest_unsigned_type_of_their_table(self):
        users = [f"u{k}" for k in range(300)]
        ds = Dataset(users, ["i0", "i1"] * 150, np.ones(300), np.full(300, 10))
        assert (ds.user_codes.dtype, ds.item_codes.dtype) == (np.uint16, np.uint8)
        sub = ds.subset([299, 0])
        assert (sub.user_codes.dtype, sub.user_ids.tolist()) == (np.uint16, ["u299", "u0"])
        # codes already in their table's type are kept without a copy
        codes = np.array([1, 0], dtype=np.uint8)
        coded = Dataset.from_codes(["a", "b"], codes, ["x"], [0, 0], [1.0, 2.0], [5, 5])
        assert np.shares_memory(coded.user_codes, codes) and coded.item_codes.dtype == np.uint8

    def test_id_list_of_str_reaches_the_coder_as_it_comes(self, monkeypatch):
        seen = []
        real = watchlab.data_model.group_codes
        monkeypatch.setattr(watchlab.data_model, "group_codes",
                            lambda keys: seen.append(keys) or real(keys))
        users, items = ["u2", "u10", "u2"], [10, 9, 10]
        ds = Dataset(users, items, [1.0, 2.0, 3.0], [5, 5, 5])
        assert seen[0] is users  # hashed with no str array in between
        assert (ds.user_table.tolist(), ds.user_codes.tolist()) == (["u10", "u2"], [1, 0, 1])
        # a list that holds other types still codes as strings
        assert (ds.item_table.tolist(), ds.item_codes.tolist()) == (["10", "9"], [0, 1, 0])

    def test_durations_are_int64_and_an_int64_column_is_shared(self):
        given = np.array([5, 7])
        assert np.shares_memory(Dataset(["a", "b"], ["x", "y"], [1.0, 2.0], given).durations,
                                given)
        for given in ([5.0, 7.0], np.array([5, 7], dtype=np.int32)):
            got = Dataset(["a", "b"], ["x", "y"], [1.0, 2.0], given).durations
            assert (got.dtype, got.tolist()) == (np.int64, [5, 7])

    # 256 entries code as uint16 and 255 as uint8, where a cast would wrap
    # 65536 and 256 to 0, and a NaN would become some code
    @pytest.mark.parametrize("size, code", [(3, 3), (3, -1), (256, 65536), (255, 256),
                                            (3, math.nan)])
    def test_code_outside_its_table_rejected(self, size, code):
        table = [f"k{j:03d}" for j in range(size)]
        with pytest.raises(ValueError, match="id code outside its table"):
            Dataset.from_codes(table, [0, code], ["x"], [0, 0], [1.0, 2.0], [5, 5])
        with pytest.raises(ValueError, match="id code outside its table"):
            Dataset.from_codes(["a"], [0, 0], table, np.array([code, 0]), [1.0, 2.0], [5, 5])

    def test_fractional_codes_rejected(self):
        # a cast would truncate 0.5 and 1.7 to codes 0 and 1, which name other ids
        with pytest.raises(ValueError, match="id codes must be integers"):
            Dataset.from_codes(["a", "b"], [0.5, 1.7], ["x"], [0, 0.9], [1.0, 2.0], [5, 5])
        with pytest.raises(ValueError, match="id codes must be integers"):
            Dataset.from_codes(["a"], [0, 0], ["x"], np.zeros(2), [1.0, 2.0], [5, 5])
        # numpy types an empty list as float64, and it holds no code to truncate
        assert len(Dataset.from_codes([], [], [], [], [], [])) == 0

    def test_unsorted_table_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Dataset.from_codes(["b", "a"], [0, 1], ["x"], [0, 0], [1.0, 2.0], [5, 5])

    @pytest.mark.parametrize("field", ["user_id", "item_id"])
    def test_feature_named_after_an_id_column_rejected(self, field):
        # its tokens would collide with the id field's in the vocabulary
        with pytest.raises(ValueError, match=f"feature field '{field}'"):
            Dataset(["a", "b"], ["x", "y"], [1.0, 2.0], [5, 5], features={field: ["p", "q"]})
        with pytest.raises(ValueError, match=f"feature field '{field}'"):
            Dataset.from_codes(["a"], [0], ["x"], [0], [1.0], [5], features={field: ["p"]})

    def test_subset_and_views(self):
        ds = make_rows([3.0, 7.0, 9.0], [10, 20, 30], timestamps=[5, 6, 7])
        sub = ds.subset([2, 0])
        assert sub.watch_times.tolist() == [9.0, 3.0]
        assert sub.timestamps.tolist() == [7, 5]
        assert (sub.user_ids.tolist(), sub.item_ids.tolist(), sub.durations.tolist()) == (
            ["u2", "u0"], ["i2", "i0"], [30, 10])
        assert sub.true_interest is None and sub.features == {}
