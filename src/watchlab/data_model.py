"""Watch log as numpy columns, splitting, CSV I/O and interest labeling."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDataset,
    MalformedRow,
    MissingColumn,
    MissingTimestamps,
)
from .ranking import group_codes

# long_view rule: a short video counts as interesting only when fully played,
# a long one when watched past this many seconds.
LONG_VIEW_CUTOFF_S = 18.0
COMPLETE_PLAY_TOL = 1e-9

BASE_COLUMNS = ["user_id", "item_id", "duration_s", "watch_time_s"]
INT64_LIMIT = 2.0 ** 63  # integer columns hold values below this in magnitude


def not_int64(values) -> np.ndarray:
    """Mask of the float `values` that are not whole numbers below 2**63 in
    magnitude, NaN and ±inf included."""
    return ~((np.floor(values) == values) & (np.abs(values) < INT64_LIMIT))


def raise_first_bad(checks, error) -> None:
    """Raise error(i, message) for the earliest row i that any of `checks`,
    (bad-row mask, message of row i) pairs in priority order, marks, with
    the message of the first check that marks row i."""
    hits = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if hits:
        i, k = min(hits)
        raise error(i, checks[k][1](i))


def _int64_or_float(column):
    """A column as a 1-D array: an int64 one as given, so that a subset's
    parent shares it, any other as float64; None stays None."""
    if column is None:
        return None
    column = np.asarray(column).reshape(-1)
    return column if column.dtype == np.int64 else np.asarray(column, dtype=np.float64)


def _id_codes(ids):
    """group_codes of an id column as strings; a list of str is hashed as it comes."""
    if not (isinstance(ids, list) and set(map(type, ids)) <= {str}):
        ids = np.asarray(ids, dtype=str)
    return group_codes(ids)


class Dataset:
    """Immutable interaction log held as numpy columns.

    Columns (read-only by convention): `user_codes`/`item_codes` are codes
    into the sorted id-string tables `user_table`/`item_table`, so codes
    order users exactly as their id strings do, in the unsigned type
    np.min_scalar_type(table.size) that group_codes picks for the table;
    `watch_times` is float64, `durations` int64, `timestamps` and
    `true_interest` are int64 or None, and `features` maps each declared
    feature field to a string column.

    An int64 `durations`, `timestamps` or `true_interest` column is kept as
    given; any other is read as float64 and must hold whole numbers that an
    int64 holds. A bad value raises ValueError("row i: ...") for the earliest
    bad row i, naming the first of its failures in the order watch_time_s
    not finite, negative, duration_s not finite, not an int64 >= 1,
    timestamp not an int64, true_interest not 0 or 1.
    """

    def __init__(self, user_ids, item_ids, watch_times, durations, timestamps=None,
                 true_interest=None, features=None):
        self._set(*_id_codes(user_ids), *_id_codes(item_ids), watch_times, durations,
                  timestamps, true_interest, features)

    @classmethod
    def from_codes(cls, user_table, user_codes, item_table, item_codes, watch_times, durations,
                   timestamps=None, true_interest=None, features=None) -> "Dataset":
        """Columns with ids given as codes into sorted, duplicate-free tables."""
        ds = cls.__new__(cls)
        ds._set(user_table, user_codes, item_table, item_codes, watch_times, durations,
                timestamps, true_interest, features)
        return ds

    def _set(self, user_table, user_codes, item_table, item_codes, watch_times, durations,
             timestamps, true_interest, features):
        w = np.asarray(watch_times, dtype=np.float64).reshape(-1)
        d, t, r = map(_int64_or_float, (durations, timestamps, true_interest))
        d_f = np.asarray(d, dtype=np.float64)  # an int64 duration is checked as a float too
        checks = [(~np.isfinite(w), lambda i: f"watch_time_s not finite: {w[i]}"),
                  (w < 0, lambda i: f"watch_time_s negative: {w[i]}"),
                  (~np.isfinite(d_f), lambda i: f"duration_s not finite: {d_f[i]}"),
                  ((d_f < 1) | not_int64(d_f),
                   lambda i: f"duration_s not an int64 >= 1: {d_f[i]}")]
        if t is not None and t.dtype != np.int64:
            checks.append((not_int64(t), lambda i: f"timestamp not an int64: {t[i]}"))
        if r is not None:
            checks.append(((r != 0) & (r != 1), lambda i: f"true_interest not 0 or 1: {r[i]}"))
        raise_first_bad(checks, lambda i, message: ValueError(f"row {i}: {message}"))
        self.watch_times = w
        self.durations, self.timestamps, self.true_interest = (
            None if c is None else c.astype(np.int64, copy=False) for c in (d, t, r))
        tables = [np.asarray(table, dtype=str) for table in (user_table, item_table)]
        codes = [np.asarray(c).reshape(-1) for c in (user_codes, item_codes)]
        self.features = {f: np.asarray(c, dtype=str) for f, c in (features or {}).items()}
        for f in ("user_id", "item_id"):
            if f in self.features:
                raise ValueError(f"feature field {f!r} names an id column")
        columns = [d, *codes, *self.features.values(),
                   *(c for c in (self.timestamps, self.true_interest) if c is not None)]
        if any(c.shape != w.shape for c in columns):
            raise ValueError(f"every column must hold {w.size} values")
        for table, c in zip(tables, codes):
            if np.any(table[1:] <= table[:-1]):
                raise ValueError("id tables must be sorted and duplicate-free")
            if c.size and not (0 <= c.min() and c.max() < table.size):  # NaN fails too
                raise ValueError("id code outside its table")
            if c.size and c.dtype.kind not in "iu":  # a cast would truncate 1.7 to code 1
                raise ValueError("id codes must be integers")
        self.user_table, self.item_table = tables
        # in group_codes' type for the table, which the check above keeps from wrapping
        self.user_codes, self.item_codes = (c.astype(np.min_scalar_type(t.size), copy=False)
                                            for t, c in zip(tables, codes))

    def __len__(self):
        return self.watch_times.size

    @property
    def user_ids(self) -> np.ndarray:
        """Object array of user id strings, one per row; a user's rows share one object."""
        return self.user_table.astype(object)[self.user_codes]

    @property
    def item_ids(self) -> np.ndarray:
        return self.item_table.astype(object)[self.item_codes]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        ts, interest = self.timestamps, self.true_interest
        return Dataset.from_codes(
            self.user_table, self.user_codes[idx], self.item_table, self.item_codes[idx],
            self.watch_times[idx], self.durations[idx],
            None if ts is None else ts[idx], None if interest is None else interest[idx],
            {f: c[idx] for f, c in self.features.items()},
        )


@dataclass(frozen=True)
class DatasetStats:
    n: int
    w_max: float
    group_counts: dict = field(compare=False)


def compute_stats(dataset: Dataset) -> DatasetStats:
    """Count rows, find the watch-time max and the per-duration group sizes."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot compute stats of an empty dataset")
    uniq, counts = np.unique(dataset.durations, return_counts=True)
    return DatasetStats(
        n=len(dataset),
        w_max=float(dataset.watch_times.max()),
        group_counts={int(k): int(c) for k, c in zip(uniq, counts)},
    )


def long_view_labels(watch_times, durations) -> np.ndarray:
    """Binary long_view interest: complete play for short videos, >18s watched
    for long ones.

    The short-video branch uses w >= d (within tolerance) so replays of a
    short video still count as interest and the label stays monotone in w.
    """
    w = np.asarray(watch_times, dtype=np.float64)
    d = np.asarray(durations)
    short = d <= LONG_VIEW_CUTOFF_S
    return np.where(short, w >= d - COMPLETE_PLAY_TOL, w > LONG_VIEW_CUTOFF_S).astype(np.int64)


def chronological_split_indices(dataset: Dataset, fractions) -> tuple:
    """Row indices of the train/val/test partition by ascending timestamp.

    Ties keep their original order (stable sort), so re-running on the same
    file gives the same split. Returned so that row-aligned sidecars (labels,
    ground truth) can be sliced consistently with the datasets. Raises
    ValueError when a part would be empty.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError(f"need three positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    ts = dataset.timestamps
    if ts is None:
        raise MissingTimestamps("chronological split needs timestamps on every row")
    order = np.argsort(ts, kind="stable")
    n = len(dataset)
    cut1 = int(round(fractions[0] * n))
    cut2 = int(round((fractions[0] + fractions[1]) * n))
    parts = order[:cut1], order[cut1:cut2], order[cut2:]
    if any(p.size == 0 for p in parts):
        raise ValueError(f"fractions {fractions} leave a part of {n} rows empty")
    return parts


def split_chronological(dataset: Dataset, fractions) -> tuple:
    """Partition rows by ascending timestamp into train/val/test."""
    parts = chronological_split_indices(dataset, fractions)
    return tuple(dataset.subset(p) for p in parts)


def _is_float(s) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _parse_floats(column):
    """Float values of a column, NaN where a cell does not parse, and the
    mask of those cells; a float64 column from the loader is its own values."""
    try:
        return np.asarray(column, dtype=np.float64), np.zeros(len(column), dtype=bool)
    except ValueError:  # find the bad cells; only on the error path
        bad = np.array([not _is_float(s) for s in column])
        return np.array(np.where(bad, "nan", column), dtype=np.float64), bad


def _is_text(column) -> bool:
    """False for the loader's float64 columns, which have no blank cell."""
    return getattr(column, "dtype", None) != np.float64


def _parse_columns(header, cols, lines, feature_fields):
    """Typed columns of a log whose columns are `cols`, in header order;
    raises MalformedRow for the first bad row, with the message of the
    first check that row fails."""
    header_idx = {name: i for i, name in enumerate(header)}

    def col(name):
        return cols[header_idx[name]]

    optional = [c for c in ("timestamp", "true_interest") if c in header_idx]
    checks = []  # (bad-row mask, message for row i), in the order a row is checked
    for c in ("user_id", "item_id", *feature_fields, *optional):  # str arrays drop trailing NULs
        if isinstance(col(c), list):  # the loader reads no file with a NUL byte
            checks.append((np.array([s.endswith("\0") for s in col(c)], dtype=bool),
                           lambda i, c=c: f"{c} ends in a NUL character: {col(c)[i]!r}"))
    missing = np.zeros(len(col("user_id")), dtype=bool)
    for c in (*BASE_COLUMNS, *optional):
        if _is_text(col(c)) and "" in col(c):
            missing |= np.array(col(c)) == ""
    checks.append((missing, lambda i: "missing required value"))
    w, w_bad = _parse_floats(col("watch_time_s"))
    d_raw, d_bad = _parse_floats(col("duration_s"))
    d = np.rint(np.where(np.isfinite(d_raw), d_raw, 1.0))
    checks += [
        (w_bad, lambda i: f"watch_time_s not numeric: {col('watch_time_s')[i]!r}"),
        (d_bad, lambda i: f"duration_s not numeric: {col('duration_s')[i]!r}"),
        (~np.isfinite(w), lambda i: f"watch_time_s not finite: {w[i]}"),
        (~np.isfinite(d_raw), lambda i: f"duration_s not finite: {d_raw[i]}"),
        (w < 0, lambda i: f"watch_time_s negative: {w[i]}"),
        (d < 1, lambda i: f"duration_s below 1: {d_raw[i]}"),
        (d >= INT64_LIMIT, lambda i: f"duration_s too large: {d_raw[i]}"),
    ]

    ts = interest = None
    if "timestamp" in header_idx:
        ts, t_bad = _parse_floats(col("timestamp"))
        checks += [(t_bad, lambda i: f"timestamp not numeric: {col('timestamp')[i]!r}"),
                   (~(np.abs(ts) < INT64_LIMIT),
                    lambda i: f"timestamp out of range: {col('timestamp')[i]!r}")]
    if "true_interest" in header_idx:
        raw = np.array(col("true_interest"), dtype=str)
        checks.append(((raw != "0") & (raw != "1"),
                       lambda i: f"true_interest not 0 or 1: {col('true_interest')[i]!r}"))
        interest = raw == "1"

    raise_first_bad(checks, lambda i, message: MalformedRow(int(lines[i]), message))
    return Dataset(col("user_id"), col("item_id"), w, d,
                   timestamps=None if ts is None else ts.astype(np.int64),
                   true_interest=interest, features={f: col(f) for f in feature_fields})


def ingest_csv(path, feature_fields=()) -> Dataset:
    """Read a UTF-8 comma-separated log file into a Dataset.

    Required columns: user_id, item_id, duration_s, watch_time_s, plus the
    declared `feature_fields`. Optional: timestamp, true_interest.
    Durations are quantized to integer seconds. Watch times above duration
    are kept as-is (replays are real data). The optional columns follow the
    required ones' rules: a blank cell or a trailing NUL fails its row.
    """
    numeric = {"duration_s", "watch_time_s", "timestamp"} - set(feature_fields)  # features: text
    return _read_columns(path, [*BASE_COLUMNS, *feature_fields], numeric,
                         lambda *read: _parse_columns(*read, feature_fields))


def _load_columns(path, numeric):
    """(header, columns, line of each row, None) of a CSV file read by
    np.loadtxt: the `numeric` columns as float64 arrays, the others as str
    arrays. None unless the text has no quote, NUL, bare CR or blank line,
    holds a data row, every line has the header's field count and every
    numeric cell parses. In such a text every line is one record and every
    comma a field boundary, so the cells are csv.reader's."""
    with open(path, "rb") as f:
        raw = f.read()
    text = raw.replace(b"\r\n", b"\n")
    text += b"" if text.endswith(b"\n") else b"\n"
    if b'"' in raw or b"\0" in raw or b"\r" in text or b"\n\n" in text or text.startswith(b"\n"):
        return None
    a = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero((a == ord(",")) | (a == ord("\n")))  # the byte after each cell
    kinds = a[ends]
    k = int(np.argmax(kinds == ord("\n"))) + 1
    if kinds.size == k or kinds.size % k or np.any(kinds.reshape(-1, k) != kinds[:k]):
        return None
    header = text[:ends[k - 1]].decode("utf-8").split(",")
    if a.max() >= 0x80:  # count cell ends in characters: UTF-8 continuation bytes start none
        ends = ends - np.add.reduceat((a & 0xC0) == 0x80, np.r_[0, ends[:-1]],
                                      dtype=np.int64).cumsum()
    widths = (ends[k:] - ends[k - 1:-1]).reshape(-1, k).max(axis=0) - 1
    n, size = kinds.size // k - 1, a.size
    del raw, text, a, ends, kinds  # the loader's table needs the memory
    if n * sum(int(w) for c, w in zip(header, widths) if c not in numeric) > size:
        return None  # str arrays larger than the text: a few very long cells
    dtype = [(f"f{j}", np.float64 if c in numeric else f"U{max(w, 1)}")
             for j, (c, w) in enumerate(zip(header, widths))]
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                           encoding="utf-8", skiprows=1, ndmin=1)
    except ValueError:  # a numeric cell that does not parse, or bytes that are not UTF-8
        return None
    return header, [table[f].copy() for f in table.dtype.names], np.arange(2, n + 2), None


def _csv_reader_columns(raw: bytes):
    """(header, string columns of the non-blank rows, the line each of them
    starts on, pending error) of a CSV file's bytes, read by csv.reader. The
    rows stop before the first one whose field count differs from the
    header's, and the pending error is the MalformedRow for it (else None).
    Blank lines and line breaks inside quoted cells are counted. Raises
    MalformedRow for an empty file or a csv.Error."""
    reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
    rows, ends = [], [0]  # ends[k]: the last line of the first k records
    try:
        for row in reader:
            rows.append(row)
            ends.append(reader.line_num)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    if not rows:
        raise MalformedRow(0, "file is empty")
    header, *rows = rows
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    lines = np.array(ends[1:-1], dtype=np.int64)[sizes > 0] + 1
    if lines.size < len(rows):
        rows = list(filter(None, rows))
        sizes = sizes[sizes > 0]
    wrong = np.flatnonzero(sizes != len(header))
    error = None
    if wrong.size:
        i = int(wrong[0])
        rows = rows[:i]
        error = MalformedRow(int(lines[i]), f"expected {len(header)} fields, got {sizes[i]}")
    cols = [list(c) for c in zip(*rows)] if rows else [[] for _ in header]
    return header, cols, lines, error


def _read_columns(path, required, numeric, parse):
    """parse(header, columns in header order, line of each row) of a CSV
    file. A file that _load_columns reads, with the `numeric` columns as
    float64, is parsed from those typed columns; any other
    file, and one whose columns parse rejects, from csv.reader's string
    lists, which give every MalformedRow its cell as the file spells it.
    Raises MalformedRow for a repeated column name, MissingColumn for an
    absent `required` column, and after parse's own errors (an earlier bad
    row wins) the MalformedRow for a row with the wrong field count."""
    def parsed(header, cols, lines, error):
        for c in header:
            if header.count(c) > 1:
                raise MalformedRow(1, f"repeated column: {c}")
        for c in required:
            if c not in header:
                raise MissingColumn(c)
        result = parse(header, cols, lines)
        if error:
            raise error
        return result

    try:
        loaded = _load_columns(path, numeric)
        if loaded:
            try:
                return parsed(*loaded)
            except MalformedRow:
                pass
        with open(path, "rb") as f:
            return parsed(*_csv_reader_columns(f.read()))
    except UnicodeDecodeError as exc:  # exc.object is raw or its first line
        head = exc.object[:exc.start]  # lines end at LF, CRLF or a bare CR, as in csv.reader
        ends = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise MalformedRow(ends + 1,
                           f"not valid UTF-8: byte {exc.object[exc.start]:#04x}") from None


def read_float_columns(path, names, whole=()) -> list:
    """The `names` columns of a CSV file in that order: the `whole` ones as
    int64 arrays, the others as float64 arrays.

    Raises MissingColumn for an absent column, and MalformedRow naming the
    line of the first row with the wrong number of fields or with a cell
    that is not a finite number (in the `whole` columns, not a whole number
    that an int64 holds).
    """
    def parse(header, cols, lines):
        out, checks = [], []  # in column order: a row's leftmost bad cell wins
        for name in names:
            column = cols[header.index(name)]
            values, bad = _parse_floats(column)
            kind = "an int64" if name in whole else "a finite number"
            bad |= not_int64(values) if name in whole else ~np.isfinite(values)
            checks.append((bad, lambda i, name=name, column=column, kind=kind:
                           f"{name} not {kind}: {column[i]!r}"))
            out.append(values)
        raise_first_bad(checks, lambda i, message: MalformedRow(int(lines[i]), message))
        return [v.astype(np.int64) if name in whole else v for name, v in zip(names, out)]

    return _read_columns(path, names, names, parse)


def _quote(cell: str) -> str:
    """A cell as csv.writer's minimal quoting writes it."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(column: np.ndarray) -> list:
    """The CSV cells of a column: repr of floats, str of ints, quoted strings;
    an object column holds its cells already."""
    kind = column.dtype.kind
    if kind == "O":
        return column.tolist()
    return list(map(repr if kind == "f" else str if kind in "iub" else _quote, column.tolist()))


WRITE_CHUNK_ROWS = 1 << 12  # rows formatted and joined at a time, which bounds memory


def write_columns(path, header, columns) -> None:
    """Write equally long numpy columns under `header`, each cell as _cells
    formats it, with the bytes csv.writer gives for the same rows of two or
    more cells, or of one non-empty cell. Whole column slices are formatted
    and joined at a time."""
    k, n = len(header), len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(map(_quote, header)) + "\r\n")
        for lo in range(0, n, WRITE_CHUNK_ROWS):
            m = min(WRITE_CHUNK_ROWS, n - lo)
            text = [None] * (2 * k * m)
            for j, column in enumerate(columns):
                text[2 * j::2 * k] = _cells(column[lo:lo + m])
                text[2 * j + 1::2 * k] = ["\r\n" if j == k - 1 else ","] * m
            f.write("".join(text))


def write_csv(dataset: Dataset, path) -> None:
    """Write a Dataset, every feature column included, in the format
    ingest_csv reads."""

    def ids(table, codes):  # quoted once per distinct id
        return np.array(_cells(table), dtype=object)[codes]

    named = {"user_id": ids(dataset.user_table, dataset.user_codes),
             "item_id": ids(dataset.item_table, dataset.item_codes),
             "duration_s": dataset.durations, "watch_time_s": dataset.watch_times,
             "timestamp": dataset.timestamps, "true_interest": dataset.true_interest,
             **dataset.features}
    header = [name for name, column in named.items() if column is not None]
    write_columns(path, header, [named[name] for name in header])
