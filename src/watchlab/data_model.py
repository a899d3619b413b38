"""Interaction records, dataset container, splitting and interest labeling."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDataset,
    MalformedRow,
    MissingColumn,
    MissingTimestamps,
)

# long_view rule: a short video counts as interesting only when fully played,
# a long one when watched past this many seconds.
LONG_VIEW_CUTOFF_S = 18.0
COMPLETE_PLAY_TOL = 1e-9

BASE_COLUMNS = ["user_id", "item_id", "duration_s", "watch_time_s"]


@dataclass(frozen=True)
class Interaction:
    """One log row: who watched what, for how long, out of what duration."""

    user_id: str
    item_id: str
    watch_time_s: float
    duration_s: int
    features: tuple = ()  # ordered (field_name, value) pairs
    timestamp: int | None = None
    true_interest: int | None = None
    feedback_flags: tuple = ()

    def __post_init__(self):
        if self.watch_time_s < 0:
            raise ValueError(f"watch_time_s must be >= 0, got {self.watch_time_s}")
        if self.duration_s < 1:
            raise ValueError(f"duration_s must be >= 1, got {self.duration_s}")


@dataclass(frozen=True)
class FeatureSchema:
    """Declared extra categorical feature columns for a CSV file."""

    feature_fields: tuple = ()
    has_timestamp: bool = True
    has_true_interest: bool = False

    @classmethod
    def kuairand_like(cls) -> "FeatureSchema":
        return cls(
            feature_fields=(
                "author_id",
                "music_id",
                "video_type",
                "upload_type",
                "tab",
            ),
            has_timestamp=True,
        )


class Dataset:
    """Immutable ordered collection of interactions with cached column views."""

    def __init__(self, interactions):
        self._rows = tuple(interactions)
        self._cache: dict = {}

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Dataset(self._rows[i])
        return self._rows[i]

    @property
    def rows(self):
        return self._rows

    def _column(self, key, fn, dtype):
        if key not in self._cache:
            self._cache[key] = np.array([fn(r) for r in self._rows], dtype=dtype)
        return self._cache[key]

    @property
    def watch_times(self) -> np.ndarray:
        return self._column("w", lambda r: r.watch_time_s, np.float64)

    @property
    def durations(self) -> np.ndarray:
        return self._column("d", lambda r: r.duration_s, np.int64)

    @property
    def user_ids(self) -> np.ndarray:
        return self._column("u", lambda r: r.user_id, object)

    @property
    def item_ids(self) -> np.ndarray:
        return self._column("v", lambda r: r.item_id, object)

    @property
    def timestamps(self) -> np.ndarray | None:
        if any(r.timestamp is None for r in self._rows):
            return None
        return self._column("t", lambda r: r.timestamp, np.int64)

    def subset(self, indices) -> "Dataset":
        return Dataset(self._rows[i] for i in indices)


@dataclass(frozen=True)
class DatasetStats:
    n: int
    w_max: float
    duration_min: int
    duration_max: int
    group_counts: dict = field(compare=False)


def compute_stats(dataset: Dataset) -> DatasetStats:
    """Count rows, find the watch-time max and the per-duration group sizes."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot compute stats of an empty dataset")
    d = dataset.durations
    uniq, counts = np.unique(d, return_counts=True)
    return DatasetStats(
        n=len(dataset),
        w_max=float(dataset.watch_times.max()),
        duration_min=int(uniq[0]),
        duration_max=int(uniq[-1]),
        group_counts={int(k): int(c) for k, c in zip(uniq, counts)},
    )


def derive_interest_label(interaction: Interaction) -> int:
    """Binary long_view interest: complete play for short videos, >18s watched
    for long ones.

    The short-video branch uses w >= d (within tolerance) so replays of a
    short video still count as interest and the label stays monotone in w.
    """
    w, d = interaction.watch_time_s, interaction.duration_s
    if d <= LONG_VIEW_CUTOFF_S:
        return int(w >= d - COMPLETE_PLAY_TOL)
    return int(w > LONG_VIEW_CUTOFF_S)


def chronological_split_indices(dataset: Dataset, fractions) -> tuple:
    """Row indices of the train/val/test partition by ascending timestamp.

    Ties keep their original order (stable sort), so re-running on the same
    file gives the same split. Returned so that row-aligned sidecars (labels,
    ground truth) can be sliced consistently with the datasets.
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
    return order[:cut1], order[cut1:cut2], order[cut2:]


def split_chronological(dataset: Dataset, fractions) -> tuple:
    """Partition rows by ascending timestamp into train/val/test."""
    parts = chronological_split_indices(dataset, fractions)
    return tuple(dataset.subset(p) for p in parts)


def _parse_row(line_no, row, header_idx, schema):
    def get(col):
        return row[header_idx[col]]

    try:
        w = float(get("watch_time_s"))
    except ValueError:
        raise MalformedRow(line_no, f"watch_time_s not numeric: {get('watch_time_s')!r}")
    try:
        d_raw = float(get("duration_s"))
    except ValueError:
        raise MalformedRow(line_no, f"duration_s not numeric: {get('duration_s')!r}")
    if not math.isfinite(w):
        raise MalformedRow(line_no, f"watch_time_s not finite: {w}")
    if not math.isfinite(d_raw):
        raise MalformedRow(line_no, f"duration_s not finite: {d_raw}")
    d = int(round(d_raw))
    if w < 0:
        raise MalformedRow(line_no, f"watch_time_s negative: {w}")
    if d < 1:
        raise MalformedRow(line_no, f"duration_s below 1: {d_raw}")

    ts = None
    if "timestamp" in header_idx and get("timestamp") != "":
        ts = int(float(get("timestamp")))
    interest = None
    if "true_interest" in header_idx and get("true_interest") != "":
        interest = int(get("true_interest"))
    feats = tuple((f, get(f)) for f in schema.feature_fields)
    return Interaction(
        user_id=get("user_id"),
        item_id=get("item_id"),
        watch_time_s=w,
        duration_s=d,
        features=feats,
        timestamp=ts,
        true_interest=interest,
    )


def ingest_csv(path, schema: FeatureSchema | None = None) -> Dataset:
    """Read a UTF-8 comma-separated log file into a Dataset.

    Required columns: user_id, item_id, duration_s, watch_time_s. Optional:
    timestamp, true_interest, plus the schema's declared feature columns.
    Durations are quantized to integer seconds. Watch times above duration
    are kept as-is (replays are real data).
    """
    schema = schema or FeatureSchema()
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(0, "file is empty")
        header_idx = {name: i for i, name in enumerate(header)}
        for col in BASE_COLUMNS:
            if col not in header_idx:
                raise MissingColumn(col)
        for col in schema.feature_fields:
            if col not in header_idx:
                raise MissingColumn(col)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
            if any(row[header_idx[c]] == "" for c in BASE_COLUMNS):
                raise MalformedRow(line_no, "missing required value")
            rows.append(_parse_row(line_no, row, header_idx, schema))
    return Dataset(rows)


def write_csv(dataset: Dataset, path, schema: FeatureSchema | None = None) -> None:
    """Write a Dataset in the same format ingest_csv reads."""
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
