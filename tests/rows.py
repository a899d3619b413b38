"""Hand-written test logs: a Dataset's columns from row tuples."""

from watchlab.data_model import Dataset


def rows_dataset(rows, *extra):
    """A Dataset from (user_id, item_id, watch_time_s, duration_s, *values)
    tuples, one per row. `extra` names the trailing values of every row:
    "timestamp", "true_interest" or a feature field."""
    rows = list(rows)
    user_ids, item_ids, watch_times, durations, *values = (
        zip(*rows) if rows else [()] * (4 + len(extra)))
    columns = dict(zip(extra, values))
    return Dataset(user_ids, item_ids, watch_times, durations,
                   timestamps=columns.pop("timestamp", None),
                   true_interest=columns.pop("true_interest", None), features=columns)
