"""Hand-made weekly batches, written as one readable tuple per row."""

import math

from cohortsense.core import SEGMENT_ORDER, DaySegment, WeeklyBatch


def batch_of(rows, week=1, labels=None) -> WeeklyBatch:
    """A batch from (participant, day, segment, {feature: value}, {feature:
    token}) rows; None, or a feature a row leaves out, is a missing cell."""
    rows = list(rows)
    cont = sorted({name for row in rows for name in row[3]})
    cat = sorted({name for row in rows for name in row[4]})
    return WeeklyBatch.from_columns(
        week=week,
        participant_ids=[row[0] for row in rows],
        days=[row[1] for row in rows],
        segments=[SEGMENT_ORDER.index(DaySegment(row[2])) for row in rows],
        continuous={
            name: [math.nan if row[3].get(name) is None else row[3][name] for row in rows]
            for name in cont
        },
        categorical={name: [row[4].get(name) for row in rows] for name in cat},
        labels=labels or {},
    )
