"""Trace analysis: overlap metrics, iteration gaps, and viewer export.

Works on the lists of :class:`~biflow.dispatcher.TraceRecord` named tuples
that runs produce, sorted by start and then end.  Lanes are classified as
compute, copy, or transport by a caller-supplied ``classify(lane) -> str``
(``Layout.lane_class`` for a built sequence); the metrics are plain interval
arithmetic over those classes.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from pathlib import Path

from .dispatcher import TraceRecord, WorkerLane

COMPUTE = "compute"
COPY = "copy"
TRANSPORT = "transport"
_CLASSES = (COMPUTE, COPY, TRANSPORT)


def _class_of(classify: Callable[[WorkerLane], str], lane: WorkerLane) -> str:
    cls = classify(lane)
    if cls not in _CLASSES:
        raise ValueError(
            f"lane {lane} classified as {cls!r}; expected one of {_CLASSES}"
        )
    return cls


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _split_by_class(
    trace: Iterable[TraceRecord], classify: Callable[[WorkerLane], str]
) -> dict[str, list[tuple[int, int]]]:
    out: dict[str, list[tuple[int, int]]] = {c: [] for c in _CLASSES}
    for rec in trace:
        out[_class_of(classify, rec.lane)].append((rec.start, rec.end))
    return out


def overlap_fraction(
    trace: Iterable[TraceRecord], classify: Callable[[WorkerLane], str]
) -> float:
    """Fraction of total copy time covered by the union of compute intervals.

    Raises ``ValueError`` if the trace holds no copy records: the metric is
    undefined without a numerator's denominator.  Raises ``ValueError``
    naming the lane when ``classify`` gives a lane a class other than
    compute, copy or transport.
    """
    split = _split_by_class(trace, classify)
    copies = split[COPY]
    if not copies:
        raise ValueError("overlap_fraction: trace has no copy records")
    compute = _merge_intervals(split[COMPUTE])
    total = sum(end - start for start, end in copies)
    covered = 0
    for cs, ce in copies:
        for ms, me in compute:
            if ms >= ce:
                break
            lo, hi = max(cs, ms), min(ce, me)
            if hi > lo:
                covered += hi - lo
    return covered / total


def iteration_gap(
    trace: Iterable[TraceRecord], classify: Callable[[WorkerLane], str]
) -> list[int]:
    """Idle time between iterations, measured on compute lanes.

    For each adjacent iteration pair present in the trace, returns
    ``first compute start of the later - last compute end of the earlier``
    in nanoseconds.  Requires at least two iterations, each with at least
    one compute record.  ``classify`` is checked as in
    :func:`overlap_fraction`.
    """
    by_iter: dict[int, list[TraceRecord]] = {}
    for rec in trace:
        if _class_of(classify, rec.lane) == COMPUTE:
            by_iter.setdefault(rec.iteration, []).append(rec)
    iters = sorted(by_iter)
    if len(iters) < 2:
        raise ValueError(
            f"iteration_gap: need compute records from >= 2 iterations, got {len(iters)}"
        )
    gaps = []
    for prev, nxt in zip(iters, iters[1:]):
        last_end = max(r.end for r in by_iter[prev])
        first_start = min(r.start for r in by_iter[nxt])
        gaps.append(first_start - last_end)
    return gaps


def _round_us(ns: int) -> int:
    # ns -> µs; exact halves round toward zero so 1500 ns exports as 1 µs
    q, r = divmod(int(ns), 1000)
    return q + 1 if r > 500 else q


def export_trace(trace: Iterable[TraceRecord], path) -> list[dict]:
    """Write the trace as a Trace Event Format JSON array.

    One complete ("X") event per record, timestamps in microseconds.
    ``pid`` is the host's index among the trace's hosts (sorted by name);
    ``tid`` is the lane's index among that host's lanes (sorted by device
    then thread), so traces from several processes merge by concatenation.
    Returns the event list that was written.
    """
    records = list(trace)
    hosts = sorted({r.lane.host for r in records})
    pid = {h: i for i, h in enumerate(hosts)}
    tid: dict[WorkerLane, int] = {}
    for host in hosts:
        lanes = sorted(
            {r.lane for r in records if r.lane.host == host},
            key=lambda ln: (ln.device, ln.thread),
        )
        for i, lane in enumerate(lanes):
            tid[lane] = i
    events = [
        {
            "name": r.name,
            "ph": "X",
            "ts": _round_us(r.start),
            "dur": _round_us(r.end - r.start),
            "pid": pid[r.lane.host],
            "tid": tid[r.lane],
            "args": {"iteration": r.iteration},
        }
        for r in sorted(records, key=lambda r: (r.start, r.end))
    ]
    Path(path).write_text(json.dumps(events, indent=1) + "\n")
    return events
