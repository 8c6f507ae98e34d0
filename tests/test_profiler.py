import json

import pytest

from biflow.dispatcher import TraceRecord, WorkerLane
from biflow.profiler import (
    COMPUTE,
    COPY,
    TRANSPORT,
    export_trace,
    iteration_gap,
    overlap_fraction,
)

CPU = WorkerLane("local", 0, 0)
MOVER = WorkerLane("local", 0, 1)
WIRE = WorkerLane("local", 0, 2)

CLASSES = {CPU: COMPUTE, MOVER: COPY, WIRE: TRANSPORT}


def rec(name, lane, start, end, iteration=0):
    return TraceRecord(op=0, name=name, lane=lane, start=start, end=end,
                       iteration=iteration)


# ---------------------------------------------------------------------------
# overlap_fraction
# ---------------------------------------------------------------------------


def test_copy_inside_compute_is_fully_overlapped():
    trace = [rec("c", CPU, 0, 100), rec("m", MOVER, 10, 20)]
    assert overlap_fraction(trace, CLASSES.get) == 1.0


def test_disjoint_copy_is_unoverlapped():
    trace = [rec("c", CPU, 0, 50), rec("m", MOVER, 100, 110)]
    assert overlap_fraction(trace, CLASSES.get) == 0.0


def test_partial_overlap_is_intersection_ratio():
    trace = [rec("c", CPU, 5, 30), rec("m", MOVER, 0, 10)]
    assert overlap_fraction(trace, CLASSES.get) == 0.5


def test_overlap_counts_five_of_ten():
    trace = [
        rec("c1", CPU, 0, 3),
        rec("c2", CPU, 8, 20),
        rec("m", MOVER, 0, 10),
    ]
    # covered: [0,3) and [8,10) -> 5 of 10
    assert overlap_fraction(trace, CLASSES.get) == 0.5


def test_overlap_uses_union_not_sum():
    # two identical compute intervals must not double-count coverage
    trace = [
        rec("c1", CPU, 0, 4),
        rec("c2", CPU, 0, 4),
        rec("m", MOVER, 0, 10),
    ]
    assert overlap_fraction(trace, CLASSES.get) == 0.4


def test_overlap_invariant_under_translation_and_splitting():
    base = [rec("c", CPU, 5, 30), rec("m", MOVER, 0, 10)]
    split = [rec("c1", CPU, 5, 17), rec("c2", CPU, 17, 30), rec("m", MOVER, 0, 10)]
    shifted = [rec(r.name, r.lane, r.start + 10**6, r.end + 10**6) for r in base]
    want = overlap_fraction(base, CLASSES.get)
    assert overlap_fraction(split, CLASSES.get) == want
    assert overlap_fraction(shifted, CLASSES.get) == want


def test_overlap_monotone_in_compute():
    trace = [rec("m", MOVER, 0, 100)]
    prev = 0.0
    for i, (s, e) in enumerate([(0, 10), (50, 60), (5, 55), (90, 200)]):
        trace.append(rec(f"c{i}", CPU, s, e))
        cur = overlap_fraction(trace, CLASSES.get)
        assert 0.0 <= prev <= cur <= 1.0
        prev = cur


def test_transport_records_do_not_count_as_compute():
    trace = [rec("w", WIRE, 0, 100), rec("m", MOVER, 10, 20)]
    assert overlap_fraction(trace, CLASSES.get) == 0.0


def test_no_copy_records_is_an_error():
    with pytest.raises(ValueError):
        overlap_fraction([rec("c", CPU, 0, 10)], CLASSES.get)


def test_classification_must_be_total():
    stranger = WorkerLane("elsewhere", 0, 0)
    with pytest.raises(ValueError, match="host='elsewhere'"):
        overlap_fraction([rec("x", stranger, 0, 5), rec("m", MOVER, 0, 5)],
                         CLASSES.get)


def test_classifier_accepts_callable_and_rejects_bad_class():
    with pytest.raises(ValueError, match="classified as 'banana'"):
        overlap_fraction([rec("m", MOVER, 0, 5)], lambda lane: "banana")

    def by_thread(ln):
        return COPY if ln.thread == 1 else COMPUTE

    trace = [rec("c", CPU, 0, 10), rec("m", MOVER, 2, 4)]
    assert overlap_fraction(trace, by_thread) == 1.0


# ---------------------------------------------------------------------------
# iteration_gap
# ---------------------------------------------------------------------------


def test_gap_between_iterations():
    trace = [
        rec("c", CPU, 0, 100, iteration=0),
        rec("c", CPU, 107, 200, iteration=1),
        rec("c", CPU, 230, 300, iteration=2),
    ]
    assert iteration_gap(trace, CLASSES.get) == [7, 30]


def test_back_to_back_iterations_have_zero_gap():
    trace = [
        rec("c", CPU, 0, 100, iteration=0),
        rec("c", CPU, 100, 180, iteration=1),
    ]
    assert iteration_gap(trace, CLASSES.get) == [0]


def test_gap_ignores_copy_and_transport_records():
    trace = [
        rec("c", CPU, 0, 100, iteration=0),
        rec("m", MOVER, 90, 140, iteration=0),  # copy spilling into the gap
        rec("w", WIRE, 100, 150, iteration=1),
        rec("c", CPU, 150, 220, iteration=1),
    ]
    assert iteration_gap(trace, CLASSES.get) == [50]


def test_gap_uses_extreme_compute_records():
    # several compute records per iteration: last end / first start win
    trace = [
        rec("c1", CPU, 0, 40, iteration=0),
        rec("c2", CPU, 10, 90, iteration=0),
        rec("c1", CPU, 95, 130, iteration=1),
        rec("c2", CPU, 97, 160, iteration=1),
    ]
    assert iteration_gap(trace, CLASSES.get) == [5]


def test_gap_requires_two_iterations():
    with pytest.raises(ValueError):
        iteration_gap([rec("c", CPU, 0, 10, iteration=0)], CLASSES.get)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_golden_single_record(tmp_path):
    path = tmp_path / "trace.json"
    export_trace([rec("fc1", CPU, 0, 1500)], path)
    assert json.loads(path.read_text()) == [
        {"name": "fc1", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0,
         "args": {"iteration": 0}}
    ]


def test_export_empty_trace(tmp_path):
    path = tmp_path / "trace.json"
    export_trace([], path)
    assert json.loads(path.read_text()) == []


def test_export_microsecond_rounding(tmp_path):
    cases = {499: 0, 500: 0, 501: 1, 1499: 1, 1500: 1, 1501: 2, 2500: 2}
    path = tmp_path / "trace.json"
    for ns, us in cases.items():
        events = export_trace([rec("op", CPU, 0, ns)], path)
        assert events[0]["dur"] == us, ns
    # ts and dur round independently
    events = export_trace([rec("op", CPU, 700, 2200)], path)
    assert events[0]["ts"] == 1 and events[0]["dur"] == 1


def test_export_assigns_pid_per_host_and_tid_per_lane(tmp_path):
    trace = [
        rec("a", WorkerLane("h1", 0, 0), 0, 1000),
        rec("b", WorkerLane("h0", 1, 2), 1000, 2000),
        rec("c", WorkerLane("h0", 0, 5), 2000, 3000),
        rec("d", WorkerLane("h0", 1, 2), 3000, 4000),
    ]
    events = export_trace(trace, tmp_path / "t.json")
    by_name = {e["name"]: e for e in events}
    assert by_name["a"]["pid"] == 1  # hosts sorted: h0 -> 0, h1 -> 1
    assert by_name["b"]["pid"] == 0
    # h0's lanes sorted by (device, thread): (0,5) -> 0, (1,2) -> 1
    assert by_name["c"]["tid"] == 0
    assert by_name["b"]["tid"] == 1
    assert by_name["d"]["tid"] == 1


def test_export_round_trip_preserves_count_and_is_sorted(tmp_path):
    trace = [rec(f"op{i}", CPU, 1000 * (10 - i), 1000 * (10 - i) + 500)
             for i in range(10)]
    path = tmp_path / "t.json"
    events = export_trace(trace, path)
    parsed = json.loads(path.read_text())
    assert parsed == events
    assert len(parsed) == 10
    ts = [e["ts"] for e in parsed]
    assert ts == sorted(ts)
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in parsed)
