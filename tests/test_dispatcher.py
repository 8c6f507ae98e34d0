import random
import threading

import numpy as np
import pytest

from biflow.builders import (
    LayerSpec,
    NetSpec,
    ParallelPlan,
    SyntheticFeed,
    build_data_parallel,
    feeder,
    init_params,
)
from biflow.cli import _add_copy_latency
from biflow.dispatcher import (
    DispatchError,
    GraphPlan,
    ReadinessState,
    WorkerLane,
    lane_of,
    merged_trace,
    run,
    run_sequence,
)
from biflow.graph import BiGraph, GraphSequence, Location
from biflow.ops import TensorStore
from oracles import topological_orders


LOC = Location("local", 0)


def f32(a):
    return np.asarray(a, dtype=np.float32)


def diamond(delay=0.0):
    """x feeds two parallel branches that join:  a = relu(x) on thread 0,
    b = relu(x) on thread 1, y = relu_backward(a, b) on thread 0."""
    g = BiGraph()
    x = g.add_tensor("x", (4, 4), LOC)
    a = g.add_tensor("a", (4, 4), LOC)
    b = g.add_tensor("b", (4, 4), LOC)
    y = g.add_tensor("y", (4, 4), LOC)
    attrs = {"delay_s": delay} if delay else {}
    g.add_operator("branch_a", "relu_forward", [x], [a], LOC, thread=0, attrs=dict(attrs))
    g.add_operator("branch_b", "relu_forward", [x], [b], LOC, thread=1, attrs=dict(attrs))
    g.add_operator("join", "relu_backward", [a, b], [y], LOC, thread=0)
    return g


def fresh_store():
    store = TensorStore()
    store.set("x", f32(np.random.default_rng(0).standard_normal((4, 4))))
    return store


def trace_order(report):
    return [r.name for r in sorted(report.trace, key=lambda r: (r.start, r.end))]


# ---------------------------------------------------------------------------
# basic execution semantics
# ---------------------------------------------------------------------------


def test_each_operator_fires_exactly_once():
    rep = run(diamond(), fresh_store())
    names = [r.name for r in rep.trace]
    assert sorted(names) == ["branch_a", "branch_b", "join"]


def test_execution_order_is_topological():
    # oracle: enumerate every topological order of the diamond and check
    # membership, instead of assuming one particular schedule
    deps = {0: set(), 1: set(), 2: {0, 1}}  # branch_a, branch_b, join
    legal = {
        tuple(["branch_a", "branch_b", "join"][i] for i in order)
        for order in topological_orders(3, deps)
    }
    for _ in range(5):
        rep = run(diamond(), fresh_store())
        assert tuple(trace_order(rep)) in legal


def test_join_waits_for_all_inputs():
    rep = run(diamond(delay=0.01), fresh_store())
    by_name = {r.name: r for r in rep.trace}
    join = by_name["join"]
    assert join.start >= by_name["branch_a"].end
    assert join.start >= by_name["branch_b"].end


def test_branches_overlap_with_enough_workers():
    rep = run(diamond(delay=0.05), fresh_store(), max_workers=4)
    by_name = {r.name: r for r in rep.trace}
    a, b = by_name["branch_a"], by_name["branch_b"]
    assert a.start < b.end and b.start < a.end  # intervals intersect


def test_serial_mode_never_overlaps():
    rep = run(diamond(delay=0.01), fresh_store(), max_workers=1)
    recs = sorted(rep.trace, key=lambda r: r.start)
    for prev, nxt in zip(recs, recs[1:]):
        assert prev.end <= nxt.start


def test_lane_cap_env_variable(monkeypatch):
    monkeypatch.setenv("BIFLOW_LANES", "1")
    rep = run(diamond(delay=0.01), fresh_store())
    recs = sorted(rep.trace, key=lambda r: r.start)
    for prev, nxt in zip(recs, recs[1:]):
        assert prev.end <= nxt.start
    monkeypatch.setenv("BIFLOW_LANES", "0")
    with pytest.raises(DispatchError):
        run(diamond(), fresh_store())


def test_same_lane_runs_in_insertion_order():
    # three independent sources on one lane become ready together, so the
    # tie breaks by insertion order
    g = BiGraph()
    x = g.add_tensor("x", (2, 2), LOC)
    outs = [g.add_tensor(f"y{i}", (2, 2), LOC) for i in range(3)]
    for i in range(3):
        g.add_operator(f"op{i}", "relu_forward", [x], [outs[i]], LOC, thread=0)
    store = TensorStore()
    store.set("x", f32([[1.0, -1.0], [0.5, 2.0]]))
    rep = run(g, store, max_workers=8)
    assert trace_order(rep) == ["op0", "op1", "op2"]


def test_timestamps_are_ns_since_run_start():
    rep = run(diamond(delay=0.02), fresh_store())
    assert all(r.start >= 0 for r in rep.trace)
    assert all(r.end > r.start for r in rep.trace)
    assert rep.elapsed >= max(r.end for r in rep.trace)
    # the injected 20 ms delay must show up in the op duration
    by_name = {r.name: r for r in rep.trace}
    assert by_name["branch_a"].end - by_name["branch_a"].start >= 20_000_000


def test_store_holds_results_after_run():
    store = fresh_store()
    x = store.array("x").copy()
    run(diamond(), store)
    assert np.array_equal(store.array("a"), np.maximum(x, 0))
    assert np.array_equal(store.array("y"), np.where(np.maximum(x, 0) > 0, np.maximum(x, 0), 0))


def test_empty_graph_returns_empty_trace():
    g = BiGraph()
    g.add_tensor("lonely", (1,), LOC)
    store = TensorStore()
    store.set("lonely", f32([3.0]))
    rep = run(g, store)
    assert rep.trace == [] and rep.elapsed >= 0


# ---------------------------------------------------------------------------
# input checking and failure handling
# ---------------------------------------------------------------------------


def test_missing_source_tensor_rejected():
    with pytest.raises(DispatchError):
        run(diamond(), TensorStore())


def test_source_shape_mismatch_rejected():
    store = TensorStore()
    store.set("x", f32([[1.0, 2.0]]))  # graph expects (4, 4)
    with pytest.raises(DispatchError):
        run(diamond(), store)


def test_kernel_failure_names_operator():
    g = BiGraph()
    logits = g.add_tensor("logits", (2, 3), LOC)
    labels = g.add_tensor("labels", (2,), LOC)
    loss = g.add_tensor("loss", (1,), LOC)
    dl = g.add_tensor("dlogits", (2, 3), LOC)
    g.add_operator("xent", "softmax_xent", [logits, labels], [loss, dl], LOC)
    store = TensorStore()
    store.set("logits", np.zeros((2, 3), dtype=np.float32))
    store.set("labels", f32([0.0, 9.0]))  # out of range at run time
    with pytest.raises(DispatchError, match="xent"):
        run(g, store)


def test_first_error_aborts_queued_work():
    # a failing op plus a long tail of queued ops: the tail is discarded
    g = BiGraph()
    logits = g.add_tensor("logits", (2, 3), LOC)
    labels = g.add_tensor("labels", (2,), LOC)
    loss = g.add_tensor("loss", (1,), LOC)
    dl = g.add_tensor("dlogits", (2, 3), LOC)
    g.add_operator("bad", "softmax_xent", [logits, labels], [loss, dl], LOC, thread=0)
    prev = dl
    for i in range(6):
        nxt = g.add_tensor(f"t{i}", (2, 3), LOC)
        g.add_operator(f"tail{i}", "relu_forward", [prev], [nxt], LOC, thread=0)
        prev = nxt
    store = TensorStore()
    store.set("logits", np.zeros((2, 3), dtype=np.float32))
    store.set("labels", f32([0.0, 9.0]))
    with pytest.raises(DispatchError, match="bad"):
        run(g, store)


# ---------------------------------------------------------------------------
# randomized structural properties (seeded)
# ---------------------------------------------------------------------------


def random_dag(rng):
    g = BiGraph()
    shape = (4, 4)
    avail = [g.add_tensor(f"src{i}", shape, LOC) for i in range(2)]
    names = {}
    for i in range(rng.randrange(4, 9)):
        thread = rng.randrange(3)
        delay = rng.choice([0.0, 0.0, 0.001, 0.002])
        attrs = {"delay_s": delay} if delay else {}
        if rng.random() < 0.5 and len(avail) >= 2:
            ins = rng.sample(avail, 2)
            kind = "relu_backward"
        else:
            ins = [rng.choice(avail)]
            kind = "relu_forward"
        out = g.add_tensor(f"t{i}", shape, LOC)
        oid = g.add_operator(f"op{i}", kind, ins, [out], LOC, thread=thread, attrs=attrs)
        names[oid] = f"op{i}"
        avail.append(out)
    return g


def check_trace_invariants(g, rep):
    # exactly once
    assert sorted(r.name for r in rep.trace) == sorted(
        op.name for op in g.operators_in_order()
    )
    by_op = {r.op: r for r in rep.trace}
    # causality: no op starts before every producer of its inputs finished
    for op in g.operators_in_order():
        rec = by_op[op.id]
        for tid in op.inputs:
            pid = g.producer_of(tid)
            if pid is not None:
                assert rec.start >= by_op[pid].end
    # lane exclusion: per-lane intervals never overlap
    lanes = {}
    for r in rep.trace:
        lanes.setdefault(r.lane, []).append(r)
    for recs in lanes.values():
        recs.sort(key=lambda r: r.start)
        for prev, nxt in zip(recs, recs[1:]):
            assert prev.end <= nxt.start


def test_random_dags_hold_invariants():
    rng = random.Random(1234)
    for trial in range(12):
        g = random_dag(rng)
        store = TensorStore()
        arr = np.random.default_rng(trial).standard_normal((4, 4))
        store.set("src0", f32(arr))
        store.set("src1", f32(-arr))
        for workers in (1, 4):
            rep = run(g, store, max_workers=workers)
            check_trace_invariants(g, rep)


# ---------------------------------------------------------------------------
# readiness state reuse
# ---------------------------------------------------------------------------


def test_readiness_state_reset_allows_reuse():
    plan = GraphPlan.compile(diamond())
    state = ReadinessState(plan)
    first = state.arm()
    assert [plan.ops[i].name for i in first] == ["branch_a", "branch_b"]
    for index in list(first):
        state.complete(index)
    (join,) = [i for i, op in enumerate(plan.ops) if op.name == "join"]
    state.complete(join)
    assert state.in_flight == 0 and state.completed_sinks == plan.sink_count
    state.reset()
    assert state.arm() == first


def test_readiness_state_double_arm_rejected():
    state = ReadinessState(GraphPlan.compile(diamond()))
    state.arm()
    with pytest.raises(DispatchError):
        state.arm()


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def swap_graph():
    g = BiGraph()
    x = g.add_tensor("x", (4, 4), LOC)
    y = g.add_tensor("y", (4, 4), LOC)
    g.add_operator("exchange", "swap", [], [x, y], LOC)
    return g


def relu_graph():
    g = BiGraph()
    x = g.add_tensor("x", (4, 4), LOC)
    y = g.add_tensor("y", (4, 4), LOC)
    g.add_operator("act", "relu_forward", [x], [y], LOC)
    return g


def test_sequence_tags_iterations_and_graphs():
    seq = GraphSequence([relu_graph(), swap_graph()])
    store = fresh_store()
    store.set("y", np.zeros((4, 4), dtype=np.float32))
    reports = run_sequence(seq, store, iterations=3)
    assert [(r.iteration, r.graph_index) for r in reports] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
    ]
    for rep in reports:
        for rec in rep.trace:
            assert rec.iteration == rep.iteration


def test_sequence_completion_is_the_sync_point():
    # every op of run k+1 starts at or after the last op of run k ended
    seq = GraphSequence([relu_graph(), swap_graph()])
    store = fresh_store()
    store.set("y", np.zeros((4, 4), dtype=np.float32))
    reports = run_sequence(seq, store, iterations=2)
    for prev, nxt in zip(reports, reports[1:]):
        if not prev.trace or not nxt.trace:
            continue
        assert min(r.start for r in nxt.trace) >= max(r.end for r in prev.trace)


def test_sequence_swap_exchanges_buffers():
    seq = GraphSequence([relu_graph(), swap_graph()])
    store = TensorStore()
    store.set("x", f32(np.full((4, 4), -1.0)))
    store.set("y", f32(np.full((4, 4), 7.0)))
    run_sequence(seq, store)
    # relu wrote zeros into y, then swap moved them into x
    assert np.array_equal(store.array("x"), np.zeros((4, 4), dtype=np.float32))
    assert np.array_equal(store.array("y"), np.full((4, 4), -1.0, dtype=np.float32))


def test_sequence_hooks_fire_in_order():
    seq = GraphSequence([relu_graph(), swap_graph()])
    store = fresh_store()
    store.set("y", np.zeros((4, 4), dtype=np.float32))
    events = []
    run_sequence(
        seq,
        store,
        iterations=2,
        before_iteration=lambda it, st: events.append(("before", it)),
        after_graph=lambda rep, st: events.append(("after", rep.iteration, rep.graph_index)),
    )
    assert events == [
        ("before", 0), ("after", 0, 0), ("after", 0, 1),
        ("before", 1), ("after", 1, 0), ("after", 1, 1),
    ]


def test_merged_trace_is_start_ordered():
    seq = GraphSequence([relu_graph(), swap_graph()])
    store = fresh_store()
    store.set("y", np.zeros((4, 4), dtype=np.float32))
    merged = merged_trace(run_sequence(seq, store, iterations=2))
    starts = [r.start for r in merged]
    assert starts == sorted(starts)
    assert len(merged) == 4


@pytest.mark.parametrize("count", [0, -2])
def test_sequence_rejects_iterations_below_one(count):
    seq = GraphSequence([relu_graph(), swap_graph()])
    with pytest.raises(DispatchError, match=f"iterations must be >= 1, got {count}"):
        run_sequence(seq, fresh_store(), iterations=count)


# ---------------------------------------------------------------------------
# copy latency across locations
# ---------------------------------------------------------------------------


def test_copy_latency_applies_only_across_locations():
    g = BiGraph()
    here = Location("local", 0)
    there = Location("local", 1)
    a = g.add_tensor("a", (2, 2), here)
    b = g.add_tensor("b", (2, 2), there)
    c = g.add_tensor("c", (2, 2), there)
    g.add_operator("move", "copy", [a], [b], here)
    g.add_operator("stay", "copy", [b], [c], there)
    store = TensorStore()
    store.set("a", f32([[1.0, 2.0], [3.0, 4.0]]))
    _add_copy_latency(GraphSequence([g]), 0.02)
    rep = run(g, store)
    by_name = {r.name: r for r in rep.trace}
    assert by_name["move"].end - by_name["move"].start >= 20_000_000
    assert by_name["stay"].end - by_name["stay"].start < 20_000_000
    assert np.array_equal(store.array("c"), store.array("a"))


def test_lane_of_uses_host_device_thread():
    g = diamond()
    ops = {op.name: op for op in g.operators_in_order()}
    assert lane_of(ops["branch_a"]) == WorkerLane("local", 0, 0)
    assert lane_of(ops["branch_b"]) == WorkerLane("local", 0, 1)


# ---------------------------------------------------------------------------
# inline runs and the lane pool
# ---------------------------------------------------------------------------


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []
    real_start = threading.Thread.start

    def start(self):
        names.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


def lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("biflow-lane-")]


def fan_graph(width):
    """``width`` independent relu ops on threads 0..width-1."""
    g = BiGraph()
    x = g.add_tensor("x", (4, 4), LOC)
    for k in range(width):
        out = g.add_tensor(f"fan{k}", (4, 4), LOC)
        g.add_operator(f"fan_op{k}", "relu_forward", [x], [out], LOC, thread=k)
    return g


def test_single_lane_runs_start_no_thread(started):
    seq = GraphSequence([relu_graph(), swap_graph()])
    store = fresh_store()
    store.set("y", np.zeros((4, 4), dtype=np.float32))
    run_sequence(seq, store, iterations=3)
    rep = run(diamond(), fresh_store(), max_workers=1)
    assert started == []
    # FIFO by readiness, insertion order breaking the tie, as on one worker
    assert trace_order(rep) == ["branch_a", "branch_b", "join"]


@pytest.mark.parametrize("cap, most", [(None, 3), (2, 2)])
def test_sequence_shares_one_lane_pool(started, cap, most):
    seq = GraphSequence([diamond(), fan_graph(3)])
    reports = run_sequence(seq, fresh_store(), max_workers=cap, iterations=5)
    lanes = [n for n in started if n.startswith("biflow-lane-")]
    assert 0 < len(lanes) <= most
    assert len(reports) == 10
    assert lane_threads() == []


def test_failing_kernel_leaves_no_lane_thread():
    g = BiGraph()
    logits = g.add_tensor("logits", (2, 3), LOC)
    labels = g.add_tensor("labels", (2,), LOC)
    loss = g.add_tensor("loss", (1,), LOC)
    dl = g.add_tensor("dlogits", (2, 3), LOC)
    other = g.add_tensor("other", (2, 3), LOC)
    g.add_operator("bad", "softmax_xent", [logits, labels], [loss, dl], LOC, thread=0)
    g.add_operator("fine", "relu_forward", [logits], [other], LOC, thread=1)
    store = TensorStore()
    store.set("logits", np.zeros((2, 3), dtype=np.float32))
    store.set("labels", f32([0.0, 9.0]))
    with pytest.raises(DispatchError, match="bad"):
        run_sequence(GraphSequence([g]), store, iterations=3)
    assert lane_threads() == []


def test_inline_failure_is_the_same_dispatch_error():
    g = BiGraph()
    x = g.add_tensor("x", (4, 4), LOC)
    y = g.add_tensor("y", (4, 4), LOC)
    g.add_operator("mystery", "no_such_kind", [x], [y], LOC)
    with pytest.raises(DispatchError, match="operator 'mystery' failed: .*unknown"):
        run(g, fresh_store())


def test_data_parallel_serial_matches_pooled_bitwise():
    net = NetSpec(
        input_shape=(12,),
        layers=(LayerSpec("fc", 10), LayerSpec("relu"), LayerSpec("fc", 3)),
        batch=4,
        lr=0.05,
    )
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("local", 0), Location("local", 1)),
        server=Location("local", 2),
    )
    seq = build_data_parallel(net, plan, split_backward=True)
    params = []
    for cap in (None, 1):
        store = TensorStore()
        init_params(net, store, 5, seq.layout)
        feed = SyntheticFeed.for_net(net, 5, peers=2)
        run_sequence(seq, store, max_workers=cap,
                     before_iteration=feeder(feed, seq.layout), iterations=6)
        params.append({n: store.array(n).copy() for n in seq.layout.canonical_params})
    assert params[0].keys() == params[1].keys()
    for name in params[0]:
        assert np.array_equal(params[0][name], params[1][name]), name
