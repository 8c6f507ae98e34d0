import dataclasses
import os
import random
import re
import sys
import threading
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

import biflow
from biflow import ops
from biflow.builders import (
    LayerSpec,
    NetSpec,
    ParallelPlan,
    Stage,
    SyntheticFeed,
    build_data_parallel,
    build_model_parallel_pipeline,
    build_sgd_iteration,
    feeder,
    fill_tokens,
    init_params,
)
from biflow.cli import _add_copy_latency
from biflow.costsim import CostModel, simulate
from biflow.dispatcher import (
    DispatchError,
    GraphPlan,
    RunContext,
    RunReport,
    TraceRecord,
    WorkerLane,
    lane_of,
    merged_trace,
    run,
    run_sequence,
)
from biflow.graph import BiGraph, GraphSequence, Location
from biflow.ops import KINDS, KernelError, Tensor, TensorStore
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


@pytest.mark.parametrize("cap", [0, -1])
def test_max_workers_below_one_rejected(cap):
    with pytest.raises(DispatchError, match=f"max_workers must be >= 1, got {cap}"):
        run(diamond(), fresh_store(), max_workers=cap)


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
    # the outputs bound for the failed operator were never written
    assert store.names() == ["labels", "logits"]


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


def initial_starts(g, rep):
    """Per lane, the operators that read only source tensors, in the order
    they started.  A lane takes its ready operators in FIFO order, and these
    are ready before anything completes, so the order holds for every run;
    across lanes it depends on when delays expire."""
    initial = {
        op.id for op in g.operators_in_order()
        if all(g.producer_of(tid) is None for tid in op.inputs)
    }
    starts = {}
    for r in sorted(rep.trace, key=lambda r: r.start):
        if r.op in initial:
            starts.setdefault(r.lane, []).append(r.name)
    return starts


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
        # one compiled plan, run twice: each run starts again from the
        # plan's initially ready operators and runs every operator once
        first, second = run_sequence(GraphSequence([g]), store, iterations=2)
        for rep in (first, second):
            check_trace_invariants(g, rep)
        assert initial_starts(g, first) == initial_starts(g, second)


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


def test_trace_record_is_an_immutable_named_tuple():
    lane = WorkerLane("local", 0, 1)
    by_keyword = TraceRecord(op=3, name="act", lane=lane, start=10, end=20)
    assert by_keyword == TraceRecord(3, "act", lane, 10, 20, 0)
    assert (by_keyword.op, by_keyword.name, by_keyword.lane) == (3, "act", lane)
    assert (by_keyword.start, by_keyword.end, by_keyword.iteration) == (10, 20, 0)
    assert TraceRecord(3, "act", lane, 10, 20, iteration=4).iteration == 4
    with pytest.raises(AttributeError):
        by_keyword.end = 30


def test_traces_are_sorted_by_start_then_end():
    rep = run(diamond(delay=0.01), fresh_store(), max_workers=4)
    spans = [(r.start, r.end) for r in rep.trace]
    assert spans == sorted(spans) and len(spans) == 3
    lane = WorkerLane("local", 0, 0)
    late, early = (TraceRecord(i, f"op{i}", lane, 5, end) for i, end in ((0, 9), (1, 7)))
    first = TraceRecord(2, "op2", lane, 1, 2)
    merged = merged_trace([RunReport([late, early], 9), RunReport([first], 2)])
    assert merged == [first, early, late]


MLP_NET = NetSpec(
    input_shape=(20,),
    layers=(LayerSpec("fc", 16), LayerSpec("relu"), LayerSpec("fc", 4)),
    batch=8, lr=0.05,
)
CONV_NET = NetSpec(
    input_shape=(3, 16, 16),
    layers=(LayerSpec("conv", 8, kernel=3, pad=1), LayerSpec("relu"),
            LayerSpec("conv", 8, kernel=3, pad=1), LayerSpec("relu"),
            LayerSpec("fc", 10)),
    batch=8, lr=0.05,
)
LOCAL2 = ParallelPlan(
    scheme="data", peers=(Location("local", 0), Location("local", 1)),
    server=Location("local", 0),
)
# the sequences of the benchmark's two in-process workloads
DISPATCH_WORKLOADS = {
    "mlp-single": (MLP_NET, lambda: build_sgd_iteration(MLP_NET)),
    "conv-data2-split": (
        CONV_NET, lambda: build_data_parallel(CONV_NET, LOCAL2, split_backward=True),
    ),
}


# Calls into biflow's own functions per operator run, in steady state, on
# CPython 3.11 (where each list comprehension is one call too): calls per
# iteration over operators per iteration.  A change to the per-operator
# path that adds calls fails here; one that removes calls should lower
# these numbers.
CALLS_PER_OP = {"mlp-single": 63 / 16, "conv-data2-split": 314 / 90}


def _biflow_calls(seq, store, iterations: int) -> int:
    """Calls into functions defined in the biflow package during one
    ``run_sequence`` of ``iterations``; numpy's own functions do not count."""
    package = os.path.dirname(biflow.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profile)
    try:
        run_sequence(seq, store, iterations=iterations)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", sorted(CALLS_PER_OP))
def test_dispatch_calls_per_operator_do_not_grow(name):
    """Deterministic guard on the fixed cost of each operator run: the calls
    of 4 iterations minus those of 1 (which cancels validation and set-up),
    over the operators of 3 iterations.  No time is measured."""
    net, build = DISPATCH_WORKLOADS[name]
    seq = build()
    store = TensorStore()
    init_params(net, store, 5, seq.layout)
    feeder(SyntheticFeed.for_net(net, 5, peers=len(seq.layout.data_names)),
           seq.layout)(0, store)
    run_sequence(seq, store)  # resolves names, stores every output once
    steady = _biflow_calls(seq, store, 4) - _biflow_calls(seq, store, 1)
    ops = sum(len(g.operators) for g in seq.graphs)
    assert steady / (3 * ops) <= CALLS_PER_OP[name]


# ---------------------------------------------------------------------------
# bound steps: each operator is bound on its first run, then runs its step
# ---------------------------------------------------------------------------


def trained(name, seed=5):
    """A benchmark workload's sequence, store (parameters set) and feed hook."""
    net, build = DISPATCH_WORKLOADS[name]
    seq = build()
    store = TensorStore()
    init_params(net, store, seed, seq.layout)
    feed = SyntheticFeed.for_net(net, seed, peers=len(seq.layout.data_names))
    return seq, store, feeder(feed, seq.layout)


def test_conv_attrs_are_parsed_only_when_bound(monkeypatch):
    seq, store, feed = trained("conv-data2-split")
    parsed = []
    real = ops._conv_attrs
    monkeypatch.setattr(ops, "_conv_attrs",
                        lambda attrs: parsed.append(1) or real(attrs))
    marks = []  # parses counted before each iteration, and after the last

    def before(it, store):
        marks.append(len(parsed))
        feed(it, store)

    run_sequence(seq, store, before_iteration=before, iterations=3)
    marks.append(len(parsed))
    assert marks[1] > marks[0]  # binding parses on the first iteration
    assert marks[3] - marks[1] == 0  # and the two after it parse none


PIPE_NET = NetSpec(
    input_shape=(8,),
    layers=(LayerSpec("fc", 8), LayerSpec("relu"), LayerSpec("fc", 4)),
    batch=4,
)
PIPE_PLAN = ParallelPlan(
    scheme="model", replicas=2,
    stages=(Stage((0, 2), Location("local", 0)), Stage((2, 3), Location("local", 1))),
)
READ_ONLY_SCHEMES = {
    "sgd": (MLP_NET, lambda: build_sgd_iteration(MLP_NET)),
    "data-fused": (CONV_NET, lambda: build_data_parallel(CONV_NET, LOCAL2)),
    "data-split": (
        CONV_NET, lambda: build_data_parallel(CONV_NET, LOCAL2, split_backward=True),
    ),
    "pipeline": (PIPE_NET, lambda: build_model_parallel_pipeline(PIPE_NET, PIPE_PLAN)),
}


@pytest.mark.parametrize("scheme", sorted(READ_ONLY_SCHEMES))
def test_no_hook_writes_a_stored_array_in_place(scheme, monkeypatch):
    """Every array that becomes a tensor's data (at ``set``, at ``swap`` and
    as a step's output) is made read-only, so any in-place write to a stored
    array fails the run.  Each is also C-contiguous float32, which the bound
    steps read without conversion."""
    stored = []

    def read_only(self, name, value):
        if name == "data" and value is not None:
            assert value.dtype == np.float32 and value.flags.c_contiguous
            value.flags.writeable = False
            stored.append(value)
        object.__setattr__(self, name, value)

    monkeypatch.setattr(Tensor, "__setattr__", read_only)
    net, build = READ_ONLY_SCHEMES[scheme]
    seq = build()
    store = TensorStore()
    init_params(net, store, 3, seq.layout)
    fill_tokens(store, seq)
    if seq.layout.token_names:  # the pipeline's replicas read their own inputs
        rng = np.random.default_rng(3)
        for name in seq.layout.data_names:
            shape = seq.graphs[0].tensor_named(name).shape
            store.set(name, rng.standard_normal(shape).astype(np.float32))
        feed = None
    else:
        feed = feeder(SyntheticFeed.for_net(net, 3, peers=len(seq.layout.data_names)),
                      seq.layout)
    run_sequence(seq, store, before_iteration=feed, iterations=2)
    assert len(stored) > sum(len(g.operators) for g in seq.graphs)
    assert not any(store.array(n).flags.writeable for n in store.names())


def test_non_finite_weight_fails_its_consumer_after_binding():
    seq, store, feed = trained("mlp-single")
    g = seq.graphs[0]
    consumer = next(op.name for op in g.operators_in_order()
                    if g.tensor_id("w1") in op.inputs)

    def poison(it, store):
        feed(it, store)
        if it == 1:
            w = store.array("w1").copy()
            w[0, 0] = np.nan
            store.set("w1", w)

    with pytest.raises(DispatchError, match=f"operator '{consumer}' failed: "
                       r"fc_forward: non-finite value in output") as err:
        run_sequence(seq, store, before_iteration=poison, iterations=3)
    assert isinstance(err.value.__cause__, KernelError)


def test_label_out_of_range_fails_after_binding():
    seq, store, feed = trained("mlp-single")

    def bad_label(it, store):
        feed(it, store)
        if it == 1:
            labels = store.array("labels").copy()
            labels[-1] = MLP_NET.classes
            store.set("labels", labels)

    with pytest.raises(DispatchError, match=re.escape(
            "softmax_xent: labels must be integral and in [0, 4)")):
        run_sequence(seq, store, before_iteration=bad_label, iterations=3)


def fc_graph():
    g = BiGraph()
    x, w, b = (g.add_tensor(n, s, LOC) for n, s in
               (("x", (3, 4)), ("w", (4, 2)), ("b", (2,))))
    y = g.add_tensor("y", (3, 2), LOC)
    g.add_operator("fc", "fc_forward", [x, w, b], [y], LOC)
    return g


FC_NONCONFORMING = "fc_forward: input shapes [(3, 5), (4, 2), (2,)] do not conform"


def test_inputs_breaking_the_rule_at_first_run_keep_the_kernel_message():
    g = fc_graph()
    store = TensorStore()
    for name, shape in (("x", (3, 5)), ("w", (4, 2)), ("b", (2,))):
        store.set(name, np.ones(shape, np.float32))
    with pytest.raises(KernelError) as err:
        KINDS["fc_forward"].execute(RunContext(store, g), g.operator_named("fc"))
    assert str(err.value) == FC_NONCONFORMING


def test_step_rechecks_its_input_shapes_on_every_call():
    """An input whose data changes shape after binding (which only a write
    past the store can do) fails the step with the rule's own message."""
    g = fc_graph()
    store = TensorStore()
    for name, shape in (("x", (3, 4)), ("w", (4, 2)), ("b", (2,))):
        store.set(name, np.ones(shape, np.float32))
    x = store.get("x")

    def reshape_x(it, store):
        if it == 1:
            x.data = np.ones((3, 5), np.float32)

    with pytest.raises(DispatchError, match="'fc' failed") as err:
        run_sequence(GraphSequence([g]), store, before_iteration=reshape_x,
                     iterations=2)
    assert str(err.value.__cause__) == FC_NONCONFORMING

    # shapes the rule would accept still differ from those the step bound
    store = fresh_store()
    relu_x = store.get("x")

    def shrink_x(it, store):
        if it == 1:
            relu_x.data = np.ones((2, 2), np.float32)

    with pytest.raises(DispatchError, match=re.escape(
            "relu_forward: input shapes [(2, 2)] are not [(4, 4)], as bound")):
        run_sequence(GraphSequence([relu_graph()]), store,
                     before_iteration=shrink_x, iterations=2)


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
# inline runs: no thread, whatever the delays
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


def fan_graph(width, delay=0.0):
    """``width`` independent relu ops on threads 0..width-1."""
    g = BiGraph()
    x = g.add_tensor("x", (4, 4), LOC)
    attrs = {"delay_s": delay} if delay else {}
    for k in range(width):
        out = g.add_tensor(f"fan{k}", (4, 4), LOC)
        g.add_operator(f"fan_op{k}", "relu_forward", [x], [out], LOC, thread=k,
                       attrs=dict(attrs))
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
    # the delays give every lane a worker of its own, up to the cap; each
    # delayed operator holds its worker until its deadline, on no thread
    seq = GraphSequence([diamond(delay=0.001), fan_graph(3, delay=0.001)])
    reports = run_sequence(seq, fresh_store(), max_workers=cap, iterations=5)
    assert started == []
    assert len(reports) == 10
    delayed = {"branch_a", "branch_b", "fan_op0", "fan_op1", "fan_op2"}
    for rep in reports:
        # +1 at each delayed span's start, -1 at its end; an end sorts
        # before a start at the same instant
        events = sorted(e for r in rep.trace if r.name in delayed
                        for e in ((r.start, 1), (r.end, -1)))
        assert max(accumulate(step for _, step in events)) <= most


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


# ---------------------------------------------------------------------------
# lane -> worker mapping: a worker of its own for each delayed lane
# ---------------------------------------------------------------------------


CONV_NET = NetSpec(
    input_shape=(3, 16, 16),
    layers=(
        LayerSpec("conv", 8, kernel=3, pad=1),
        LayerSpec("relu"),
        LayerSpec("conv", 8, kernel=3, pad=1),
        LayerSpec("relu"),
        LayerSpec("fc", 10),
    ),
    batch=8,
    lr=0.05,
)


def test_gil_bound_data_parallel_runs_inline(started):
    # two peers and the server in one process, split backward, no delays:
    # seven lanes, none of which blocks
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("local", 0), Location("local", 1)),
        server=Location("local", 0),
    )
    seq = build_data_parallel(CONV_NET, plan, split_backward=True)
    assert len({lane_of(op) for op in seq.graphs[0].operators_in_order()}) == 7
    assert [len(set(GraphPlan.compile(g).workers)) for g in seq.graphs] == [1, 1]
    store = TensorStore()
    init_params(CONV_NET, store, 7, seq.layout)
    feed = SyntheticFeed.for_net(CONV_NET, 7, peers=2)
    run_sequence(seq, store, before_iteration=feeder(feed, seq.layout), iterations=2)
    assert not [n for n in started if n.startswith("biflow-lane-")]


LOOPBACK2 = ParallelPlan(
    scheme="data",
    peers=(Location("proc0", 0), Location("proc1", 1)),
    server=Location("proc0", 0),
)


def test_loopback_hosts_give_each_send_recv_lane_a_worker():
    # the worker every send/recv lane gets is worker 0, the calling thread,
    # which drives the transport; no loopback host graph needs another
    from biflow.transport import partition_sequence

    parts = partition_sequence(build_data_parallel(CONV_NET, LOOPBACK2))
    checked = 0
    for part in parts.values():
        for g in part.sequence.graphs:
            compiled = GraphPlan.compile(g)
            worker = dict(zip(compiled.lanes, compiled.workers))
            net_lanes = {lane_of(op) for op in compiled.ops
                         if op.kind in ("send", "recv")}
            assert {worker[lane] for lane in net_lanes} <= {0}
            assert len(set(compiled.workers)) == 1
            checked += len(net_lanes)
    assert checked > 0


def test_calling_thread_serves_no_blocking_lane():
    # the server on device 0 and peer 0 on device 1, a delay on every
    # operator: every lane, each send/recv lane included, is a worker group
    # of its own
    from biflow.transport import partition_sequence

    plan = ParallelPlan(
        scheme="data",
        peers=(Location("proc0", 1), Location("proc1", 2)),
        server=Location("proc0", 0),
    )
    parts = partition_sequence(build_data_parallel(CONV_NET, plan))
    g = parts["proc0"].sequence.graphs[0]
    for op in g.operators.values():
        op.attrs["delay_s"] = 0.001
    compiled = GraphPlan.compile(g)
    net_lanes = {lane_of(op) for op in compiled.ops if op.kind in ("send", "recv")}
    assert net_lanes and set(compiled.lanes) - net_lanes
    worker = dict(zip(compiled.lanes, compiled.workers))
    assert len(set(worker.values())) == len(worker)


def test_delayed_op_gives_its_lane_a_worker():
    g = fan_graph(3)
    g.operator_named("fan_op1").attrs["delay_s"] = 0.001
    compiled = GraphPlan.compile(g)
    worker = dict(zip(compiled.lanes, compiled.workers))
    lanes = [WorkerLane("local", 0, k) for k in range(3)]
    assert len(set(compiled.workers)) == 2
    assert worker[lanes[0]] == worker[lanes[2]] != worker[lanes[1]]
    assert len(set(GraphPlan.compile(fan_graph(3)).workers)) == 1


def test_lane_holding_a_recv_never_gets_a_thread():
    # a delay on a recv's lane makes it a worker group of its own, like any
    # other delayed lane
    g = fan_graph(2, delay=0.001)
    out = g.add_tensor("got", (4, 4), LOC)
    g.add_operator("wait", "recv", [], [out], LOC, thread=1, attrs={"channel": 1})
    compiled = GraphPlan.compile(g)
    assert compiled.workers == (0, 1, 1)
    assert compiled.channels == (None, None, 1)


def test_calling_thread_runs_worker_zero(started, monkeypatch):
    ran_on = {}
    spec = KINDS["relu_forward"]

    def bind(ctx, op):
        step = spec.bind(ctx, op)

        def recorded():
            ran_on[op.name] = threading.current_thread().name
            step()

        return recorded

    monkeypatch.setitem(KINDS, "relu_forward", dataclasses.replace(spec, bind=bind))
    g = fan_graph(3)
    g.operator_named("fan_op1").attrs["delay_s"] = 0.001
    run(g, fresh_store())
    assert started == []
    here = threading.current_thread().name
    assert ran_on == {"fan_op0": here, "fan_op1": here, "fan_op2": here}


def run_loopback_hosts(cap=None, iterations=2):
    """Train the conv-loopback2 host partitions, each in a thread of this
    process over loopback TCP; returns the canonical params and, per host,
    the names of the threads its run started."""
    from biflow.transport import Transport, owned_sources, partition_sequence

    parts = partition_sequence(build_data_parallel(CONV_NET, LOOPBACK2))
    transports = {
        h: Transport(h, {h: ("127.0.0.1", 0)}, p.channels, timeout=10).start()
        for h, p in parts.items()
    }
    table = {h: ("127.0.0.1", t.port) for h, t in transports.items()}
    for t in transports.values():
        t.peers.update(table)
    feed = SyntheticFeed.for_net(CONV_NET, 7, peers=2)
    params, errors = {}, []
    started = {h: [] for h in parts}
    real_start = threading.Thread.start

    def start(self):
        host = threading.current_thread().name.removeprefix("host-")
        started.get(host, []).append(self.name)
        real_start(self)

    def host(h):
        seq = parts[h].sequence
        store = TensorStore()
        init_params(CONV_NET, store, 7, seq.layout)
        owned = owned_sources(seq, seq.layout.data_names)
        try:
            run_sequence(seq, store, transport=transports[h], iterations=iterations,
                         max_workers=cap,
                         before_iteration=feeder(feed, seq.layout, only=owned))
        except Exception as exc:  # noqa: BLE001 - inspected below
            errors.append(exc)
        params.update({n: store.array(n).copy()
                       for n in owned_sources(seq, seq.layout.canonical_params)})

    hosts = [threading.Thread(target=host, args=(h,), name=f"host-{h}") for h in parts]
    threading.Thread.start = start
    try:
        for t in hosts:
            t.start()
        for t in hosts:
            t.join(30)  # hang guard only
    finally:
        threading.Thread.start = real_start
        for t in transports.values():
            t.close()
    assert not any(t.is_alive() for t in hosts)
    assert errors == []
    return params, started


def test_loopback_hosts_start_one_lane_thread_fewer_than_workers():
    # a host graph compiles to the one worker of the calling thread, which
    # runs every operator and socket of the host: the run starts no thread
    from biflow.transport import partition_sequence

    _, started = run_loopback_hosts()
    parts = partition_sequence(build_data_parallel(CONV_NET, LOOPBACK2))
    for part in parts.values():
        counts = [len(set(GraphPlan.compile(g).workers)) for g in part.sequence.graphs]
        assert max(counts) == 1
    assert started == {"proc0": [], "proc1": []}


def test_loopback_hosts_finish_under_any_worker_cap():
    runs = [run_loopback_hosts(cap)[0] for cap in (None, 1, 2)]
    layout = build_data_parallel(CONV_NET, LOOPBACK2).layout
    assert set(runs[0]) == set(layout.canonical_params)
    for params in runs[1:]:
        for name in runs[0]:
            assert np.array_equal(params[name], runs[0][name]), name


def test_worker_cap_still_applies_to_blocking_lanes():
    g = fan_graph(4, delay=0.001)
    assert len(set(GraphPlan.compile(g).workers)) == 4
    capped = GraphPlan.compile(g, 2)
    assert len(set(capped.workers)) == 2
    assert list(capped.workers) == [0, 1, 0, 1]


def test_delayed_copies_match_serial_bitwise():
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
    _add_copy_latency(seq, 0.0005)
    assert len(set(GraphPlan.compile(seq.graphs[0]).workers)) > 1
    params = []
    for cap in (None, 1):
        store = TensorStore()
        init_params(net, store, 5, seq.layout)
        feed = SyntheticFeed.for_net(net, 5, peers=2)
        run_sequence(seq, store, max_workers=cap,
                     before_iteration=feeder(feed, seq.layout), iterations=3)
        params.append({n: store.array(n).copy() for n in seq.layout.canonical_params})
    for name in params[0]:
        assert np.array_equal(params[0][name], params[1][name]), name


def one_conv_graph():
    """y = conv2d_forward(x, w, b) at pad 1: x (1,1,8,8), w (1,1,3,3)."""
    g = BiGraph()
    ids = [g.add_tensor(n, s, LOC) for n, s in
           (("x", (1, 1, 8, 8)), ("w", (1, 1, 3, 3)), ("b", (1,)), ("y", (1, 1, 8, 8)))]
    g.add_operator("conv", "conv2d_forward", ids[:3], ids[3:], LOC, attrs={"pad": 1})
    return g


@pytest.mark.parametrize("attr, value, cause", [
    ("stride", 2, "do not conform"),  # 8 + 2 - 3 does not tile by 2
    ("pad", 0, r"\(1, 1, 6, 6\)"),  # conforms, but y would be 6x6, not 8x8
])
def test_an_attrs_edit_that_breaks_a_shape_rule_is_reported_and_fails_the_run(
        attr, value, cause):
    g = one_conv_graph()
    g.operator_named("conv").attrs[attr] = value
    report = g.validate()
    assert not report.ok
    (violation,) = report.violations
    assert re.search(f"'conv'.*{cause}", violation)
    store = TensorStore()
    for name in ("x", "w", "b"):
        store.set(name, np.zeros(g.tensor_named(name).shape, np.float32))
    with pytest.raises(DispatchError, match=f"operator 'conv'.*{cause}"):
        run(g, store)
    assert not store.has("y")


def test_runs_and_simulations_do_not_call_validate(monkeypatch):
    def refuse(self):
        raise AssertionError("validate() called")

    monkeypatch.setattr(BiGraph, "validate", refuse)
    seq, store, feed = trained("conv-data2-split")
    run_sequence(seq, store, before_iteration=feed, iterations=2)
    costs = CostModel(kind_costs={kind: 1e-4 for kind in KINDS})
    assert simulate(seq, costs, iterations=2).makespan > 0
