import math
import random
import types

import numpy as np
import pytest

from biflow import dispatcher
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
from biflow.costsim import (
    CostModel,
    FitResult,
    SimError,
    fit_two_point,
    simulate,
    throughput_model,
)
from biflow.dispatcher import run, run_sequence
from biflow.graph import BiGraph, GraphSequence, Location
from biflow.ops import KINDS, TensorStore
from biflow.profiler import iteration_gap, overlap_fraction
from oracles import critical_path, min_makespan_bruteforce

LOC = Location("local", 0)

# published scaling measurements the model is fitted against
BATCH_TABLE = [
    (128, 1383.7),
    (64, 1299.1),
    (56, 1292.3),
    (48, 1279.7),
    (40, 1230.2),
    (32, 1099.8),
]


def task_graph(ops, shape=(1,)):
    """Build a graph of opaque 'work' ops.

    ops: list of (name, cost_s, input names, thread).  Each op produces one
    tensor named after itself; inputs name other ops' outputs or sources.
    """
    g = BiGraph()
    tensors = {}

    def tensor_for(name):
        if name not in tensors:
            tensors[name] = g.add_tensor(name, shape, LOC)
        return tensors[name]

    for name, cost, inputs, thread in ops:
        ins = [tensor_for(i) for i in inputs]
        out = tensor_for(name)
        g.add_operator(
            "run_" + name, "work", ins, [out], LOC,
            thread=thread, attrs={"delay_s": cost},
        )
    return g


def by_name(report):
    return {r.name: r for r in report.trace}


# ---------------------------------------------------------------------------
# event-loop semantics
# ---------------------------------------------------------------------------


def test_chain_is_serial_sum():
    g = task_graph([
        ("a", 1.0, ["x"], 0),
        ("b", 2.0, ["a"], 0),
        ("c", 3.0, ["b"], 0),
    ])
    rep = simulate(g, CostModel())
    assert rep.makespan == 6.0
    recs = by_name(rep)
    assert recs["run_a"].start == 0
    assert recs["run_b"].start == 1_000_000_000
    assert recs["run_c"].start == 3_000_000_000


def test_constant_kind_cost():
    g = task_graph([
        ("a", None, ["x"], 0),
        ("b", None, ["a"], 0),
        ("c", None, ["b"], 0),
    ])
    # strip the delay attrs so the kind cost is the only source
    for op in g.operators_in_order():
        op.attrs.pop("delay_s")
    rep = simulate(g, CostModel(kind_costs={"work": 2.0}))
    assert rep.makespan == 6.0


def test_diamond_critical_path():
    g = task_graph([
        ("a", 1.0, ["x"], 0),
        ("b", 5.0, ["a"], 0),
        ("c", 5.0, ["a"], 1),
        ("d", 2.0, ["b", "c"], 0),
    ])
    rep = simulate(g, CostModel())
    assert rep.makespan == 8.0  # 1 + 5 (parallel branches) + 2


def test_same_lane_branches_serialize():
    g = task_graph([
        ("a", 1.0, ["x"], 0),
        ("b", 5.0, ["a"], 0),
        ("c", 5.0, ["a"], 0),  # same lane as b
        ("d", 2.0, ["b", "c"], 0),
    ])
    rep = simulate(g, CostModel())
    assert rep.makespan == 13.0


def pipeline_graph(stages=3, replicas=3, cost=1.0):
    """(replica, stage) grid: each op waits on its own previous stage and on
    the previous replica's same stage; one lane per stage."""
    ops = []
    for r in range(replicas):
        for s in range(stages):
            deps = []
            if s > 0:
                deps.append(f"r{r}s{s - 1}")
            if r > 0:
                deps.append(f"r{r - 1}s{s}")
            if not deps:
                deps = ["feed"]
            ops.append((f"r{r}s{s}", cost, deps, s))
    return task_graph(ops)


def test_pipeline_makespan_matches_formula_and_bruteforce():
    stages, replicas, t = 3, 3, 1.0
    rep = simulate(pipeline_graph(stages, replicas, t), CostModel())
    assert rep.makespan == (stages + replicas - 1) * t

    # oracle: optimum over all per-lane orders of the same instance
    ops = []
    for r in range(replicas):
        for s in range(stages):
            deps = set()
            if s > 0:
                deps.add((r, s - 1))
            if r > 0:
                deps.add((r - 1, s))
            ops.append(((r, s), s, t, deps))
    assert min_makespan_bruteforce(ops) == (stages + replicas - 1) * t


def test_random_dags_respect_bounds():
    rng = random.Random(99)
    for trial in range(15):
        ops = []
        names = ["x"]
        for i in range(rng.randrange(3, 10)):
            n_in = min(len(names), rng.choice([1, 1, 2]))
            ins = rng.sample(names, n_in)
            cost = rng.choice([0.5, 1.0, 2.0, 3.0])
            ops.append((f"n{i}", cost, ins, rng.randrange(3)))
            names.append(f"n{i}")
        rep = simulate(task_graph(ops), CostModel())

        dep_oracle = [
            (name, cost, {i for i in ins if i != "x"})
            for name, cost, ins, _t in ops
        ]
        lower = critical_path(dep_oracle)
        upper = sum(cost for _, cost, _, _ in ops)
        assert lower - 1e-9 <= rep.makespan <= upper + 1e-9


def test_single_lane_graph_sums_exactly():
    rng = random.Random(7)
    ops = []
    prev = "x"
    for i in range(8):
        ops.append((f"n{i}", rng.uniform(0.1, 2.0), [prev], 0))
        prev = f"n{i}"
    rep = simulate(task_graph(ops), CostModel())
    total = 0.0
    for _, cost, _, _ in ops:
        total += cost
    assert rep.makespan == total  # bitwise: same left-to-right fold


def test_single_lane_tree_still_sums():
    # non-chain single-lane graph: execution order may differ from insertion,
    # so compare with a tolerance instead of bitwise
    rng = random.Random(8)
    ops = []
    names = ["x"]
    for i in range(8):
        ops.append((f"n{i}", rng.uniform(0.1, 2.0), [rng.choice(names)], 0))
        names.append(f"n{i}")
    rep = simulate(task_graph(ops), CostModel())
    assert rep.makespan == pytest.approx(
        sum(cost for _, cost, _, _ in ops), rel=1e-12
    )


def test_simulation_is_deterministic():
    g = pipeline_graph(4, 3, 0.7)
    a = simulate(g, CostModel())
    b = simulate(g, CostModel())
    assert a.makespan == b.makespan
    assert a.trace == b.trace


def test_sequence_iterations_and_sync_floor():
    g = task_graph([
        ("a", 1.0, ["x"], 0),
        ("b", 2.0, ["x"], 1),
    ])
    swap_like = task_graph([("s", 0.5, ["x"], 0)])
    seq = GraphSequence([g, swap_like])
    rep = simulate(seq, CostModel(), iterations=2)
    assert rep.makespan == 5.0  # (max(1,2) + 0.5) * 2
    last_end = 0
    for rec in rep.trace:
        pass
    # graph boundaries are sync points: group records by (iteration, graph)
    groups = {}
    for rec in rep.trace:
        groups.setdefault((rec.iteration, rec.name.startswith("run_s")), []).append(rec)
    ends = {}
    for key, recs in groups.items():
        ends[key] = max(r.end for r in recs)
    assert min(r.start for r in groups[(0, True)]) >= ends[(0, False)]
    assert min(r.start for r in groups[(1, False)]) >= ends[(0, True)]


def tie_graph():
    """p (lane 1) and q (lane 2) take 20 ms each; then cq and cp, inserted in
    that order, share lane 3.  Each is a relu with an injected delay."""
    g = BiGraph()
    t = {n: g.add_tensor(n, (2,), LOC) for n in ("x", "p", "q", "cq", "cp")}
    for name, src, thread, delay in (
        ("p", "x", 1, 0.02), ("q", "x", 2, 0.02), ("cq", "q", 3, 0.001),
        ("cp", "p", 3, 0.001),
    ):
        g.add_operator("run_" + name, "relu_forward", [t[src]], [t[name]], LOC,
                       thread=thread, attrs={"delay_s": delay})
    return g


def lane3_order(trace):
    return [r.name for r in trace if r.lane.thread == 3]


def test_tie_rule_is_shared_by_run_and_simulate():
    """Operators readied at one instant go in the order of the completions
    that readied them: p completes before q (it took its deadline no later,
    and equal deadlines go by insertion order), so cp runs before cq."""
    g = tie_graph()
    store = TensorStore()
    store.set("x", np.array([1.0, -1.0], dtype=np.float32))
    assert lane3_order(run(g, store).trace) == ["run_cp", "run_cq"]
    assert lane3_order(simulate(g, CostModel()).trace) == ["run_cp", "run_cq"]


ORDER_NET = NetSpec(
    input_shape=(8,),
    layers=(LayerSpec("fc", 8), LayerSpec("relu"), LayerSpec("fc", 8),
            LayerSpec("fc", 4)),
    batch=4,
)
ORDER_DATA = ParallelPlan(
    scheme="data",
    peers=(Location("local", 0), Location("local", 1)),
    server=Location("local", 2),
)
ORDER_PIPELINE = ParallelPlan(
    scheme="model",
    replicas=3,
    stages=(
        Stage((0, 2), Location("local", 0)),
        Stage((2, 3), Location("local", 1)),
        Stage((3, 4), Location("local", 2)),
    ),
)
ORDER_SCHEMES = {
    "sgd": lambda: build_sgd_iteration(ORDER_NET),
    "data-split": lambda: build_data_parallel(ORDER_NET, ORDER_DATA, split_backward=True),
    "data-fused": lambda: build_data_parallel(ORDER_NET, ORDER_DATA, split_backward=False),
    "pipeline": lambda: build_model_parallel_pipeline(ORDER_NET, ORDER_PIPELINE),
}


@pytest.mark.parametrize("scheme", sorted(ORDER_SCHEMES))
def test_zero_costs_simulate_the_real_operator_order(scheme):
    """With every kind costing 0 nothing waits on a clock, so the simulator
    and a real run take the same path through the shared run loop: they
    run the same operators in the same order, iteration after iteration."""
    seq = ORDER_SCHEMES[scheme]()
    store = TensorStore()
    init_params(ORDER_NET, store, 3, seq.layout)
    fill_tokens(store, seq)
    if seq.layout.token_names:  # the pipeline's replicas read their own inputs
        rng = np.random.default_rng(3)
        for name in seq.layout.data_names:
            shape = seq.graphs[0].tensor_named(name).shape
            store.set(name, rng.standard_normal(shape).astype(np.float32))
    else:
        peers = len(seq.layout.data_names)
        feeder(SyntheticFeed.for_net(ORDER_NET, 3, peers=peers), seq.layout)(0, store)
    real = [(r.iteration, r.name)
            for rep in run_sequence(seq, store, iterations=2) for r in rep.trace]
    costs = CostModel(kind_costs=dict.fromkeys(KINDS, 0.0))
    simulated = [(r.iteration, r.name) for r in simulate(seq, costs, 2).trace]
    assert simulated == real
    assert {it for it, _ in real} == {0, 1}


def test_criterion_5_schedule_is_exact_in_virtual_time(monkeypatch):
    """Criterion 5's graph and injected costs, simulated: the iteration gap
    is exactly the 50 ms copy, and no wall clock is read."""
    net = NetSpec(
        input_shape=(8,),
        layers=(LayerSpec("fc", 8), LayerSpec("fc", 8),
                LayerSpec("fc", 8), LayerSpec("fc", 4)),
        batch=4,
    )
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("local", 0), Location("local", 1)),
        server=Location("local", 2),
    )
    seq = build_data_parallel(net, plan, split_backward=True)
    for op in seq.graphs[0].operators.values():
        if op.name.startswith("bwd_"):
            op.attrs["delay_s"] = 0.060
        elif op.name.startswith("up_"):
            op.attrs["delay_s"] = 0.050
    kinds = {op.kind for g in seq.graphs for op in g.operators.values()}
    monkeypatch.setattr(dispatcher, "time", types.SimpleNamespace())  # no clock
    rep = simulate(seq, CostModel(kind_costs=dict.fromkeys(kinds, 0.0)), iterations=3)
    classes = seq.layout.lane_class
    assert iteration_gap(rep.trace, classes) == [50_000_000, 50_000_000]
    assert overlap_fraction(rep.trace, classes) >= 0.8


def test_missing_cost_entry_raises():
    g = task_graph([("a", None, ["x"], 0)])
    for op in g.operators_in_order():
        op.attrs.pop("delay_s")
    with pytest.raises(SimError, match="work"):
        simulate(g, CostModel())


def test_copy_costs_follow_bandwidth_and_latency():
    g = BiGraph()
    src = Location("local", 0)
    dst = Location("local", 1)
    a = g.add_tensor("a", (1000,), src)
    b = g.add_tensor("b", (1000,), dst)
    g.add_operator("move", "copy", [a], [b], src)
    rep = simulate(g, CostModel(bandwidth=8000.0, latency=0.25))
    # 4000 bytes / 8000 B/s + 0.25 s
    assert rep.makespan == pytest.approx(0.75)


def test_invalid_cost_model_rejected():
    with pytest.raises(SimError):
        CostModel(bandwidth=0.0)
    with pytest.raises(SimError):
        CostModel(latency=-1.0)
    g = task_graph([("a", -0.5, ["x"], 0)])
    with pytest.raises(SimError):
        simulate(g, CostModel())


@pytest.mark.parametrize("count", [0, -2])
def test_simulate_rejects_iterations_below_one(count):
    g = task_graph([("a", 1.0, ["x"], 0)])
    with pytest.raises(SimError, match=f"iterations must be >= 1, got {count}"):
        simulate(g, CostModel(), iterations=count)


# ---------------------------------------------------------------------------
# analytic throughput model
# ---------------------------------------------------------------------------


def test_zero_overhead_scales_exactly_linearly():
    a = 0.008
    for n in (1, 2, 3, 6, 9, 12):
        ratio = throughput_model(n, 128, a, 0.0) / throughput_model(1, 128, a, 0.0)
        assert ratio == n


def test_throughput_model_preconditions():
    with pytest.raises(SimError):
        throughput_model(0, 128, 0.01, 0.1)
    with pytest.raises(SimError):
        throughput_model(1, 128, 0.0, 0.1)
    with pytest.raises(SimError):
        throughput_model(1, 128, 0.01, -0.1)


def test_fit_recovers_published_constants():
    fit = fit_two_point([(128, 1383.7), (32, 1099.8)], peers=12)
    assert fit.a == pytest.approx(0.0079262, abs=1e-6)
    assert fit.c == pytest.approx(0.0955168, abs=1e-6)
    assert fit.residuals == {}


def test_fitted_model_predicts_interior_batch():
    fit = fit_two_point([(128, 1383.7), (32, 1099.8)], peers=12)
    predicted = throughput_model(12, 64, fit.a, fit.c)
    assert predicted == pytest.approx(1274.07, abs=0.5)
    # about 1.9% under the measured 1299.1
    assert (predicted - 1299.1) / 1299.1 == pytest.approx(-0.0193, abs=0.002)


def test_full_table_residuals_stay_small():
    fit = fit_two_point(BATCH_TABLE, peers=12)
    assert set(fit.residuals) == {64, 56, 48, 40}
    for batch, resid in fit.residuals.items():
        assert abs(resid) < 0.055, (batch, resid)


def test_batch32_acceleration_ratio():
    fit = fit_two_point(BATCH_TABLE, peers=12)
    per_peer_base = throughput_model(1, 128, fit.a, fit.c)
    ratio = throughput_model(12, 32, fit.a, fit.c) / per_peer_base
    assert ratio == pytest.approx(9.53, abs=0.02)


def test_fit_round_trips_synthetic_data():
    a0, c0 = 0.013, 0.4
    table = [(b, throughput_model(4, b, a0, c0)) for b in (16, 32, 64, 96, 128)]
    fit = fit_two_point(table, peers=4)
    assert fit.a == pytest.approx(a0, rel=1e-12)
    assert fit.c == pytest.approx(c0, rel=1e-12)
    assert all(abs(r) < 1e-12 for r in fit.residuals.values())


def test_fit_input_validation():
    with pytest.raises(SimError):
        fit_two_point([(128, 1383.7)], peers=12)
    with pytest.raises(SimError):
        fit_two_point([(128, 1383.7), (128, 1383.7), (32, 1099.8)], peers=12)
    assert isinstance(fit_two_point([(1, 1.0), (2, 1.5)], peers=1), FitResult)
