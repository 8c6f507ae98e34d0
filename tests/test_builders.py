"""Graph builders: network planning, the three schemes, data feeding."""

import sys
import threading

import numpy as np
import pytest

from biflow.builders import (
    COMPUTE_THREAD,
    LayerSpec,
    Layout,
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
    param_names,
    plan_steps,
    _core_graph,
)
from biflow.costsim import CostModel, simulate
from biflow.dispatcher import WorkerLane, merged_trace, run_sequence
from biflow.graph import GraphError, Location
from biflow.ops import TensorStore, fc_forward
from oracles import graph_digest

MLP = NetSpec(
    input_shape=(20,),
    layers=(LayerSpec("fc", 16), LayerSpec("relu"), LayerSpec("fc", 4)),
    batch=8,
    lr=0.05,
)

TWO_FC = NetSpec(
    input_shape=(8,), layers=(LayerSpec("fc", 8), LayerSpec("fc", 4)), batch=4
)


def run_training(seq, net, feed, seed, iterations, **kw):
    store = TensorStore()
    init_params(net, store, seed, seq.layout)
    losses = []

    def after(rep, store):
        if rep.graph_index == 0 and seq.layout.loss_names:
            vals = [float(store.array(n)[0]) for n in seq.layout.loss_names]
            losses.append(sum(vals) / len(vals))

    run_sequence(
        seq,
        store,
        before_iteration=feeder(feed, seq.layout),
        after_graph=after,
        iterations=iterations,
        **kw,
    )
    return store, losses


# ---------------------------------------------------------------------------
# network planning


def test_plan_steps_shapes_mlp():
    kinds = [(s.kind, s.out_shape) for s in plan_steps(MLP)]
    assert kinds == [("fc", (8, 16)), ("relu", (8, 16)), ("fc", (8, 4))]


def test_plan_inserts_flatten_between_conv_and_fc():
    net = NetSpec(
        input_shape=(1, 6, 6),
        layers=(LayerSpec("conv", out=2, kernel=3), LayerSpec("fc", 4)),
        batch=2,
    )
    steps = plan_steps(net)
    assert [s.kind for s in steps] == ["conv", "flatten", "fc"]
    assert steps[0].out_shape == (2, 2, 4, 4)
    assert steps[1].out_shape == (2, 32)


def test_plan_rejects_conv_on_flat_input():
    with pytest.raises(GraphError):
        NetSpec(input_shape=(20,), layers=(LayerSpec("conv", out=2, kernel=3),))


def test_plan_rejects_fractional_conv_output():
    with pytest.raises(GraphError):
        NetSpec(
            input_shape=(1, 5, 5),
            layers=(LayerSpec("conv", out=2, kernel=2, stride=2),),
        )


def test_param_names_skip_relu_positions():
    assert [n for n, _ in param_names(MLP)] == ["w1", "b1", "w3", "b3"]


# ---------------------------------------------------------------------------
# single-scheme graphs


def test_two_layer_training_graph_has_ten_operators():
    seq = build_sgd_iteration(TWO_FC)
    train, swaps = seq.graphs
    # 2 fwd + loss + fused top bwd + bottom weight and bias bwd + 4 updates
    assert len(train.operators) == 10
    assert len(swaps.operators) == 4
    assert all(op.kind == "swap" for op in swaps.operators.values())


def test_training_matches_reference_numpy_loop():
    seq = build_sgd_iteration(MLP)
    feed = SyntheticFeed.for_net(MLP, 31)
    store, losses = run_training(seq, MLP, feed, 31, 50)

    # independent numpy re-derivation of the same schedule
    from biflow.builders import _param_array

    p = dict(param_names(MLP))
    w1 = _param_array("w1", p["w1"], 31)
    b1 = _param_array("b1", p["b1"], 31)
    w3 = _param_array("w3", p["w3"], 31)
    b3 = _param_array("b3", p["b3"], 31)
    lr = np.float32(MLP.lr)
    ref_losses = []
    for it in range(50):
        x, lab = feed.batch_for(it, 0)
        idx = lab.astype(np.int64)
        a1 = x @ w1 + b1
        r = np.maximum(a1, np.float32(0))
        logits = r @ w3 + b3
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        denom = e.sum(axis=1, keepdims=True)
        ref_losses.append(
            float(-(z[np.arange(8), idx] - np.log(denom[:, 0])).mean())
        )
        d = e / denom
        d[np.arange(8), idx] -= np.float32(1)
        d = d / np.float32(8)
        dw3, db3 = r.T @ d, d.sum(axis=0)
        dr = d @ w3.T
        da1 = dr * (a1 > 0)
        dw1, db1 = x.T @ da1, da1.sum(axis=0)
        w1, b1 = w1 - lr * dw1, b1 - lr * db1
        w3, b3 = w3 - lr * dw3, b3 - lr * db3
    for name, ref in (("w1", w1), ("b1", b1), ("w3", w3), ("b3", b3)):
        got = store.array(name)
        assert np.allclose(got, ref, rtol=1e-4, atol=1e-6), name
    assert np.allclose(losses, ref_losses, rtol=1e-4, atol=1e-6)
    assert losses[-1] < losses[0]


def test_zero_delay_rerun_is_deterministic():
    seq = build_sgd_iteration(MLP)
    feed = SyntheticFeed.for_net(MLP, 9)
    s1, l1 = run_training(seq, MLP, feed, 9, 20)
    s2, l2 = run_training(seq, MLP, feed, 9, 20)
    assert l1 == l2
    for name in seq.layout.canonical_params:
        assert np.array_equal(s1.array(name), s2.array(name))


# ---------------------------------------------------------------------------
# data parallelism


def peers_plan(n):
    return ParallelPlan(
        scheme="data",
        peers=tuple(Location("local", k) for k in range(n)),
        server=Location("local", n),
    )


def test_one_peer_matches_plain_sgd_bitwise():
    feed = SyntheticFeed.for_net(MLP, 11)
    plain = build_sgd_iteration(MLP)
    s1, l1 = run_training(plain, MLP, feed, 11, 25)
    dp = build_data_parallel(MLP, peers_plan(1))
    s2, l2 = run_training(dp, MLP, feed, 11, 25)
    assert l1 == l2
    for name in plain.layout.canonical_params:
        assert np.array_equal(s1.array(name), s2.array(name))
        assert np.array_equal(s1.array(name), s2.array(name + "_p0"))


def test_two_peers_match_double_batch(rel=1e-5):
    feed2 = SyntheticFeed.for_net(MLP, 13, peers=2)
    dp = build_data_parallel(MLP, peers_plan(2))
    s_dp, _ = run_training(dp, MLP, feed2, 13, 25)

    big = NetSpec(MLP.input_shape, MLP.layers, batch=16, lr=MLP.lr)
    feed1 = SyntheticFeed.for_net(big, 13)
    assert np.array_equal(feed2.full_batch(0)[0], feed1.full_batch(0)[0])
    plain = build_sgd_iteration(big)
    s_big, _ = run_training(plain, big, feed1, 13, 25)
    for name in plain.layout.canonical_params:
        a, b = s_dp.array(name), s_big.array(name)
        assert np.abs(a - b).max() <= rel * max(np.abs(b).max(), 1e-12), name


def test_split_backward_uploads_overlap_lower_layers():
    """With per-layer gradient operators, the top layer's upload must start
    before the bottom layer's backward finishes."""
    net = NetSpec(
        input_shape=(12,),
        layers=(LayerSpec("fc", 12), LayerSpec("fc", 12), LayerSpec("fc", 4)),
        batch=4,
    )
    seq = build_data_parallel(net, peers_plan(1), split_backward=True)
    for op in seq.graphs[0].operators.values():
        if op.name.startswith("bwd_"):
            op.attrs["delay_s"] = 0.01
        elif op.name.startswith("up_"):
            op.attrs["delay_s"] = 0.008
    store = TensorStore()
    init_params(net, store, 3, seq.layout)
    feed = SyntheticFeed.for_net(net, 3)
    reports = run_sequence(
        seq, store, before_iteration=feeder(feed, seq.layout), iterations=1
    )
    recs = {r.name: r for r in merged_trace(reports)}
    first_up = recs["up_dw3_p0"]
    last_bwd = recs["bwd_fc1_weight_p0"]
    assert first_up.start < last_bwd.end


def test_split_backward_omits_bottom_data_gradient():
    seq = build_data_parallel(TWO_FC, peers_plan(1), split_backward=True)
    names = {op.name for op in seq.graphs[0].operators.values()}
    assert "bwd_fc2_data_p0" in names
    assert "bwd_fc1_data_p0" not in names


def test_aggregate_inputs_follow_peer_rank_order():
    seq = build_data_parallel(TWO_FC, peers_plan(3))
    g = seq.graphs[0]
    agg = g.operator_named("agg_w1")
    names = [g.tensors[t].name for t in agg.inputs]
    assert names == ["dw1_p0_srv", "dw1_p1_srv", "dw1_p2_srv"]


def test_copy_lanes_are_distinct_from_compute():
    seq = build_data_parallel(TWO_FC, peers_plan(2))
    layout = seq.layout
    g = seq.graphs[0]
    assert layout.copy_threads == frozenset({1, 2, 3, 4, 5})
    for op in g.operators.values():
        if op.name.startswith(("up_", "down_")):
            assert op.thread in layout.copy_threads
        elif op.kind not in ("aggregate", "sgd_update"):
            assert op.thread == 0
    lane = WorkerLane("local", 0, 0)
    assert layout.lane_class(lane) == "compute"
    assert layout.lane_class(WorkerLane("local", 0, 1)) == "copy"
    assert layout.lane_class(WorkerLane("local", 0, 99)) == "transport"


def test_data_scheme_requires_server():
    with pytest.raises(GraphError):
        ParallelPlan(scheme="data", peers=(Location("local", 0),))


# ---------------------------------------------------------------------------
# pipeline


PIPE_NET = NetSpec(
    input_shape=(8,),
    layers=(LayerSpec("fc", 8), LayerSpec("fc", 8), LayerSpec("fc", 4)),
    batch=4,
)


def pipe_plan(replicas=3):
    return ParallelPlan(
        scheme="model",
        stages=(
            Stage((0, 1), Location("local", 0)),
            Stage((1, 2), Location("local", 1)),
            Stage((2, 3), Location("local", 2)),
        ),
        replicas=replicas,
    )


def run_pipeline(seq, net, seed, xs):
    store = TensorStore()
    init_params(net, store, seed, seq.layout)
    fill_tokens(store, seq)
    for r, x in enumerate(xs):
        store.set(f"x_r{r}", x)
    run_sequence(seq, store)
    return store


def test_pipeline_outputs_match_unpipelined_forward_bitwise():
    seq = build_model_parallel_pipeline(PIPE_NET, pipe_plan())
    rng = np.random.default_rng(21)
    xs = [rng.standard_normal((4, 8)).astype(np.float32) for _ in range(3)]
    store = run_pipeline(seq, PIPE_NET, 21, xs)
    params = {n: store.array(n) for n in seq.layout.canonical_params}
    for r, x in enumerate(xs):
        ref = x
        for j in (1, 2, 3):
            ref = fc_forward(ref, params[f"w{j}"], params[f"b{j}"])
        assert np.array_equal(store.array(seq.layout.output_names[r]), ref)


def test_pipeline_equal_stage_costs_make_staircase_makespan():
    # S stages, R replicas, each stage costing t: (S + R - 1) * t
    seq = build_model_parallel_pipeline(PIPE_NET, pipe_plan())
    for op in seq.graphs[0].operators.values():
        if op.kind == "fc_forward":
            op.attrs["delay_s"] = 1.0
    rep = simulate(seq, CostModel(kind_costs={}))
    assert rep.makespan == 5.0


def test_pipeline_gates_serialize_each_stage_across_replicas():
    seq = build_model_parallel_pipeline(PIPE_NET, pipe_plan())
    for op in seq.graphs[0].operators.values():
        if op.kind == "fc_forward":
            op.attrs["delay_s"] = 1.0
    rep = simulate(seq, CostModel(kind_costs={}))
    windows = {}
    for r in rep.trace:
        if r.name.startswith("fc"):
            windows[r.name] = (r.start, r.end)
    for stage_pos in (1, 2, 3):
        for r in (1, 2):
            prev_end = windows[f"fc{stage_pos}_r{r - 1}"][1]
            assert windows[f"fc{stage_pos}_r{r}"][0] >= prev_end


def test_pipeline_degenerate_single_stage_single_replica():
    plan = ParallelPlan(
        scheme="model", stages=(Stage((0, 3), Location("local", 0)),), replicas=1
    )
    seq = build_model_parallel_pipeline(PIPE_NET, plan)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 8)).astype(np.float32)
    store = run_pipeline(seq, PIPE_NET, 4, [x])
    ref = x
    for j in (1, 2, 3):
        ref = fc_forward(ref, store.array(f"w{j}"), store.array(f"b{j}"))
    assert np.array_equal(store.array(seq.layout.output_names[0]), ref)


def test_pipeline_rejects_gappy_stages():
    plan = ParallelPlan(
        scheme="model",
        stages=(Stage((0, 1), Location("local", 0)), Stage((2, 3), Location("local", 1))),
        replicas=2,
    )
    with pytest.raises(GraphError):
        build_model_parallel_pipeline(PIPE_NET, plan)


def test_built_sequences_validate():
    for seq in (
        build_sgd_iteration(MLP),
        build_data_parallel(MLP, peers_plan(2), split_backward=True),
        build_model_parallel_pipeline(PIPE_NET, pipe_plan()),
    ):
        for g in seq.graphs:
            report = g.validate()
            assert report.ok, report.violations


# the bench's conv net, and two nets whose bottom step has no parameters
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
FLAT_INPUT = NetSpec(
    input_shape=(2, 4, 4),
    layers=(LayerSpec("fc", 6), LayerSpec("relu"), LayerSpec("fc", 3)),
    batch=3,
)
RELU_FIRST = NetSpec(
    input_shape=(6,),
    layers=(LayerSpec("relu"), LayerSpec("fc", 5), LayerSpec("fc", 3)),
    batch=2,
)


def built_sequences():
    for net in (MLP, TWO_FC, PIPE_NET, CONV_NET, FLAT_INPUT, RELU_FIRST):
        n = len(net.layers)
        yield build_sgd_iteration(net)
        for split in (False, True):
            yield build_data_parallel(net, peers_plan(2), split_backward=split)
        yield build_model_parallel_pipeline(net, ParallelPlan(
            scheme="model",
            stages=(Stage((0, 1), Location("local", 0)),
                    Stage((1, n), Location("local", 1))),
            replicas=2,
        ))


def test_every_written_tensor_is_read():
    """No operator computes what nothing reads: each tensor an operator
    writes is some operator's input, a swap operand, or a tensor the layout
    names (losses, parameters, outputs)."""
    for seq in built_sequences():
        layout = seq.layout
        used = {*layout.loss_names, *layout.canonical_params,
                *layout.output_names}
        used.update(name for peer in layout.peer_params for name in peer)
        written = {}
        for g in seq.graphs:
            for op in g.operators.values():
                used.update(g.tensors[t].name for t in op.inputs)
                for t in op.outputs:
                    if op.kind == "swap":
                        used.add(g.tensors[t].name)
                    else:
                        written[g.tensors[t].name] = op.name
        dead = {t: op for t, op in written.items() if t not in used}
        assert not dead, dead


def test_fused_backward_omits_bottom_data_gradient():
    seq = build_data_parallel(CONV_NET, peers_plan(2))
    kinds = [op.kind for op in seq.graphs[0].operators.values()]
    assert kinds.count("conv2d_backward") == 2
    assert kinds.count("conv2d_backward_weight") == 2
    assert kinds.count("conv2d_backward_bias") == 2
    assert "conv2d_backward_data" not in kinds


# ---------------------------------------------------------------------------
# data parallelism as one core graph, replicated per peer


def two_host_plan(n):
    return ParallelPlan(
        scheme="data",
        peers=tuple(Location(f"h{k % 2}", k) for k in range(n)),
        server=Location("h1", n),
    )


PLANS = {"local": peers_plan, "two_host": two_host_plan}

# graph_digest of CONV_NET's data-parallel training graphs, keyed by
# (split_backward, plan, peers).  Pinned from the builder that assembled
# each peer by hand, with its split-path operator names renamed to put the
# replica suffix last (bwd_fc5_p0_weight -> bwd_fc5_weight_p0).
DATA_PARALLEL_DIGESTS = {
    (False, "local", 1):
        "249406342f9382375255c6d1d551a1ab1e569062f46eb57fd424ceee6c6fcd44",
    (False, "local", 2):
        "66f34da3529d4a7e387af92058c1237a322e49b46852ad07c9035728bdee2639",
    (False, "local", 3):
        "b6367e62a9a6f042edd3d3d963371f4d4858d081d9acc7827c554c3db7018de6",
    (False, "two_host", 1):
        "d8b30ff4d1ffe2915981b36bf2fd0537b3f1bbfeb69ed4dbc84ed6115c4ba694",
    (False, "two_host", 2):
        "c9aaa29d57eda9a191977335eda939dc0132dde1790ea5a6273792cebfc3b9c4",
    (False, "two_host", 3):
        "4d2be0b2275929b0905cf46512eac9f859e75f4b76003c7dbc2b5d4de7adb7db",
    (True, "local", 1):
        "d83225b94d09d6ee2b9cfcbce4739ed8b2cb8660511cd67a940ad1726e5dd400",
    (True, "local", 2):
        "f0b036aa8a70d23879cd5ddeeebfddc71276d5dcc36f9c93752be35a98bd8178",
    (True, "local", 3):
        "f23956a221504f9233cd774b10b56a2da2a05421512203f48e07796b5d9406fb",
    (True, "two_host", 1):
        "6f77ff5fdb080b8dc3b465f7320507fd41fd004a8c97a0f0995032ecf931c43c",
    (True, "two_host", 2):
        "b5e3299eb574be300a7fbf2cb7013773735123f0e380946ffeba781ab78ce0e4",
    (True, "two_host", 3):
        "7eaf8c9d32717ccd4c3f067e9a75011660c01922f2a7afe2a418c092914c86d8",
}
# the swap graphs, in insertion order, keyed by (plan, peers)
SWAP_DIGESTS = {
    ("local", 1): "43f0852947bd3a0eb1f6bac4dd8b055ec6611f306d1524ea525fa6ad7d23bcbf",
    ("local", 2): "ca2b220674d72ee4cf37a69ae41fdcabbac4c95e4152993abaacc154a815bf06",
    ("local", 3): "4c23da0d940ec85a78ad0ab77fc179365c51bfacb8985128f0713fa3df169040",
    ("two_host", 1): "1648feb4994c8317e83e63f3c9761c4e4d2bdf2686f64044431325b9042b95c9",
    ("two_host", 2): "9648f1566c2cab7630bd8756ba0f99bd69668c1a4d80a8dfd94a80dc6be3ae5a",
    ("two_host", 3): "30bc8acdb4529b43c6f4fecbb36aaadac41f8b774f84659ac0952425e69070b7",
}
# build_sgd_iteration's [training graph, swap graph], in insertion order
SGD_DIGESTS = {
    "MLP": ("fd5f1713fc244622e71761c2db6ffb3d70925a0ae84884d9592c086c1925b9d4",
            "789514a57e3f01b1bb5ea25334b9c6e29a9c137975cdf030f50e5f087bf8bfcf"),
    "CONV_NET": ("a043ec2ffa6923ea16f09af5c7961241d67ce38c9998864ce1f92f3cde115eba",
                 "4977bc3096e187bf012efa9327e7a847d9f40f13036df45544a8fca1839a3a6b"),
}


DATA_PARALLEL_CASES = [
    (split, plan, k) for split in (False, True) for plan in PLANS for k in (1, 2, 3)
]


def op_signature(g, op, suffix=""):
    """An operator's name, kind, tensor names, attrs and thread, with
    ``suffix`` stripped from every name; its location is left out."""

    def strip(name):
        assert name.endswith(suffix), (name, suffix)
        return name[:len(name) - len(suffix)]

    ins, outs = g.io_names(op)
    return (strip(op.name), op.kind, tuple(map(strip, ins)),
            tuple(map(strip, outs)), sorted(op.attrs.items()), op.thread)


@pytest.mark.parametrize("split,plan,k", DATA_PARALLEL_CASES)
def test_each_peer_runs_the_core_graph(split, plan, k):
    plan = PLANS[plan](k)
    g = build_data_parallel(CONV_NET, plan, split_backward=split).graphs[0]
    core, _grads = _core_graph(CONV_NET, Location("local", 0), split)
    want = sorted(op_signature(core, op) for op in core.operators.values())
    for rank, loc in enumerate(plan.peers):
        got = sorted(
            op_signature(g, op, f"_p{rank}") for op in g.operators.values()
            if op.location == loc and op.thread == COMPUTE_THREAD
        )
        assert got == want, rank


@pytest.mark.parametrize("split,plan,k", DATA_PARALLEL_CASES)
def test_data_parallel_graphs_match_pinned_digests(split, plan, k):
    seq = build_data_parallel(CONV_NET, PLANS[plan](k), split_backward=split)
    assert seq.graphs[0].validate().ok
    assert graph_digest(seq.graphs[0]) == DATA_PARALLEL_DIGESTS[split, plan, k]
    assert graph_digest(seq.graphs[1], ordered=True) == SWAP_DIGESTS[plan, k]


@pytest.mark.parametrize("name,net", [("MLP", MLP), ("CONV_NET", CONV_NET)])
def test_sgd_graphs_match_pinned_digests_in_insertion_order(name, net):
    got = tuple(graph_digest(g, ordered=True) for g in build_sgd_iteration(net).graphs)
    assert got == SGD_DIGESTS[name]


# ---------------------------------------------------------------------------
# initialization and synthetic data


def test_init_params_deterministic_and_replicated():
    seq = build_data_parallel(MLP, peers_plan(2))
    s1, s2 = TensorStore(), TensorStore()
    init_params(MLP, s1, 7, seq.layout)
    init_params(MLP, s2, 7, seq.layout)
    for name in seq.layout.canonical_params:
        assert np.array_equal(s1.array(name), s2.array(name))
        for k in range(2):
            assert np.array_equal(s1.array(name), s1.array(f"{name}_p{k}"))
    s3 = TensorStore()
    init_params(MLP, s3, 8, seq.layout)
    assert not np.array_equal(s1.array("w1"), s3.array("w1"))


def test_biases_start_at_zero():
    seq = build_sgd_iteration(MLP)
    store = TensorStore()
    init_params(MLP, store, 1, seq.layout)
    assert not store.array("b1").any()
    assert store.array("w1").std() > 0


def test_feed_peer_slices_concatenate_to_full_batch():
    feed = SyntheticFeed(seed=3, input_shape=(6,), classes=3, batch=5, peers=3)
    x, labels = feed.full_batch(7)
    assert x.shape == (15, 6) and x.dtype == np.float32
    assert set(np.unique(labels)) <= {0.0, 1.0, 2.0}
    xs, ls = zip(*(feed.batch_for(7, r) for r in range(3)))
    assert np.array_equal(np.concatenate(xs), x)
    assert np.array_equal(np.concatenate(ls), labels)


def test_feed_varies_by_iteration_not_by_call():
    feed = SyntheticFeed(seed=3, input_shape=(6,), classes=3, batch=5)
    a, _ = feed.full_batch(0)
    b, _ = feed.full_batch(1)
    assert not np.array_equal(a, b)
    again, _ = feed.full_batch(0)
    assert np.array_equal(a, again)
    ev, el = feed.eval_batch(32)
    assert ev.shape == (32, 6) and el.shape == (32,)


def test_feed_batches_do_not_depend_on_call_history():
    def make():
        return SyntheticFeed(seed=3, input_shape=(2, 3), classes=3, batch=4, peers=3)

    feed = make()
    for it in (0, 1, 0):
        for rank in range(3):
            got = feed.batch_for(it, rank)
            want = make().batch_for(it, rank)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_feeder_respects_only_filter():
    seq = build_data_parallel(MLP, peers_plan(2))
    feed = SyntheticFeed.for_net(MLP, 5, peers=2)
    store = TensorStore()
    feeder(feed, seq.layout, only={"x_p1"})(0, store)
    assert "x_p1" in store and "labels_p1" in store
    assert "x_p0" not in store


def test_feed_draws_only_the_blocks_of_the_asked_rank(monkeypatch):
    draws = []
    real = SyntheticFeed._draw

    def counted(self, n, *key):
        draws.append(key)
        return real(self, n, *key)

    monkeypatch.setattr(SyntheticFeed, "_draw", counted)
    # 4 peers at batch 5: samples 0-19 in blocks of 8 (0-7, 8-15, 16-23)
    for rank, blocks in enumerate(([0], [0, 1], [1], [1, 2])):
        feed = SyntheticFeed(seed=3, input_shape=(6,), classes=3, batch=5, peers=4)
        draws.clear()
        feed.batch_for(4, rank)
        feed.batch_for(4, rank)
        assert draws == [(17, 4, b) for b in blocks], rank
    # a conv-loopback2 host: rank 1 of 2 at batch 8 draws its own block only
    feed = SyntheticFeed(seed=3, input_shape=(3, 4, 4), classes=3, batch=8, peers=2)
    draws.clear()
    x, labels = feed.batch_for(0, 1)
    assert draws == [(17, 0, 1)]
    assert x.shape == (8, 3, 4, 4) and labels.shape == (8,)


def test_feed_k_peers_equal_one_peer_at_k_times_batch_bytewise():
    def feed(batch, peers):
        return SyntheticFeed(seed=5, input_shape=(2, 3), classes=4, batch=batch,
                             peers=peers)

    for it in (0, 1, 9):
        parts = [feed(5, 3).batch_for(it, r) for r in range(3)]
        x, labels = feed(15, 1).batch_for(it, 0)
        assert np.concatenate([p[0] for p in parts]).tobytes() == x.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == labels.tobytes()


def test_shared_feed_gives_every_thread_the_fresh_feeds_bytes():
    """Host threads of one process may share a feed; its kept blocks must
    never hand one iteration's samples to another."""
    def make():
        return SyntheticFeed(seed=4, input_shape=(5,), classes=3, batch=5, peers=3)

    want = {(it, r): [a.tobytes() for a in make().batch_for(it, r)]
            for it in range(6) for r in range(3)}
    shared, bad = make(), []

    def work(offset):
        for step in range(300):
            it, r = (step + offset) % 6, (step * 7 + offset) % 3
            if [a.tobytes() for a in shared.batch_for(it, r)] != want[it, r]:
                bad.append((it, r))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad
