import json

import numpy as np
import pytest

from biflow.graph import (
    BiGraph,
    GraphError,
    GraphSequence,
    Location,
    graph_from_json,
    graph_to_json,
    merge,
    replicate,
)


def make_chain(n_ops=3, host="local", device=0):
    """t0 -> op0 -> t1 -> op1 -> ... -> tn, all relu_forward on one lane."""
    g = BiGraph()
    loc = Location(host, device)
    prev = g.add_tensor("t0", (2, 2), loc)
    for i in range(n_ops):
        nxt = g.add_tensor(f"t{i + 1}", (2, 2), loc)
        g.add_operator(f"op{i}", "relu_forward", [prev], [nxt], loc)
        prev = nxt
    return g


def test_ids_shared_between_vertex_classes():
    g = make_chain(2)
    ids = sorted(g.tensors) + sorted(g.operators)
    assert sorted(ids) == list(range(len(ids)))
    assert len(set(ids)) == len(ids)


def test_sources_and_sinks_cover_both_vertex_classes():
    g = make_chain(2)
    rep = g.validate()
    assert rep.ok
    assert rep.sources == [g.tensor_id("t0")]
    assert rep.sinks == [g.tensor_id("t2")]

    # an operator with no inputs is a source; one with no outputs is a sink
    g2 = BiGraph()
    loc = Location("local", 0)
    a = g2.add_tensor("a", (1,), loc)
    b = g2.add_tensor("b", (1,), loc)
    g2.add_operator("mkswap", "swap", [], [a, b], loc)
    rep2 = g2.validate()
    assert rep2.ok
    assert rep2.sources == [g2.operator_id("mkswap")]
    assert set(rep2.sinks) == {a, b}


def test_duplicate_tensor_name_rejected():
    g = BiGraph()
    loc = Location("local", 0)
    g.add_tensor("x", (1,), loc)
    with pytest.raises(GraphError):
        g.add_tensor("x", (2,), loc)


def test_edges_must_join_tensor_and_operator():
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (2, 2), loc)
    y = g.add_tensor("y", (2, 2), loc)
    op = g.add_operator("r", "relu_forward", [x], [y], loc)
    # operator ids are not valid tensor endpoints
    z = g.add_tensor("z", (2, 2), loc)
    with pytest.raises(GraphError):
        g.add_operator("bad", "relu_forward", [op], [z], loc)
    with pytest.raises(GraphError):
        g.add_operator("bad2", "relu_forward", [z], [op], loc)


def test_input_output_overlap_rejected():
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (2, 2), loc)
    with pytest.raises(GraphError):
        g.add_operator("loop", "relu_forward", [x], [x], loc)


def test_second_producer_rejected():
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (2, 2), loc)
    y = g.add_tensor("y", (2, 2), loc)
    g.add_operator("p1", "relu_forward", [x], [y], loc)
    z = g.add_tensor("z", (2, 2), loc)
    with pytest.raises(GraphError):
        g.add_operator("p2", "relu_forward", [z], [y], loc)


def test_cycle_rejected():
    g = BiGraph()
    loc = Location("local", 0)
    a = g.add_tensor("a", (2, 2), loc)
    b = g.add_tensor("b", (2, 2), loc)
    g.add_operator("fwd", "relu_forward", [a], [b], loc)
    # b -> back -> a would close a cycle through fwd
    with pytest.raises(GraphError):
        g.add_operator("back", "relu_forward", [b], [a], loc)


def test_longer_cycle_rejected():
    g = BiGraph()
    loc = Location("local", 0)
    ts = [g.add_tensor(f"t{i}", (1,), loc) for i in range(4)]
    g.add_operator("o0", "relu_forward", [ts[0]], [ts[1]], loc)
    g.add_operator("o1", "relu_forward", [ts[1]], [ts[2]], loc)
    g.add_operator("o2", "relu_forward", [ts[2]], [ts[3]], loc)
    with pytest.raises(GraphError):
        g.add_operator("o3", "relu_forward", [ts[3]], [ts[0]], loc)


def test_repeated_input_edge_allowed():
    # the same tensor may feed one operator twice (two edges)
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (2, 2), loc)
    y = g.add_tensor("y", (2, 2), loc)
    g.add_operator("self_gate", "relu_backward", [x, x], [y], loc)
    assert g.validate().ok


@pytest.mark.parametrize("dims", [[2.7, True], [2.0], [True, 2], [np.float32(3)]])
def test_non_integer_dims_rejected(dims):
    g = BiGraph()
    with pytest.raises(GraphError, match="tensor 'x': dims must be integers"):
        g.add_tensor("x", dims, Location("local", 0))


def test_numpy_integer_dims_become_ints():
    g = BiGraph()
    t = g.tensors[g.add_tensor("x", [np.int64(3), 2], Location("local", 0))]
    assert t.shape == (3, 2)
    assert all(type(d) is int for d in t.shape)


def test_json_fractional_dim_rejected():
    spec = {"tensors": [{"name": "a", "shape": [2.5], "host": "local"}],
            "operators": []}
    with pytest.raises(GraphError, match="tensor 'a'"):
        graph_from_json(spec)


def test_shape_check_applied_at_build_time():
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (1, 2), loc)
    w = g.add_tensor("w", (3, 1), loc)  # wrong inner dim
    b = g.add_tensor("b", (1,), loc)
    y = g.add_tensor("y", (1, 1), loc)
    with pytest.raises(GraphError):
        g.add_operator("fc", "fc_forward", [x, w, b], [y], loc)


def test_colocation_enforced_except_for_copy():
    g = BiGraph()
    here = Location("local", 0)
    there = Location("local", 1)
    x = g.add_tensor("x", (2, 2), here)
    y = g.add_tensor("y", (2, 2), there)
    with pytest.raises(GraphError):
        g.add_operator("r", "relu_forward", [x], [y], here)
    g.add_operator("c", "copy", [x], [y], here)  # copy may span locations
    assert g.validate().ok


def test_toposort_is_stable_and_complete():
    g = make_chain(5)
    order = g.toposort()
    assert order == [g.operator_id(f"op{i}") for i in range(5)]


def test_validate_reports_instead_of_raising():
    g = make_chain(1)
    rep = g.validate()
    assert rep.ok and rep.violations == []


# ---------------------------------------------------------------------------
# merge / replicate
# ---------------------------------------------------------------------------


def two_op_graph(prefix=""):
    g = BiGraph()
    loc = Location("local", 0)
    a = g.add_tensor(prefix + "a", (2, 2), loc)
    b = g.add_tensor(prefix + "b", (2, 2), loc)
    c = g.add_tensor(prefix + "c", (2, 2), loc)
    g.add_operator(prefix + "f", "relu_forward", [a], [b], loc)
    g.add_operator(prefix + "g", "relu_forward", [b], [c], loc)
    return g


def test_merge_binds_named_tensors():
    g1 = two_op_graph()
    g2 = two_op_graph("x_")
    merged = merge(g1, g2, bind={"c": "x_a"})  # a-tensor <- b-tensor
    # g2's source tensor is identified with g1's sink: one fewer tensor
    assert len(merged.tensors) == 5
    assert len(merged.operators) == 4
    rep = merged.validate()
    assert rep.ok
    assert [merged.tensors[t].name for t in rep.sources] == ["a"]
    assert [merged.tensors[t].name for t in rep.sinks] == ["x_c"]


def test_merge_rejects_shape_mismatch():
    g1 = two_op_graph()
    g2 = BiGraph()
    loc = Location("local", 0)
    g2.add_tensor("wide", (3, 3), loc)
    with pytest.raises(GraphError):
        merge(g1, g2, bind={"wide": "c"})


def test_merge_renames_collisions():
    g1 = two_op_graph()
    g2 = two_op_graph()  # identical names, no binding
    merged = merge(g1, g2, bind={})
    assert len(merged.tensors) == 6
    assert len(merged.operators) == 4
    names = {merged.tensors[t].name for t in merged.tensors}
    assert {"a", "b", "c"} <= names
    assert len(names) == 6  # collided names got fresh suffixes


def test_replicate_with_shared_tensors():
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (1, 2), loc)
    w = g.add_tensor("w", (2, 2), loc)
    b = g.add_tensor("b", (2,), loc)
    y = g.add_tensor("y", (1, 2), loc)
    g.add_operator("fc", "fc_forward", [x, w, b], [y], loc)

    r = replicate(g, 3, rename="_r{i}", shared=("w", "b"))
    assert len(r.operators) == 3
    # shared tensors appear once, private ones per-replica
    names = {r.tensors[t].name for t in r.tensors}
    assert names == {"w", "b", "x_r0", "y_r0", "x_r1", "y_r1", "x_r2", "y_r2"}
    assert r.validate().ok


def test_replicate_zero_or_negative_rejected():
    g = two_op_graph()
    with pytest.raises(GraphError):
        replicate(g, 0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip(tmp_path):
    g = two_op_graph()
    blob = graph_to_json(g)
    g2 = graph_from_json(json.loads(json.dumps(blob)))
    assert graph_to_json(g2) == blob
    rep = g2.validate()
    assert rep.ok


def test_json_round_trip_preserves_attrs_and_threads():
    g = BiGraph()
    loc = Location("h0", 1)
    x = g.add_tensor("x", (1, 1, 4, 4), loc)
    w = g.add_tensor("w", (1, 1, 3, 3), loc)
    b = g.add_tensor("b", (1,), loc)
    y = g.add_tensor("y", (1, 1, 4, 4), loc)
    g.add_operator(
        "conv", "conv2d_forward", [x, w, b], [y], loc,
        thread=5, attrs={"stride": 1, "pad": 1},
    )
    g2 = graph_from_json(graph_to_json(g))
    op = g2.operator_named("conv")
    assert op.thread == 5
    assert op.attrs == {"stride": 1, "pad": 1}
    assert op.location == loc


def test_graph_sequence_validation():
    g = two_op_graph()
    seq = GraphSequence([g, g])
    assert seq.graphs == [g, g]
    with pytest.raises(GraphError):
        GraphSequence([])
