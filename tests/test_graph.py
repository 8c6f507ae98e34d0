import dataclasses
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


def test_io_names_are_resolved_once_per_operator():
    g = make_chain(2)
    loc = Location("local", 0)
    op = g.operator_named("op1")
    names = g.io_names(op)
    assert names == (("t1",), ("t2",))
    assert g.io_names(op) is names
    t0, t2 = g.tensor_id("t0"), g.tensor_id("t2")
    g.add_operator("gate", "relu_backward", [t0, t0], [g.add_tensor("y", (2, 2), loc)], loc)
    g.add_operator("op2", "relu_forward", [t2], [g.add_tensor("t3", (2, 2), loc)], loc)
    assert g.io_names(g.operator_named("gate")) == (("t0", "t0"), ("y",))
    assert g.io_names(g.operator_named("op2")) == (("t2",), ("t3",))
    assert g.io_names(op) is names


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


def test_vertices_are_frozen_but_operator_attrs_stay_editable():
    g = make_chain(1)
    op, t = g.operator_named("op0"), g.tensor_named("t0")
    for vertex, field, value in ((op, "outputs", (t.id,)),
                                 (op, "location", Location("other", 0)),
                                 (t, "shape", (4,))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(vertex, field, value)
    op.attrs["delay_s"] = 0.001
    assert g.operator_named("op0").attrs == {"delay_s": 0.001}
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
# replicate
# ---------------------------------------------------------------------------


def two_op_graph():
    g = BiGraph()
    loc = Location("local", 0)
    a = g.add_tensor("a", (2, 2), loc)
    b = g.add_tensor("b", (2, 2), loc)
    c = g.add_tensor("c", (2, 2), loc)
    g.add_operator("f", "relu_forward", [a], [b], loc)
    g.add_operator("g", "relu_forward", [b], [c], loc)
    return g


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


PLACES = (Location("h0", 0), Location("h0", 1), Location("h1", 0))
SERVER = Location("srv", 0)


def placed_template():
    """x -> fc -> y on one device, with weights copied in from a tensor ``w``
    on the server."""
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (1, 2), loc)
    w = g.add_tensor("w", (2, 2), SERVER)
    w_local = g.add_tensor("w_local", (2, 2), loc)
    b = g.add_tensor("b", (2,), loc)
    y = g.add_tensor("y", (1, 2), loc)
    g.add_operator("pull", "copy", [w], [w_local], loc, thread=1)
    g.add_operator("fc", "fc_forward", [x, w_local, b], [y], loc)
    return g


def test_replicate_places_each_replica():
    r = replicate(placed_template(), 3, rename="_r{i}", shared=("w",), place=PLACES)
    for i, loc in enumerate(PLACES):
        for name in ("x", "w_local", "b", "y"):
            assert r.tensor_named(f"{name}_r{i}").location == loc
        for name in ("pull", "fc"):
            assert r.operator_named(f"{name}_r{i}").location == loc
    assert r.operator_named("pull_r2").thread == 1
    assert len(r.tensors) == 1 + 4 * 3 and len(r.operators) == 2 * 3
    assert r.validate().ok


def test_replicate_keeps_shared_tensors_in_place():
    r = replicate(placed_template(), 2, rename="_r{i}", shared=("w",), place=PLACES[:2])
    assert r.tensor_named("w").location == SERVER
    assert r.consumers_of(r.tensor_id("w")) == [
        (r.operator_id("pull_r0"), 0), (r.operator_id("pull_r1"), 0)
    ]
    assert r.validate().ok


def test_cross_location_glue_on_a_placed_replica_validates():
    r = replicate(placed_template(), 3, rename="_r{i}", shared=("w",), place=PLACES)
    ups = []
    for i, loc in enumerate(PLACES):
        ups.append(r.add_tensor(f"y_r{i}_srv", (1, 2), SERVER))
        r.add_operator(f"up_r{i}", "copy", [r.tensor_id(f"y_r{i}")], [ups[-1]], loc,
                       thread=2)
    mean = r.add_tensor("y_mean", (1, 2), SERVER)
    r.add_operator("agg", "aggregate", ups, [mean], SERVER, attrs={"mode": "mean"})
    assert r.validate().ok


def test_replicate_rejects_a_placement_of_the_wrong_length():
    for place in (PLACES[:2], PLACES + (SERVER,), ()):
        with pytest.raises(GraphError, match="placement"):
            replicate(placed_template(), 3, shared=("w",), place=place)


def test_replicate_rejects_placing_a_multi_location_template():
    g = placed_template()  # w is on the server: fine only while shared
    with pytest.raises(GraphError, match="one location"):
        replicate(g, 2, place=PLACES[:2])
    assert replicate(g, 2, shared=("w",), place=PLACES[:2]).validate().ok


def test_placed_replica_may_not_compute_on_a_remote_shared_tensor():
    g = BiGraph()
    loc = Location("local", 0)
    x = g.add_tensor("x", (1, 2), loc)
    w = g.add_tensor("w", (2, 2), loc)
    b = g.add_tensor("b", (2,), loc)
    y = g.add_tensor("y", (1, 2), loc)
    g.add_operator("fc", "fc_forward", [x, w, b], [y], loc)
    assert replicate(g, 2, shared=("w", "b"), place=(loc, loc)).validate().ok
    with pytest.raises(GraphError, match="only copy may cross"):
        replicate(g, 2, shared=("w", "b"), place=PLACES[:2])


def test_replicate_rejects_a_renamed_tensor_that_collides():
    g = two_op_graph()
    g.add_tensor("a_r0", (2, 2), Location("local", 0))
    with pytest.raises(GraphError, match="duplicate tensor name"):
        replicate(g, 1, rename="_r{i}", shared=("a_r0",))


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
