"""Frame codec, host partitioning, and the TCP transport."""

import multiprocessing
import os
import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from biflow.builders import (
    LayerSpec,
    NetSpec,
    ParallelPlan,
    SyntheticFeed,
    TrainingSetup,
    build_data_parallel,
    build_sgd_iteration,
    feeder,
    init_params,
)
from biflow.dispatcher import run_sequence
from biflow.graph import BiGraph, GraphError, Location
from biflow.ops import TensorStore
from biflow.transport import (
    HEADER,
    FrameError,
    Transport,
    TransportError,
    decode_frame,
    encode_frame,
    partition_by_host,
    partition_sequence,
    recompose,
    run_distributed,
)

GOLDEN_FRAME = bytes.fromhex(
    "01000000000000000000000000000000040000000000803f"
)


# ---------------------------------------------------------------------------
# codec


def test_golden_frame_bytes():
    assert encode_frame(1, 0, np.array([1.0], dtype=np.float32)) == GOLDEN_FRAME
    channel, iteration, payload = decode_frame(GOLDEN_FRAME)
    assert channel == 1 and iteration == 0
    assert payload.tolist() == [1.0]


def test_codec_round_trip_random():
    rng = np.random.default_rng(40)
    for _ in range(200):
        channel = int(rng.integers(0, 2**63))
        iteration = int(rng.integers(0, 2**63))
        payload = rng.standard_normal(int(rng.integers(0, 64))).astype(np.float32)
        c, i, p = decode_frame(encode_frame(channel, iteration, payload))
        assert (c, i) == (channel, iteration)
        assert np.array_equal(p, payload)


def test_codec_rejects_truncated_header():
    with pytest.raises(FrameError):
        decode_frame(GOLDEN_FRAME[:19])


def test_codec_rejects_length_mismatch():
    with pytest.raises(FrameError):
        decode_frame(GOLDEN_FRAME + b"\x00\x00\x00\x00")
    with pytest.raises(FrameError):
        decode_frame(GOLDEN_FRAME[:-1])


def test_codec_rejects_ragged_payload_length():
    import struct

    buf = struct.pack("<QQI", 1, 0, 3) + b"\x00\x00\x00"
    with pytest.raises(FrameError):
        decode_frame(buf)


def test_codec_multidimensional_payload_flattens():
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    _, _, p = decode_frame(encode_frame(7, 3, arr))
    assert np.array_equal(p, arr.ravel())


# ---------------------------------------------------------------------------
# partitioning


def two_host_graph():
    g = BiGraph()
    a = Location("alpha", 0)
    b = Location("beta", 0)
    g.add_tensor("x", (2, 2), a)
    g.add_tensor("y", (2, 2), a)
    g.add_tensor("y_remote", (2, 2), b)
    g.add_tensor("z", (2, 2), b)
    g.add_operator("square", "relu_forward", [g.tensor_id("x")],
                   [g.tensor_id("y")], a, thread=0)
    g.add_operator("move", "copy", [g.tensor_id("y")],
                   [g.tensor_id("y_remote")], b, thread=1)
    g.add_operator("relu_b", "relu_forward", [g.tensor_id("y_remote")],
                    [g.tensor_id("z")], b, thread=0)
    return g


def graph_signature(g):
    tensors = {(t.name, t.shape, t.location) for t in g.tensors.values()}
    ops = {
        (
            o.name,
            o.kind,
            tuple(g.tensors[i].name for i in o.inputs),
            tuple(g.tensors[i].name for i in o.outputs),
            o.location,
            o.thread,
            tuple(sorted(o.attrs.items())),
        )
        for o in g.operators.values()
    }
    return tensors, ops


def test_single_host_partition_is_identity():
    seq = build_sgd_iteration(
        NetSpec(input_shape=(4,), layers=(LayerSpec("fc", 3),), batch=2)
    )
    parts, nxt = partition_by_host(seq.graphs[0])
    assert list(parts) == ["local"]
    assert nxt == 1  # no channels used
    assert parts["local"].sends == [] and parts["local"].recvs == []
    assert graph_signature(parts["local"].graph) == graph_signature(seq.graphs[0])


def test_cross_host_copy_becomes_matched_send_recv():
    parts, nxt = partition_by_host(two_host_graph())
    assert nxt == 2
    alpha, beta = parts["alpha"], parts["beta"]
    assert [c.channel for c in alpha.sends] == [1]
    assert [c.channel for c in beta.recvs] == [1]
    send = alpha.graph.operator_named("send_move")
    recv = beta.graph.operator_named("recv_move")
    assert send.attrs["channel"] == recv.attrs["channel"] == 1
    assert send.kind == "send" and recv.kind == "recv"
    assert alpha.graph.validate().ok and beta.graph.validate().ok
    # no vertex leaked across the cut
    assert all(t.location.host == "alpha" for t in alpha.graph.tensors.values())
    assert all(t.location.host == "beta" for t in beta.graph.tensors.values())


def test_non_copy_cross_host_operator_is_an_error():
    g = BiGraph()
    g.add_tensor("x", (2,), Location("alpha", 0))
    g.add_tensor("tmp", (2,), Location("alpha", 0))
    g.add_tensor("y", (2,), Location("beta", 0))
    # force the invalid edge in: bypass construction checks deliberately
    gid = g.add_operator("bad", "relu_forward", [g.tensor_id("x")],
                         [g.tensor_id("tmp")], Location("alpha", 0), thread=0)
    g.operators[gid].outputs = (g.tensor_id("y"),)
    with pytest.raises(GraphError):
        partition_by_host(g)


def test_recompose_inverts_partition():
    g = two_host_graph()
    parts, _ = partition_by_host(g)
    assert graph_signature(recompose(parts)) == graph_signature(g)


def test_recompose_inverts_data_parallel_partition():
    net = NetSpec(input_shape=(8,), layers=(LayerSpec("fc", 8), LayerSpec("fc", 4)), batch=4)
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("alpha", 0), Location("beta", 0)),
        server=Location("alpha", 1),
    )
    for graph in build_data_parallel(net, plan).graphs:
        parts, _ = partition_by_host(graph)
        assert graph_signature(recompose(parts)) == graph_signature(graph)


def test_sequence_partition_keeps_channels_unique():
    net = NetSpec(input_shape=(8,), layers=(LayerSpec("fc", 8), LayerSpec("fc", 4)), batch=4)
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("alpha", 0), Location("beta", 0)),
        server=Location("alpha", 1),
    )
    parts = partition_sequence(build_data_parallel(net, plan))
    seen = []
    for p in parts.values():
        seen.extend(c.channel for c in p.sends)
    assert len(seen) == len(set(seen))
    assert sorted(parts) == ["alpha", "beta"]
    for p in parts.values():
        assert len(p.sequence.graphs) == 2


# ---------------------------------------------------------------------------
# sockets


def make_pair(channels, timeout=5.0):
    """Two transports on loopback with ephemeral ports."""
    peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)}
    ta = Transport("a", peers, channels, timeout=timeout).start()
    tb = Transport("b", peers, channels, timeout=timeout).start()
    table = {"a": ("127.0.0.1", ta.port), "b": ("127.0.0.1", tb.port)}
    ta.peers.update(table)
    tb.peers.update(table)
    return ta, tb


def spec(channel, shape, src="a", dst="b"):
    from biflow.transport import ChannelSpec

    return ChannelSpec(channel, f"ch{channel}", src, dst, shape)


def test_socket_send_recv_round_trip():
    ta, tb = make_pair([spec(1, (2, 3))])
    try:
        sent = np.arange(6, dtype=np.float32).reshape(2, 3)
        ta.send(1, 0, sent)
        got = tb.recv(1, 0)
        assert got.shape == (2, 3)
        assert np.array_equal(got, sent)
    finally:
        ta.close()
        tb.close()


def test_recv_rejects_iteration_desync():
    ta, tb = make_pair([spec(1, (2,))])
    try:
        ta.send(1, 4, np.zeros(2, dtype=np.float32))
        with pytest.raises(TransportError, match="out of sync"):
            tb.recv(1, 5)
    finally:
        ta.close()
        tb.close()


def test_recv_rejects_wrong_element_count():
    ta, tb = make_pair([spec(1, (4,))])
    try:
        ta.send(1, 0, np.zeros(3, dtype=np.float32))
        with pytest.raises(TransportError, match="elements"):
            tb.recv(1, 0)
    finally:
        ta.close()
        tb.close()


def test_recv_times_out_instead_of_hanging():
    ta, tb = make_pair([spec(1, (2,))], timeout=0.3)
    try:
        with pytest.raises(TransportError, match="timed out"):
            tb.recv(1, 0)
    finally:
        ta.close()
        tb.close()


def test_malformed_frame_is_named_in_recv_error():
    t = Transport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,))], timeout=5)
    ours, theirs = socket.socketpair()
    try:
        ours.sendall(struct.pack("<I", 1) + b"a" + HEADER.pack(1, 0, 6) + bytes(6))
        t._reader(theirs)  # returns once the bad frame is read
        with pytest.raises(TransportError, match="not a multiple of 4") as err:
            t.recv(1, 0)
        assert "timed out" not in str(err.value)
    finally:
        ours.close()
        theirs.close()


def test_closed_peer_fails_only_its_own_channels():
    # c receives channel 1 from a and channel 2 from b; a closes after one
    # frame, b keeps its connection
    peers = {h: ("127.0.0.1", 0) for h in "abc"}
    channels = [spec(1, (2,), src="a", dst="c"), spec(2, (2,), src="b", dst="c")]
    tc = Transport("c", peers, channels, timeout=5).start()
    peers["c"] = ("127.0.0.1", tc.port)
    ta = Transport("a", peers, channels, timeout=5).start()
    tb = Transport("b", peers, channels, timeout=5).start()
    try:
        ta.send(1, 0, np.ones(2, dtype=np.float32))
        ta.close()
        # the frame queued before the close is still delivered
        assert np.array_equal(tc.recv(1, 0), np.ones(2, dtype=np.float32))
        with pytest.raises(TransportError, match="closed") as err:
            tc.recv(1, 1)
        assert "timed out" not in str(err.value) and "from a" in str(err.value)
        tb.send(2, 1, np.full(2, 3.0, dtype=np.float32))
        assert np.array_equal(tc.recv(2, 1), np.full(2, 3.0, dtype=np.float32))
    finally:
        ta.close()
        tb.close()
        tc.close()


def test_reset_connection_is_named_in_recv_error():
    t = Transport("c", {"c": ("127.0.0.1", 0)}, [spec(1, (2,), dst="c")],
                  timeout=5).start()
    try:
        with socket.create_connection(("127.0.0.1", t.port)) as s:
            s.sendall(struct.pack("<I", 1) + b"a"
                      + encode_frame(1, 0, np.ones(2, dtype=np.float32)))
            t.recv(1, 0)  # the reader now knows its peer
            # linger 0: close sends a reset instead of a clean end of stream
            s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        with pytest.raises(TransportError, match="connection failed") as err:
            t.recv(1, 1)
        assert "timed out" not in str(err.value)
    finally:
        t.close()


def test_port_clash_is_named():
    holder = socket.socket()
    try:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        t = Transport("a", {"a": ("127.0.0.1", port)})
        with pytest.raises(TransportError, match=f"a: cannot listen on 127.0.0.1:{port}"):
            t.start()
    finally:
        holder.close()


def test_send_to_dead_peer_times_out():
    peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 1)}  # port 1: nothing there
    ta = Transport("a", peers, [spec(1, (2,))], timeout=0.4).start()
    try:
        with pytest.raises(TransportError, match="cannot reach"):
            ta.send(1, 0, np.zeros(2, dtype=np.float32))
    finally:
        ta.close()


def test_unreachable_host_does_not_stall_sends_to_others(monkeypatch):
    # a's connect to "dead" blocks until released; a send to the live peer
    # b must go through meanwhile
    peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0), "dead": ("127.0.0.1", 0)}
    channels = [spec(1, (2,), dst="dead"), spec(2, (2,), dst="b")]
    tb = Transport("b", peers, channels, timeout=5).start()
    ta = Transport("a", dict(peers, b=("127.0.0.1", tb.port)), channels,
                   timeout=5).start()
    entered, release = threading.Event(), threading.Event()
    connect = ta._connect

    def blocking_connect(dst):
        if dst == "dead":
            entered.set()
            release.wait()
            raise TransportError("dead: unreachable")
        return connect(dst)

    monkeypatch.setattr(ta, "_connect", blocking_connect)
    errors = []

    def send(ch):
        try:
            ta.send(ch, 0, np.full(2, float(ch), dtype=np.float32))
        except TransportError as e:
            errors.append((ch, str(e)))

    to_dead = threading.Thread(target=send, args=(1,))
    to_live = threading.Thread(target=send, args=(2,))
    try:
        to_dead.start()
        assert entered.wait(5)
        to_live.start()
        to_live.join(5)  # hang guard only
        assert not to_live.is_alive()
        assert np.array_equal(tb.recv(2, 0), np.full(2, 2.0, dtype=np.float32))
    finally:
        release.set()
        to_dead.join(5)
        to_live.join(5)
        ta.close()
        tb.close()
    assert not to_dead.is_alive()
    assert errors == [(1, "dead: unreachable")]


def test_loopback_channel_short_circuits():
    peers = {"a": ("127.0.0.1", 0)}
    ta = Transport("a", peers, [spec(1, (2,), src="a", dst="a")]).start()
    try:
        ta.send(1, 0, np.array([5.0, 6.0], dtype=np.float32))
        assert ta.recv(1, 0).tolist() == [5.0, 6.0]
    finally:
        ta.close()


# ---------------------------------------------------------------------------
# multi-process runs


DIST_NET = NetSpec(
    input_shape=(12,),
    layers=(LayerSpec("fc", 10), LayerSpec("relu"), LayerSpec("fc", 3)),
    batch=6,
    lr=0.05,
)


def test_two_process_run_matches_in_process():
    plan_local = ParallelPlan(
        scheme="data",
        peers=(Location("local", 0), Location("local", 1)),
        server=Location("local", 0),
    )
    seq_local = build_data_parallel(DIST_NET, plan_local)
    store = TensorStore()
    init_params(DIST_NET, store, 19, seq_local.layout)
    feed = SyntheticFeed.for_net(DIST_NET, 19, peers=2)
    run_sequence(
        seq_local, store,
        before_iteration=feeder(feed, seq_local.layout), iterations=6,
    )

    plan_dist = ParallelPlan(
        scheme="data",
        peers=(Location("alpha", 0), Location("beta", 0)),
        server=Location("alpha", 0),
    )
    seq_dist = build_data_parallel(DIST_NET, plan_dist)
    got = run_distributed(
        seq_dist,
        iterations=6,
        setup=TrainingSetup(DIST_NET, 19, seq_dist.layout),
        feed=feed,
        collect={"alpha": tuple(seq_dist.layout.canonical_params)},
        timeout=20.0,
    )
    for name in seq_local.layout.canonical_params:
        ref, dist = store.array(name), got[name]
        if not np.array_equal(ref, dist):
            rel = np.abs(ref - dist).max() / max(np.abs(ref).max(), 1e-12)
            assert rel <= 1e-6, (name, rel)


def test_distributed_surfaces_child_failures():
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("alpha", 0), Location("beta", 0)),
        server=Location("alpha", 0),
    )
    seq = build_data_parallel(DIST_NET, plan)
    # no setup and no feed: children fail fast on missing source tensors
    with pytest.raises(TransportError):
        run_distributed(seq, iterations=1, timeout=5.0)


@dataclass(frozen=True)
class _DieOnProc1:
    """Setup that kills host proc1 before it can report; other hosts train."""

    setup: TrainingSetup

    def __call__(self, store):
        if multiprocessing.current_process().name == "biflow-host-proc1":
            os._exit(3)
        self.setup(store)


def test_dead_host_is_named_with_its_exit_code():
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("proc0", 0), Location("proc1", 0)),
        server=Location("proc0", 0),
    )
    seq = build_data_parallel(DIST_NET, plan)
    with pytest.raises(TransportError) as err:
        run_distributed(
            seq,
            iterations=2,
            setup=_DieOnProc1(TrainingSetup(DIST_NET, 19, seq.layout)),
            feed=SyntheticFeed.for_net(DIST_NET, 19, peers=2),
            timeout=3.0,
        )
    assert "host proc1 exited with code 3" in str(err.value)
