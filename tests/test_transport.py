"""Frame codec, host partitioning, and the TCP transport."""

import multiprocessing
import os
import re
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

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
from biflow.dispatcher import DispatchError, run_sequence
from biflow.graph import BiGraph, GraphSequence, Location
from biflow.ops import KINDS, KernelError, OpKindSpec, TensorStore
from biflow.transport import (
    _HELLO,
    HEADER,
    FrameError,
    Transport,
    TransportError,
    decode_frame,
    encode_frame,
    partition_by_host,
    partition_sequence,
    run_distributed,
)
from oracles import recompose

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


def test_send_writes_the_hello_then_the_codec_frame():
    # a raw listener stands in for host b: what Transport.send puts on the
    # wire is the hello naming a, then encode_frame's bytes, and nothing else
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(10)  # hang guard only
    peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", listener.getsockname()[1])}
    ta = Transport("a", peers, [spec(7, (3,))]).start()
    try:
        ta.send(7, 4, np.array([1.5, -2.0, 3.25], dtype=np.float32))
        conn, _ = listener.accept()
    finally:
        ta.close()
        listener.close()
    with conn:
        conn.settimeout(10)  # hang guard only
        wire = b""
        while chunk := conn.recv(4096):  # until a's close ends the stream
            wire += chunk
    assert wire == _HELLO.pack(1) + b"a" + encode_frame(7, 4, [1.5, -2.0, 3.25])


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
    t = Transport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,))], timeout=5).start()
    try:
        with socket.create_connection(("127.0.0.1", t.port)) as s:
            s.sendall(struct.pack("<I", 1) + b"a" + HEADER.pack(1, 0, 6) + bytes(6))
            with pytest.raises(TransportError, match="not a multiple of 4") as err:
                t.recv(1, 0)
        assert "timed out" not in str(err.value) and "from a" in str(err.value)
    finally:
        t.close()


def test_recv_on_a_channel_with_no_route_fails_like_send():
    with Transport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,))],
                   timeout=30).start() as t:
        for call in (t.recv, lambda ch, it: t.send(ch, it, np.zeros(2))):
            with pytest.raises(TransportError) as err:
                call(99, 0)
            assert str(err.value) == "channel 99 has no route"


def test_graph_recv_on_a_channel_with_no_route_fails_before_it_waits():
    # the 30 s timeout is a hang guard only: a recv that waited it out would
    # raise the timeout message, so only the message is checked
    loc = Location("b", 0)
    g = BiGraph()
    got = g.add_tensor("got", (2,), loc)
    g.add_operator("wait", "recv", [], [got], loc, attrs={"channel": 99})
    with Transport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,))],
                   timeout=30).start() as t:
        with pytest.raises(DispatchError,
                           match="^operator 'wait' failed: channel 99 has no route$"):
            run_sequence(GraphSequence([g]), TensorStore(), transport=t)


def hello(peer: str) -> bytes:
    return struct.pack("<I", len(peer)) + peer.encode()


@pytest.mark.parametrize("channels, peer, header, recv_channel, cause", [
    # 2**32 - 4 payload bytes announced on a 4-element channel
    ([spec(1, (4,))], "a", HEADER.pack(1, 0, 2**32 - 4), 1,
     "channel 1: payload has 1073741823 elements, tensor (4,) needs 4"),
    ([spec(1, (4,))], "a", HEADER.pack(9, 0, 16), 1, "channel 9 has no route"),
    # b sends on a's channel; b's own channel fails, a's keeps working
    ([spec(1, (4,), src="a"), spec(2, (4,), src="b")], "b",
     HEADER.pack(1, 0, 16), 2, "channel 1 comes from a, not b"),
], ids=["oversized", "unknown-channel", "wrong-host"])
def test_frame_is_checked_against_its_route_at_its_header(
        channels, peer, header, recv_channel, cause):
    # only the header is sent: a frame taken past it would wait out the
    # timeout for its payload
    t = Transport("b", {"b": ("127.0.0.1", 0)}, channels, timeout=30).start()
    tracemalloc.start()
    try:
        with socket.create_connection(("127.0.0.1", t.port)) as s:
            s.sendall(hello(peer) + header)
            t0 = time.monotonic()
            with pytest.raises(TransportError, match=re.escape(cause)) as err:
                t.recv(recv_channel, 0)
            assert time.monotonic() - t0 < 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        t.close()
    assert f"malformed frame: {cause} (from {peer})" in str(err.value)
    assert peak < 1 << 20  # no payload buffer was allocated


def test_wrong_size_self_send_raises_at_send():
    t = Transport("a", {"a": ("127.0.0.1", 0)}, [spec(1, (2,), src="a", dst="a")])
    with pytest.raises(TransportError, match="payload has 3 elements, tensor "
                       r"\(2,\) needs 2"):
        t.send(1, 0, np.zeros(3, dtype=np.float32))
    assert not t.ready(1)


CHUNKED = [spec(1, (3,)), spec(2, (2, 2)), spec(3, (5,))]


def chunked_frames(seed):
    """Six frames on the three CHUNKED channels, two iterations each."""
    rng = np.random.default_rng(seed)
    return [
        (c.channel, it, rng.standard_normal(c.shape).astype(np.float32))
        for it in range(2) for c in CHUNKED
    ]


def write_in_chunks(t, data, rng):
    """Send ``data`` to ``t`` as peer a in seeded chunks of 1-20 bytes,
    polling ``t`` after each chunk; returns the open socket."""
    s = socket.create_connection(("127.0.0.1", t.port))
    at = 0
    while at < len(data):
        n = int(rng.integers(1, 21))
        s.sendall(data[at:at + n])
        at += n
        t.poll(1.0)  # returns once the chunk is readable
    return s


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_chunked_stream_is_delivered_bit_exact(seed):
    frames = chunked_frames(seed)
    data = hello("a") + b"".join(encode_frame(*f) for f in frames)
    t = Transport("b", {"b": ("127.0.0.1", 0)}, CHUNKED, timeout=5).start()
    try:
        with write_in_chunks(t, data, np.random.default_rng(seed)):
            for channel, it, payload in frames:
                got = t.recv(channel, it)
                assert got.tobytes() == payload.tobytes()
    finally:
        t.close()


STREAM_FAULTS = ("cut", "channel", "iteration", "length", "ragged")


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("fault", STREAM_FAULTS)
def test_chunked_stream_fault_is_named(seed, fault):
    # the stream is cut, or one header field of a seeded frame corrupted;
    # the frames before the fault arrive intact and the faulty one's recv
    # names the fault, without waiting out the timeout
    rng = np.random.default_rng([seed, STREAM_FAULTS.index(fault)])
    frames = chunked_frames(seed)
    parts = [encode_frame(*f) for f in frames]
    bad = int(rng.integers(len(frames)))
    start = len(hello("a")) + sum(map(len, parts[:bad]))
    channel, it, payload = frames[bad]
    data = hello("a") + b"".join(parts)
    if fault == "cut":  # inside the bad frame's header or payload
        data = data[:start + int(rng.integers(len(parts[bad])))]
        cause = "peer connection closed (from a)"
    else:
        header = {
            "channel": HEADER.pack(99, it, payload.nbytes),
            "iteration": HEADER.pack(channel, it + 7, payload.nbytes),
            "length": HEADER.pack(channel, it, payload.nbytes + 4),
            "ragged": HEADER.pack(channel, it, payload.nbytes + 1),
        }[fault]
        data = data[:start] + header + data[start + HEADER.size:]
        cause = {
            "channel": "channel 99 has no route (from a)",
            "iteration": f"out of sync: got iteration {it + 7}, expected {it}",
            "length": f"payload has {payload.size + 1} elements",
            "ragged": "not a multiple of 4",
        }[fault]
        if fault != "iteration":  # nothing past a bad header is read
            data = data[:start + HEADER.size]
    t = Transport("b", {"b": ("127.0.0.1", 0)}, CHUNKED, timeout=5).start()
    try:
        s = write_in_chunks(t, data, rng)
        if fault == "cut":
            s.close()
        with s:
            for c, i, p in frames[:bad]:
                assert t.recv(c, i).tobytes() == p.tobytes()
            t0 = time.monotonic()
            with pytest.raises(TransportError) as err:
                t.recv(channel, it)
            assert time.monotonic() - t0 < 1.0
    finally:
        t.close()
    assert cause in str(err.value) and "timed out" not in str(err.value)


def test_first_connect_imports_no_codec():
    # getaddrinfo imports the idna codec for a str host name; the bench's
    # host processes are fresh interpreters and would pay for it every time
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from biflow.transport import ChannelSpec, Transport

        peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)}
        channels = [ChannelSpec(1, "c", "a", "b", (2,))]
        ta = Transport("a", peers, channels).start()
        tb = Transport("b", peers, channels).start()
        table = {"a": ("127.0.0.1", ta.port), "b": ("127.0.0.1", tb.port)}
        ta.peers.update(table)
        tb.peers.update(table)
        ta.send(1, 0, np.ones(2, dtype=np.float32))
        assert tb.recv(1, 0).tolist() == [1.0, 1.0]
        ta.close()
        tb.close()
        assert "encodings.idna" not in sys.modules, "connect imported encodings.idna"
    """)
    import biflow

    src = str(Path(biflow.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


def test_cancel_fails_waiting_and_later_recvs():
    t = Transport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,)), spec(2, (2,))],
                  timeout=30)
    t.cancel("run aborted")
    for channel in (1, 2, 1):
        with pytest.raises(TransportError, match="run aborted"):
            t.recv(channel, 0)


def test_kernel_failure_does_not_wait_for_blocked_recv(monkeypatch):
    # a kernel fails on one lane while a recv on another lane is pending,
    # its frame never to come; the run must end with the kernel's error, not
    # the recv's 30 s timeout
    polled, asked = [], []

    class WatchedTransport(Transport):
        def poll(self, timeout=0.0):
            polled.append(timeout)
            super().poll(timeout)

        def ready(self, channel):
            asked.append(channel)  # the run loop asks when the recv's lane reaches it
            return super().ready(channel)

    def fail_once_recv_waits(ctx, op):
        if 1 not in asked:
            raise KernelError("ran before the recv was pending")
        raise KernelError("injected failure")

    monkeypatch.setitem(KINDS, "fail_once_recv_waits", OpKindSpec(
        "fail_once_recv_waits", lambda ins, outs, attrs: None, fail_once_recv_waits
    ))
    loc = Location("b", 0)
    g = BiGraph()
    x = g.add_tensor("x", (2,), loc)
    y = g.add_tensor("y", (2,), loc)
    got = g.add_tensor("got", (2,), loc)
    # inserted first, so the loop reaches the recv before the kernel
    g.add_operator("wait", "recv", [], [got], loc, thread=1, attrs={"channel": 1})
    g.add_operator("bad_kernel", "fail_once_recv_waits", [x], [y], loc, thread=0)
    store = TensorStore()
    store.set("x", np.zeros(2, dtype=np.float32))
    with WatchedTransport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,))],
                          timeout=30).start() as t:
        t0 = time.monotonic()
        with pytest.raises(DispatchError,
                           match="'bad_kernel' failed: injected failure"):
            run_sequence(GraphSequence([g]), store, transport=t)
        assert time.monotonic() - t0 < 1.0
    assert polled == []  # the kernel was ready, so the loop never polled or waited


def test_pending_recv_times_out_with_the_transport_error():
    loc = Location("b", 0)
    g = BiGraph()
    got = g.add_tensor("got", (2,), loc)
    g.add_operator("wait", "recv", [], [got], loc, thread=1, attrs={"channel": 1})
    with Transport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,))],
                   timeout=0.3).start() as t:
        with pytest.raises(DispatchError, match="'wait' failed: recv on channel 1 "
                           "timed out after 0.3s"):
            run_sequence(GraphSequence([g]), TensorStore(), transport=t)


def test_lane_waits_behind_its_pending_recv():
    # the recv's lane reaches it first; its frame comes from a send on
    # another lane, so the operator queued behind the recv on its lane
    # must run after the recv ends, and the send before it
    loc = Location("a", 0)
    g = BiGraph()
    x = g.add_tensor("x", (2,), loc)
    got = g.add_tensor("got", (2,), loc)
    after = g.add_tensor("after_out", (2,), loc)
    g.add_operator("wait", "recv", [], [got], loc, thread=1, attrs={"channel": 1})
    g.add_operator("after", "relu_forward", [x], [after], loc, thread=1)
    g.add_operator("give", "send", [x], [], loc, thread=0, attrs={"channel": 1})
    store = TensorStore()
    store.set("x", np.array([-1.0, 2.0], dtype=np.float32))
    t = Transport("a", {"a": ("127.0.0.1", 0)}, [spec(1, (2,), src="a", dst="a")],
                  timeout=5)
    (report,) = run_sequence(GraphSequence([g]), store, transport=t)
    span = {r.name: (r.start, r.end) for r in report.trace}
    assert span["give"][1] <= span["wait"][1] <= span["after"][0]
    assert span["wait"][0] <= span["give"][0]  # its span began when its lane reached it
    assert store.array("got").tolist() == [-1.0, 2.0]


def test_loop_polls_only_when_no_operator_is_ready():
    # a recv pending from the start, a chain of operators on another lane,
    # then the send to this host that feeds the recv: the loop has an
    # operator to run until the chain ends, so it polls once, not per operator
    polls = []

    class CountingTransport(Transport):
        def poll(self, timeout=0.0):
            polls.append(timeout)
            super().poll(timeout)

    loc = Location("a", 0)
    g = BiGraph()
    h = g.add_tensor("x", (2,), loc)
    got = g.add_tensor("got", (2,), loc)
    g.add_operator("wait", "recv", [], [got], loc, thread=1, attrs={"channel": 1})
    for k in range(24):
        out = g.add_tensor(f"h{k}", (2,), loc)
        g.add_operator(f"step{k}", "relu_forward", [h], [out], loc, thread=0)
        h = out
    g.add_operator("give", "send", [h], [], loc, thread=0, attrs={"channel": 1})
    store = TensorStore()
    store.set("x", np.array([-1.0, 2.0], dtype=np.float32))
    with CountingTransport("a", {"a": ("127.0.0.1", 0)},
                           [spec(1, (2,), src="a", dst="a")], timeout=5).start() as t:
        for _ in range(3):
            polls.clear()
            run_sequence(GraphSequence([g]), store, transport=t)
            assert len(polls) <= 1
    assert store.array("got").tolist() == [0.0, 2.0]


def test_frame_ends_a_recv_before_a_pending_deadline():
    # a delayed operator holds lane 1's worker for 0.5 s while a recv on
    # lane 0 waits; its frame, sent by peer a from inside the host's first
    # waiting poll, must end the recv then, not after the delay
    peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)}
    channels = [spec(1, (2,))]
    sent = []

    class PeerSendsInPoll(Transport):
        def poll(self, timeout=0.0):
            if timeout > 0 and not sent:
                sent.append(timeout)
                ta.send(1, 0, np.ones(2, dtype=np.float32))
            super().poll(timeout)

    loc = Location("b", 0)
    g = BiGraph()
    x = g.add_tensor("x", (2,), loc)
    y = g.add_tensor("y", (2,), loc)
    got = g.add_tensor("got", (2,), loc)
    g.add_operator("slow", "relu_forward", [x], [y], loc, thread=1,
                   attrs={"delay_s": 0.5})
    g.add_operator("wait", "recv", [], [got], loc, thread=0, attrs={"channel": 1})
    store = TensorStore()
    store.set("x", np.zeros(2, dtype=np.float32))
    with PeerSendsInPoll("b", peers, channels, timeout=5).start() as tb, \
            Transport("a", peers, channels, timeout=5).start() as ta:
        table = {"a": ("127.0.0.1", ta.port), "b": ("127.0.0.1", tb.port)}
        ta.peers.update(table)
        tb.peers.update(table)
        (report,) = run_sequence(GraphSequence([g]), store, transport=tb)
    span = {r.name: (r.start, r.end) for r in report.trace}
    assert sent
    assert span["wait"][1] < span["slow"][0] + 500_000_000
    assert store.array("got").tolist() == [1.0, 1.0]


def test_fault_from_a_host_that_sources_no_channel_fails_every_recv():
    # z says hello, though no channel comes from it, and sends a frame on
    # a's channel: the recv on that channel fails at once, naming z
    t = Transport("b", {"b": ("127.0.0.1", 0)}, [spec(1, (2,))], timeout=1.0).start()
    try:
        assert str(t.timed_out(1)) == (
            "recv on channel 1 timed out after 1.0s waiting for a")
        with socket.create_connection(("127.0.0.1", t.port)) as s:
            s.sendall(hello("z") + HEADER.pack(1, 0, 8))
            with pytest.raises(TransportError, match="recv on channel 1 failed") as err:
                t.recv(1, 0)
    finally:
        t.close()
    assert "channel 1 comes from a, not z (from z)" in str(err.value)


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


def test_connect_retry_fails_on_an_earlier_fault():
    # a's first send targets a refusing port with a 30 s timeout; c has
    # meanwhile sent a a malformed frame, so the send gives up on c's fault
    peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 1)}  # port 1: nothing there
    channels = [spec(1, (2,), src="a", dst="b"), spec(2, (2,), src="c", dst="a")]
    ta = Transport("a", peers, channels, timeout=30).start()
    errors = []

    def send():
        try:
            ta.send(1, 0, np.zeros(2, dtype=np.float32))
        except TransportError as e:
            errors.append(str(e))

    sender = threading.Thread(target=send)
    try:
        with socket.create_connection(("127.0.0.1", ta.port)) as c:
            c.sendall(hello("c") + HEADER.pack(2, 0, 6))
            sender.start()
            sender.join(10)  # hang guard only
            assert not sender.is_alive()
    finally:
        ta.close()
        sender.join(35)
    (err,) = errors
    assert err.startswith("a: gave up reaching b at 127.0.0.1:1")
    assert err.endswith("on an earlier fault: malformed frame: payload length 6 "
                        "is not a multiple of 4 (from c)")


def test_port_probe_does_not_end_connect_retries():
    peers = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 1)}  # port 1: nothing there
    ta = Transport("a", peers, [spec(1, (2,), src="a", dst="b")], timeout=0.5).start()
    try:
        socket.create_connection(("127.0.0.1", ta.port)).close()
        with pytest.raises(TransportError, match="a: cannot reach b") as err:
            ta.send(1, 0, np.zeros(2, dtype=np.float32))
    finally:
        ta.close()
    assert "peer connection closed" not in str(err.value)


def test_hosts_sending_large_frames_to_each_other_do_not_deadlock():
    # each 16 MB frame is far larger than a loopback socket's buffers, so
    # each send finishes only if it reads the other host's frame meanwhile
    n = 4 << 20
    ta, tb = make_pair([spec(1, (n,), src="a", dst="b"),
                        spec(2, (n,), src="b", dst="a")], timeout=30)
    frames = {"a": np.arange(n, dtype=np.float32), "b": -np.arange(n, dtype=np.float32)}
    got, errors = {}, []

    def host(t, out_channel, in_channel):
        try:
            t.send(out_channel, 0, frames[t.host])
            got[t.host] = t.recv(in_channel, 0)
        except Exception as exc:  # noqa: BLE001 - inspected below
            errors.append(exc)

    hosts = [threading.Thread(target=host, args=(ta, 1, 2)),
             threading.Thread(target=host, args=(tb, 2, 1))]
    t0 = time.monotonic()
    try:
        for h in hosts:
            h.start()
        for h in hosts:
            h.join(60)  # hang guard only
    finally:
        ta.close()
        tb.close()
    assert not any(h.is_alive() for h in hosts) and errors == []
    assert time.monotonic() - t0 < 10.0  # the transport timeout is 30 s
    assert np.array_equal(got["a"], frames["b"])
    assert np.array_equal(got["b"], frames["a"])


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_close_releases_every_socket():
    before = open_fds()
    ta, tb = make_pair([spec(1, (2,), src="a", dst="b"),
                        spec(2, (2,), src="b", dst="a")])
    ta.send(1, 0, np.ones(2, dtype=np.float32))
    tb.send(2, 0, np.ones(2, dtype=np.float32))
    tb.recv(1, 0)
    ta.recv(2, 0)
    assert open_fds() > before  # listeners, selectors and both connections
    ta.close()
    tb.close()
    assert open_fds() == before


def test_send_after_close_raises_and_leaks_no_socket():
    ta, tb = make_pair([spec(1, (2,))])
    try:
        ta.close()
        closed = open_fds()
        with pytest.raises(TransportError, match="^a: transport is closed$"):
            ta.send(1, 0, np.zeros(2, dtype=np.float32))
        assert open_fds() == closed
    finally:
        ta.close()
        tb.close()


def test_recv_and_poll_on_a_closed_transport_raise_at_once():
    # with a 30 s timeout, a recv that slept it out would raise the timeout
    # message; only the message is checked, so no clock is read
    closed = "^a: transport is closed$"
    ta, tb = make_pair([spec(1, (2,), src="a", dst="a"), spec(2, (2,), src="b")],
                       timeout=30)
    tb.close()
    ta.send(1, 0, np.array([5.0, 6.0], dtype=np.float32))
    ta.close()
    # a frame queued before the close still ends its recv
    assert ta.recv(1, 0).tolist() == [5.0, 6.0]
    for call in (lambda: ta.recv(1, 1), lambda: ta.recv(2, 0), lambda: ta.poll(30)):
        with pytest.raises(TransportError, match=closed):
            call()
    never = Transport("a", {"a": ("127.0.0.1", 0)}, [spec(1, (2,))], timeout=30)
    with pytest.raises(TransportError, match=closed):
        never.recv(1, 0)
    loc = Location("a", 0)
    g = BiGraph()
    got = g.add_tensor("got", (2,), loc)
    g.add_operator("wait", "recv", [], [got], loc, thread=1, attrs={"channel": 1})
    with pytest.raises(DispatchError, match="'wait' failed: a: transport is closed$"):
        run_sequence(GraphSequence([g]), TensorStore(), transport=never)


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
