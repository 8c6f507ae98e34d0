"""Multi-host execution: frame codec, host partitioning, TCP transport.

A multi-host graph is cut along its cross-host copy operators: each becomes
a ``send`` on the producing host and a ``recv`` on the consuming host,
joined by a numbered channel.  Every host then runs its own subgraph with a
:class:`Transport` that moves frames over one TCP connection per ordered
host pair.  Iteration tags ride along in every frame so two hosts that fall
out of lockstep fail loudly instead of silently training on stale tensors.

A transport starts no thread and serves one.  Its sockets are non-blocking
and share one ``selectors`` selector, which the thread calling it drives:
the dispatcher's run loop polls it only when no operator is ready and a
``recv`` is pending, waiting in it until a frame comes or the oldest pending
``recv`` times out, so every operator and socket of a host runs on that one
thread and the host spends CPU on the network only when frames move.  In
CPython a thread of its own pays only for work that gives up the GIL, and a
loopback socket read rarely does.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import selectors
import socket
import struct
import time
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import _one_blas_thread
from .dispatcher import run_sequence
from .graph import BiGraph, GraphError, GraphSequence, Location
from .ops import TensorStore

if TYPE_CHECKING:  # imported when a run starts: it pulls in subprocess and more
    from multiprocessing.connection import Connection

__all__ = [
    "ChannelSpec",
    "FrameError",
    "HostPartition",
    "Transport",
    "TransportError",
    "decode_frame",
    "encode_frame",
    "owned_sources",
    "partition_by_host",
    "partition_sequence",
    "run_distributed",
]

HEADER = struct.Struct("<QQI")  # channel, iteration, payload length in bytes


class FrameError(ValueError):
    """A byte buffer is not a well-formed frame."""


class TransportError(RuntimeError):
    """Connection, timeout, or synchronization failure between hosts."""


def encode_frame(channel: int, iteration: int, payload: np.ndarray) -> bytes:
    """Header plus raw little-endian float32 payload."""
    data = np.ascontiguousarray(payload, dtype="<f4").tobytes()
    return HEADER.pack(channel, iteration, len(data)) + data


def _check_payload_length(length: int) -> None:
    if length % 4 != 0:
        raise FrameError(f"payload length {length} is not a multiple of 4")


def decode_frame(buf: bytes) -> tuple[int, int, np.ndarray]:
    """Inverse of :func:`encode_frame`; the buffer must be exactly one frame."""
    if len(buf) < HEADER.size:
        raise FrameError(f"truncated frame: {len(buf)} bytes < {HEADER.size} header")
    channel, iteration, length = HEADER.unpack_from(buf)
    if len(buf) - HEADER.size != length:
        raise FrameError(
            f"length mismatch: header says {length} payload bytes, "
            f"got {len(buf) - HEADER.size}"
        )
    _check_payload_length(length)
    payload = np.frombuffer(buf, dtype="<f4", offset=HEADER.size).copy()
    return channel, iteration, payload


# ---------------------------------------------------------------------------
# partitioning


@dataclass(frozen=True)
class ChannelSpec:
    """One cut copy: a numbered point-to-point tensor stream.

    Keeps the original operator's name and placement so the cut is exactly
    invertible."""

    channel: int
    name: str
    src_host: str
    dst_host: str
    shape: tuple[int, ...]
    op_location: Location | None = None
    op_thread: int = 0


@dataclass
class HostPartition:
    """One host's share of a graph plus its channel endpoints."""

    host: str
    graph: BiGraph
    sends: list[ChannelSpec] = field(default_factory=list)
    recvs: list[ChannelSpec] = field(default_factory=list)


def _vertex_hosts(graph: BiGraph, op) -> set[str]:
    hosts = {op.location.host}
    for t in list(op.inputs) + list(op.outputs):
        hosts.add(graph.tensors[t].location.host)
    return hosts


def partition_by_host(
    graph: BiGraph, first_channel: int = 1
) -> tuple[dict[str, HostPartition], int]:
    """Split a graph into per-host subgraphs.

    Cross-host copies become send/recv pairs on a fresh channel; any other
    operator touching two hosts is an error.  Returns the partitions and the
    next unused channel number (so a sequence can keep ids unique across its
    graphs).
    """
    hosts = sorted(
        {t.location.host for t in graph.tensors.values()}
        | {o.location.host for o in graph.operators.values()}
    )
    parts = {h: HostPartition(h, BiGraph()) for h in hosts}

    ids = {
        t.id: parts[t.location.host].graph.add_tensor(t.name, t.shape, t.location)
        for t in graph.tensors.values()
    }

    channel = first_channel
    for op in sorted(graph.operators.values(), key=lambda o: o.id):
        spread = _vertex_hosts(graph, op)
        if len(spread) == 1:
            parts[op.location.host].graph.add_operator_from(op, ids)
            continue
        if op.kind != "copy":
            raise GraphError(
                f"operator {op.name!r} ({op.kind}) touches hosts "
                f"{sorted(spread)}; only copies may cross hosts"
            )
        src = graph.tensors[op.inputs[0]]
        dst = graph.tensors[op.outputs[0]]
        spec = ChannelSpec(channel, op.name, src.location.host,
                           dst.location.host, src.shape,
                           op_location=op.location, op_thread=op.thread)
        channel += 1
        parts[spec.src_host].graph.add_operator(
            f"send_{op.name}", "send", [ids[src.id]], [],
            src.location, thread=op.thread, attrs={"channel": spec.channel},
        )
        parts[spec.src_host].sends.append(spec)
        parts[spec.dst_host].graph.add_operator(
            f"recv_{op.name}", "recv", [], [ids[dst.id]],
            dst.location, thread=op.thread, attrs={"channel": spec.channel},
        )
        parts[spec.dst_host].recvs.append(spec)
    return parts, channel


@dataclass
class SequencePartition:
    """One host's share of a whole sequence."""

    host: str
    sequence: GraphSequence
    sends: list[ChannelSpec]
    recvs: list[ChannelSpec]

    @property
    def channels(self) -> list[ChannelSpec]:
        return self.sends + self.recvs


def partition_sequence(seq: GraphSequence) -> dict[str, SequencePartition]:
    """Partition every graph of a sequence, with channel ids unique across
    the sequence."""
    per_graph: list[dict[str, HostPartition]] = []
    channel = 1
    for g in seq.graphs:
        parts, channel = partition_by_host(g, channel)
        per_graph.append(parts)
    hosts = sorted({h for parts in per_graph for h in parts})
    out = {}
    for h in hosts:
        graphs, sends, recvs = [], [], []
        for parts in per_graph:
            if h in parts:
                graphs.append(parts[h].graph)
                sends.extend(parts[h].sends)
                recvs.extend(parts[h].recvs)
            else:
                graphs.append(BiGraph())  # nothing for this host in this phase
        out[h] = SequencePartition(
            h,
            GraphSequence(graphs, layout=seq.layout),
            sends,
            recvs,
        )
    return out


# ---------------------------------------------------------------------------
# TCP transport


def _size_fault(spec: ChannelSpec, elements: int) -> str:
    return (
        f"channel {spec.channel}: payload has {elements} elements, "
        f"tensor {spec.shape} needs {math.prod(spec.shape)}"
    )


_HELLO = struct.Struct("<I")
_MAX_NAME = 1024  # the longest host name a hello may announce, in bytes
_CONNECT_RETRY_S = 0.02  # how long a refused connect polls before it retries
# Stands in for the iteration tag of a channel item that carries a fault
# instead of a payload.
_FAULT = object()
# Selector data of an outgoing socket that a blocked send waits to write to;
# the listener's data is None and a connection's its _Incoming.
_WRITABLE = object()


class _Incoming:
    """Parse state of one accepted connection: a hello naming the peer, then
    frames.  ``view`` is the part being read, ``got`` its bytes so far and
    ``on_full`` the transport method that takes it once it is complete."""

    __slots__ = ("sock", "peer", "header", "frame", "view", "got", "on_full")

    def __init__(self, sock: socket.socket, on_hello) -> None:
        self.sock = sock
        self.peer: str | None = None
        self.header = bytearray(HEADER.size)
        self.frame: tuple | None = None  # (channel, iteration, payload) being read
        self.expect(bytearray(_HELLO.size), on_hello)

    def expect(self, buf, on_full) -> None:
        self.view = memoryview(buf).cast("B")
        self.got = 0
        self.on_full = on_full


class Transport:
    """Frame router for one host, with no thread of its own.

    Listens on its own port, lazily opens one outgoing connection per
    destination host, and sorts incoming frames into per-channel FIFOs.
    Whoever calls it drives it: :meth:`poll` accepts connections and reads
    whatever has arrived, parsing each payload straight into a float32
    array; :meth:`send` writes from the calling thread and, whenever a
    write would block, polls, so two hosts sending large frames to each
    other cannot deadlock; :meth:`recv` polls until its channel holds an
    item.  ``recv`` checks the frame's iteration tag against the caller's
    and raises on mismatch — a desynchronized peer is an error, not a hang.
    A transport with routes checks each frame against its channel's route
    once, when its header arrives (or, for a frame a host sends itself, in
    ``send``): a channel it has no route for, a frame from a host other than
    the channel's source, or a payload size other than the channel's tensor
    is a malformed frame, rejected before any payload buffer is allocated.
    When the connection from a peer fails (a malformed frame, a reset, or
    the peer closing it), ``recv`` on that peer's channels raises at once,
    naming the fault, after the frames that arrived before it; on every
    channel, when the peer sources none.
    :meth:`cancel` ends every channel the same way.  One thread drives a
    transport: the dispatcher's, from the thread that calls a run.  A
    ``send`` after :meth:`close` raises and opens no connection, and so do
    ``poll`` and a ``recv`` that no queued item ends, before any start too.
    """

    def __init__(
        self,
        host: str,
        peers: dict[str, tuple[str, int]],
        channels: list[ChannelSpec] = (),
        timeout: float = 30.0,
    ) -> None:
        if host not in peers:
            raise TransportError(f"own host {host!r} missing from peer table")
        self.host = host
        self.peers = dict(peers)
        self.timeout = timeout
        self._route = {c.channel: c for c in channels}
        # the payload bytes of each routed channel's frames
        self._nbytes = {c.channel: 4 * math.prod(c.shape) for c in channels}
        # per channel: (iteration, payload) items, or (_FAULT, reason)
        self._frames: defaultdict[int, deque] = defaultdict(deque)
        self._out: dict[str, socket.socket] = {}
        self._selector: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._fault: str | None = None

    # -- lifecycle

    def start(self) -> "Transport":
        addr, port = self.peers[self.host]
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((addr, port))
            srv.listen()
        except OSError as e:
            srv.close()
            raise TransportError(
                f"{self.host}: cannot listen on {addr}:{port} ({e})"
            ) from None
        srv.setblocking(False)
        self._listener = srv
        self._selector = selectors.DefaultSelector()
        self._selector.register(srv, selectors.EVENT_READ)
        return self

    @property
    def closed(self) -> bool:
        """True before :meth:`start` and after :meth:`close`: no frame can
        come."""
        return self._selector is None

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def close(self) -> None:
        """Close the listener, every connection and the selector."""
        selector, self._selector = self._selector, None
        socks = set(self._out.values())
        self._out.clear()
        if self._listener is not None:
            socks.add(self._listener)
        if selector is not None:
            socks.update(key.fileobj for key in selector.get_map().values())
            selector.close()
        for sock in socks:
            sock.close()

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- incoming

    def poll(self, timeout: float = 0.0) -> None:
        """Accept pending connections and read every frame that has arrived,
        waiting up to ``timeout`` seconds for the first socket event.  On a
        transport that is closed or was never started it raises at once."""
        if self.closed:
            raise TransportError(f"{self.host}: transport is closed")
        for key, _ in self._selector.select(timeout):
            if key.data is None:
                self._accept()
            elif key.data is not _WRITABLE:
                self._read(key.data)

    def ready(self, channel: int) -> bool:
        """True when a frame or a fault waits on ``channel``."""
        return bool(self._frames[channel])

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # none left to accept
                return
            conn.setblocking(False)
            self._selector.register(
                conn, selectors.EVENT_READ, _Incoming(conn, self._on_hello)
            )

    def _read(self, inc: _Incoming) -> None:
        """Read what ``inc``'s socket holds, taking each part as it completes."""
        try:
            while True:
                want = len(inc.view) - inc.got
                n = inc.sock.recv_into(inc.view[inc.got:])
                if not n:
                    raise EOFError
                inc.got += n
                while inc.got == len(inc.view):  # an empty next part is full at once
                    inc.on_full(inc)
                if n < want:
                    return  # a short read: nothing more has arrived
        except BlockingIOError:
            return
        except EOFError:
            self._drop(inc, "peer connection closed")
        except FrameError as e:
            self._drop(inc, f"malformed frame: {e}")
        except OSError as e:
            self._drop(inc, f"peer connection failed: {e}")

    def _on_hello(self, inc: _Incoming) -> None:
        (name_len,) = _HELLO.unpack(inc.view)
        if name_len > _MAX_NAME:
            raise FrameError(f"hello announces a {name_len}-byte host name")
        inc.expect(bytearray(name_len), self._on_name)

    def _on_name(self, inc: _Incoming) -> None:
        inc.peer = bytes(inc.view).decode(errors="replace")
        inc.expect(inc.header, self._on_header)

    def _on_header(self, inc: _Incoming) -> None:
        channel, iteration, length = HEADER.unpack(inc.view)
        _check_payload_length(length)
        if self._route:
            spec = self._route.get(channel)
            if spec is None:
                raise FrameError(f"channel {channel} has no route")
            if spec.src_host != inc.peer:
                raise FrameError(
                    f"channel {channel} comes from {spec.src_host}, not {inc.peer}"
                )
            if length != self._nbytes[channel]:
                raise FrameError(_size_fault(spec, length // 4))
        try:
            payload = np.empty(length // 4, dtype="<f4")
        except (MemoryError, ValueError):
            raise FrameError(f"payload length {length} cannot be held") from None
        inc.frame = (channel, iteration, payload)
        inc.expect(payload, self._on_payload)

    def _on_payload(self, inc: _Incoming) -> None:
        channel, iteration, payload = inc.frame
        inc.frame = None
        self._frames[channel].append((iteration, payload))
        inc.expect(inc.header, self._on_header)

    def _drop(self, inc: _Incoming, fault: str) -> None:
        self._selector.unregister(inc.sock)
        inc.sock.close()
        self._record_fault(inc.peer, fault)

    def _record_fault(self, peer: str | None, fault: str) -> None:
        """Name the fault and, once the peer is known, end each channel from
        it with a fault item queued behind the frames already received; a
        fault from a peer that sources no channel ends every channel, as
        :meth:`cancel` does.  A connection that fails before its hello ends
        no channel, since it may be a mere port probe."""
        self._fault = fault if peer is None else f"{fault} (from {peer})"
        if peer is None:
            return
        sourced = [c for c, spec in self._route.items() if spec.src_host == peer]
        if not sourced:
            self.cancel(self._fault)
        for channel in sourced:
            self._frames[channel].append((_FAULT, self._fault))

    def cancel(self, reason: str) -> None:
        """End every channel with a fault item naming ``reason``: a ``recv``
        waiting on one, or called later, raises at once."""
        for channel in set(self._route) | set(self._frames):
            self._frames[channel].append((_FAULT, reason))

    # -- outgoing

    def _connect(self, dst: str) -> socket.socket:
        try:
            addr, port = self.peers[dst]
        except KeyError:
            raise TransportError(f"no address known for host {dst!r}") from None
        deadline = time.monotonic() + self.timeout
        name = self.host.encode()
        # getaddrinfo encodes a str host with the idna codec, importing it on
        # the first connect; an ASCII name's IDNA encoding is the name itself
        host = addr.encode("ascii") if addr.isascii() else addr
        while True:
            sock = None
            try:
                sock = socket.create_connection((host, port), timeout=self.timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(_HELLO.pack(len(name)) + name)
            except OSError as e:
                if sock is not None:
                    sock.close()
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"{self.host}: cannot reach {dst} at {addr}:{port} "
                        f"within {self.timeout}s ({e})"
                    ) from None
                self.poll(_CONNECT_RETRY_S)
                # a fault that has failed a channel fails the run, so waiting
                # on would only hide it; a port probe's fails none
                fault = next((reason for items in self._frames.values()
                              for tag, reason in items if tag is _FAULT), None)
                if fault is not None:
                    raise TransportError(
                        f"{self.host}: gave up reaching {dst} at {addr}:{port} "
                        f"({e}) on an earlier fault: {fault}"
                    ) from None
                continue
            sock.setblocking(False)
            return sock

    def send(self, channel: int, iteration: int, array: np.ndarray) -> None:
        spec = self._route.get(channel)
        if spec is None:
            raise TransportError(f"channel {channel} has no route")
        payload = np.ascontiguousarray(array, dtype="<f4")
        if spec.dst_host == self.host:  # loopback short-circuit
            if payload.nbytes != self._nbytes[channel]:
                raise TransportError(_size_fault(spec, payload.size))
            self._frames[channel].append((iteration, payload.ravel().copy()))
            return
        parts = [memoryview(HEADER.pack(channel, iteration, payload.nbytes))]
        if payload.nbytes:
            parts.append(memoryview(payload).cast("B"))
        if self.closed:
            raise TransportError(f"{self.host}: transport is closed")
        sock = self._out.get(spec.dst_host)
        if sock is None:
            sock = self._out[spec.dst_host] = self._connect(spec.dst_host)
        self._write(sock, channel, parts)

    def _write(self, sock: socket.socket, channel: int, parts: list) -> None:
        """Write ``parts`` out; while the socket cannot take more, poll."""
        deadline = None  # set once the socket waits on the selector
        try:
            while True:
                try:
                    n = sock.sendmsg(parts)
                except BlockingIOError:
                    n = 0
                while n:  # drop what went out
                    if n < len(parts[0]):
                        parts[0] = parts[0][n:]
                        break
                    n -= len(parts.pop(0))
                if not parts:
                    return
                if deadline is None:
                    self._selector.register(sock, selectors.EVENT_WRITE, _WRITABLE)
                    deadline = time.monotonic() + self.timeout
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TransportError(
                        f"send on channel {channel} timed out after {self.timeout}s"
                    )
                self.poll(left)
        except OSError as e:
            raise TransportError(f"send on channel {channel} failed: {e}") from e
        finally:
            if deadline is not None:
                self._selector.unregister(sock)

    def recv(self, channel: int, iteration: int) -> np.ndarray:
        """Poll until ``channel`` holds an item, for up to the timeout, and
        take it.  On a transport that is closed or was never started, only
        an item already queued can end it; else it raises at once."""
        frames = self._frames[channel]
        if not frames:
            deadline = time.monotonic() + self.timeout
            while not frames:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise self.timed_out(channel)
                self.poll(left)
        got_iter, arr = frames.popleft()
        if got_iter is _FAULT:
            frames.appendleft((got_iter, arr))  # every later recv fails the same way
            raise TransportError(f"recv on channel {channel} failed: {arr}")
        if got_iter != iteration:
            raise TransportError(
                f"channel {channel} out of sync: got iteration {got_iter}, "
                f"expected {iteration}"
            )
        spec = self._route.get(channel)
        # a routed channel's frames were checked against its size on arrival
        return arr if spec is None else arr.reshape(spec.shape)

    def timed_out(self, channel: int) -> TransportError:
        """The error of a recv on ``channel`` that ends with no item: the
        transport is closed, or the recv waited out the timeout."""
        if self.closed:
            return TransportError(f"{self.host}: transport is closed")
        spec = self._route.get(channel)
        src = f" waiting for {spec.src_host}" if spec is not None else ""
        detail = f" ({self._fault})" if self._fault else ""
        return TransportError(
            f"recv on channel {channel} timed out after {self.timeout}s{src}{detail}"
        )


# ---------------------------------------------------------------------------
# multi-process driver

_LOOPBACK = "127.0.0.1"
_JOIN_S = 5.0  # how long a finished run waits for each host process to exit


def owned_sources(seq: GraphSequence, names) -> set[str]:
    """The subset of ``names`` that some graph of ``seq`` holds: the data
    sources a host partition (or a whole in-process sequence) must feed."""
    return {n for n in names if any(g.has_tensor(n) for g in seq.graphs)}


def _host_main(
    part: SequencePartition,
    conn: Connection,
    iterations: int,
    setup,
    feed,
    collect: tuple[str, ...],
    timeout: float,
) -> None:
    """One host process: listen on port 0, report the port, take the peer
    table, train, and send back the collected tensors or the error."""
    try:
        with Transport(part.host, {part.host: (_LOOPBACK, 0)}, part.channels,
                       timeout=timeout) as transport:
            transport.start()
            conn.send(("port", transport.port))
            transport.peers.update(conn.recv())
            store = TensorStore()
            if setup is not None:
                setup(store)
            before = None
            if feed is not None:
                layout = part.sequence.layout
                owned = owned_sources(part.sequence, layout.data_names)
                from .builders import feeder  # local import: avoid cycle at module load

                before = feeder(feed, layout, only=owned)
            run_sequence(
                part.sequence, store, transport=transport,
                before_iteration=before, iterations=iterations,
            )
        conn.send(("done", {n: store.array(n) for n in collect}))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # the parent has given up on this run
    finally:
        conn.close()


def _gather(conns: dict, procs: dict, tag: str, deadline: float) -> dict:
    """One ``tag`` message from every host; raises at the first error
    report, at a host that exits without one, or at the deadline."""
    from multiprocessing.connection import wait

    got: dict = {}
    while len(got) < len(conns):
        pending = [h for h in conns if h not in got]
        ready = wait([conns[h] for h in pending],
                     timeout=max(0.0, deadline - time.monotonic()))
        if not ready:
            raise TransportError(f"timed out waiting for hosts {pending}")
        for h in pending:
            if conns[h] not in ready:
                continue
            try:
                kind, payload = conns[h].recv()
            except EOFError:  # the host's end closed: it exited
                procs[h].join(_JOIN_S)
                raise TransportError(
                    f"host {h} exited with code {procs[h].exitcode} "
                    "without reporting"
                ) from None
            if kind == "error":
                raise TransportError(f"host {h}:\n{payload}")
            got[h] = payload
    return got


def run_distributed(
    seq: GraphSequence,
    *,
    iterations: int = 1,
    setup=None,
    feed=None,
    collect: dict[str, tuple[str, ...]] | None = None,
    timeout: float = 30.0,
) -> dict[str, np.ndarray]:
    """Run a multi-host sequence as one OS process per host over loopback.

    ``setup(store)`` seeds each host's store (every host may simply seed
    everything; unused names are ignored), ``feed`` supplies per-iteration
    data on whichever host owns each data source, and ``collect`` names the
    tensors to bring back, keyed by host.  Each host listens on a port of
    its own choosing and reports it, and then receives the whole peer
    table, so no port is picked in advance.  The first host to report an
    error, or to exit without reporting, fails the run at once with a
    :class:`TransportError` naming it (and its exit code); deadlocked hosts
    fail it after ``timeout``.
    """
    parts = partition_sequence(seq)
    collect = collect or {}
    mp_ctx = mp.get_context("spawn")
    conns: dict[str, Connection] = {}
    procs: dict[str, mp.Process] = {}
    deadline = time.monotonic() + timeout + 15.0
    finished = False
    try:
        for h in sorted(parts):
            ours, theirs = mp_ctx.Pipe()
            conns[h] = ours
            p = mp_ctx.Process(
                target=_host_main,
                args=(parts[h], theirs, iterations, setup, feed,
                      tuple(collect.get(h, ())), timeout),
                name=f"biflow-host-{h}",
                daemon=True,
            )
            try:
                with _one_blas_thread():  # the child may load numpy first
                    p.start()
            finally:
                theirs.close()  # else the host's exit would not show as EOF
            procs[h] = p
        ports = _gather(conns, procs, "port", deadline)
        table = {h: (_LOOPBACK, port) for h, port in ports.items()}
        for c in conns.values():
            c.send(table)
        done = _gather(conns, procs, "done", deadline)
        finished = True
    finally:
        for c in conns.values():
            c.close()
        for p in procs.values():
            if not finished:  # the run is abandoned; stop hosts still in it
                p.terminate()
            p.join(_JOIN_S)
            if p.is_alive():
                p.terminate()
                p.join()
    return {n: arr for tensors in done.values() for n, arr in tensors.items()}
