"""Multi-host execution: frame codec, host partitioning, TCP transport.

A multi-host graph is cut along its cross-host copy operators: each becomes
a ``send`` on the producing host and a ``recv`` on the consuming host,
joined by a numbered channel.  Every host then runs its own subgraph with a
:class:`Transport` that moves frames over one TCP connection per ordered
host pair.  Iteration tags ride along in every frame so two hosts that fall
out of lockstep fail loudly instead of silently training on stale tensors.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .dispatcher import run_sequence
from .graph import BiGraph, GraphError, GraphSequence, Location
from .ops import TensorStore

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
    "recompose",
    "run_distributed",
]

HEADER = struct.Struct("<QQI")  # channel, iteration, payload length in bytes
_RESULT_POLL_S = 0.1  # run_distributed checks for dead hosts this often


class FrameError(ValueError):
    """A byte buffer is not a well-formed frame."""


class TransportError(RuntimeError):
    """Connection, timeout, or synchronization failure between hosts."""


def encode_frame(channel: int, iteration: int, payload: np.ndarray) -> bytes:
    """Header plus raw little-endian float32 payload."""
    data = np.ascontiguousarray(payload, dtype="<f4").tobytes()
    return HEADER.pack(channel, iteration, len(data)) + data


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
    if length % 4 != 0:
        raise FrameError(f"payload length {length} is not a multiple of 4")
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


def recompose(partitions: dict[str, HostPartition]) -> BiGraph:
    """Fuse send/recv pairs back into copies; inverse of partitioning."""
    out = BiGraph()
    specs: dict[int, ChannelSpec] = {}
    for p in partitions.values():
        for spec in p.sends + p.recvs:
            specs[spec.channel] = spec
    halves: dict[int, dict] = {}
    pending: list[tuple] = []
    ids = {
        host: {
            t.id: out.add_tensor(t.name, t.shape, t.location)
            for t in partitions[host].graph.tensors.values()
        }
        for host in sorted(partitions)
    }
    for host in sorted(partitions):
        g = partitions[host].graph
        for op in sorted(g.operators.values(), key=lambda o: o.id):
            if op.kind in ("send", "recv"):
                half = halves.setdefault(int(op.attrs["channel"]), {})
                if op.kind == "send":
                    half["src"] = ids[host][op.inputs[0]]
                else:
                    half["dst"] = ids[host][op.outputs[0]]
            else:
                pending.append((op, host))
    for op, host in pending:
        out.add_operator_from(op, ids[host])
    for channel in sorted(halves):
        half = halves[channel]
        spec = specs.get(channel)
        if set(half) != {"src", "dst"} or spec is None or spec.op_location is None:
            raise GraphError(f"channel {channel} has an unmatched endpoint")
        out.add_operator(
            spec.name, "copy", [half["src"]], [half["dst"]],
            spec.op_location, thread=spec.op_thread,
        )
    return out


# ---------------------------------------------------------------------------
# TCP transport


def _read_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


_HELLO = struct.Struct("<I")
# Stands in for the iteration tag of a queue item that carries a reader
# fault instead of a payload.
_FAULT = object()


class Transport:
    """Frame router for one host.

    Listens on its own port, lazily opens one outgoing connection per
    destination host, and fans incoming frames out to per-channel queues.
    ``recv`` checks the frame's iteration tag against the caller's and
    raises on mismatch — a desynchronized peer is an error, not a hang.
    When the connection from a peer fails (a malformed frame, a reset, or
    the peer closing it), ``recv`` on that peer's channels raises at once,
    naming the fault, after the frames that arrived before it.
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
        self._queues: dict[int, queue.Queue] = {}
        self._queues_lock = threading.Lock()
        self._out: dict[str, socket.socket] = {}
        self._out_lock = threading.Lock()  # guards the two dicts
        # one per destination, held across connect and sendall, so a host
        # that cannot be reached stalls only the sends addressed to it
        self._send_locks: dict[str, threading.Lock] = {}
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._closing = threading.Event()
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
        self._listener = srv
        t = threading.Thread(target=self._accept_loop, daemon=True,
                             name=f"transport-accept-{self.host}")
        t.start()
        self._threads.append(t)
        return self

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def close(self) -> None:
        self._closing.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._out_lock:
            for sock in self._out.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._out.clear()

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- incoming

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._reader, args=(conn,), daemon=True,
                                 name=f"transport-read-{self.host}")
            t.start()
            self._threads.append(t)

    def _reader(self, conn: socket.socket) -> None:
        peer = None
        try:
            (name_len,) = _HELLO.unpack(_read_exact(conn, _HELLO.size))
            peer = _read_exact(conn, name_len).decode(errors="replace")
            while not self._closing.is_set():
                header = _read_exact(conn, HEADER.size)
                channel, iteration, length = HEADER.unpack(header)
                payload = _read_exact(conn, length) if length else b""
                _, _, arr = decode_frame(header + payload)
                self._queue_for(channel).put((iteration, arr))
        except TransportError:
            if not self._closing.is_set():
                self._record_fault(peer, "peer connection closed")
        except FrameError as e:
            self._record_fault(peer, f"malformed frame: {e}")
        except OSError as e:
            if not self._closing.is_set():
                self._record_fault(peer, f"peer connection failed: {e}")
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _record_fault(self, peer: str | None, fault: str) -> None:
        """Name the fault and, once the peer is known, end each channel from
        it with a fault item queued behind the frames already received."""
        self._fault = fault if peer is None else f"{fault} (from {peer})"
        for spec in self._route.values():
            if spec.src_host == peer:
                self._queue_for(spec.channel).put((_FAULT, self._fault))

    def _queue_for(self, channel: int) -> queue.Queue:
        with self._queues_lock:
            q = self._queues.get(channel)
            if q is None:
                q = self._queues[channel] = queue.Queue()
            return q

    # -- outgoing

    def _connect(self, dst: str) -> socket.socket:
        try:
            addr, port = self.peers[dst]
        except KeyError:
            raise TransportError(f"no address known for host {dst!r}") from None
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                sock = socket.create_connection((addr, port), timeout=self.timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                name = self.host.encode()
                sock.sendall(_HELLO.pack(len(name)) + name)
                return sock
            except OSError as e:
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"{self.host}: cannot reach {dst} at {addr}:{port} "
                        f"within {self.timeout}s ({e})"
                    ) from None
                time.sleep(0.02)

    def send(self, channel: int, iteration: int, array: np.ndarray) -> None:
        spec = self._route.get(channel)
        if spec is None:
            raise TransportError(f"channel {channel} has no route")
        if spec.dst_host == self.host:  # loopback short-circuit
            self._queue_for(channel).put(
                (iteration, np.ascontiguousarray(array, dtype="<f4").ravel().copy())
            )
            return
        frame = encode_frame(channel, iteration, array)
        with self._out_lock:
            lock = self._send_locks.setdefault(spec.dst_host, threading.Lock())
        with lock:
            sock = self._out.get(spec.dst_host)
            if sock is None:
                sock = self._connect(spec.dst_host)
                with self._out_lock:
                    if self._closing.is_set():
                        sock.close()
                        raise TransportError(f"{self.host}: transport is closed")
                    self._out[spec.dst_host] = sock
            try:
                sock.sendall(frame)
            except OSError as e:
                raise TransportError(f"send on channel {channel} failed: {e}") from e

    def recv(self, channel: int, iteration: int) -> np.ndarray:
        q = self._queue_for(channel)
        try:
            got_iter, arr = q.get(timeout=self.timeout)
        except queue.Empty:
            detail = f" ({self._fault})" if self._fault else ""
            raise TransportError(
                f"recv on channel {channel} timed out after "
                f"{self.timeout}s{detail}"
            ) from None
        if got_iter is _FAULT:
            q.put((got_iter, arr))  # every later recv fails the same way
            raise TransportError(f"recv on channel {channel} failed: {arr}")
        if got_iter != iteration:
            raise TransportError(
                f"channel {channel} out of sync: got iteration {got_iter}, "
                f"expected {iteration}"
            )
        spec = self._route.get(channel)
        if spec is not None:
            expected = int(np.prod(spec.shape))
            if arr.size != expected:
                raise TransportError(
                    f"channel {channel}: payload has {arr.size} elements, "
                    f"tensor {spec.shape} needs {expected}"
                )
            return arr.reshape(spec.shape)
        return arr


# ---------------------------------------------------------------------------
# multi-process driver


def owned_sources(seq: GraphSequence, names) -> set[str]:
    """The subset of ``names`` that some graph of ``seq`` holds: the data
    sources a host partition (or a whole in-process sequence) must feed."""
    return {n for n in names if any(g.has_tensor(n) for g in seq.graphs)}


def _host_main(
    part: SequencePartition,
    peers: dict[str, tuple[str, int]],
    iterations: int,
    setup,
    feed,
    collect: tuple[str, ...],
    timeout: float,
    results: "mp.Queue",
) -> None:
    transport = Transport(part.host, peers, part.channels, timeout=timeout)
    try:
        transport.start()
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
        results.put((part.host, {n: store.array(n) for n in collect}, None))
    except Exception:
        results.put((part.host, None, traceback.format_exc()))
    finally:
        transport.close()


def _free_ports(n: int) -> list[int]:
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


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
    tensors to bring back, keyed by host.  A host that exits without
    reporting fails the run at once with a :class:`TransportError` naming it
    and its exit code; deadlocked hosts fail it after ``timeout``.
    """
    parts = partition_sequence(seq)
    hosts = sorted(parts)
    ports = dict(zip(hosts, _free_ports(len(hosts))))
    peers = {h: ("127.0.0.1", ports[h]) for h in hosts}
    collect = collect or {}

    mp_ctx = mp.get_context("spawn")
    results: "mp.Queue" = mp_ctx.Queue()
    procs = {
        h: mp_ctx.Process(
            target=_host_main,
            args=(parts[h], peers, iterations, setup, feed,
                  tuple(collect.get(h, ())), timeout, results),
            name=f"biflow-host-{h}",
            daemon=True,
        )
        for h in hosts
    }
    for p in procs.values():
        p.start()
    waiting = set(hosts)
    dead: list[str] = []
    gathered: dict[str, np.ndarray] = {}
    errors: list[str] = []
    deadline = time.monotonic() + timeout + 15.0
    try:
        while waiting:
            try:
                host, tensors, err = results.get(timeout=_RESULT_POLL_S)
            except queue.Empty:
                # hosts seen exited one poll ago, with nothing queued since,
                # exited without reporting
                if dead:
                    errors.extend(
                        f"host {h} exited with code {procs[h].exitcode} "
                        "without reporting" for h in dead
                    )
                    break
                if time.monotonic() >= deadline:
                    errors.append("timed out waiting for host results")
                    break
                dead = sorted(h for h in waiting if procs[h].exitcode is not None)
                continue
            waiting.discard(host)
            dead = []
            if err is not None:
                errors.append(f"host {host}:\n{err}")
            else:
                gathered.update(tensors)
    finally:
        for p in procs.values():
            if waiting:  # the run is abandoned; stop hosts still blocked in it
                p.terminate()
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
    if errors:
        raise TransportError("; ".join(errors))
    return gathered
