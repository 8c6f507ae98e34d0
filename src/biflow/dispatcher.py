"""Event-driven graph execution over serialized worker lanes.

Execution is pure readiness propagation: an operator fires once every one of
its input edges is satisfied, a tensor is ready once its producer (if any)
has completed, and a run finishes when every sink vertex has been reached.
There is no global schedule — concurrency falls out of operators landing on
different lanes.

A lane is the (host, device, thread) triple of an operator; each lane
executes its operators one at a time in FIFO order of readiness (ties broken
by graph insertion order), while distinct lanes run concurrently on worker
threads.  The environment variable ``BIFLOW_LANES`` caps how many OS threads
serve the lanes (``1`` gives the fully serial reference mode); the cap never
changes which lane an operator belongs to, only how much true parallelism
the lanes get.

The readiness bookkeeping lives in :class:`ReadinessState`, which the
virtual-time cost simulator reuses verbatim so both executors share one
source of scheduling truth.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field

from .graph import BiGraph, GraphSequence, OperatorVertex
from .ops import KINDS, TensorStore

__all__ = [
    "DispatchError",
    "LANES_ENV",
    "ReadinessState",
    "RunContext",
    "RunReport",
    "TraceRecord",
    "WorkerLane",
    "lane_of",
    "merged_trace",
    "run",
    "run_sequence",
]

LANES_ENV = "BIFLOW_LANES"


class DispatchError(RuntimeError):
    """A run could not start or finish; carries the offending operator's name."""


@dataclass(frozen=True, order=True)
class WorkerLane:
    """A serial execution queue: operators sharing a lane never overlap."""

    host: str
    device: int
    thread: int


def lane_of(op: OperatorVertex) -> WorkerLane:
    return WorkerLane(op.location.host, op.location.device, op.thread)


@dataclass(frozen=True)
class TraceRecord:
    """One operator execution: timestamps are ns since the run's zero."""

    op: int
    name: str
    lane: WorkerLane
    start: int
    end: int
    iteration: int = 0


@dataclass
class RunReport:
    """Outcome of one graph run."""

    trace: list[TraceRecord]
    elapsed: int
    iteration: int = 0
    graph_index: int = 0


def merged_trace(reports: list[RunReport]) -> list[TraceRecord]:
    """All records of several runs, in start-time order."""
    records = [r for rep in reports for r in rep.trace]
    records.sort(key=lambda r: (r.start, r.end))
    return records


class ReadinessState:
    """Pending-count bookkeeping for one graph.

    ``pending_inputs`` maps operator id to its remaining unsatisfied input
    edges (repeated inputs count once per edge); ``pending_producers`` maps
    tensor id to remaining producers.  ``completed_sinks`` counts reached
    sink vertices of either class.  The counters only ever decrease between
    resets, which is what makes exactly-once dispatch a structural property.
    ``order_index`` maps operator id to its graph insertion position, the
    tie break that the dispatcher and the simulator both order ready
    operators by.
    """

    def __init__(self, graph: BiGraph) -> None:
        self.graph = graph
        self.pending_inputs: dict[int, int] = {}
        self.pending_producers: dict[int, int] = {}
        self.completed_sinks = 0
        self._tensor_sinks: set[int] = set()
        self._op_sinks: set[int] = set()
        self._armed = False
        self._executed = 0
        self._in_flight = 0
        self.order_index = {oid: i for i, oid in enumerate(graph.insertion_order)}
        for tid, t in graph.tensors.items():
            if not graph.consumers_of(tid):
                self._tensor_sinks.add(tid)
        for oid, op in graph.operators.items():
            if not op.outputs:
                self._op_sinks.add(oid)
        self.sink_count = len(self._tensor_sinks) + len(self._op_sinks)
        self.reset()

    def reset(self) -> None:
        """Restore every counter to its structural value.

        Raises if called while operators are still in flight.
        """
        if self._in_flight:
            raise DispatchError("reset() while operators are in flight")
        g = self.graph
        self.pending_inputs = {
            oid: len(op.inputs) for oid, op in g.operators.items()
        }
        self.pending_producers = {
            tid: (1 if g.producer_of(tid) is not None else 0) for tid in g.tensors
        }
        self.completed_sinks = 0
        self._executed = 0
        self._armed = False

    def arm(self) -> list[int]:
        """Mark source tensors ready; returns initially-ready operator ids."""
        if self._armed:
            raise DispatchError("arm() on an already armed state")
        self._armed = True
        g = self.graph
        ready: list[int] = []
        for oid in g.insertion_order:
            if self.pending_inputs[oid] == 0:
                ready.append(oid)
        for tid in sorted(g.tensors):
            if self.pending_producers[tid] == 0:
                ready.extend(self._tensor_ready(tid))
        seen: set[int] = set()
        ordered = []
        for oid in sorted(ready, key=self.order_index.__getitem__):
            if oid not in seen:
                seen.add(oid)
                ordered.append(oid)
        self._in_flight += len(ordered)
        return ordered

    def _tensor_ready(self, tid: int) -> list[int]:
        newly: list[int] = []
        if tid in self._tensor_sinks:
            self.completed_sinks += 1
        for oid, _pos in self.graph.consumers_of(tid):
            self.pending_inputs[oid] -= 1
            if self.pending_inputs[oid] == 0:
                newly.append(oid)
        return newly

    def complete(self, op_id: int) -> list[int]:
        """Record an operator completion; returns newly ready operator ids
        in graph insertion order."""
        op = self.graph.operators[op_id]
        self._executed += 1
        self._in_flight -= 1
        if op_id in self._op_sinks:
            self.completed_sinks += 1
        newly: list[int] = []
        for tid in op.outputs:
            self.pending_producers[tid] -= 1
            if self.pending_producers[tid] == 0:
                newly.extend(self._tensor_ready(tid))
        newly.sort(key=self.order_index.__getitem__)
        self._in_flight += len(newly)
        return newly

    def abandon(self, count: int = 1) -> None:
        """Drop in-flight claims for operators discarded after an abort."""
        self._in_flight -= count

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def done(self) -> bool:
        return (
            self._executed == len(self.graph.operators)
            and self.completed_sinks == self.sink_count
        )


@dataclass
class RunContext:
    """Everything a kernel execution hook may touch."""

    store: TensorStore
    graph: BiGraph
    iteration: int = 0
    transport: object | None = None
    copy_latency_s: float = 0.0


_SENTINEL = None


class _Worker(threading.Thread):
    def __init__(self, dispatcher: "_Dispatcher", index: int) -> None:
        super().__init__(name=f"biflow-lane-{index}", daemon=True)
        self.queue: "queue.Queue[int | None]" = queue.Queue()
        self.dispatcher = dispatcher

    def run(self) -> None:  # pragma: no cover - exercised via dispatcher runs
        d = self.dispatcher
        while True:
            item = self.queue.get()
            if item is _SENTINEL:
                break
            d.execute(item)


class _Dispatcher:
    """One graph run: owns the workers, the lock, and the trace."""

    def __init__(
        self,
        graph: BiGraph,
        ctx: RunContext,
        registry: dict,
        max_workers: int | None,
        t0: int,
    ) -> None:
        self.graph = graph
        self.ctx = ctx
        self.registry = registry
        self.t0 = t0
        self.state = ReadinessState(graph)
        self.lock = threading.Lock()
        self.trace: list[TraceRecord] = []
        self.error: tuple[str, BaseException] | None = None
        self.aborting = False
        self.finished = threading.Event()
        self._sentinels_sent = False

        lanes = sorted({lane_of(op) for op in graph.operators.values()})
        cap = max_workers if max_workers is not None else _env_lane_cap()
        n = max(1, min(len(lanes), cap)) if lanes else 0
        self.workers = [_Worker(self, i) for i in range(n)]
        self.lane_worker = {
            lane: self.workers[i % n] for i, lane in enumerate(lanes)
        } if n else {}

    def dispatch(self, op_ids: list[int]) -> None:
        for oid in op_ids:
            op = self.graph.operators[oid]
            self.lane_worker[lane_of(op)].queue.put(oid)

    def execute(self, op_id: int) -> None:
        op = self.graph.operators[op_id]
        with self.lock:
            if self.aborting:
                self.state.abandon()
                self._maybe_finish()
                return
        spec = self.registry.get(op.kind)
        failure: BaseException | None = None
        record: TraceRecord | None = None
        if spec is None:
            failure = DispatchError(
                f"operator kind {op.kind!r} unknown to registry (op {op.name!r})"
            )
        else:
            delay = float(op.attrs.get("delay_s", 0.0) or 0.0)
            start = time.monotonic_ns() - self.t0
            try:
                if delay > 0:
                    # injected cost counts as execution time, not queueing
                    time.sleep(delay)
                spec.execute(self.ctx, op)
            except BaseException as exc:  # noqa: BLE001 - first error wins, reported
                failure = exc
            else:
                end = time.monotonic_ns() - self.t0
                if end <= start:
                    end = start + 1
                record = TraceRecord(
                    op_id, op.name, lane_of(op), start, end, self.ctx.iteration
                )
        with self.lock:
            if failure is not None:
                if self.error is None:
                    self.error = (op.name, failure)
                self.aborting = True
                self.state.abandon()
            else:
                self.trace.append(record)
                newly = self.state.complete(op_id)
                if not self.aborting:
                    self.dispatch(newly)
                else:
                    self.state.abandon(len(newly))
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        # Caller holds the lock.
        idle = self.state.in_flight == 0
        if not idle or self._sentinels_sent:
            return
        if self.aborting or self.state.done:
            self._sentinels_sent = True
            for w in self.workers:
                w.queue.put(_SENTINEL)
            self.finished.set()

    def run(self) -> list[TraceRecord]:
        initial = self.state.arm()
        if not self.graph.operators:
            return []
        if not initial:
            raise DispatchError("no operator is initially ready; graph cannot start")
        for w in self.workers:
            w.start()
        with self.lock:
            self.dispatch(initial)
            self._maybe_finish()
        for w in self.workers:
            w.join()
        if self.error is not None:
            name, exc = self.error
            raise DispatchError(f"operator {name!r} failed: {exc}") from exc
        self.trace.sort(key=lambda r: (r.start, r.end))
        return self.trace


def _env_lane_cap() -> int:
    raw = os.environ.get(LANES_ENV)
    if not raw:
        return 1 << 16
    try:
        cap = int(raw)
    except ValueError:
        raise DispatchError(f"{LANES_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise DispatchError(f"{LANES_ENV} must be >= 1, got {cap}")
    return cap


def _check_sources(graph: BiGraph, store: TensorStore) -> None:
    for tid, t in graph.tensors.items():
        if graph.producer_of(tid) is None and graph.consumers_of(tid):
            if not store.has(t.name):
                raise DispatchError(
                    f"source tensor {t.name!r} has no buffer in the store"
                )
            if store.get(t.name).shape != t.shape:
                raise DispatchError(
                    f"source tensor {t.name!r}: store shape "
                    f"{store.get(t.name).shape} != graph shape {t.shape}"
                )


def run(
    graph: BiGraph,
    store: TensorStore,
    registry: dict | None = None,
    *,
    max_workers: int | None = None,
    iteration: int = 0,
    t0: int | None = None,
    transport: object | None = None,
    copy_latency_s: float = 0.0,
    validated: bool = False,
) -> RunReport:
    """Execute one graph to completion; returns the trace.

    Raises :class:`DispatchError` if the graph fails validation, a source
    tensor is missing from the store, an operator kind is unknown to the
    registry, or a kernel fails (first error wins; operators already running
    are drained, queued ones discarded).
    """
    if not validated:
        report = graph.validate()
        if not report.ok:
            raise DispatchError(
                "graph failed validation: " + "; ".join(report.violations)
            )
    _check_sources(graph, store)
    registry = KINDS if registry is None else registry
    start_ns = time.monotonic_ns()
    zero = t0 if t0 is not None else start_ns
    ctx = RunContext(
        store=store,
        graph=graph,
        iteration=iteration,
        transport=transport,
        copy_latency_s=copy_latency_s,
    )
    d = _Dispatcher(graph, ctx, registry, max_workers, zero)
    trace = d.run()
    elapsed = time.monotonic_ns() - start_ns
    return RunReport(trace=trace, elapsed=elapsed, iteration=iteration)


def run_sequence(
    seq: GraphSequence,
    store: TensorStore,
    registry: dict | None = None,
    *,
    max_workers: int | None = None,
    transport: object | None = None,
    copy_latency_s: float = 0.0,
    before_iteration=None,
    after_graph=None,
    iterations: int | None = None,
) -> list[RunReport]:
    """Run every graph of the sequence in order, ``seq.iterations`` times
    (or ``iterations`` when given).

    All reports share one time base (ns since the sequence started), so a
    merged trace is directly comparable across iterations.  The optional
    ``before_iteration(iteration, store)`` hook runs before each iteration's
    first graph (data feeding); ``after_graph(report, store)`` runs after each
    graph completes (metric sampling).
    """
    for g in seq.graphs:
        report = g.validate()
        if not report.ok:
            raise DispatchError(
                "graph failed validation: " + "; ".join(report.violations)
            )
    t0 = time.monotonic_ns()
    reports: list[RunReport] = []
    rounds = seq.iterations if iterations is None else iterations
    for it in range(rounds):
        if before_iteration is not None:
            before_iteration(it, store)
        for gi, g in enumerate(seq.graphs):
            rep = run(
                g,
                store,
                registry,
                max_workers=max_workers,
                iteration=it,
                t0=t0,
                transport=transport,
                copy_latency_s=copy_latency_s,
                validated=True,
            )
            rep.graph_index = gi
            reports.append(rep)
            if after_graph is not None:
                after_graph(rep, store)
    return reports
