"""Event-driven graph execution over serialized worker lanes.

Execution is pure readiness propagation: an operator fires once every one of
its input edges is satisfied, a tensor is ready once its producer (if any)
has completed, and a run finishes when every sink vertex has been reached.
There is no global schedule — concurrency falls out of operators landing on
different lanes.

A lane is the (host, device, thread) triple of an operator; each lane
executes its operators one at a time in FIFO order of readiness (ties broken
by graph insertion order), while distinct lanes run concurrently on worker
threads.  ``max_workers`` or, when it is not given, the environment variable
``BIFLOW_LANES`` caps how many workers serve a graph's lanes: lane ``k`` of
its sorted lanes goes to worker ``k mod min(lanes, cap)``.  The cap never
changes which lane an operator belongs to, only how much true parallelism
the lanes get.

Every operator runs its kind's ``execute`` hook from ``ops.KINDS``, after
sleeping its ``delay_s`` attribute, if any, inside its traced span; the
cost simulator reads the same attribute.

Each graph is compiled once, on its first run, into a :class:`GraphPlan`:
the int-indexed scheduling facts of the graph.  Every run then resets the
plan's counters (:class:`ReadinessState`) instead of rebuilding them.
:func:`run_sequence`, which takes the iteration count, keeps one pool of
worker threads for the whole sequence, grown on first use to the largest
``min(lanes, cap)`` of its graphs and shut down when the sequence returns
or raises.  A graph whose lanes all map to one worker (every single-lane
graph, and every graph under ``BIFLOW_LANES=1`` or ``max_workers=1``) runs
inline in the calling thread and starts no thread; it keeps the same order,
trace records and errors.  :func:`run` is :func:`run_sequence` over one
graph, run once.

The virtual-time cost simulator drives the same plan and counters, so both
executors share one source of scheduling truth.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

from .graph import BiGraph, GraphSequence, OperatorVertex
from .ops import KINDS, TensorStore

__all__ = [
    "DispatchError",
    "GraphPlan",
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


@dataclass(frozen=True)
class GraphPlan:
    """One graph compiled for repeated runs.

    Operators are numbered by graph insertion position, which is also the
    tie break among operators that become ready together.  Per operator:
    ``ops`` holds the vertex, ``lanes`` its lane, ``workers`` the worker
    that serves its lane, ``consumers`` the operators whose input edges its
    completion satisfies (one entry per edge, ascending), ``pending`` its
    input edges not yet satisfied when a run is armed, and ``sinks_reached``
    the sink vertices its completion reaches (itself when it has no outputs,
    plus its outputs that nothing consumes).  ``source_sinks`` counts the
    source tensors that nothing consumes, reached when a run is armed;
    ``initial`` lists the operators ready then; ``sources`` holds the name
    and shape of every consumed source tensor, which the store must hold
    before each run.  ``worker_count`` is ``min(distinct lanes, cap)``.
    """

    graph: BiGraph
    ops: tuple[OperatorVertex, ...]
    lanes: tuple[WorkerLane, ...]
    workers: tuple[int, ...]
    worker_count: int
    consumers: tuple[tuple[int, ...], ...]
    pending: tuple[int, ...]
    sinks_reached: tuple[int, ...]
    source_sinks: int
    sink_count: int
    initial: tuple[int, ...]
    sources: tuple[tuple[str, tuple[int, ...]], ...]

    @classmethod
    def compile(cls, graph: BiGraph, cap: int | None = None) -> "GraphPlan":
        """Plan ``graph`` with at most ``cap`` workers (no cap when None)."""
        ops = tuple(graph.operators_in_order())
        index = {op.id: i for i, op in enumerate(ops)}
        lanes = tuple(lane_of(op) for op in ops)
        distinct = sorted(set(lanes))
        count = len(distinct) if cap is None else min(len(distinct), cap)
        slot = {lane: k % count for k, lane in enumerate(distinct)} if count else {}
        consumed = {tid: graph.consumers_of(tid) for tid in graph.tensors}
        produced = {tid for tid in graph.tensors if graph.producer_of(tid) is not None}
        sources = [tid for tid in graph.tensors if tid not in produced]
        reached = tuple(
            (not op.outputs) + sum(1 for tid in op.outputs if not consumed[tid])
            for op in ops
        )
        pending = tuple(sum(1 for tid in op.inputs if tid in produced) for op in ops)
        source_sinks = sum(1 for tid in sources if not consumed[tid])
        return cls(
            graph=graph,
            ops=ops,
            lanes=lanes,
            workers=tuple(slot[lane] for lane in lanes),
            worker_count=count,
            consumers=tuple(
                tuple(sorted(
                    index[oid] for tid in op.outputs for oid, _pos in consumed[tid]
                ))
                for op in ops
            ),
            pending=pending,
            sinks_reached=reached,
            source_sinks=source_sinks,
            sink_count=source_sinks + sum(reached),
            initial=tuple(i for i, p in enumerate(pending) if p == 0),
            sources=tuple(
                (graph.tensors[tid].name, graph.tensors[tid].shape)
                for tid in sources
                if consumed[tid]
            ),
        )


class ReadinessState:
    """The mutable counters of one :class:`GraphPlan`, reset for every run.

    Operators are named by their plan index.  ``pending`` holds each
    operator's remaining unsatisfied input edges (repeated inputs count once
    per edge) and ``completed_sinks`` the sink vertices of either class
    reached so far.  The counters only ever decrease between resets, which
    is what makes exactly-once dispatch a structural property.
    """

    def __init__(self, plan: GraphPlan) -> None:
        self.plan = plan
        self._in_flight = 0
        self.reset()

    def reset(self) -> None:
        """Restore every counter to its structural value.

        Raises if called while operators are still in flight.
        """
        if self._in_flight:
            raise DispatchError("reset() while operators are in flight")
        self.pending = list(self.plan.pending)
        self.completed_sinks = 0
        self._armed = False

    def arm(self) -> list[int]:
        """Mark source tensors ready; returns the initially ready operators
        in insertion order."""
        if self._armed:
            raise DispatchError("arm() on an already armed state")
        self._armed = True
        self.completed_sinks = self.plan.source_sinks
        self._in_flight += len(self.plan.initial)
        return list(self.plan.initial)

    def complete(self, index: int) -> list[int]:
        """Record an operator completion; returns the newly ready operators
        in insertion order."""
        plan = self.plan
        self.completed_sinks += plan.sinks_reached[index]
        pending = self.pending
        newly: list[int] = []
        # consumers are ascending, so each operator reaches zero at its last
        # entry and ``newly`` comes out in insertion order
        for i in plan.consumers[index]:
            pending[i] -= 1
            if not pending[i]:
                newly.append(i)
        self._in_flight += len(newly) - 1
        return newly

    def abandon(self, count: int = 1) -> None:
        """Drop in-flight claims for operators discarded after an abort."""
        self._in_flight -= count

    @property
    def in_flight(self) -> int:
        return self._in_flight


@dataclass
class RunContext:
    """Everything a kernel execution hook may touch."""

    store: TensorStore
    graph: BiGraph
    iteration: int = 0
    transport: object | None = None


def _serve(lane_queue: queue.SimpleQueue) -> None:  # pragma: no cover - worker
    while True:
        item = lane_queue.get()
        if item is None:
            return
        runner, index = item
        runner.execute(index)


class _LanePool:
    """Worker threads shared by every graph of one sequence run.

    Worker ``k`` serves queue ``k``; an item is ``(runner, operator index)``
    and ``None`` stops the worker.
    """

    def __init__(self) -> None:
        self.queues: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []

    def grow(self, count: int) -> None:
        while len(self._threads) < count:
            lane_queue: queue.SimpleQueue = queue.SimpleQueue()
            t = threading.Thread(
                target=_serve, args=(lane_queue,),
                name=f"biflow-lane-{len(self._threads)}", daemon=True,
            )
            t.start()
            self.queues.append(lane_queue)
            self._threads.append(t)

    def close(self) -> None:
        for lane_queue in self.queues:
            lane_queue.put(None)
        for t in self._threads:
            t.join()


class _GraphRunner:
    """Runs one compiled graph, once per :meth:`run` call: inline in the
    calling thread when its lanes share one worker, otherwise on the pool.
    Owns the run's counters, lock and trace."""

    def __init__(self, plan: GraphPlan, ctx: RunContext, pool: _LanePool) -> None:
        self.plan = plan
        self.ctx = ctx
        self.state = ReadinessState(plan)
        self.steps = []
        for op in plan.ops:
            spec = KINDS.get(op.kind)
            delay = float(op.attrs.get("delay_s", 0.0) or 0.0)
            self.steps.append((None if spec is None else spec.execute, op, delay))
        self.queues = None
        if plan.worker_count > 1:
            pool.grow(plan.worker_count)
            self.queues = pool.queues
        self.lock = threading.Lock()
        self.finished = threading.Event()
        self.zero = 0
        self.trace: list[TraceRecord] = []
        self.error: tuple[str, BaseException] | None = None
        self.aborting = False

    def run(self, iteration: int, zero: int) -> list[TraceRecord]:
        plan = self.plan
        _check_sources(plan, self.ctx.store)
        self.state.reset()
        self.ctx.iteration = iteration
        self.zero = zero
        self.trace = []
        self.error = None
        self.aborting = False
        initial = self.state.arm()
        if not plan.ops:
            return []
        if not initial:
            raise DispatchError("no operator is initially ready; graph cannot start")
        if self.queues is None:
            self._run_inline(initial)
        else:
            self._run_pooled(initial)
        if self.error is not None:
            name, exc = self.error
            raise DispatchError(f"operator {name!r} failed: {exc}") from exc
        return self.trace

    def _call(self, index: int) -> TraceRecord:
        """Execute one operator; returns its trace record."""
        execute, op, delay = self.steps[index]
        if execute is None:
            raise DispatchError(
                f"operator kind {op.kind!r} unknown to registry (op {op.name!r})"
            )
        start = time.monotonic_ns() - self.zero
        if delay > 0:
            # injected cost counts as execution time, not queueing
            time.sleep(delay)
        execute(self.ctx, op)
        end = time.monotonic_ns() - self.zero
        if end <= start:
            end = start + 1
        return TraceRecord(
            op.id, op.name, self.plan.lanes[index], start, end, self.ctx.iteration
        )

    def _run_inline(self, initial: list[int]) -> None:
        state, trace = self.state, self.trace
        ready = deque(initial)
        while ready:
            index = ready.popleft()
            try:
                trace.append(self._call(index))
            except Exception as exc:  # first error wins; the queued rest is dropped
                self.error = (self.plan.ops[index].name, exc)
                state.abandon(1 + len(ready))
                return
            ready.extend(state.complete(index))

    def _run_pooled(self, initial: list[int]) -> None:
        self.finished.clear()
        self._dispatch(initial)
        try:
            self.finished.wait()
        except BaseException:
            self.aborting = True  # interrupted: workers drop what is queued
            raise
        self.trace.sort(key=lambda r: (r.start, r.end))

    def _dispatch(self, indices: list[int]) -> None:
        queues, workers = self.queues, self.plan.workers
        for index in indices:
            queues[workers[index]].put((self, index))

    def execute(self, index: int) -> None:
        """Run one operator on a worker thread and propagate its completion."""
        if self.aborting:
            with self.lock:
                self.state.abandon()
                self._maybe_finish()
            return
        failure: BaseException | None = None
        try:
            record = self._call(index)
        except BaseException as exc:  # noqa: BLE001 - first error wins, reported
            failure = exc
        with self.lock:
            if failure is not None:
                if self.error is None:
                    self.error = (self.plan.ops[index].name, failure)
                self.aborting = True
                self.state.abandon()
            else:
                self.trace.append(record)
                newly = self.state.complete(index)
                if self.aborting:
                    self.state.abandon(len(newly))
                else:
                    self._dispatch(newly)
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        # Caller holds the lock.
        if self.state.in_flight == 0:
            self.finished.set()


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


def _check_sources(plan: GraphPlan, store: TensorStore) -> None:
    for name, shape in plan.sources:
        if not store.has(name):
            raise DispatchError(f"source tensor {name!r} has no buffer in the store")
        got = store.get(name).shape
        if got != shape:
            raise DispatchError(
                f"source tensor {name!r}: store shape {got} != graph shape {shape}"
            )


def _validate(graphs) -> None:
    for g in graphs:
        report = g.validate()
        if not report.ok:
            raise DispatchError(
                "graph failed validation: " + "; ".join(report.violations)
            )


class _Executor:
    """The graphs of one sequence, each compiled on its first run, and the
    lane pool they share; a context manager that shuts the pool down."""

    def __init__(self, graphs, store, max_workers, transport) -> None:
        self.graphs = list(graphs)
        self.store = store
        self.cap = max_workers if max_workers is not None else _env_lane_cap()
        self.transport = transport
        self.runners: list[_GraphRunner | None] = [None] * len(self.graphs)
        self.pool = _LanePool()

    def __enter__(self) -> "_Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.pool.close()

    def run(self, index: int, iteration: int, t0: int) -> RunReport:
        """Run graph ``index`` once; trace times count from ``t0``."""
        start_ns = time.monotonic_ns()
        runner = self.runners[index]
        if runner is None:
            g = self.graphs[index]
            ctx = RunContext(self.store, g, iteration, self.transport)
            runner = _GraphRunner(GraphPlan.compile(g, self.cap), ctx, self.pool)
            self.runners[index] = runner
        trace = runner.run(iteration, t0)
        elapsed = time.monotonic_ns() - start_ns
        return RunReport(trace, elapsed, iteration, index)


def run(
    graph: BiGraph,
    store: TensorStore,
    *,
    max_workers: int | None = None,
    transport: object | None = None,
) -> RunReport:
    """Execute one graph to completion; returns its report.

    Raises :class:`DispatchError` if the graph fails validation, a source
    tensor is missing from the store, an operator kind is unknown to
    ``ops.KINDS``, or a kernel fails (first error wins; operators already
    running are drained, queued ones discarded).
    """
    (report,) = run_sequence(
        GraphSequence([graph]), store, max_workers=max_workers, transport=transport
    )
    return report


def run_sequence(
    seq: GraphSequence,
    store: TensorStore,
    *,
    max_workers: int | None = None,
    transport: object | None = None,
    before_iteration=None,
    after_graph=None,
    iterations: int = 1,
) -> list[RunReport]:
    """Run every graph of the sequence in order, ``iterations`` times.

    All reports share one time base (ns since the sequence started), so a
    merged trace is directly comparable across iterations.  The optional
    ``before_iteration(iteration, store)`` hook runs before each iteration's
    first graph (data feeding); ``after_graph(report, store)`` runs after each
    graph completes (metric sampling).  The graphs are validated once, before
    the first iteration; the lane pool lives until this call returns or
    raises.  Raises :class:`DispatchError` when ``iterations`` is below 1.
    """
    if iterations < 1:
        raise DispatchError(f"iterations must be >= 1, got {iterations}")
    _validate(seq.graphs)
    reports: list[RunReport] = []
    with _Executor(seq.graphs, store, max_workers, transport) as ex:
        t0 = time.monotonic_ns()
        for it in range(iterations):
            if before_iteration is not None:
                before_iteration(it, store)
            for gi in range(len(seq.graphs)):
                rep = ex.run(gi, it, t0)
                reports.append(rep)
                if after_graph is not None:
                    after_graph(rep, store)
    return reports
