"""Event-driven graph execution over serialized worker lanes.

Execution is pure readiness propagation: an operator fires once every one of
its input edges is satisfied, a tensor is ready once its producer (if any)
has completed, and a run finishes when every sink vertex has been reached.
There is no global schedule — concurrency falls out of operators landing on
different lanes.

A lane is the (host, device, thread) triple of an operator; each lane
executes its operators one at a time in FIFO order of readiness (ties broken
by graph insertion order).  Lanes run concurrently only where that can pay
in CPython, which is where an operator gives up the GIL: a lane holding an
operator with a ``delay_s`` above 0, which sleeps, gets a worker thread of
its own, and every other lane shares one worker.  The numpy kernels and
in-process copies are too small to gain from threads and only contend for
the GIL: on a 2-core VM, conv-data2-split used 8.2–9.5 CPU ms per iteration
with its 7 lanes on 7 threads and 4.7–5.5 ms with them on one (ten 30 s
runs each).  The shared lanes form group 0, and each sleeping lane is one
more group, numbered in sorted lane order; group ``k`` goes to worker
``k mod min(groups, max_workers)``.  Neither the grouping nor the cap
changes which lane an operator belongs to, only how many threads serve the
lanes.

``send`` and ``recv`` do not block a thread either: a lane holding one
stays in the shared group, and the calling thread drives the run's
transport.  A ``send`` writes at once (its socket reads while a write
would block).  A ``recv`` whose frame has not come when its lane reaches it
is *pending*: the lane takes nothing else until the run loop takes that
frame, in the lane's FIFO order, and the recv's traced span runs from the
moment its lane reached it to that moment.  The loop polls the transport
only when no operator is ready and a recv is pending: a pending recv holds
its own lane, not the loop, and one poll then takes every frame that has
come.  When no pool thread is busy either, that poll waits, up to the
transport's timeout for the oldest pending recv, so a loopback host runs
every operator and socket on one thread and spends CPU on the network
only when frames move.

Every operator runs its kind's ``execute`` hook from ``ops.KINDS``, after
sleeping its ``delay_s`` attribute, if any, inside its traced span; the
cost simulator reads the same attribute.

What each operator run costs besides its kernel is kept small: the hook
reads its tensor names from ``BiGraph.io_names``, which resolves them once
per operator of the graph, and its span is one :class:`TraceRecord`, a
named tuple; a run's trace is sorted by (start, end) once, when it ends.

Each graph is compiled once, on its first run, into a :class:`GraphPlan`:
the int-indexed scheduling facts of the graph.  Every run then resets the
plan's counters (:class:`ReadinessState`) instead of rebuilding them.

The thread that calls :func:`run_sequence` is the only one that reads or
changes a run's counters and trace.  It runs worker 0's operators itself and
hands each operator of worker ``k >= 1`` to pool thread ``k - 1``, which
runs it and sends the outcome back to an inbox; the calling thread then
marks it complete and routes the operators it made ready.  A graph whose
lanes all map to one worker (every graph with no sleeping operator, and
every graph under ``max_workers=1``) thus runs wholly in the calling thread
and starts no thread.  The pool lives for the whole sequence, grows on first
use to one thread fewer than the largest worker count of its graphs, and is
shut down when the sequence returns or raises; after an error or an
interrupt its threads drop what is still queued, and the sequence waits
only for operators already running, none of which touches the transport.
The first error wins, and a pending recv does not delay it: the loop stops
waiting for its frame.  :func:`run` is :func:`run_sequence` over one graph,
run once.

The virtual-time cost simulator drives the same plan and counters, so both
executors share one source of scheduling truth.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .graph import BiGraph, GraphSequence, OperatorVertex
from .ops import KINDS, TensorStore

__all__ = [
    "DispatchError",
    "GraphPlan",
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


class TraceRecord(NamedTuple):
    """One operator execution: timestamps are ns since the run's zero.

    An immutable named tuple, built by position or by keyword: one is made
    per operator run, and a tuple costs less to make than a frozen
    dataclass.  Traces are sorted by ``(start, end)``.
    """

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


_BY_SPAN = itemgetter(3, 4)  # a TraceRecord's (start, end)


def merged_trace(reports: list[RunReport]) -> list[TraceRecord]:
    """All records of several runs, in start-time order."""
    records = [r for rep in reports for r in rep.trace]
    records.sort(key=_BY_SPAN)
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
    before each run.

    ``channels`` holds the channel of each ``recv`` operator, which the run
    loop waits on, and None for every other operator.

    Lanes map to workers in groups: each lane holding an operator with a
    ``delay_s`` above 0 and no ``send`` or ``recv`` is a group of its own,
    since a sleep gives up the GIL; all other lanes form one group, since
    their operators hold the GIL throughout and gain nothing from threads of
    their own, and the transport is driven by the calling thread alone.
    The shared group is group 0 and the sleeping lanes follow in sorted
    lane order; group ``k`` goes to worker ``k mod worker_count``, and
    ``worker_count`` is ``min(groups, cap)``.
    """

    graph: BiGraph
    ops: tuple[OperatorVertex, ...]
    lanes: tuple[WorkerLane, ...]
    workers: tuple[int, ...]
    worker_count: int
    channels: tuple[int | None, ...]
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
        sleeping = (
            {lane for op, lane in zip(ops, lanes) if _delay(op) > 0}
            - {lane for op, lane in zip(ops, lanes) if op.kind in ("send", "recv")}
        )
        # each sleeping lane is a group of its own, the other lanes form
        # group 0; sleeping groups follow in sorted lane order
        shared = set(lanes) - sleeping
        groups: dict[WorkerLane | None, int] = {None: 0} if shared else {}
        group = {
            lane: groups.setdefault(lane if lane in sleeping else None, len(groups))
            for lane in sorted(set(lanes))
        }
        count = len(groups) if cap is None else min(len(groups), cap)
        slot = {lane: k % count for lane, k in group.items()}
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
            channels=tuple(
                int(op.attrs["channel"]) if op.kind == "recv" else None for op in ops
            ),
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


def _delay(op: OperatorVertex) -> float:
    return float(op.attrs.get("delay_s", 0.0) or 0.0)


class _LanePool:
    """Worker threads shared by every graph of one sequence run.

    Pool thread ``k`` serves queue ``k``, which holds the operators of
    worker ``k + 1`` as ``(runner, operator index)``.  A thread only runs
    the operator and puts ``(index, record, exc)`` on the runner's
    ``inbox``; ``None`` stops it.  Once ``aborting`` is set, it drops what
    is still queued.
    """

    def __init__(self) -> None:
        self.queues: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self.aborting = False

    def grow(self, count: int) -> None:
        while len(self._threads) < count:
            lane_queue: queue.SimpleQueue = queue.SimpleQueue()
            t = threading.Thread(
                target=self._serve, args=(lane_queue,),
                name=f"biflow-lane-{len(self._threads)}", daemon=True,
            )
            t.start()
            self.queues.append(lane_queue)
            self._threads.append(t)

    def _serve(self, lane_queue: queue.SimpleQueue) -> None:
        while (item := lane_queue.get()) is not None:
            if self.aborting:
                continue
            runner, index = item
            try:
                runner.inbox.put((index, runner._call(index), None))
            except BaseException as exc:  # noqa: BLE001 - the calling thread raises it
                runner.inbox.put((index, None, exc))

    def close(self) -> None:
        """Drop what is still queued and wait for running operators."""
        self.aborting = True
        for lane_queue in self.queues:
            lane_queue.put(None)
        for t in self._threads:
            t.join()


class _GraphRunner:
    """Runs one compiled graph, once per :meth:`run` call.  The calling
    thread runs worker 0's operators, drives the transport, and owns every
    counter and the trace; the pool's threads run the other workers'
    operators."""

    def __init__(self, plan: GraphPlan, ctx: RunContext, pool: _LanePool) -> None:
        self.plan = plan
        self.ctx = ctx
        self.pool = pool
        self.state = ReadinessState(plan)
        self.steps = []
        for op in plan.ops:
            spec = KINDS.get(op.kind)
            self.steps.append((None if spec is None else spec.execute, op, _delay(op)))
        # without a transport a recv runs at once and fails for want of one
        self.channels = (
            plan.channels if ctx.transport is not None else (None,) * len(plan.ops)
        )
        pool.grow(plan.worker_count - 1)
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.zero = 0

    def run(self, iteration: int, zero: int) -> list[TraceRecord]:
        plan, state = self.plan, self.state
        _check_sources(plan, self.ctx.store)
        state.reset()
        self.ctx.iteration = iteration
        self.zero = zero
        newly = state.arm()
        if not plan.ops:
            return []
        if not newly:
            raise DispatchError("no operator is initially ready; graph cannot start")
        workers, lanes, channels = plan.workers, plan.lanes, self.channels
        queues, inbox, transport = self.pool.queues, self.inbox, self.ctx.transport
        trace: list[TraceRecord] = []
        ready: deque[int] = deque()  # worker 0's operators, FIFO by readiness
        sent = 0  # operators handed to pool threads and not yet back
        # lanes whose recv waits for its frame: the recv and the time its lane
        # reached it, and the operators that reached the lane since, in order
        waiting: dict[WorkerLane, tuple[int, int]] = {}
        held: dict[WorkerLane, list[int]] = {}
        while True:
            for i in newly:
                if workers[i]:
                    queues[workers[i] - 1].put((self, i))
                    sent += 1
                else:
                    ready.append(i)
            newly = ()
            record = exc = None  # both stay None for an operator to run here
            if waiting and not ready and (lane := self._arrival(waiting, not sent)):
                index, start = waiting.pop(lane)
                ready.extendleft(reversed(held.pop(lane)))
                if not transport.ready(channels[index]):  # waited out the timeout
                    exc = transport.timed_out(channels[index])
            elif sent and (not ready or not inbox.empty()):
                index, record, exc = inbox.get()
                sent -= 1
            elif ready:
                index, start = ready.popleft(), None
                lane = lanes[index]
                if held and lane in held:  # behind its lane's pending recv
                    held[lane].append(index)
                    continue
                if channels[index] is not None and not transport.ready(channels[index]):
                    waiting[lane] = (index, time.monotonic_ns() - self.zero)
                    held[lane] = []
                    continue
            elif waiting:
                continue  # the poll woke for another channel
            else:
                break
            if record is None and exc is None:
                try:
                    record = self._call(index, start)
                except Exception as e:  # noqa: BLE001 - reported below
                    exc = e
            if exc is not None:  # first error wins; the queued rest is dropped
                self.pool.aborting = True
                state.abandon(1 + len(ready) + sent + len(waiting)
                              + sum(map(len, held.values())))
                name = plan.ops[index].name
                raise DispatchError(f"operator {name!r} failed: {exc}") from exc
            trace.append(record)
            newly = state.complete(index)
        trace.sort(key=_BY_SPAN)
        return trace

    def _arrival(self, waiting: dict, block: bool) -> WorkerLane | None:
        """Poll the transport, which the run loop does only when no operator
        is ready; returns the first lane whose recv can end: its frame (or a
        fault) has come, or, when ``block``, it has waited out the timeout.
        With ``block`` and no frame queued yet, the poll waits until the
        oldest recv's timeout; otherwise it does not wait."""
        transport, channels = self.ctx.transport, self.channels
        timeout_ns = transport.timeout * 1e9
        wait_s = 0.0
        # a frame sent to this host itself is queued without a socket event
        if block and not any(transport.ready(channels[i]) for i, _ in waiting.values()):
            oldest = min(start for _, start in waiting.values())
            now = time.monotonic_ns() - self.zero
            wait_s = max(0.0, (oldest + timeout_ns - now) / 1e9)
        transport.poll(wait_s)
        for lane, (index, _) in waiting.items():
            if transport.ready(channels[index]):
                return lane
        if block:
            now = time.monotonic_ns() - self.zero
            for lane, (_, start) in waiting.items():
                if now - start >= timeout_ns:
                    return lane
        return None

    def _call(self, index: int, start: int | None = None) -> TraceRecord:
        """Execute one operator; returns its trace record.  ``start``, when
        given, is when its span began (a recv's, when its lane reached it)."""
        execute, op, delay = self.steps[index]
        if execute is None:
            raise DispatchError(
                f"operator kind {op.kind!r} unknown to registry (op {op.name!r})"
            )
        if start is None:
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
    raises.  Raises :class:`DispatchError` when ``iterations`` or
    ``max_workers`` is below 1.
    """
    if iterations < 1:
        raise DispatchError(f"iterations must be >= 1, got {iterations}")
    if max_workers is not None and max_workers < 1:
        raise DispatchError(f"max_workers must be >= 1, got {max_workers}")
    _validate(seq.graphs)
    runners: list[_GraphRunner | None] = [None] * len(seq.graphs)
    reports: list[RunReport] = []
    pool = _LanePool()
    try:
        t0 = time.monotonic_ns()
        for it in range(iterations):
            if before_iteration is not None:
                before_iteration(it, store)
            for gi, g in enumerate(seq.graphs):
                start_ns = time.monotonic_ns()
                runner = runners[gi]
                if runner is None:
                    ctx = RunContext(store, g, it, transport)
                    runner = _GraphRunner(GraphPlan.compile(g, max_workers), ctx, pool)
                    runners[gi] = runner
                trace = runner.run(it, t0)
                rep = RunReport(trace, time.monotonic_ns() - start_ns, it, gi)
                reports.append(rep)
                if after_graph is not None:
                    after_graph(rep, store)
    finally:
        pool.close()
    return reports
