"""Event-driven graph execution over serialized worker lanes.

Execution is pure readiness propagation: an operator fires once every one of
its input edges is satisfied, a tensor is ready once its producer (if any)
has completed, and a run finishes when no operator is ready, waiting for a
frame or delayed.  A graph is acyclic by construction, so by then every
operator has run exactly once.  There is no global schedule — concurrency
falls out of operators landing on different lanes.

A lane is the (host, device, thread) triple of an operator; each lane
executes its operators one at a time in FIFO order of readiness: operators
become ready in the order of the completions that readied them, and in graph
insertion order among those one completion readied.  Every operator runs on
the thread that calls :func:`run_sequence`: the numpy kernels and in-process
copies are too small to gain from threads and only contend for the GIL (on a
2-core VM, conv-data2-split used 8.2–9.5 CPU ms per iteration with its 7
lanes on 7 threads and 4.7–5.5 ms with them on one, ten 30 s runs each).
What lanes can overlap is waiting: an injected ``delay_s`` and a frame in
flight.

An operator with a duration above 0 (its ``delay_s``) holds a *worker* for
that long before its kernel runs.  When it reaches a free worker, the run
loop records its start and pushes its deadline, start plus duration, onto a
heap; once the deadline has passed (equal deadlines in insertion order), the
loop runs its kernel and frees the worker.  The operator's traced span runs
from its start to the kernel's end, so injected cost counts as execution
time, not queueing.  Operators that reach a held worker wait behind it in
FIFO order.  Each lane holding a delayed operator is a worker group of its
own and all other lanes form one group; group ``k`` goes to worker
``k mod min(groups, max_workers)``, so ``max_workers`` is how many operators
can hold a worker at once, and under ``max_workers=1`` delayed operators
never overlap.  Neither the grouping nor the cap changes which lane an
operator belongs to.

``send`` and ``recv`` run on the calling thread too, which drives the run's
transport.  A ``send`` writes at once (its socket reads while a write
would block).  A ``recv`` whose frame has not come when its lane reaches it
is *pending*: the lane takes nothing else until the run loop takes that
frame, in the lane's FIFO order, and the recv's traced span runs from the
moment its lane reached it to that moment.

So the loop has three event sources: expired deadlines, ready operators
and frame arrivals, taken in that order.  When none has an event, it waits
until the next deadline or the oldest pending recv's timeout, whichever
comes first: in the transport's poll while a recv is pending, which takes
every frame that has come, and in a sleep otherwise.  The loop polls only
then, so a loopback host spends CPU on the network only when frames move.

Each operator is bound once per run call, on its first run, through its
kind's ``bind`` hook from ``ops.KINDS``: the hook resolves the operator's
tensors, evaluates its shape rule and parses its attrs, and returns a
zero-argument step.  Every run then calls the step, so what each operator
run costs besides its kernel is kept small: no name is looked up and no
attr is parsed, and its span is one :class:`TraceRecord`, a named tuple; a
run's trace is sorted by (start, end) once, when it ends.  No run re-checks
a graph: its invariants held when its vertices were added, and the shape
rule, which an ``attrs`` edit can break, runs at bind.  A graph's sources
are checked against the store, and its recv channels against the routes,
before its first run only: a store removes no name and changes no shape,
and a transport's routes are fixed, so they pass before every later run.

Each graph is compiled once, on its first run, into a :class:`GraphPlan`:
the int-indexed scheduling facts of the graph.  Every run then copies the
plan's unsatisfied-edge counts and initial operators instead of rebuilding
them.

No run starts a thread.  The first error wins: the run stops at once, and
neither a pending recv nor a pending deadline delays the error.
:func:`run` is :func:`run_sequence` over one graph, run once.

The cost simulator (:func:`biflow.costsim.simulate`) drives this run loop on
a virtual clock, through the runner's ``_now``, ``_sleep_until`` and
``_call``: each operator is a deadline of its cost-model duration and no
kernel runs, so real and simulated runs schedule in the same code.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .graph import BiGraph, GraphSequence, OperatorVertex
from .ops import KINDS, TensorStore

__all__ = [
    "DispatchError",
    "GraphPlan",
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
    order among the operators that one completion readies.  Per operator:
    ``ops`` holds the vertex, ``lanes`` its lane, ``workers`` the worker
    that serves its lane, ``consumers`` the operators whose input edges its
    completion satisfies (one entry per edge, ascending) and ``pending`` its
    input edges not yet satisfied when a run starts (repeated inputs count
    once per edge).  ``initial`` lists the operators ready then; ``sources``
    holds the name and shape of every consumed source tensor, which the
    store must hold before each run.

    ``channels`` holds the channel of each ``recv`` operator, which the run
    loop waits on, and None for every other operator.

    ``durations`` holds each operator's duration in seconds (its
    ``delay_s`` unless given).  Lanes map to workers in groups, and a worker
    is held by one delayed operator at a time: each lane holding an operator
    with a duration above 0 is a group of its own, so delays on different
    lanes overlap; all other lanes form one group, whose operators never
    hold their worker.
    The shared group is group 0 and the delayed lanes follow in sorted lane
    order; group ``k`` goes to worker ``k mod min(groups, cap)``.
    """

    ops: tuple[OperatorVertex, ...]
    lanes: tuple[WorkerLane, ...]
    workers: tuple[int, ...]
    durations: tuple[float, ...]
    channels: tuple[int | None, ...]
    consumers: tuple[tuple[int, ...], ...]
    pending: tuple[int, ...]
    initial: tuple[int, ...]
    sources: tuple[tuple[str, tuple[int, ...]], ...]

    @classmethod
    def compile(
        cls, graph: BiGraph, cap: int | None = None, durations=None
    ) -> "GraphPlan":
        """Plan ``graph`` with at most ``cap`` workers (no cap when None) and
        the given operator ``durations`` (in insertion order)."""
        ops = tuple(graph.operators_in_order())
        index = {op.id: i for i, op in enumerate(ops)}
        lanes = tuple(lane_of(op) for op in ops)
        if durations is None:
            durations = [float(op.attrs.get("delay_s", 0.0) or 0.0) for op in ops]
        delayed = {lane for d, lane in zip(durations, lanes) if d > 0}
        # each delayed lane is a group of its own, the other lanes form
        # group 0; delayed groups follow in sorted lane order
        shared = set(lanes) - delayed
        groups: dict[WorkerLane | None, int] = {None: 0} if shared else {}
        group = {
            lane: groups.setdefault(lane if lane in delayed else None, len(groups))
            for lane in sorted(set(lanes))
        }
        count = len(groups) if cap is None else min(len(groups), cap)
        slot = {lane: k % count for lane, k in group.items()}
        consumed = {tid: graph.consumers_of(tid) for tid in graph.tensors}
        produced = {tid for tid in graph.tensors if graph.producer_of(tid) is not None}
        pending = tuple(sum(1 for tid in op.inputs if tid in produced) for op in ops)
        return cls(
            ops=ops,
            lanes=lanes,
            workers=tuple(slot[lane] for lane in lanes),
            durations=tuple(durations),
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
            initial=tuple(i for i, p in enumerate(pending) if p == 0),
            sources=tuple(
                (graph.tensors[tid].name, graph.tensors[tid].shape)
                for tid in graph.tensors
                if tid not in produced and consumed[tid]
            ),
        )


@dataclass
class RunContext:
    """Everything a kind's ``bind`` hook, and the step it returns, may touch."""

    store: TensorStore
    graph: BiGraph
    iteration: int = 0
    transport: object | None = None


class _GraphRunner:
    """Runs one compiled graph, once per :meth:`run` call, on the calling
    thread, which also drives the transport and owns every counter and the
    trace.  The wall clock in ns is read by ``_now`` and waited on by
    ``_sleep_until``; a virtual runner replaces both and ``_call``."""

    def __init__(self, plan: GraphPlan, ctx: RunContext) -> None:
        self.plan = plan
        self.ctx = ctx
        # each operator's step, bound on its first call
        self.steps: list = [None] * len(plan.ops)
        self.delays = tuple(int(d * 1e9) for d in plan.durations)  # ns
        # without a transport a recv runs at once and fails for want of one;
        # with one, a recv with no route fails here, not after the timeout
        self.channels = (
            plan.channels if ctx.transport is not None else (None,) * len(plan.ops)
        )
        for op, channel in zip(plan.ops, self.channels):
            if channel is not None:
                try:
                    ctx.transport.route(channel)
                except RuntimeError as exc:  # a TransportError: it has no route
                    raise DispatchError(f"operator {op.name!r} failed: {exc}") from exc

    def run(self, iteration: int, zero: int) -> list[TraceRecord]:
        plan = self.plan
        self.ctx.iteration = iteration
        self.zero = zero
        # each operator's input edges not yet satisfied
        pending = list(plan.pending)
        ready = deque(plan.initial)  # FIFO by readiness
        workers, lanes, consumers = plan.workers, plan.lanes, plan.consumers
        delays, channels, transport = self.delays, self.channels, self.ctx.transport
        trace: list[TraceRecord] = []
        # (deadline, index, start) of each delayed operator holding its worker
        deadlines: list[tuple[int, int, int]] = []
        # lanes whose recv waits for its frame: the recv and the time its
        # lane reached it
        waiting: dict[WorkerLane, tuple[int, int]] = {}
        # each lane behind its pending recv and each worker held until a
        # deadline: the operators that reached it since, in order
        held: dict[WorkerLane | int, list[int]] = {}
        while True:
            start = exc = None
            if deadlines and deadlines[0][0] <= self._now():
                _, index, start = heappop(deadlines)
                ready.extendleft(reversed(held.pop(workers[index])))
            elif waiting and not ready and (lane := self._arrival(waiting, deadlines)):
                index, start = waiting.pop(lane)
                ready.extendleft(reversed(held.pop(lane)))
                if not transport.ready(channels[index]):  # closed, or timed out
                    exc = transport.timed_out(channels[index])
            elif ready:
                index = ready.popleft()
                if held:
                    lane = lanes[index]
                    key = lane if lane in held else workers[index]
                    if key in held:
                        held[key].append(index)
                        continue
                if delays[index]:
                    start = self._now()
                    heappush(deadlines, (start + delays[index], index, start))
                    held[workers[index]] = []
                    continue
            elif waiting:
                continue  # the poll woke for another channel, or a deadline
            elif deadlines:
                self._sleep_until(deadlines[0][0])
                continue
            else:
                break
            if (channels[index] is not None and exc is None
                    and not transport.ready(channels[index])):
                if start is None:
                    start = self._now()
                waiting[lanes[index]] = (index, start)
                held[lanes[index]] = []
                continue
            if exc is None:
                try:
                    record = self._call(index, start)
                except Exception as e:  # noqa: BLE001 - reported below
                    exc = e
            if exc is not None:  # first error wins; the rest is dropped
                name = plan.ops[index].name
                raise DispatchError(f"operator {name!r} failed: {exc}") from exc
            trace.append(record)
            # consumers are ascending, so each operator reaches zero at its
            # last entry and one completion readies in insertion order
            for i in consumers[index]:
                pending[i] -= 1
                if not pending[i]:
                    ready.append(i)
        trace.sort(key=_BY_SPAN)
        return trace

    def _now(self) -> int:
        return time.monotonic_ns() - self.zero

    def _sleep_until(self, t: int) -> None:
        time.sleep(max(0, t - time.monotonic_ns() + self.zero) / 1e9)

    def _arrival(self, waiting: dict, deadlines: list) -> WorkerLane | None:
        """Returns the first lane whose recv can end: its frame (or a fault)
        has come, the transport is closed, or the recv has waited out the
        timeout.  With no frame queued yet, it polls the transport, which
        the run loop does only when no operator is ready, until the oldest
        recv's timeout or the next deadline, whichever comes first."""
        transport, channels = self.ctx.transport, self.channels
        # a frame sent to this host itself is queued without a socket event
        for lane, (index, _) in waiting.items():
            if transport.ready(channels[index]):
                return lane
        if transport.closed:  # no frame can come
            return next(iter(waiting))
        timeout_ns = transport.timeout * 1e9
        wake = min(start for _, start in waiting.values()) + timeout_ns
        if deadlines:
            wake = min(wake, deadlines[0][0])
        transport.poll(max(0.0, (wake - time.monotonic_ns() + self.zero) / 1e9))
        for lane, (index, _) in waiting.items():
            if transport.ready(channels[index]):
                return lane
        now = self._now()
        for lane, (_, start) in waiting.items():
            if now - start >= timeout_ns:
                return lane
        return None

    def _call(self, index: int, start: int | None = None) -> TraceRecord:
        """Execute one operator; returns its trace record.  ``start``, when
        given, is when its span began: a delayed operator's, when it took its
        worker; a recv's, when its lane reached it.  An operator's first call
        binds its step, inside its span."""
        if start is None:
            start = time.monotonic_ns() - self.zero
        step = self.steps[index]
        if step is None:
            step = self.steps[index] = self._bind(self.plan.ops[index])
        step()
        end = time.monotonic_ns() - self.zero
        if end <= start:
            end = start + 1
        op = self.plan.ops[index]
        return TraceRecord(
            op.id, op.name, self.plan.lanes[index], start, end, self.ctx.iteration
        )

    def _bind(self, op: OperatorVertex):
        spec = KINDS.get(op.kind)
        if spec is None:
            raise DispatchError(
                f"operator kind {op.kind!r} unknown to registry (op {op.name!r})"
            )
        return spec.bind(self.ctx, op)


def _check_sources(plan: GraphPlan, store: TensorStore) -> None:
    for name, shape in plan.sources:
        if not store.has(name):
            raise DispatchError(f"source tensor {name!r} has no buffer in the store")
        got = store.get(name).shape
        if got != shape:
            raise DispatchError(
                f"source tensor {name!r}: store shape {got} != graph shape {shape}"
            )


def run(
    graph: BiGraph,
    store: TensorStore,
    *,
    max_workers: int | None = None,
    transport: object | None = None,
) -> RunReport:
    """Execute one graph to completion; returns its report.

    Raises :class:`DispatchError` if a source tensor is missing from the
    store, a ``recv`` has no route on ``transport``, an operator kind is
    unknown to ``ops.KINDS``, an operator's inputs do not conform to its
    kind's shape rule when it is bound, or a kernel fails (first error
    wins: the run stops there, and the operators still ready, pending or
    delayed never run).
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
    graph completes (metric sampling).  Every operator runs on the calling
    thread, and no thread is started.  Raises :class:`DispatchError` as
    :func:`run` does, and when ``iterations`` or ``max_workers`` is below 1.
    """
    if iterations < 1:
        raise DispatchError(f"iterations must be >= 1, got {iterations}")
    if max_workers is not None and max_workers < 1:
        raise DispatchError(f"max_workers must be >= 1, got {max_workers}")
    runners: list[_GraphRunner | None] = [None] * len(seq.graphs)
    reports: list[RunReport] = []
    t0 = time.monotonic_ns()
    for it in range(iterations):
        if before_iteration is not None:
            before_iteration(it, store)
        for gi, g in enumerate(seq.graphs):
            start_ns = time.monotonic_ns()
            runner = runners[gi]
            if runner is None:
                plan = GraphPlan.compile(g, max_workers)
                # a store removes no name and changes no shape, so sources
                # that pass before a graph's first run pass before every run
                _check_sources(plan, store)
                runner = _GraphRunner(plan, RunContext(store, g, it, transport))
                runners[gi] = runner
            trace = runner.run(it, t0)
            rep = RunReport(trace, time.monotonic_ns() - start_ns, it, gi)
            reports.append(rep)
            if after_graph is not None:
                after_graph(rep, store)
    return reports
