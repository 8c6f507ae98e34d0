"""Virtual-time twin of the dispatcher plus an analytic throughput model.

The discrete-event simulator drives the *same* compiled plan and readiness
counters as the real dispatcher (:class:`~biflow.dispatcher.GraphPlan`,
:class:`~biflow.dispatcher.ReadinessState`), so lane serialization,
FIFO-by-readiness ordering, and sequence sync points are shared with real
execution rather than re-derived.  Durations come from a
:class:`CostModel` instead of the wall clock, which makes runs exactly
reproducible and lets one machine predict schedules for many.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .dispatcher import GraphPlan, ReadinessState, TraceRecord, WorkerLane
from .graph import BiGraph, GraphSequence, OperatorVertex

_WIRE_KINDS = ("copy", "send", "recv", "gate")


class SimError(ValueError):
    """Bad cost model, uncovered operator kind, or invalid fit input."""


@dataclass(frozen=True)
class CostModel:
    """Operator durations in virtual seconds, for the event simulation.

    ``kind_costs`` maps operator kinds to a constant duration or to a
    callable ``f(in_shapes, out_shapes) -> seconds``.  Data movement kinds
    (copy/send/recv) fall back to ``latency + bytes / bandwidth`` when they
    have no entry.  A per-operator ``delay_s`` attribute, when present,
    wins over both: graphs built with injected costs simulate as built.
    The closed-form model's constants are arguments of
    :func:`throughput_model`.
    """

    kind_costs: Mapping[str, float | Callable] = field(default_factory=dict)
    bandwidth: float = math.inf  # bytes per virtual second
    latency: float = 0.0  # virtual seconds per transfer

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise SimError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.latency < 0:
            raise SimError(f"latency must be >= 0, got {self.latency}")

    def duration_of(self, op: OperatorVertex, graph: BiGraph) -> float:
        if "delay_s" in op.attrs:
            dur = float(op.attrs["delay_s"])
        else:
            entry = self.kind_costs.get(op.kind)
            if entry is not None:
                if callable(entry):
                    in_shapes = [graph.tensors[t].shape for t in op.inputs]
                    out_shapes = [graph.tensors[t].shape for t in op.outputs]
                    dur = float(entry(in_shapes, out_shapes))
                else:
                    dur = float(entry)
            elif op.kind in _WIRE_KINDS:
                tids = op.outputs or op.inputs
                nbytes = 4 * math.prod(graph.tensors[tids[0]].shape)
                dur = self.latency + nbytes / self.bandwidth
            else:
                raise SimError(
                    f"no cost entry for operator kind {op.kind!r} (op {op.name!r})"
                )
        if not (dur >= 0 and math.isfinite(dur)):
            raise SimError(f"operator {op.name!r} has invalid duration {dur}")
        return dur


@dataclass
class SimReport:
    """Virtual-time schedule: total makespan, full trace, model throughput."""

    makespan: float
    trace: list[TraceRecord]
    throughput: float | None = None


def simulate(
    graph_or_sequence,
    costs: CostModel,
    iterations: int = 1,
    *,
    images_per_iteration: float | None = None,
) -> SimReport:
    """Event-driven virtual-time execution of a graph or sequence, run
    ``iterations`` times.

    Scheduling matches ``dispatcher.run_sequence``: every lane is a serial
    queue ordered by readiness time with graph-insertion-order tie breaks,
    and each graph of the sequence starts only after the previous completed.
    Deterministic: equal inputs give equal traces.  Raises :class:`SimError`
    when ``iterations`` is below 1.
    """
    if iterations < 1:
        raise SimError(f"iterations must be >= 1, got {iterations}")
    seq = graph_or_sequence
    graphs = seq.graphs if isinstance(seq, GraphSequence) else [seq]
    for g in graphs:
        report = g.validate()
        if not report.ok:
            raise SimError("graph failed validation: " + "; ".join(report.violations))

    plans = [GraphPlan.compile(g) for g in graphs]
    states = [ReadinessState(p) for p in plans]
    durations = [
        [costs.duration_of(op, p.graph) for op in p.ops] for p in plans
    ]

    trace: list[TraceRecord] = []
    lane_free: dict[WorkerLane, float] = {}
    floor = 0.0

    for it in range(iterations):
        for plan, state, durs in zip(plans, states, durations):
            state.reset()
            ready = state.arm()
            if not plan.ops:
                continue
            lanes = plan.lanes

            lane_queue: dict[WorkerLane, list] = {}
            lane_busy: dict[WorkerLane, bool] = {}
            events: list = []  # (end_time, op index, start_time)

            def enqueue(index: int, ready_t: float) -> None:
                queue = lane_queue.setdefault(lanes[index], [])
                heapq.heappush(queue, (ready_t, index))

            def start_idle_lanes() -> None:
                for lane, queue in lane_queue.items():
                    if lane_busy.get(lane) or not queue:
                        continue
                    ready_t, index = heapq.heappop(queue)
                    start = max(ready_t, lane_free.get(lane, 0.0))
                    end = start + durs[index]
                    lane_busy[lane] = True
                    heapq.heappush(events, (end, index, start))

            for index in ready:
                enqueue(index, floor)
            start_idle_lanes()

            last = floor
            while events:
                now = events[0][0]
                batch = []
                while events and events[0][0] == now:
                    batch.append(heapq.heappop(events))
                for end, index, start in batch:
                    op = plan.ops[index]
                    lane = lanes[index]
                    lane_busy[lane] = False
                    lane_free[lane] = end
                    trace.append(
                        TraceRecord(
                            op.id,
                            op.name,
                            lane,
                            int(round(start * 1e9)),
                            int(round(end * 1e9)),
                            it,
                        )
                    )
                    for newly in state.complete(index):
                        enqueue(newly, end)
                start_idle_lanes()
                last = now
            floor = max(floor, last)

    throughput = None
    if images_per_iteration is not None and floor > 0:
        throughput = images_per_iteration * iterations / floor
    return SimReport(makespan=floor, trace=trace, throughput=throughput)


# ---------------------------------------------------------------------------
# closed-form throughput model


def throughput_model(peers: int, batch: float, a: float, c: float) -> float:
    """Images per second for ``peers`` workers at ``batch`` images each.

    Compute scales out perfectly and all communication hides behind it
    except a constant per-iteration cost: ``peers * batch / (a * batch + c)``.
    """
    if peers < 1 or batch < 1:
        raise SimError(f"need peers >= 1 and batch >= 1, got {peers}, {batch}")
    if a <= 0 or c < 0:
        raise SimError(f"need a > 0 and c >= 0, got a={a}, c={c}")
    return peers * batch / (a * batch + c)


class FitResult(NamedTuple):
    a: float  # virtual seconds of compute per image
    c: float  # non-overlapped virtual seconds per iteration
    residuals: dict[float, float]  # batch -> relative error on unused rows


def fit_two_point(table, peers: int) -> FitResult:
    """Solve (a, c) exactly from the smallest- and largest-batch rows.

    ``table`` holds ``(batch, images_per_second)`` pairs measured at a fixed
    peer count.  The two extreme batches give a 2x2 linear system in
    (a, c); every other row is scored as a relative prediction residual.
    """
    rows = [(float(b), float(r)) for b, r in table]
    if len(rows) < 2:
        raise SimError("fit_two_point: need at least two (batch, rate) rows")
    batches = [b for b, _ in rows]
    if len(set(batches)) != len(batches):
        raise SimError("fit_two_point: duplicate batch values")
    lo = min(rows, key=lambda r: r[0])
    hi = max(rows, key=lambda r: r[0])
    # model: a * B + c = peers * B / rate, one equation per extreme row
    y_lo = peers * lo[0] / lo[1]
    y_hi = peers * hi[0] / hi[1]
    a = (y_hi - y_lo) / (hi[0] - lo[0])
    c = y_lo - a * lo[0]
    if a <= 0:
        raise SimError(f"fit_two_point: non-positive compute cost a={a}")
    residuals = {
        b: (throughput_model(peers, b, a, c) - rate) / rate
        for b, rate in rows
        if b not in (lo[0], hi[0])
    }
    return FitResult(a, c, residuals)
