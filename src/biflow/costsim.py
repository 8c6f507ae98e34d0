"""Virtual-time twin of the dispatcher plus an analytic throughput model.

:func:`simulate` runs each graph through the dispatcher's own run loop on a
virtual clock: each operator is a deadline of its :class:`CostModel`
duration, and no kernel runs.  Lane serialization, the order of readiness
and the sync points between graphs are the dispatcher's, not a copy of them.
Runs are exactly reproducible, and one machine can predict schedules for many.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .dispatcher import GraphPlan, RunContext, TraceRecord, _GraphRunner
from .graph import BiGraph, GraphSequence, OperatorVertex

_WIRE_KINDS = ("copy", "send", "recv", "gate")


class SimError(ValueError):
    """Bad cost model, uncovered operator kind, or invalid fit input."""


@dataclass(frozen=True)
class CostModel:
    """Operator durations in virtual seconds, for the event simulation.

    ``kind_costs`` maps operator kinds to a duration in seconds.  Data
    movement kinds (copy/send/recv/gate) fall back to ``latency + bytes /
    bandwidth`` when they have no entry.  A per-operator ``delay_s``
    attribute, when present, wins over both: graphs built with injected
    costs simulate as built.
    The closed-form model's constants are arguments of
    :func:`throughput_model`.
    """

    kind_costs: Mapping[str, float] = field(default_factory=dict)
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


class _VirtualRunner(_GraphRunner):
    """The dispatcher's run loop on a virtual clock in float seconds: each
    operator with a duration holds its lane's worker until its deadline, and
    no kernel runs."""

    def __init__(self, graph: BiGraph, costs: CostModel) -> None:
        durations = [costs.duration_of(op, graph) for op in graph.operators_in_order()]
        plan = GraphPlan.compile(graph, None, durations)
        super().__init__(plan, RunContext(None, graph))
        self.delays = plan.durations  # in the clock's unit
        self.clock = 0.0

    def _now(self) -> float:
        return self.clock

    def _sleep_until(self, t: float) -> None:
        self.clock = t

    def _call(self, index: int, start: float | None = None) -> TraceRecord:
        op, start = self.plan.ops[index], self.clock if start is None else start
        return TraceRecord(
            op.id, op.name, self.plan.lanes[index],
            round(start * 1e9), round(self.clock * 1e9), self.ctx.iteration,
        )


@dataclass
class SimReport:
    """Virtual-time schedule: total makespan and full trace."""

    makespan: float
    trace: list[TraceRecord]


def simulate(graph_or_sequence, costs: CostModel, iterations: int = 1) -> SimReport:
    """Virtual-time run of a graph or sequence, ``iterations`` times, in the
    dispatcher's run loop: lanes, order of readiness and the sync points
    between graphs are those of ``dispatcher.run_sequence``.  Deterministic:
    equal inputs give equal traces.  As there, the graphs are not re-checked:
    their invariants held when their vertices were added, and as no kernel
    runs, no shape rule is evaluated.
    Raises :class:`SimError` when ``iterations`` is below 1.
    """
    if iterations < 1:
        raise SimError(f"iterations must be >= 1, got {iterations}")
    seq = graph_or_sequence
    graphs = seq.graphs if isinstance(seq, GraphSequence) else [seq]
    runners = [_VirtualRunner(g, costs) for g in graphs]
    trace: list[TraceRecord] = []
    floor = 0.0  # each graph starts when the previous one has ended
    for it in range(iterations):
        for runner in runners:
            runner.clock = floor
            trace.extend(runner.run(it, 0))
            floor = runner.clock
    return SimReport(makespan=floor, trace=trace)


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
