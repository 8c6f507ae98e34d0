"""Workloads, the inline reference, and the metrics of the biflow benchmark.

Every workload is a closed loop: one training sequence in one process (or,
for the loopback workload, one process per host), where each iteration
starts after the previous one has completed.  A run repeats *episodes* of a
fixed number of iterations until its time is spent.  An episode builds the
sequence, initialises it from the seed, trains, and is then checked against
the inline serial reference for the same seed, so the final loss is the same
in every episode of a run and set-up time is sampled once per episode.

Each layer is driven only through its public functions: ``builders`` builds
and feeds, ``graph`` validates and orders, ``ops.KINDS`` executes the
reference, ``dispatcher.run_sequence`` trains, ``transport`` moves frames
between hosts, ``costsim.simulate`` predicts, ``profiler`` measures overlap.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from biflow import (
    KINDS,
    CostModel,
    GraphSequence,
    LayerSpec,
    Location,
    NetSpec,
    ParallelPlan,
    SyntheticFeed,
    TensorStore,
    build_data_parallel,
    build_sgd_iteration,
    decode_frame,
    encode_frame,
    feeder,
    init_params,
    overlap_fraction,
    partition_sequence,
    run_sequence,
    simulate,
)
from biflow.dispatcher import RunContext, lane_of
from biflow.profiler import COMPUTE, COPY, TRANSPORT

MLP = NetSpec(
    input_shape=(20,),
    layers=(LayerSpec("fc", 16), LayerSpec("relu"), LayerSpec("fc", 4)),
    batch=8,
    lr=0.05,
)
CONV = NetSpec(
    input_shape=(3, 16, 16),
    layers=(
        LayerSpec("conv", 8, kernel=3, pad=1),
        LayerSpec("relu"),
        LayerSpec("conv", 8, kernel=3, pad=1),
        LayerSpec("relu"),
        LayerSpec("fc", 10),
    ),
    batch=8,
    lr=0.05,
)
# Two peers and the server on one host; peer k runs on device k.
LOCAL2 = ParallelPlan(
    scheme="data",
    peers=(Location("local", 0), Location("local", 1)),
    server=Location("local", 0),
)
# The same peers, each its own host; proc0 also holds the server.
LOOPBACK2 = ParallelPlan(
    scheme="data",
    peers=(Location("proc0", 0), Location("proc1", 1)),
    server=Location("proc0", 0),
)


@dataclass(frozen=True)
class Workload:
    name: str
    net: NetSpec
    build: Callable[[], GraphSequence]  # picklable
    iterations: int  # per episode
    loopback: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mlp-single", MLP, partial(build_sgd_iteration, MLP), 400),
        Workload(
            "conv-data2-split", CONV,
            partial(build_data_parallel, CONV, LOCAL2, split_backward=True), 30,
        ),
        Workload(
            "conv-loopback2", CONV,
            partial(build_data_parallel, CONV, LOOPBACK2), 40, loopback=True,
        ),
    )
}

# Every op kind the three workloads run; a kind a workload lacks reports 0.
KINDS_REPORTED = (
    "fc_forward", "fc_backward", "fc_backward_data", "fc_backward_weight",
    "fc_backward_bias", "conv2d_forward", "conv2d_backward",
    "conv2d_backward_data", "conv2d_backward_weight", "conv2d_backward_bias",
    "relu_forward", "relu_backward", "flatten_forward", "flatten_backward",
    "softmax_xent", "sgd_update", "aggregate", "swap", "copy", "send", "recv",
)

# The tail is the highest of these percentiles with ten samples beyond it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("cpu_ms_per_iter", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("builders.build_ms", "ms"),
    ("graph.validate_ms", "ms"),
    ("builders.feed_ms", "ms"),
    ("ops.inline_ms", "ms"),
    *((f"ops.kernel_ms.{k}", "ms") for k in KINDS_REPORTED),
    *((f"ops.calls.{k}", "count") for k in KINDS_REPORTED),
    ("dispatcher.overhead_ms", "ms"),
    ("dispatcher.self_ms", "ms"),
    ("dispatcher.busy.compute", "ms"),
    ("dispatcher.busy.copy", "ms"),
    ("dispatcher.busy.transport", "ms"),
    ("dispatcher.overlap_fraction", "ratio"),
    ("dispatcher.lanes", "count"),
    ("transport.bytes_per_iter", "B"),
    ("transport.frames_per_iter", "count"),
    ("transport.send_ms", "ms"),
    ("transport.recv_ms", "ms"),
    ("transport.codec_ms", "ms"),
    ("costsim.pred_ms", "ms"),
    ("costsim.pred_ratio", "ratio"),
    ("costsim.sim_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

GATE_REL = 1e-6  # loopback vs in-process, the bound of acceptance criterion 4c


class EpisodeError(RuntimeError):
    """An episode failed the correctness gate or the count check."""


# ---------------------------------------------------------------------------
# structure: the exact counts every run must reproduce


@dataclass(frozen=True)
class Structure:
    """Per-iteration counts taken from the graphs a workload runs."""

    calls: dict  # kind -> ops per iteration
    lanes: int
    frames: int
    payload_bytes: int


def host_sequences(wl: Workload, seq):
    """The graph sequences the workload's processes run, keyed by host."""
    if not wl.loopback:
        return {"local": (seq, [])}
    return {
        h: (p.sequence, p.sends) for h, p in sorted(partition_sequence(seq).items())
    }


def structure_of(hseqs: dict) -> Structure:
    """Counts from the graphs and channels of ``host_sequences``."""
    calls: Counter = Counter()
    lanes = set()
    frames = payload = 0
    for hseq, sends in hseqs.values():
        for g in hseq.graphs:
            for op in g.operators.values():
                calls[op.kind] += 1
                lanes.add(lane_of(op))
        frames += len(sends)
        payload += sum(4 * int(np.prod(s.shape)) for s in sends)
    if not calls.get("send", 0) == calls.get("recv", 0) == frames:
        raise EpisodeError(f"{frames} channels but {calls.get('send', 0)} sends "
                           f"and {calls.get('recv', 0)} recvs")
    return Structure(dict(calls), len(lanes), frames, payload)


# ---------------------------------------------------------------------------
# one host's training loop and what its trace says


class Recorder:
    """Hooks for ``run_sequence`` that time each iteration from the start of
    the feed to the end of the last graph; when traced, also the feed."""

    def __init__(self, feed_hook, last_graph: int, traced: bool) -> None:
        self.feed_hook = feed_hook
        self.last_graph = last_graph
        self.traced = traced
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.feed_ns: list[int] = []

    def before(self, iteration, store) -> None:
        t = time.monotonic_ns()
        self.starts.append(t)
        self.feed_hook(iteration, store)
        if self.traced:
            self.feed_ns.append(time.monotonic_ns() - t)

    def after(self, report, store) -> None:
        if report.graph_index == self.last_graph:
            self.ends.append(time.monotonic_ns())


def _union_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, hi = 0, None
    for s, e in sorted(intervals):
        if hi is None or s > hi:
            total += e - s
            hi = e
        elif e > hi:
            total += e - hi
            hi = e
    return total


def check_counts(seq, reports, iterations: int) -> None:
    """Every graph ran in every iteration and executed each of its operators
    exactly once, so each iteration's per-kind counts are the graphs'."""
    if len(reports) != iterations * len(seq.graphs):
        raise EpisodeError(f"{len(reports)} graph runs for {iterations} iterations")
    ops = [sorted(g.operators) for g in seq.graphs]
    for rep in reports:
        if sorted(r.op for r in rep.trace) != ops[rep.graph_index]:
            raise EpisodeError(
                f"iteration {rep.iteration} graph {rep.graph_index}: operators "
                "missing or run twice"
            )


def trace_stats(seq, reports) -> dict:
    """Per-iteration layer figures from one host's ``RunReport`` list."""
    layout = seq.layout
    n = 1 + max(rep.iteration for rep in reports)
    kind_ns = [Counter() for _ in range(n)]
    busy_ns = [Counter() for _ in range(n)]
    self_ns = [0] * n
    elapsed_ns = [0] * n
    durations: dict[str, list[int]] = {}
    records = []
    for rep in reports:
        g = seq.graphs[rep.graph_index]
        it = rep.iteration
        for r in rep.trace:
            kind = g.operators[r.op].kind
            d = r.end - r.start
            kind_ns[it][kind] += d
            busy_ns[it][layout.lane_class(r.lane)] += d
            durations.setdefault(kind, []).append(d)
        self_ns[it] += rep.elapsed - _union_ns((r.start, r.end) for r in rep.trace)
        elapsed_ns[it] += rep.elapsed
        records.extend(rep.trace)
    copy_ns = sum(r.end - r.start for r in records
                  if layout.lane_class(r.lane) == COPY)
    covered = overlap_fraction(records, layout.lane_class) * copy_ns if copy_ns else 0.0
    return {
        "kind_ns": [dict(c) for c in kind_ns],
        "busy_ns": [dict(c) for c in busy_ns],
        "self_ns": self_ns,
        "elapsed_ns": elapsed_ns,
        "durations": durations,
        "copy_ns": copy_ns,
        "copy_covered_ns": covered,
    }


def train_host(seq, store, feed_hook, iterations, traced, transport=None):
    """Run one host's sequence; returns its iteration times, the CPU time of
    the whole process over the run and, when traced, its trace figures.
    Raises on a count mismatch."""
    rec = Recorder(feed_hook, len(seq.graphs) - 1, traced)
    cpu0 = time.process_time_ns()
    reports = run_sequence(
        seq, store, transport=transport, before_iteration=rec.before,
        after_graph=rec.after, iterations=iterations,
    )
    cpu_ns = time.process_time_ns() - cpu0
    check_counts(seq, reports, iterations)
    out = {"starts": rec.starts, "ends": rec.ends, "feed_ns": rec.feed_ns,
           "cpu_ns": cpu_ns}
    if traced:
        out["stats"] = trace_stats(seq, reports)
    return out


def owned(seq, names) -> list[str]:
    return [n for n in names if any(g.has_tensor(n) for g in seq.graphs)]


def make_feed(net: NetSpec, seed: int, layout) -> SyntheticFeed:
    return SyntheticFeed.for_net(net, seed, peers=len(layout.data_names))


# ---------------------------------------------------------------------------
# the inline serial reference


def run_inline(seq, store, feed_hook, iterations: int) -> list[int]:
    """The same ops, serially in ``toposort`` order through
    ``KINDS[kind].execute`` with no threads; returns ns per iteration,
    timed over the same span as the dispatcher's (feed to last graph)."""
    plans = [
        (RunContext(store=store, graph=g), [g.operators[i] for i in g.toposort()])
        for g in seq.graphs
    ]
    times = []
    for it in range(iterations):
        t = time.monotonic_ns()
        feed_hook(it, store)
        for ctx, ops in plans:
            ctx.iteration = it
            for op in ops:
                KINDS[op.kind].execute(ctx, op)
        times.append(time.monotonic_ns() - t)
    return times


@dataclass
class Reference:
    params: dict
    final_loss: float
    iter_ns: list


def reference(wl: Workload, seed: int) -> Reference:
    """Inline serial training of the workload's (unpartitioned) sequence."""
    seq = wl.build()
    layout = seq.layout
    store = TensorStore()
    init_params(wl.net, store, seed, layout)
    times = run_inline(seq, store, feeder(make_feed(wl.net, seed, layout), layout),
                       wl.iterations)
    params = {n: store.array(n).copy() for n in layout.canonical_params}
    return Reference(params, mean_loss(store, layout.loss_names), times)


def mean_loss(store, names) -> float:
    return sum(float(store.array(n)[0]) for n in names) / len(names)


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def gate(wl: Workload, params: dict, ref: Reference) -> None:
    """Bit-for-bit for in-process workloads; rel <= GATE_REL over loopback."""
    if set(params) != set(ref.params):
        raise EpisodeError(f"final params {sorted(params)} != {sorted(ref.params)}")
    for name, want in ref.params.items():
        got = params[name]
        if wl.loopback:
            err = rel_error(got, want)
            if not err <= GATE_REL:
                raise EpisodeError(f"{name}: rel. error {err:.3e} > {GATE_REL}")
        elif not np.array_equal(got, want):
            raise EpisodeError(f"{name}: differs from the inline reference")


# ---------------------------------------------------------------------------
# episodes


@dataclass
class Episode:
    setup_ns: int
    build_ns: int
    iter_ns: list  # per iteration, feed start to end of the last graph
    cpu_ns: int  # CPU time of the training loop, all threads (and hosts)
    feed_ns: list  # per iteration, traced episodes only
    final_loss: float
    traced: bool
    stats: list  # one trace_stats dict per host, traced episodes only
    child_rss_kb: int = 0


def inprocess_episode(wl: Workload, seed: int, traced: bool,
                      ref: Reference) -> Episode:
    t0 = time.monotonic_ns()
    seq = wl.build()
    t_built = time.monotonic_ns()
    layout = seq.layout
    store = TensorStore()
    init_params(wl.net, store, seed, layout)
    feed_hook = feeder(make_feed(wl.net, seed, layout), layout)
    got = train_host(seq, store, feed_hook, wl.iterations, traced)
    gate(wl, {n: store.array(n) for n in layout.canonical_params}, ref)
    return Episode(
        setup_ns=got["starts"][0] - t0,
        build_ns=t_built - t0,
        iter_ns=[e - s for s, e in zip(got["starts"], got["ends"])],
        cpu_ns=got["cpu_ns"],
        feed_ns=got["feed_ns"],
        final_loss=mean_loss(store, layout.loss_names),
        traced=traced,
        stats=[got["stats"]] if traced else [],
    )


# ---------------------------------------------------------------------------
# metrics


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder
    percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def peak_rss_mb(child_kb: int = 0) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own + child_kb) / 1024.0


def end_to_end(images: int, episodes: list[Episode]) -> tuple[dict, dict]:
    """(bounded end-to-end metrics, wall-clock ones) over the untraced
    episodes; the tail carries its percentile and sample counts."""
    timed = [e for e in episodes if not e.traced]
    iters = [t for e in timed for t in e.iter_ns]
    p, tail_ns, beyond = tail(iters)
    metrics = {
        "cpu_ms_per_iter": median([e.cpu_ns / len(e.iter_ns) for e in timed]) / 1e6,
        "setup_s": median([e.setup_ns for e in episodes]) / 1e9,
        "peak_rss_mb": peak_rss_mb(max((e.child_rss_kb for e in episodes), default=0)),
    }
    wall = {
        "images_per_s": {
            "value": images * len(iters) * 1e9 / sum(iters), "unit": "img/s",
        },
        "iter_ms.p50": {"value": median(iters) / 1e6, "unit": "ms"},
        "iter_ms.tail": {
            "value": tail_ns / 1e6,
            "unit": "ms",
            "percentile": p,
            "samples": len(iters),
            "samples_beyond": beyond,
        },
    }
    return metrics, wall


def _per_iteration(stats: list[dict], key: str, pick=sum) -> list:
    """Combine one per-iteration series across hosts."""
    return [pick(vals) for vals in zip(*(s[key] for s in stats))]


def per_layer(seed: int, episodes: list[Episode], inline: Reference,
              st: Structure, seq, hseqs: dict) -> dict:
    """Per-layer metrics: per-iteration figures are medians over the traced
    episodes' iterations, summed over hosts (the dispatcher's makespan
    takes the slowest host); the overheads compare against the untraced
    episodes and the inline reference of the same invocation."""
    traced = [e for e in episodes if e.traced]
    untraced = [e for e in episodes if not e.traced]
    traced_p50 = median([t for e in traced for t in e.iter_ns])
    untraced_p50 = median([t for e in untraced for t in e.iter_ns])

    kind_ns: list[Counter] = []
    busy: list[Counter] = []
    self_ns, elapsed_ns = [], []
    durations: dict[str, list[int]] = {}
    copy_ns = covered = 0.0
    for e in traced:
        for it in range(len(e.iter_ns)):
            kind_ns.append(sum((Counter(s["kind_ns"][it]) for s in e.stats), Counter()))
            busy.append(sum((Counter(s["busy_ns"][it]) for s in e.stats), Counter()))
        self_ns += _per_iteration(e.stats, "self_ns")
        elapsed_ns += _per_iteration(e.stats, "elapsed_ns", max)
        for s in e.stats:
            for k, ds in s["durations"].items():
                durations.setdefault(k, []).extend(ds)
            copy_ns += s["copy_ns"]
            covered += s["copy_covered_ns"]

    inline_ns = median(inline.iter_ns)
    m = {
        "builders.build_ms": median([e.build_ns for e in traced]) / 1e6,
        "graph.validate_ms": validate_ms(hseqs),
        "builders.feed_ms": median([t for e in traced for t in e.feed_ns]) / 1e6,
        "ops.inline_ms": inline_ns / 1e6,
    }
    for k in KINDS_REPORTED:
        m[f"ops.kernel_ms.{k}"] = median([c.get(k, 0) for c in kind_ns]) / 1e6
        m[f"ops.calls.{k}"] = st.calls.get(k, 0)
    m["dispatcher.overhead_ms"] = (untraced_p50 - inline_ns) / 1e6
    m["dispatcher.self_ms"] = median(self_ns) / 1e6
    for cls in (COMPUTE, COPY, TRANSPORT):
        m[f"dispatcher.busy.{cls}"] = median([c.get(cls, 0) for c in busy]) / 1e6
    m["dispatcher.overlap_fraction"] = covered / copy_ns if copy_ns else 0.0
    m["dispatcher.lanes"] = st.lanes
    m["transport.bytes_per_iter"] = st.payload_bytes
    m["transport.frames_per_iter"] = st.frames
    m["transport.send_ms"] = m["ops.kernel_ms.send"]
    m["transport.recv_ms"] = m["ops.kernel_ms.recv"]
    m["transport.codec_ms"] = codec_ms(hseqs, seed)
    pred_s, sim_s = predict(seq, durations)
    m["costsim.pred_ms"] = pred_s * 1e3
    m["costsim.pred_ratio"] = median(elapsed_ns) / 1e9 / pred_s
    m["costsim.sim_ms"] = sim_s * 1e3
    m["trace.overhead_ms"] = (traced_p50 - untraced_p50) / 1e6
    return m


def validate_ms(hseqs: dict, repeats: int = 5) -> float:
    """Median time to validate every graph the workload's hosts run."""
    times = []
    for _ in range(repeats):
        t = time.monotonic_ns()
        for hseq, _ in hseqs.values():
            for g in hseq.graphs:
                report = g.validate()
                if not report.ok:
                    raise EpisodeError("; ".join(report.violations))
        times.append(time.monotonic_ns() - t)
    return median(times) / 1e6


def codec_ms(hseqs: dict, seed: int, repeats: int = 20) -> float:
    """encode_frame + decode_frame over one iteration's channel payloads."""
    rng = np.random.default_rng(seed)
    payloads = [
        (s.channel, rng.standard_normal(s.shape).astype(np.float32))
        for _, sends in hseqs.values() for s in sends
    ]
    if not payloads:
        return 0.0
    times = []
    for _ in range(repeats):
        t = time.monotonic_ns()
        for ch, arr in payloads:
            decode_frame(encode_frame(ch, 0, arr))
        times.append(time.monotonic_ns() - t)
    return median(times) / 1e6


def predict(seq, durations: dict, repeats: int = 3) -> tuple[float, float]:
    """(simulated makespan of one iteration, median simulation time), both
    in seconds, with each kind costing its traced median duration."""
    costs = CostModel(kind_costs={k: median(v) / 1e9 for k, v in durations.items()})
    times, makespan = [], 0.0
    for _ in range(repeats):
        t = time.monotonic_ns()
        makespan = simulate(seq, costs, iterations=1).makespan
        times.append(time.monotonic_ns() - t)
    return makespan, median(times) / 1e9
