"""Command line: validate experiment configs, train, and model throughput.

Exit codes are a stable contract: 0 success, 1 domain failure (invalid
graph, training or transport error), 2 usage or config-parse failure.
Training metrics stream to stdout as one JSON object per line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .builders import (
    NetSpec,
    ParallelPlan,
    SyntheticFeed,
    TrainingSetup,
    build_data_parallel,
    build_model_parallel_pipeline,
    build_sgd_iteration,
    feeder,
    init_params,
)
from .costsim import SimError, fit_two_point, throughput_model
from .dispatcher import DispatchError, merged_trace, run_sequence
from .graph import GraphError, Location, graph_from_json
from .ops import KernelError, TensorStore, as_index, read_tensor_file
from .profiler import export_trace
from .transport import (
    Transport,
    TransportError,
    owned_sources,
    partition_sequence,
    run_distributed,
)


class ConfigError(ValueError):
    """The experiment config file is malformed."""


# ---------------------------------------------------------------------------
# experiment configs


@functools.lru_cache(maxsize=8)
def _load_dataset(x_path: str, labels_path: str):
    return read_tensor_file(x_path), read_tensor_file(labels_path)


@dataclass(frozen=True)
class FileFeed:
    """Batches cycled from raw tensor files (same interface as
    :class:`SyntheticFeed`)."""

    x_path: str
    labels_path: str
    batch: int
    peers: int = 1

    def batch_for(self, iteration: int, rank: int):
        x, labels = _load_dataset(self.x_path, self.labels_path)
        total = self.batch * self.peers
        idx = (np.arange(total) + iteration * total) % len(x)
        lo, hi = rank * self.batch, (rank + 1) * self.batch
        take = idx[lo:hi]
        return x[take], labels[take]


@dataclass(frozen=True)
class ExperimentConfig:
    net: NetSpec
    plan: ParallelPlan
    iterations: int
    seed: int
    data: dict
    trace_out: str | None = None
    dump_tensors: str | None = None

    def __post_init__(self) -> None:
        # also guards the command-line override, applied with replace()
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            net = NetSpec.from_config(raw["net"])
            plan = ParallelPlan.from_config(raw.get("plan", {}))
            iterations = as_index(raw.get("iterations", 1), "iterations")
            seed = as_index(raw.get("seed", 0), "seed")
            data = dict(raw.get("data", {"kind": "synthetic"}))
        except GraphError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad config field: {e!r}") from None
        kind = data.get("kind", "synthetic")
        if kind == "file":
            for key in ("x", "labels"):
                if key not in data:
                    raise ConfigError(f"file data needs a {key!r} path")
                try:
                    with open(data[key], "rb"):
                        pass
                except OSError as e:
                    raise ConfigError(f"data file missing: {e}") from None
        elif kind != "synthetic":
            raise ConfigError(f"unknown data kind {kind!r}")
        for key in ("spread", "noise"):  # the synthetic feed's scales
            value = data.get(key, 1.0)
            try:
                finite = type(value) in (int, float) and math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ConfigError(f"data {key} must be a finite number, got {value!r}")
        return cls(
            net=net,
            plan=plan,
            iterations=iterations,
            seed=seed,
            data=data,
            trace_out=raw.get("trace_out"),
            dump_tensors=raw.get("dump_tensors"),
        )

    def make_feed(self, peers: int):
        if self.data.get("kind", "synthetic") == "file":
            return FileFeed(
                self.data["x"], self.data["labels"], self.net.batch, peers
            )
        return SyntheticFeed(
            seed=self.seed,
            input_shape=self.net.input_shape,
            classes=self.net.classes,
            batch=self.net.batch,
            peers=peers,
            spread=float(self.data.get("spread", 3.0)),
            noise=float(self.data.get("noise", 1.0)),
        )


def _add_copy_latency(seq, seconds: float) -> None:
    """Set ``delay_s`` on every copy of ``seq`` between two locations: the
    dispatcher holds the copy's worker for it and the cost simulator counts
    it.  Nothing is set for 0, since a ``delay_s`` outranks the simulator's
    per-kind costs."""
    if seconds <= 0:
        return
    for g in seq.graphs:
        for op in g.operators.values():
            if op.kind == "copy":
                (src,), (dst,) = op.inputs, op.outputs
                if g.tensors[src].location != g.tensors[dst].location:
                    op.attrs["delay_s"] = seconds


def build_sequence(cfg: ExperimentConfig):
    if cfg.plan.scheme == "data":
        return build_data_parallel(cfg.net, cfg.plan)
    if cfg.plan.scheme == "model":
        return build_model_parallel_pipeline(cfg.net, cfg.plan)
    placement = cfg.plan.peers[0] if cfg.plan.peers else Location("local", 0)
    return build_sgd_iteration(cfg.net, placement)


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        if "operators" in raw or "tensors" in raw:
            graphs = [graph_from_json(raw)]
        else:
            cfg = ExperimentConfig.from_dict(raw)
            graphs = build_sequence(cfg).graphs
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (GraphError, KernelError) as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 1

    failures = 0
    for i, g in enumerate(graphs):
        report = g.validate()
        line = {
            "graph": i,
            "tensors": len(g.tensors),
            "operators": len(g.operators),
            "sources": len(report.sources),
            "sinks": len(report.sinks),
            "violations": report.violations,
        }
        print(json.dumps(line))
        failures += not report.ok
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# train


def _parse_peer_table(entries: list[str]) -> dict[str, tuple[str, int]]:
    table = {}
    for entry in entries:
        try:
            name, addr = entry.split("=", 1)
            host, port = addr.rsplit(":", 1)
            table[name] = (host, int(port))
        except ValueError:
            raise ConfigError(
                f"bad --peers entry {entry!r}: expected name=addr:port"
            ) from None
    return table


def _loopback_plan(plan: ParallelPlan) -> ParallelPlan:
    """Remap each peer to its own loopback host (one process per peer)."""
    peers = tuple(
        Location(f"proc{k}", loc.device) for k, loc in enumerate(plan.peers)
    )
    return replace(
        plan, peers=peers, server=Location("proc0", plan.server.device)
    )


def _mean_loss(store: TensorStore, layout) -> float:
    vals = [float(store.array(n)[0]) for n in layout.loss_names if n in store]
    return sum(vals) / len(vals)


def _train(cfg: ExperimentConfig, seq, *, transport, trace_out, emit) -> TensorStore:
    """Initialize, feed and run ``seq``; returns the final store.

    ``seq`` is either a whole sequence run in this process or one host's
    partition of it, with the ``transport`` that carries its channels.
    Only the data sources ``seq`` holds are fed.  ``emit``, when given,
    receives one JSON line per iteration.
    """
    layout = seq.layout
    store = TensorStore()
    init_params(cfg.net, store, cfg.seed, layout)
    feed = cfg.make_feed(len(layout.data_names))
    feed_hook = feeder(feed, layout, only=owned_sources(seq, layout.data_names))
    marks = {}

    def before(it, store):
        marks["t"] = time.monotonic()
        feed_hook(it, store)

    def after(rep, store):
        if rep.graph_index != len(seq.graphs) - 1:
            return
        dt = time.monotonic() - marks["t"]
        images = cfg.net.batch * len(layout.data_names)
        emit(
            json.dumps(
                {
                    "iteration": rep.iteration,
                    "loss": _mean_loss(store, layout),
                    "images_per_sec": images / dt if dt > 0 else None,
                }
            )
        )

    reports = run_sequence(
        seq,
        store,
        transport=transport,
        before_iteration=before,
        after_graph=None if emit is None else after,
        iterations=cfg.iterations,
    )
    if trace_out:
        export_trace(merged_trace(reports), trace_out)
    return store


def _train_loopback(cfg: ExperimentConfig, procs: int, args, trace_out, dump) -> int:
    """One process per peer over loopback; prints the mean final loss."""
    if cfg.plan.scheme != "data":
        raise GraphError("--peers N needs a data-parallel plan")
    if procs != len(cfg.plan.peers):
        raise ConfigError(
            f"--peers {procs} does not match the plan's "
            f"{len(cfg.plan.peers)} peers"
        )
    if trace_out:
        raise ConfigError(
            "--trace-out is not supported with --peers N: the host "
            "processes do not return their traces"
        )
    seq = build_data_parallel(cfg.net, _loopback_plan(cfg.plan))
    _add_copy_latency(seq, args.copy_latency_us * 1e-6)
    layout = seq.layout
    collect = {f"proc{k}": [f"loss_p{k}"] for k in range(procs)}
    collect["proc0"].extend(layout.canonical_params)
    got = run_distributed(
        seq,
        iterations=cfg.iterations,
        setup=TrainingSetup(cfg.net, cfg.seed, layout),
        feed=cfg.make_feed(len(layout.data_names)),
        collect={h: tuple(v) for h, v in collect.items()},
        timeout=args.net_timeout,
    )
    final = sum(float(got[f"loss_p{k}"][0]) for k in range(procs)) / procs
    print(json.dumps({"final_loss": final, "iterations": cfg.iterations}))
    if dump:
        np.savez(dump, **{n: got[n] for n in layout.canonical_params})
    return 0


def cmd_train(args) -> int:
    peer_entries = args.peers or []
    loopback = len(peer_entries) == 1 and peer_entries[0].isdigit()
    if loopback and args.host_id is not None:
        raise ConfigError("--host-id needs a name=addr:port --peers table, not a count")
    if peer_entries and not loopback and args.host_id is None:
        raise ConfigError("a name=addr:port --peers table needs --host-id")
    cfg = ExperimentConfig.from_file(args.config)
    if args.iterations is not None:
        cfg = replace(cfg, iterations=args.iterations)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    trace_out = args.trace_out or cfg.trace_out
    dump = args.dump_tensors or cfg.dump_tensors

    if cfg.plan.scheme == "model":
        raise GraphError("the pipeline scheme is forward-only; nothing to train")

    if loopback:
        return _train_loopback(cfg, int(peer_entries[0]), args, trace_out, dump)

    # In process, or one named host of a multi-machine run: the same path,
    # over the whole sequence or over the host's partition of it.
    seq = build_sequence(cfg)
    _add_copy_latency(seq, args.copy_latency_us * 1e-6)
    host = args.host_id
    transport = None
    if host is not None:
        table = _parse_peer_table(peer_entries)
        if host not in table:
            raise ConfigError(f"--host-id {host!r} not in --peers table")
        parts = partition_sequence(seq)
        if host not in parts:
            raise ConfigError(
                f"host {host!r} owns no vertices; hosts are {sorted(parts)}"
            )
        seq = parts[host].sequence
        transport = Transport(
            host, table, parts[host].channels, timeout=args.net_timeout
        ).start()
    with transport or contextlib.nullcontext():
        store = _train(
            cfg,
            seq,
            transport=transport,
            trace_out=trace_out,
            emit=print if host is None else None,
        )
    if host is not None:
        line = {"host": host, "iterations": cfg.iterations}
        if any(n in store for n in seq.layout.loss_names):
            line["final_loss"] = _mean_loss(store, seq.layout)
        print(json.dumps(line))
    if dump:
        np.savez(dump, **{n: store.array(n) for n in store.names()})
    return 0


# ---------------------------------------------------------------------------
# simulate


def _parse_peer_counts(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            counts = list(range(int(lo), int(hi) + 1))
        else:
            counts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(
            f"bad --peers {text!r}: expected '12', '1,2,3' or '1..4'"
        ) from None
    if not counts:
        raise ConfigError("--peers matched no peer counts")
    if min(counts) < 1:
        raise ConfigError(f"--peers counts must be >= 1, got {min(counts)}")
    return counts


def _read_fit_table(path: str) -> list[tuple[float, float]]:
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise ConfigError(f"cannot read fit table: {e}") from None
    rows = []
    with fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (IndexError, ValueError):
                continue  # header or ragged line
    if len(rows) < 2:
        raise SimError(f"fit table {path!r} has fewer than two numeric rows")
    return rows


def cmd_simulate(args, parser) -> int:
    have_fit = args.fit is not None
    have_ac = args.a is not None or args.c is not None
    if have_fit == have_ac:
        parser.error("give either --fit CSV or both --a and --c")
    peer_counts = _parse_peer_counts(args.peers)

    if have_fit:
        table = _read_fit_table(args.fit)
        fit_at = args.fit_peers or max(peer_counts)
        fit = fit_two_point(table, peers=fit_at)
        a, c = fit.a, fit.c
        batch_ref = max(b for b, _ in table)
    else:
        if args.a is None or args.c is None:
            parser.error("--a and --c must be given together")
        a, c = args.a, args.c
        batch_ref = float(args.batch)

    ref = throughput_model(1, batch_ref, a, c)
    print(json.dumps({"model": {"a": a, "c": c, "batch_ref": batch_ref}}))
    for n in peer_counts:
        rate = throughput_model(n, args.batch, a, c)
        print(
            json.dumps(
                {
                    "peers": n,
                    "batch": args.batch,
                    "images_per_sec": round(rate, 4),
                    "ratio": round(rate / ref, 4),
                }
            )
        )
    return 0


# ---------------------------------------------------------------------------
# entry point


def _non_negative(text: str) -> float:
    """argparse type for a duration: a finite float >= 0, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _count(text: str) -> int:
    """argparse type for a count: an integer >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biflow",
        description="Bipartite-graph training: validate, train, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse a config and validate its graphs")
    v.add_argument("--config", required=True)

    t = sub.add_parser("train", help="run a training config")
    t.add_argument("--config", required=True)
    t.add_argument("--iterations", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--trace-out", default=None)
    t.add_argument("--dump-tensors", default=None)
    t.add_argument(
        "--peers",
        action="append",
        default=None,
        help="either a process count (loopback mode) or repeated "
        "name=addr:port entries (multi-host mode)",
    )
    t.add_argument("--host-id", default=None)
    t.add_argument("--net-timeout", type=_non_negative, default=30.0)
    t.add_argument("--copy-latency-us", type=_non_negative, default=0.0)

    s = sub.add_parser("simulate", help="model throughput from (a, c) or a fit")
    s.add_argument("--peers", required=True,
                   help="peer counts: '12', '1,2,3', or '1..4'")
    s.add_argument("--batch", type=_count, required=True)
    s.add_argument("--fit", default=None,
                   help="CSV of batch,images_per_sec rows to fit (a, c) from")
    s.add_argument("--fit-peers", type=_count, default=None,
                   help="peer count the fit table was measured at "
                   "(default: max of --peers)")
    s.add_argument("--a", type=float, default=None)
    s.add_argument("--c", type=float, default=None)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "train":
            return cmd_train(args)
        return cmd_simulate(args, parser)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (GraphError, KernelError, DispatchError, TransportError, SimError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
