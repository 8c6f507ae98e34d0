"""The loopback workload: one OS process per host over loopback TCP.

``run_distributed`` returns no timings, so each host here is driven the way
``biflow train --host-id`` drives one: its ``partition_sequence`` share runs
through ``Transport`` + ``run_sequence``, and the host times its own
iterations.  This module starts nothing when imported; run as a script, it
is one host, talking to the parent over an inherited socket.

Hosts are plain ``subprocess`` children, not ``multiprocessing`` ones, so
no helper process (such as multiprocessing's resource tracker) is left
behind: every child is waited for before an episode returns.

Ports are not picked in advance: each child binds port 0, reports the port
it got, and receives the full peer table before it trains.  Every episode
has a wall-clock limit, and a host that dies or hangs fails the episode at
once instead of stalling the run.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
import traceback
from multiprocessing.connection import Connection, Pipe, wait
from pathlib import Path

import biflow
from biflow import TensorStore, Transport, feeder, init_params, partition_sequence

import harness

ADDR = "127.0.0.1"
NET_TIMEOUT_S = 10.0  # a recv that waits longer fails the host
EPISODE_LIMIT_S = 40.0  # spawn to last result
JOIN_S = 2.0  # a host that has not exited by then is killed
SRC = Path(biflow.__file__).resolve().parent.parent


class HostFailure(RuntimeError):
    """A host process failed, died, or missed the episode's deadline."""


def host_main(conn, part, net, seed: int, iterations: int, traced: bool) -> None:
    """One host: bind, report the port, take the peer table, set up, wait
    for ``go``, train, and send back timings, final values and peak RSS."""
    try:
        with Transport(part.host, {part.host: (ADDR, 0)}, part.channels,
                       timeout=NET_TIMEOUT_S) as transport:
            transport.start()
            conn.send(("port", transport.port))
            _, table = conn.recv()
            transport.peers.update(table)
            seq = part.sequence
            layout = seq.layout
            store = TensorStore()
            init_params(net, store, seed, layout)
            feed_hook = feeder(harness.make_feed(net, seed, layout), layout,
                               only=set(harness.owned(seq, layout.data_names)))
            conn.send(("ready", None))
            conn.recv()  # go
            got = harness.train_host(seq, store, feed_hook, iterations, traced,
                                     transport=transport)
        got["params"] = {n: store.array(n)
                         for n in harness.owned(seq, layout.canonical_params)}
        got["losses"] = {n: float(store.array(n)[0])
                         for n in harness.owned(seq, layout.loss_names)}
        got["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        conn.send(("done", got))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the episode
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # the parent has already given up on this episode
    finally:
        conn.close()


def _gather(conns: dict, procs: dict, tag: str, deadline: float) -> dict:
    """One ``tag`` message from every host, failing fast on an error
    report, a dead host, or the deadline."""
    got: dict = {}
    while len(got) < len(conns):
        pending = [h for h in conns if h not in got]
        ready = wait([conns[h] for h in pending],
                     timeout=max(0.0, deadline - time.monotonic()))
        if not ready:
            raise HostFailure(
                f"hosts {pending} sent no {tag!r} within {EPISODE_LIMIT_S}s"
            )
        for h in pending:
            if conns[h] not in ready:
                continue
            try:
                kind, payload = conns[h].recv()
            except EOFError:
                # The child's end of the socket closes when it exits.
                try:
                    code = procs[h].wait(timeout=JOIN_S)
                except subprocess.TimeoutExpired:
                    code = None
                raise HostFailure(
                    f"host {h} exited (code {code}) before {tag!r}"
                ) from None
            if kind == "error":
                raise HostFailure(f"host {h}:\n{payload}")
            if kind != tag:
                raise HostFailure(f"host {h} sent {kind!r}, expected {tag!r}")
            got[h] = payload
    return got


def _start_host() -> tuple[Connection, subprocess.Popen]:
    """Start one host process, connected to this one by a socket pair."""
    ours, theirs = Pipe()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(theirs.fileno())],
            pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL, env=env,
        )
    except BaseException:
        ours.close()
        raise
    finally:
        theirs.close()  # else the child's death would not show as EOF
    return ours, proc


def _stop(procs: dict) -> None:
    """Wait for every host; kill one that has not exited within ``JOIN_S``."""
    for p in procs.values():
        try:
            p.wait(timeout=JOIN_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def loopback_episode(wl, seed: int, traced: bool, ref) -> harness.Episode:
    t0 = time.monotonic_ns()
    seq = wl.build()
    parts = partition_sequence(seq)
    t_built = time.monotonic_ns()
    hosts = sorted(parts)
    conns: dict = {}
    procs: dict = {}
    deadline = time.monotonic() + EPISODE_LIMIT_S
    try:
        for h in hosts:
            conns[h], procs[h] = _start_host()
            conns[h].send((parts[h], wl.net, seed, wl.iterations, traced))
        ports = _gather(conns, procs, "port", deadline)
        table = {h: (ADDR, port) for h, port in ports.items()}
        for c in conns.values():
            c.send(("table", table))
        _gather(conns, procs, "ready", deadline)
        for c in conns.values():
            c.send(("go", None))
        done = _gather(conns, procs, "done", deadline)
    finally:
        # Closing our ends first unblocks a host still waiting on its pipe.
        for c in conns.values():
            c.close()
        _stop(procs)

    params = {n: a for r in done.values() for n, a in r["params"].items()}
    harness.gate(wl, params, ref)
    losses = [r["losses"][n] for n in seq.layout.loss_names
              for r in done.values() if n in r["losses"]]
    starts = [min(v) for v in zip(*(r["starts"] for r in done.values()))]
    ends = [max(v) for v in zip(*(r["ends"] for r in done.values()))]
    feed = [max(v) for v in zip(*(r["feed_ns"] for r in done.values()))]
    return harness.Episode(
        setup_ns=starts[0] - t0,
        build_ns=t_built - t0,
        iter_ns=[e - s for s, e in zip(starts, ends)],
        cpu_ns=sum(r["cpu_ns"] for r in done.values()),
        feed_ns=feed,
        final_loss=sum(losses) / len(losses),
        traced=traced,
        stats=[r["stats"] for r in done.values()] if traced else [],
        child_rss_kb=sum(r["rss_kb"] for r in done.values()),
    )


if __name__ == "__main__":
    # One host: argv[1] is the inherited socket to the parent, which first
    # sends ``host_main``'s remaining arguments.
    parent = Connection(int(sys.argv[1]))
    host_main(parent, *parent.recv())
