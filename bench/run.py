"""biflow training benchmark.

    python3 bench/run.py --workload mlp-single --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: biflow is imported from ``src/``.
Prints one JSON run record (nproc, versions, seed, CPU steal share, exact
counts, and the unbounded metrics: images/s, median and tail iteration
time, final loss, failed ratio) and then, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer breakdown.  Exits 0
when every episode passed, 1 when one failed, 2 when biflow is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Untimed episodes first: a shared 2-core VM can run faster for its first
# second or two under load and then settle; timing only the settled state
# keeps runs comparable.
WARMUP_S = 2.0


def use_src() -> bool:
    src = ROOT / "src"
    if not (src / "biflow" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def read_cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs, or None where /proc is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    vals = [int(x) for x in fields[1:9]]
    return vals[7], sum(vals)


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  iterations: int | None = None,
                  warmup: float = WARMUP_S) -> tuple[dict, dict]:
    """One run: returns (result line, run record).

    Episodes repeat until ``seconds`` have passed after ``warmup`` seconds of
    untimed ones.  ``iterations`` overrides the episode length; the smoke
    check uses a handful and no warm-up.  In a traced run,
    episodes alternate untraced and traced, so tracing overhead and the
    dispatcher's overhead over the inline floor come from one invocation.
    """
    import numpy as np

    import harness
    import loopback

    wl = harness.WORKLOADS[workload]
    if iterations is not None:
        wl = harness.Workload(wl.name, wl.net, wl.build, iterations, wl.loopback)
    episode = loopback.loopback_episode if wl.loopback else harness.inprocess_episode
    seq = wl.build()
    hseqs = harness.host_sequences(wl, seq)
    st = harness.structure_of(hseqs)
    ref = harness.reference(wl, seed)

    warm_end = time.monotonic() + warmup
    deadline = warm_end + seconds
    cpu0 = None
    episodes: list = []
    errors: list[str] = []
    attempted = failed = 0
    while True:
        warming = time.monotonic() < warm_end
        if not warming and cpu0 is None:
            cpu0 = read_cpu_times()
        trace_this = traced and attempted % 2 == 1
        attempted += 1
        try:
            ep = episode(wl, seed, trace_this, ref)
        except Exception as exc:  # noqa: BLE001 - a failed episode is counted
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            if not warming:
                episodes.append(ep)
        if time.monotonic() >= deadline and (not traced or len(episodes) >= 2):
            break
    cpu1 = read_cpu_times()

    kinds = {e.traced for e in episodes}
    complete = bool(episodes) and (not traced or kinds == {False, True})
    values, wall = {}, {}
    if complete and traced:
        # The inline floor is timed again here, in the same settled state as
        # the episodes rather than before the warm-up.
        inline = harness.reference(wl, seed)
        values = harness.per_layer(seed, episodes, inline, st, seq, hseqs)
    elif complete:
        images = wl.net.batch * len(seq.layout.data_names)
        values, wall = harness.end_to_end(images, episodes)
    names = harness.PER_LAYER if traced else harness.END_TO_END
    result = {
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names
        },
    }
    steal = None
    if cpu0 and cpu1 and cpu1[1] > cpu0[1]:
        steal = (cpu1[0] - cpu0[0]) / (cpu1[1] - cpu0[1])
    losses = sorted({e.final_loss for e in episodes})
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "steal_share": steal,
        "episodes": attempted,
        "iterations_per_episode": wl.iterations,
        "warmup_s": warmup,
        # Printed here, not bounded in BENCHMARK.json: the final loss
        # depends on the seed, the failed ratio is 0 when all is well, and
        # wall-clock times on a shared VM move with CPU steal by more than
        # any allowed bound (see bench/README.md).
        "unbounded_metrics": {
            **wall,
            "final_loss": {"value": losses[0] if len(losses) == 1 else losses,
                           "unit": "nats"},
            "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        },
        "reference_loss": {"value": ref.final_loss, "unit": "nats"},
        "counts": {
            "ops.calls": dict(sorted(st.calls.items())),
            "dispatcher.lanes": st.lanes,
            "transport.frames_per_iter": st.frames,
            "transport.bytes_per_iter": st.payload_bytes,
        },
        "errors": errors[:5],
    }
    return result, record


def main(argv=None) -> int:
    if not use_src():
        print(f"bench: no biflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
