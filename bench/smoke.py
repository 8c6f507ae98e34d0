"""Smoke check of the benchmark itself: every workload, a handful of
iterations, two seeds, both modes.

    python3 bench/smoke.py

Checks that each run passes the correctness gate, that every metric named
in BENCHMARK.json is printed with its unit and a finite value, and that the
exact counts are the same for both seeds.  It asserts nothing about timing.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run

ITERATIONS = 3
SEEDS = (1, 2)


def check(workload: str, spec: dict) -> list[str]:
    problems = []
    counts = {}
    for seed in SEEDS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run.run_benchmark(
                workload, seed, 0.0, traced, iterations=ITERATIONS, warmup=0.0
            )
            where = f"{workload} seed {seed} trace {int(traced)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: failed the gate: {record['errors']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], float) and math.isfinite(m["value"])):
                    problems.append(f"{where}: {name} = {m['value']!r}")
            if traced:
                for kind, n in record["counts"]["ops.calls"].items():
                    shown = result["metrics"].get(f"ops.calls.{kind}")
                    if shown is None or shown["value"] != n:
                        problems.append(f"{where}: ops.calls.{kind} {shown} != {n}")
            counts.setdefault(json.dumps(record["counts"], sort_keys=True), []).append(seed)
    if len(counts) != 1:
        problems.append(f"{workload}: counts differ between seeds: {list(counts)}")
    return problems


def main() -> int:
    if not run.use_src():
        print("smoke: no biflow sources under src/", file=sys.stderr)
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        found = check(w["name"], spec)
        print(f"{w['name']}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
