"""Every process that runs kernels loads numpy with a one-thread BLAS pool.

Each check runs in a fresh interpreter with no BLAS thread count set: one
that imports biflow first, a user's own setting, numpy loaded before
biflow, and ``run_distributed`` called from a script that loads numpy
first, so that its spawn children load numpy before biflow too.  This
module also imports numpy before biflow.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import biflow
from biflow.builders import (
    LayerSpec,
    NetSpec,
    ParallelPlan,
    SyntheticFeed,
    TrainingSetup,
    build_data_parallel,
)
from biflow.graph import Location
from biflow.transport import run_distributed

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(biflow.__file__).resolve().parent.parent)


def _run(argv, **env) -> dict:
    """Run ``argv`` with no BLAS thread count set (apart from ``env``) and
    biflow on the path, and parse the JSON it prints."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=120,
                          env=dict(base, PYTHONPATH=SRC, **env))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _fresh_interpreter(numpy_first: bool, **env) -> dict:
    """Import biflow in a new interpreter, run a GEMM large enough for
    OpenBLAS to thread, and report the thread count and the environment
    before and after the import."""
    code = textwrap.dedent(f"""
        import json, os
        if {numpy_first!r}:
            import numpy
        before = dict(os.environ)
        import biflow
        import numpy as np
        a = np.ones((600, 600), dtype=np.float32)
        a @ a
        print(json.dumps({{
            "threads": len(os.listdir("/proc/self/task")),
            "before": before,
            "after": dict(os.environ),
        }}))
    """)
    return _run(["-c", code], **env)


def test_importing_biflow_first_loads_a_one_thread_pool():
    got = _fresh_interpreter(numpy_first=False)
    assert got["threads"] == 1
    assert "OPENBLAS_NUM_THREADS" not in got["after"]
    assert got["after"] == got["before"]


def test_a_thread_count_the_user_set_is_kept():
    got = _fresh_interpreter(numpy_first=False, OPENBLAS_NUM_THREADS="2")
    assert got["after"]["OPENBLAS_NUM_THREADS"] == "2"
    assert got["after"] == got["before"]


def test_numpy_loaded_first_leaves_the_environment_untouched():
    got = _fresh_interpreter(numpy_first=True)
    assert "OPENBLAS_NUM_THREADS" not in got["after"]
    assert got["after"] == got["before"]


NET = NetSpec(
    input_shape=(12,),
    layers=(LayerSpec("fc", 10), LayerSpec("relu"), LayerSpec("fc", 3)),
    batch=6,
    lr=0.05,
)


@dataclass(frozen=True)
class _StoreThreadCount:
    """Setup that also stores the host process's thread count, as
    ``threads_<host>``."""

    setup: TrainingSetup

    def __call__(self, store):
        self.setup(store)
        host = multiprocessing.current_process().name.removeprefix("biflow-host-")
        threads = len(os.listdir("/proc/self/task"))
        store.set(f"threads_{host}", np.array([threads], dtype=np.float32))


def distributed_thread_counts() -> dict[str, float]:
    """Each host's thread count, from a two-host ``run_distributed`` run."""
    plan = ParallelPlan(
        scheme="data",
        peers=(Location("alpha", 0), Location("beta", 0)),
        server=Location("alpha", 0),
    )
    seq = build_data_parallel(NET, plan)
    got = run_distributed(
        seq,
        iterations=1,
        setup=_StoreThreadCount(TrainingSetup(NET, 3, seq.layout)),
        feed=SyntheticFeed.for_net(NET, 3, peers=2),
        collect={h: (f"threads_{h}",) for h in ("alpha", "beta")},
        timeout=20.0,
    )
    return {n: float(a[0]) for n, a in got.items()}


def test_distributed_hosts_load_a_one_thread_pool(tmp_path):
    # a spawn child imports the caller's __main__ first; this one loads
    # numpy, so only the setting made at the child's start reaches it
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent(f"""
        import numpy
        import json, os, sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_blas_threads import distributed_thread_counts

        if __name__ == "__main__":
            before = dict(os.environ)
            counts = distributed_thread_counts()
            print(json.dumps({{"counts": counts, "same_env": dict(os.environ) == before}}))
    """))
    got = _run([str(script)])
    assert got["counts"] == {"threads_alpha": 1.0, "threads_beta": 1.0}
    assert got["same_env"]
