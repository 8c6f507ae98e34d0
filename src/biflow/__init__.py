"""biflow: a bipartite dataflow runtime.

Graphs alternate between tensor vertices (shaped float32 buffers) and
operator vertices (numeric kernels).  A lane-serialized dispatcher walks a
graph by readiness propagation, graphs compose into iterated sequences, and
the same scheduling semantics back both the wall-clock executor, which runs
every operator on the calling thread, and a virtual-time cost simulator.
Builders assemble training topologies (single device, parameter-server data
parallelism, token-gated pipelines), a framed TCP transport splits a graph
across processes along its cross-host copies, and a command-line front end
drives the whole stack from JSON configs.

Every kernel runs on its calling thread, so importing biflow loads numpy
with a one-thread OpenBLAS pool (the ``ops`` docstring has the rule).
"""

import contextlib
import os
import sys

# OpenBLAS reads the first of these that is set, once, when it loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Within the block, an OpenBLAS that loads, in this process or in a
    child started here, starts no helper thread, unless the user chose a
    thread count.  ``os.environ`` is restored on exit."""
    if any(v in os.environ for v in _BLAS_THREAD_VARS):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)


if "numpy" not in sys.modules:
    with _one_blas_thread():
        import numpy  # noqa: F401

from .graph import (
    BiGraph,
    GraphError,
    GraphSequence,
    Location,
    OperatorVertex,
    TensorVertex,
    ValidationReport,
    graph_from_json,
    graph_to_json,
    replicate,
)
from .ops import (
    KINDS,
    KernelError,
    OpKindSpec,
    Tensor,
    TensorStore,
    read_tensor_file,
    write_tensor_file,
)
from .dispatcher import (
    DispatchError,
    RunContext,
    RunReport,
    TraceRecord,
    WorkerLane,
    merged_trace,
    run,
    run_sequence,
)
from .profiler import (
    COMPUTE,
    COPY,
    TRANSPORT,
    export_trace,
    iteration_gap,
    overlap_fraction,
)
from .costsim import (
    CostModel,
    FitResult,
    SimError,
    SimReport,
    fit_two_point,
    simulate,
    throughput_model,
)
from .builders import (
    LayerSpec,
    Layout,
    NetSpec,
    ParallelPlan,
    Stage,
    SyntheticFeed,
    TrainingSetup,
    build_data_parallel,
    build_model_parallel_pipeline,
    build_sgd_iteration,
    feeder,
    fill_tokens,
    init_params,
    param_names,
)
from .transport import (
    ChannelSpec,
    FrameError,
    HostPartition,
    SequencePartition,
    Transport,
    TransportError,
    decode_frame,
    encode_frame,
    partition_by_host,
    partition_sequence,
    run_distributed,
)

__all__ = [
    "BiGraph",
    "COMPUTE",
    "COPY",
    "ChannelSpec",
    "CostModel",
    "DispatchError",
    "FitResult",
    "FrameError",
    "GraphError",
    "GraphSequence",
    "HostPartition",
    "KINDS",
    "KernelError",
    "LayerSpec",
    "Layout",
    "Location",
    "NetSpec",
    "OpKindSpec",
    "OperatorVertex",
    "ParallelPlan",
    "RunContext",
    "RunReport",
    "SequencePartition",
    "SimError",
    "SimReport",
    "Stage",
    "SyntheticFeed",
    "TRANSPORT",
    "Tensor",
    "TensorStore",
    "TensorVertex",
    "TraceRecord",
    "TrainingSetup",
    "Transport",
    "TransportError",
    "ValidationReport",
    "WorkerLane",
    "build_data_parallel",
    "build_model_parallel_pipeline",
    "build_sgd_iteration",
    "decode_frame",
    "encode_frame",
    "export_trace",
    "feeder",
    "fill_tokens",
    "fit_two_point",
    "graph_from_json",
    "graph_to_json",
    "init_params",
    "iteration_gap",
    "merged_trace",
    "overlap_fraction",
    "param_names",
    "partition_by_host",
    "partition_sequence",
    "read_tensor_file",
    "replicate",
    "run",
    "run_distributed",
    "run_sequence",
    "simulate",
    "throughput_model",
    "write_tensor_file",
]
