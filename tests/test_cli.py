"""Command-line surface: exit codes, metric streams, throughput tables."""

import json
import socket
import subprocess
import sys

import numpy as np
import pytest

from biflow.cli import ExperimentConfig, _add_copy_latency, build_sequence
from biflow.costsim import CostModel, simulate
from biflow.ops import write_tensor_file

MLP_CONFIG = {
    "net": {
        "input_shape": [20],
        "layers": [
            {"kind": "fc", "out": 16},
            {"kind": "relu"},
            {"kind": "fc", "out": 4},
        ],
        "batch": 8,
        "lr": 0.1,
    },
    "plan": {"scheme": "single"},
    "iterations": 30,
    "seed": 7,
}

BATCH_TABLE_CSV = (
    "batch,images_per_sec\n"
    "128,1383.7\n64,1299.1\n56,1292.3\n48,1279.7\n40,1230.2\n32,1099.8\n"
)


def cli(*argv, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "biflow.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# validate


def test_validate_good_config_exits_zero(tmp_path):
    r = cli("validate", "--config", write_config(tmp_path, MLP_CONFIG))
    assert r.returncode == 0, r.stderr
    lines = json_lines(r.stdout)
    assert len(lines) == 2  # training graph + swap graph
    assert lines[0]["operators"] == 11
    assert lines[0]["violations"] == []
    assert lines[1]["operators"] == 4


def test_validate_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    r = cli("validate", "--config", str(path))
    assert r.returncode == 2
    assert "error" in r.stderr


def test_validate_missing_file_exits_two():
    r = cli("validate", "--config", "/nonexistent/cfg.json")
    assert r.returncode == 2


def test_validate_cyclic_raw_graph_exits_one_and_names_cycle(tmp_path):
    raw = {
        "tensors": [
            {"name": "a", "shape": [2], "host": "local", "device": 0},
            {"name": "b", "shape": [2], "host": "local", "device": 0},
        ],
        "operators": [
            {"name": "f", "kind": "relu_forward", "inputs": ["a"],
             "outputs": ["b"], "host": "local", "device": 0},
            {"name": "g", "kind": "relu_forward", "inputs": ["b"],
             "outputs": ["a"], "host": "local", "device": 0},
        ],
    }
    r = cli("validate", "--config", write_config(tmp_path, raw))
    assert r.returncode == 1
    assert "cycle" in r.stderr.lower()


def test_validate_accepts_acyclic_raw_graph(tmp_path):
    raw = {
        "tensors": [
            {"name": "a", "shape": [2], "host": "local", "device": 0},
            {"name": "b", "shape": [2], "host": "local", "device": 0},
        ],
        "operators": [
            {"name": "f", "kind": "relu_forward", "inputs": ["a"],
             "outputs": ["b"], "host": "local", "device": 0},
        ],
    }
    r = cli("validate", "--config", write_config(tmp_path, raw))
    assert r.returncode == 0
    line = json_lines(r.stdout)[0]
    assert line["sources"] == 1 and line["sinks"] == 1


def test_validate_bad_net_shape_exits_one(tmp_path):
    cfg = dict(MLP_CONFIG)
    cfg["net"] = {
        "input_shape": [20],
        "layers": [{"kind": "conv", "out": 2, "kernel": 3}],
        "batch": 4,
    }
    r = cli("validate", "--config", write_config(tmp_path, cfg))
    assert r.returncode == 1


def test_validate_fractional_dim_raw_graph_exits_one(tmp_path):
    raw = {
        "tensors": [
            {"name": "a", "shape": [2.5], "host": "local", "device": 0},
            {"name": "b", "shape": [2], "host": "local", "device": 0},
        ],
        "operators": [],
    }
    r = cli("validate", "--config", write_config(tmp_path, raw))
    assert r.returncode == 1
    assert "tensor 'a'" in r.stderr


def test_validate_unsupported_loss_exits_one(tmp_path):
    cfg = json.loads(json.dumps(MLP_CONFIG))
    cfg["net"]["loss"] = "mse"
    r = cli("validate", "--config", write_config(tmp_path, cfg))
    assert r.returncode == 1
    assert "unsupported loss 'mse'" in r.stderr


# ---------------------------------------------------------------------------
# train


def test_train_loss_decreases_and_rerun_is_identical(tmp_path):
    path = write_config(tmp_path, MLP_CONFIG)
    r1 = cli("train", "--config", path)
    assert r1.returncode == 0, r1.stderr
    lines = json_lines(r1.stdout)
    assert len(lines) == 30
    assert lines[-1]["loss"] < lines[0]["loss"]
    assert all("images_per_sec" in l for l in lines)

    r2 = cli("train", "--config", path)
    assert [l["loss"] for l in json_lines(r2.stdout)] == [
        l["loss"] for l in lines
    ]


def test_train_iteration_and_seed_overrides(tmp_path):
    path = write_config(tmp_path, MLP_CONFIG)
    r = cli("train", "--config", path, "--iterations", "5")
    assert len(json_lines(r.stdout)) == 5
    a = cli("train", "--config", path, "--iterations", "5", "--seed", "1")
    b = cli("train", "--config", path, "--iterations", "5", "--seed", "2")
    assert json_lines(a.stdout)[0]["loss"] != json_lines(b.stdout)[0]["loss"]


def test_train_trace_out_parses_as_trace_events(tmp_path):
    path = write_config(tmp_path, MLP_CONFIG)
    trace_path = tmp_path / "trace.json"
    r = cli("train", "--config", path, "--iterations", "3",
            "--trace-out", str(trace_path))
    assert r.returncode == 0, r.stderr
    events = json.loads(trace_path.read_text())
    assert isinstance(events, list) and events
    for ev in events:
        assert ev["ph"] == "X"
        assert set(ev) >= {"name", "ts", "dur", "pid", "tid", "args"}


def test_train_dump_tensors_round_trips(tmp_path):
    path = write_config(tmp_path, MLP_CONFIG)
    dump = tmp_path / "final.npz"
    r = cli("train", "--config", path, "--iterations", "3",
            "--dump-tensors", str(dump))
    assert r.returncode == 0, r.stderr
    arrays = np.load(dump)
    assert "w1" in arrays and arrays["w1"].shape == (20, 16)


def test_train_from_tensor_files(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 20)).astype(np.float32)
    labels = rng.integers(0, 4, 64).astype(np.float32)
    write_tensor_file(str(tmp_path / "x.bin"), x)
    write_tensor_file(str(tmp_path / "labels.bin"), labels)
    cfg = dict(MLP_CONFIG)
    cfg["data"] = {
        "kind": "file",
        "x": str(tmp_path / "x.bin"),
        "labels": str(tmp_path / "labels.bin"),
    }
    cfg["iterations"] = 4
    r = cli("train", "--config", write_config(tmp_path, cfg))
    assert r.returncode == 0, r.stderr
    assert len(json_lines(r.stdout)) == 4


def test_train_missing_data_file_exits_two(tmp_path):
    cfg = dict(MLP_CONFIG)
    cfg["data"] = {"kind": "file", "x": "/nope.bin", "labels": "/nope2.bin"}
    r = cli("train", "--config", write_config(tmp_path, cfg))
    assert r.returncode == 2


DP_CONFIG = {
    "net": {
        "input_shape": [12],
        "layers": [
            {"kind": "fc", "out": 10},
            {"kind": "relu"},
            {"kind": "fc", "out": 3},
        ],
        "batch": 6,
        "lr": 0.05,
    },
    "plan": {
        "scheme": "data",
        "peers": [{"host": "local", "device": 0}, {"host": "local", "device": 1}],
        "server": {"host": "local", "device": 0},
    },
    "iterations": 6,
    "seed": 19,
}


def test_train_loopback_processes_match_in_process(tmp_path):
    path = write_config(tmp_path, DP_CONFIG)
    r1 = cli("train", "--config", path)
    assert r1.returncode == 0, r1.stderr
    final_local = json_lines(r1.stdout)[-1]["loss"]

    r2 = cli("train", "--config", path, "--peers", "2")
    assert r2.returncode == 0, r2.stderr
    final_dist = json_lines(r2.stdout)[-1]["final_loss"]
    assert abs(final_dist - final_local) <= 1e-6 * max(abs(final_local), 1e-9)


def test_train_loopback_peer_count_must_match_plan(tmp_path):
    path = write_config(tmp_path, DP_CONFIG)
    r = cli("train", "--config", path, "--peers", "3")
    assert r.returncode == 2


def test_train_loopback_rejects_trace_out(tmp_path):
    path = write_config(tmp_path, DP_CONFIG)
    trace_path = tmp_path / "trace.json"
    r = cli("train", "--config", path, "--peers", "2",
            "--trace-out", str(trace_path))
    assert r.returncode == 2
    assert "--trace-out" in r.stderr
    assert not trace_path.exists()


def test_train_host_id_single_host_matches_in_process(tmp_path):
    path = write_config(tmp_path, DP_CONFIG)
    r1 = cli("train", "--config", path)
    assert r1.returncode == 0, r1.stderr
    final_local = json_lines(r1.stdout)[-1]["loss"]

    r2 = cli("train", "--config", path, "--host-id", "local",
             "--peers", "local=127.0.0.1:0")
    assert r2.returncode == 0, r2.stderr
    (line,) = json_lines(r2.stdout)
    assert line["host"] == "local"
    assert line["iterations"] == DP_CONFIG["iterations"]
    assert line["final_loss"] == final_local


def test_copy_latency_marks_exactly_the_cross_location_copies():
    seq = build_sequence(ExperimentConfig.from_dict(DP_CONFIG))
    _add_copy_latency(seq, 50e-6)
    copies = [op for g in seq.graphs for op in g.operators.values()
              if op.kind == "copy"]
    marked = {op.name for op in copies if "delay_s" in op.attrs}
    # peer 0 shares device 0 with the server; only peer 1's copies cross
    assert marked == {op.name for op in copies if op.name.endswith("_p1")}
    assert 0 < len(marked) < len(copies)
    assert all(op.attrs["delay_s"] == 50e-6 for op in copies if op.name in marked)
    costs = CostModel(kind_costs={k: 1e-3 for k in (
        "fc_forward", "relu_forward", "softmax_xent", "fc_backward",
        "relu_backward", "aggregate", "sgd_update", "swap")})
    durations = {r.name: r.end - r.start for r in simulate(seq, costs).trace}
    for op in copies:
        assert durations[op.name] == (50_000 if op.name in marked else 0), op.name


def test_copy_latency_is_skipped_at_zero():
    seq = build_sequence(ExperimentConfig.from_dict(DP_CONFIG))
    _add_copy_latency(seq, 0.0)
    assert not any("delay_s" in op.attrs
                   for g in seq.graphs for op in g.operators.values())


def test_train_copy_latency_keeps_losses_and_delays_copies(tmp_path):
    path = write_config(tmp_path, DP_CONFIG)
    r1 = cli("train", "--config", path)
    assert r1.returncode == 0, r1.stderr
    trace_path = tmp_path / "trace.json"
    r2 = cli("train", "--config", path, "--copy-latency-us", "3000",
             "--trace-out", str(trace_path))
    assert r2.returncode == 0, r2.stderr
    assert [l["loss"] for l in json_lines(r2.stdout)] == [
        l["loss"] for l in json_lines(r1.stdout)
    ]
    copies = [ev for ev in json.loads(trace_path.read_text())
              if ev["name"].startswith(("up_", "down_"))]
    crossing = [ev for ev in copies if ev["name"].endswith("_p1")]
    assert crossing and all(ev["dur"] >= 3000 for ev in crossing)


def test_train_host_id_writes_its_trace(tmp_path):
    path = write_config(tmp_path, MLP_CONFIG)
    trace_path = tmp_path / "trace.json"
    r = cli("train", "--config", path, "--iterations", "3", "--host-id", "local",
            "--peers", "local=127.0.0.1:0", "--trace-out", str(trace_path))
    assert r.returncode == 0, r.stderr
    events = json.loads(trace_path.read_text())
    assert {ev["args"]["iteration"] for ev in events} == {0, 1, 2}
    assert all(ev["ph"] == "X" for ev in events)


def test_train_host_id_busy_port_exits_one(tmp_path):
    path = write_config(tmp_path, MLP_CONFIG)
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        r = cli("train", "--config", path, "--host-id", "local",
                "--peers", f"local=127.0.0.1:{port}")
    assert r.returncode == 1
    assert f"local: cannot listen on 127.0.0.1:{port}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("count", ["0", "-3"])
def test_train_rejects_iterations_below_one(tmp_path, count):
    path = write_config(tmp_path, MLP_CONFIG)
    r = cli("train", "--config", path, "--iterations", count)
    assert r.returncode == 2
    assert f"iterations must be >= 1, got {count}" in r.stderr
    assert r.stdout == ""


# ---------------------------------------------------------------------------
# simulate


def test_simulate_unit_costs_give_exact_linear_ratios():
    r = cli("simulate", "--a", "1", "--c", "0", "--peers", "1..4", "--batch", "1")
    assert r.returncode == 0, r.stderr
    rows = [l for l in json_lines(r.stdout) if "peers" in l]
    assert [row["ratio"] for row in rows] == [1.0, 2.0, 3.0, 4.0]
    assert [row["peers"] for row in rows] == [1, 2, 3, 4]


def test_simulate_fit_predicts_published_ratio(tmp_path):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(BATCH_TABLE_CSV)
    r = cli("simulate", "--fit", str(csv_path), "--peers", "12", "--batch", "32")
    assert r.returncode == 0, r.stderr
    row = [l for l in json_lines(r.stdout) if "peers" in l][0]
    assert abs(row["ratio"] - 9.53) / 9.53 <= 0.08
    assert abs(row["images_per_sec"] - 1099.8) / 1099.8 <= 1e-6  # fit endpoint


def test_simulate_comma_list_peers():
    r = cli("simulate", "--a", "0.5", "--c", "0.1", "--peers", "2,5", "--batch", "8")
    rows = [l for l in json_lines(r.stdout) if "peers" in l]
    assert [row["peers"] for row in rows] == [2, 5]


def test_simulate_without_model_is_usage_error():
    r = cli("simulate", "--peers", "1", "--batch", "1")
    assert r.returncode == 2


def test_simulate_fit_and_manual_model_conflict(tmp_path):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(BATCH_TABLE_CSV)
    r = cli("simulate", "--fit", str(csv_path), "--a", "1", "--c", "0",
            "--peers", "1", "--batch", "1")
    assert r.returncode == 2


def test_unknown_subcommand_is_usage_error():
    r = cli("frobnicate")
    assert r.returncode == 2
