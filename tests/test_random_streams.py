"""biflow's counter-based generator: exact against a scalar reference,
statistics on fixed seeds, and no process of biflow loads numpy.random.

Every statistical bound sits at least four standard errors from the value
a true source would give, and every seed is fixed, so no result depends
on luck.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import biflow
from biflow.builders import (
    FEED_BLOCK,
    LayerSpec,
    NetSpec,
    SyntheticFeed,
    _labels,
    _normals,
    _param_array,
    _stream_key,
    _words,
    build_sgd_iteration,
    init_params,
)
from biflow.ops import TensorStore

SRC = str(Path(biflow.__file__).resolve().parent.parent)
MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def splitmix64(state: int, n: int) -> list[int]:
    """The first ``n`` outputs of SplitMix64 started at ``state``."""
    out = []
    for _ in range(n):
        state = (state + GAMMA) & MASK
        out.append(finalize(state))
    return out


def normals(n: int, *key: int) -> np.ndarray:
    return _normals(_words(_stream_key(*key), (n + 1) // 2), n, 1.0).astype(np.float64)


# ---------------------------------------------------------------------------
# exact against the scalar reference


def test_words_are_splitmix64_from_the_stream_key():
    for key in ((7,), (7, 17, 0, 3), (2**64 - 1, 5)):
        k = _stream_key(*key)
        assert _words(k, 37).tolist() == splitmix64(k, 37)
    # each key part is mixed in by one SplitMix64 step from the key so far
    for parts in ((), (0,), (3, 9), (9, 3), (5, 17, 2**40, 0)):
        key = 0
        for part in parts:
            key = finalize(((key + GAMMA) & MASK) ^ part)
        assert _stream_key(*parts) == key
    assert _stream_key(3, 9) != _stream_key(9, 3)


def test_normals_and_labels_match_the_scalar_formulas():
    words = _words(_stream_key(11, 4), 257)
    halves = words.view(np.uint32).reshape(-1, 2).tolist()
    labels = _labels(words, 7).tolist()
    assert labels == [(int(w) >> 32) * 7 >> 32 for w in words]
    got = _normals(words.copy(), 513, 2.5)
    assert got.dtype == np.float32 and got.shape == (513,)
    cos, sin = [], []
    for radius_bits, angle_bits in halves:
        u = 2.0 - (1.0 + (radius_bits >> 9) / 2**23)  # in (0, 1]
        r = 2.5 * math.sqrt(-2.0 * math.log(u))
        turn = 1.0 + (angle_bits >> 9) / 2**23
        cos.append(r * math.cos(2 * math.pi * turn))
        sin.append(r * math.sin(2 * math.pi * turn))
    # float32 arithmetic against float64: a few ulp of values up to 15
    np.testing.assert_allclose(got, (cos + sin)[:513], rtol=0, atol=3e-5)


# ---------------------------------------------------------------------------
# statistics on fixed seeds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_million_normals_have_standard_moments(seed):
    z = normals(10**6, seed, 7)
    mean, var = z.mean(), z.var()
    kurtosis = ((z - mean) ** 4).mean() / var**2
    # standard errors 1e-3, 1.4e-3 and 4.9e-3
    assert abs(mean) < 5e-3
    assert abs(var - 1.0) < 7e-3
    assert abs(kurtosis - 3.0) < 0.025
    # the 23-bit radius bounds every value by sqrt(2·23·ln 2)
    assert np.abs(z).max() <= math.sqrt(46 * math.log(2)) + 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_histogram_passes_chi_square(seed):
    classes = 7
    feed = SyntheticFeed(seed=seed, input_shape=(1,), classes=classes,
                         batch=FEED_BLOCK)
    blocks = np.concatenate([feed.full_batch(it)[1] for it in range(5000)])
    _, evals = feed.eval_batch(40000)
    for labels in (blocks, evals):
        counts = np.bincount(labels.astype(np.int64), minlength=classes)
        assert counts.size == classes
        want = labels.size / classes
        chi2 = ((counts - want) ** 2 / want).sum()
        assert chi2 < 27.9  # 6 degrees of freedom: p = 1e-4


def test_adjacent_stream_keys_give_uncorrelated_streams():
    n = 100_000
    base = (3, 17, 4, 10)
    z = normals(n, *base)
    for key in ((3, 17, 4, 11), (3, 17, 5, 10), (4, 17, 4, 10), (3, 18, 4, 10)):
        r = np.corrcoef(z, normals(n, *key))[0, 1]
        assert abs(r) < 5 / math.sqrt(n), key
        # half the bits of corresponding words differ
        diff = _words(_stream_key(*base), 10_000) ^ _words(_stream_key(*key), 10_000)
        share = np.unpackbits(diff.view(np.uint8)).mean()
        assert abs(share - 0.5) < 5 * 0.5 / math.sqrt(64 * 10_000), key
    # nor are neighbours within a stream, or the two normals of one word
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 5 / math.sqrt(n)
    half = n // 2
    assert abs(np.corrcoef(z[:half], z[half:])[0, 1]) < 5 / math.sqrt(half)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weight_init_std_is_within_two_percent_of_the_he_scale(seed):
    # 32768 and 18432 samples: the std's standard error is 0.4% and 0.5%
    for name, shape, fan_in in (("w1", (256, 128), 256), ("w2", (64, 32, 3, 3), 288)):
        w = _param_array(name, shape, seed)
        assert w.dtype == np.float32 and w.shape == shape
        he = math.sqrt(2.0 / fan_in)
        assert abs(w.std() / he - 1.0) < 0.02
        assert abs(w.mean()) < 5 * he / math.sqrt(w.size)
    assert not _param_array("b1", (128,), seed).any()


def test_a_negative_seed_raises_value_error():
    net = NetSpec(input_shape=(4,), layers=(LayerSpec("fc", 3),), batch=2)
    with pytest.raises(ValueError, match="got -1"):
        _param_array("w1", (4, 3), -1)
    with pytest.raises(ValueError, match="got -2"):
        SyntheticFeed.for_net(net, -2).full_batch(0)
    with pytest.raises(ValueError, match="got -3"):
        init_params(net, TensorStore(), -3, build_sgd_iteration(net).layout)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        _stream_key(1 << 64)


# ---------------------------------------------------------------------------
# no process of biflow loads numpy.random

EPISODES = textwrap.dedent("""
    import contextlib, io, json, runpy, sys
    from dataclasses import dataclass

    from biflow.builders import (LayerSpec, NetSpec, ParallelPlan, SyntheticFeed,
                                 TrainingSetup, build_data_parallel,
                                 build_sgd_iteration, feeder, init_params)
    from biflow.dispatcher import run_sequence
    from biflow.graph import Location
    from biflow.ops import TensorStore
    from biflow.transport import run_distributed

    NET = NetSpec(input_shape=(20,), layers=(LayerSpec("fc", 16), LayerSpec("relu"),
                  LayerSpec("fc", 4)), batch=8, lr=0.1)


    @dataclass(frozen=True)
    class CheckedFeed:
        # a loopback host calls it before every iteration, after its setup
        feed: SyntheticFeed

        def batch_for(self, iteration, rank):
            if "numpy.random" in sys.modules:
                raise RuntimeError("numpy.random is loaded")
            return self.feed.batch_for(iteration, rank)


    def episode(seq, peers):
        store = TensorStore()
        init_params(NET, store, 7, seq.layout)
        feed = SyntheticFeed.for_net(NET, 7, peers=peers)
        run_sequence(seq, store, before_iteration=feeder(feed, seq.layout),
                     iterations=3)


    if __name__ == "__main__":
        loaded = {}
        episode(build_sgd_iteration(NET), 1)
        loaded["sgd"] = "numpy.random" in sys.modules
        local = [Location("local", d) for d in range(3)]
        plan = ParallelPlan(scheme="data", peers=local[:2], server=local[2])
        episode(build_data_parallel(NET, plan), 2)
        loaded["data"] = "numpy.random" in sys.modules
        hosts = (Location("alpha", 0), Location("beta", 0))
        seq = build_data_parallel(NET, ParallelPlan(scheme="data", peers=hosts,
                                                    server=hosts[0]))
        run_distributed(seq, iterations=2, setup=TrainingSetup(NET, 7, seq.layout),
                        feed=CheckedFeed(SyntheticFeed.for_net(NET, 7, peers=2)),
                        timeout=20.0)
        loaded["loopback"] = "numpy.random" in sys.modules
        sys.argv = ["biflow", "train", "--config", sys.argv[1], "--iterations", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("biflow.cli", run_name="__main__")
            except SystemExit as e:
                loaded["cli_exit"] = e.code
        loaded["cli"] = "numpy.random" in sys.modules
        print(json.dumps(loaded))
""")


def test_no_biflow_process_loads_numpy_random(tmp_path):
    script = tmp_path / "episodes.py"
    script.write_text(EPISODES)
    config = tmp_path / "mlp.json"
    config.write_text(json.dumps({
        "net": {"input_shape": [20], "layers": [
            {"kind": "fc", "out": 16}, {"kind": "relu"}, {"kind": "fc", "out": 4}],
            "batch": 8, "lr": 0.1},
        "plan": {"scheme": "single"},
        "iterations": 30,
        "seed": 7,
    }))
    done = subprocess.run([sys.executable, str(script), str(config)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "sgd": False, "data": False, "loopback": False, "cli_exit": 0, "cli": False,
    }
