import hashlib
import importlib
import math
import re
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from biflow import ops
from biflow.graph import BiGraph, GraphError, Location
from biflow.ops import (
    KINDS,
    KernelError,
    Tensor,
    TensorStore,
    aggregate,
    conv2d_backward,
    conv2d_backward_bias,
    conv2d_backward_data,
    conv2d_backward_weight,
    conv2d_forward,
    fc_backward,
    fc_backward_bias,
    fc_backward_data,
    fc_backward_weight,
    fc_forward,
    flatten_backward,
    flatten_forward,
    output_shapes,
    read_tensor_file,
    relu_backward,
    relu_forward,
    sgd_update,
    softmax_xent,
    swap,
    write_tensor_file,
)
from biflow.ops import _finite
from oracles import (
    conv2d_backward_loops,
    conv2d_loops,
    fc_backward_loops,
    fc_forward_loops,
    numerical_grad,
    rel_error,
    softmax_xent_bruteforce,
)


def f32(a):
    return np.asarray(a, dtype=np.float32)


# ---------------------------------------------------------------------------
# dense layer
# ---------------------------------------------------------------------------


def test_fc_forward_frozen_scalar():
    y = fc_forward(f32([[1.0, 2.0]]), f32([[3.0], [4.0]]), f32([1.0]))
    assert y.shape == (1, 1)
    assert y[0, 0] == 12.0


def test_fc_backward_frozen_scalar():
    dx, dw, db = fc_backward(f32([[2.0]]), f32([[3.0]]), f32([[5.0]]))
    assert dx[0, 0] == 15.0
    assert dw[0, 0] == 10.0
    assert db[0] == 5.0


def test_fc_forward_matches_loop_oracle():
    rng = np.random.default_rng(11)
    x = f32(rng.standard_normal((4, 7)))
    w = f32(rng.standard_normal((7, 3)))
    b = f32(rng.standard_normal(3))
    assert rel_error(fc_forward(x, w, b), fc_forward_loops(x, w, b)) < 1e-6


def test_fc_backward_matches_loop_oracle():
    rng = np.random.default_rng(12)
    x = f32(rng.standard_normal((5, 4)))
    w = f32(rng.standard_normal((4, 6)))
    dy = f32(rng.standard_normal((5, 6)))
    dx, dw, db = fc_backward(x, w, dy)
    odx, odw, odb = fc_backward_loops(x, w, dy)
    assert rel_error(dx, odx) < 1e-6
    assert rel_error(dw, odw) < 1e-6
    assert rel_error(db, odb) < 1e-6


def test_fc_split_backward_matches_fused():
    rng = np.random.default_rng(13)
    x = f32(rng.standard_normal((3, 5)))
    w = f32(rng.standard_normal((5, 2)))
    dy = f32(rng.standard_normal((3, 2)))
    dx, dw, db = fc_backward(x, w, dy)
    assert np.array_equal(fc_backward_data(w, dy), dx)
    assert np.array_equal(fc_backward_weight(x, dy), dw)
    assert np.array_equal(fc_backward_bias(dy), db)


def test_fc_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    x = f32(rng.uniform(-1, 1, (3, 4)))
    w = f32(rng.uniform(-1, 1, (4, 2)))
    b = f32(rng.uniform(-1, 1, 2))
    g = f32(rng.uniform(-1, 1, (3, 2)))  # fixed projection -> scalar loss

    def loss(x_, w_, b_):
        return float(np.sum(fc_forward(x_, w_, b_).astype(np.float64) * g))

    dx, dw, db = fc_backward(x, w, g)
    assert rel_error(dx, numerical_grad(loss, [x, w, b], 0)) < 1e-3
    assert rel_error(dw, numerical_grad(loss, [x, w, b], 1)) < 1e-3
    assert rel_error(db, numerical_grad(loss, [x, w, b], 2)) < 1e-3


def test_fc_shape_mismatch_raises():
    with pytest.raises(KernelError):
        fc_forward(f32([[1.0, 2.0]]), f32([[3.0]]), f32([1.0]))


def test_fc_nonfinite_result_raises():
    big = np.full((1, 2), 1e38, dtype=np.float32)
    w = np.full((2, 1), 1e38, dtype=np.float32)
    with np.errstate(over="ignore"), pytest.raises(KernelError):
        fc_forward(big, w, f32([0.0]))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_conv_ones_frozen():
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    y = conv2d_forward(x, w, b)
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == 9.0


def test_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(21)
    x = f32(rng.standard_normal((2, 2, 4, 4)))
    w = np.zeros((2, 2, 3, 3), dtype=np.float32)
    for k in range(2):
        w[k, k, 1, 1] = 1.0
    y = conv2d_forward(x, w, np.zeros(2, dtype=np.float32), stride=1, pad=1)
    assert np.array_equal(y, x)


def test_conv_forward_matches_loop_oracle():
    rng = np.random.default_rng(22)
    x = f32(rng.standard_normal((2, 2, 5, 5)))
    w = f32(rng.standard_normal((3, 2, 3, 3)))
    b = f32(rng.standard_normal(3))
    for stride, pad in [(1, 0), (1, 1), (2, 1)]:
        y = conv2d_forward(x, w, b, stride=stride, pad=pad)
        o = conv2d_loops(x, w, b, stride=stride, pad=pad)
        assert y.shape == o.shape
        assert rel_error(y, o) < 1e-6


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    x = f32(rng.uniform(-1, 1, (2, 2, 4, 4)))
    w = f32(rng.uniform(-1, 1, (2, 2, 3, 3)))
    b = f32(rng.uniform(-1, 1, 2))
    g = f32(rng.uniform(-1, 1, (2, 2, 4, 4)))

    def loss(x_, w_, b_):
        y = conv2d_forward(x_, w_, b_, stride=1, pad=1)
        return float(np.sum(y.astype(np.float64) * g))

    dx, dw, db = conv2d_backward(x, w, g, stride=1, pad=1)
    assert rel_error(dx, numerical_grad(loss, [x, w, b], 0)) < 1e-2
    assert rel_error(dw, numerical_grad(loss, [x, w, b], 1)) < 1e-2
    assert rel_error(db, numerical_grad(loss, [x, w, b], 2)) < 1e-2


def test_conv_split_backward_matches_fused():
    rng = np.random.default_rng(24)
    x = f32(rng.standard_normal((2, 3, 5, 7)))
    w = f32(rng.standard_normal((4, 3, 3, 3)))
    for stride, pad in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        ho = (5 + 2 * pad - 3) // stride + 1
        wo = (7 + 2 * pad - 3) // stride + 1
        dy = f32(rng.standard_normal((2, 4, ho, wo)))
        dx, dw, db = conv2d_backward(x, w, dy, stride=stride, pad=pad)
        assert dx.shape == x.shape and dw.shape == w.shape
        assert np.array_equal(
            conv2d_backward_data(x, w, dy, stride=stride, pad=pad), dx
        )
        assert np.array_equal(
            conv2d_backward_weight(x, w, dy, stride=stride, pad=pad), dw
        )
        assert np.array_equal(conv2d_backward_bias(dy), db)
        # adjoint identity against the loop oracle: <conv(x, w), dy> equals
        # both <x, dx> and <w, dw>, which pins the transposed convolution
        # (dy dilated by the stride) and the weight gradient per stride
        y = conv2d_loops(x, w, np.zeros(4), stride=stride, pad=pad)
        ref = float(np.sum(y * dy))
        assert math.isclose(float(np.sum(x.astype(np.float64) * dx)), ref, rel_tol=1e-5)
        assert math.isclose(float(np.sum(w.astype(np.float64) * dw)), ref, rel_tol=1e-5)


# (N, C, K, H, W, R, S, stride, pad)
CONV_GEOMETRIES = {
    "one-image": (1, 2, 3, 5, 5, 3, 3, 1, 1),
    "one-channel": (2, 1, 3, 5, 6, 3, 3, 1, 0),
    "one-filter": (2, 2, 1, 5, 5, 3, 3, 2, 1),
    "filter-2x3": (2, 2, 3, 4, 5, 2, 3, 1, 0),
    "stride-3": (2, 2, 3, 6, 9, 3, 3, 3, 0),
    "pad-2": (2, 2, 3, 4, 4, 3, 3, 1, 2),
    # pad wider than R - 1, and a stride wider than the filter, so some
    # input rows meet no filter tap and get a zero gradient
    "all-at-once": (1, 1, 1, 4, 5, 2, 3, 3, 2),
}


@pytest.mark.parametrize(
    "geom", CONV_GEOMETRIES.values(), ids=CONV_GEOMETRIES.keys()
)
def test_conv_kernels_match_loop_oracle_across_geometries(geom):
    n, c, k, h, wd, r, s, stride, pad = geom
    rng = np.random.default_rng(25)
    x = f32(rng.standard_normal((n, c, h, wd)))
    w = f32(rng.standard_normal((k, c, r, s)))
    b = f32(rng.standard_normal(k))
    y = conv2d_forward(x, w, b, stride=stride, pad=pad)
    o = conv2d_loops(x, w, b, stride=stride, pad=pad)
    assert y.shape == o.shape
    assert rel_error(y, o) < 1e-6
    # adjoint identity: <conv(x, w), dy> equals both <x, dx> and <w, dw>
    dy = f32(rng.standard_normal(y.shape))
    dx = conv2d_backward_data(x, w, dy, stride=stride, pad=pad)
    dw = conv2d_backward_weight(x, w, dy, stride=stride, pad=pad)
    assert dx.shape == x.shape and dw.shape == w.shape
    ref = float(np.sum(conv2d_loops(x, w, np.zeros(k), stride=stride, pad=pad) * dy))
    assert math.isclose(float(np.sum(x.astype(np.float64) * dx)), ref, rel_tol=1e-5)
    assert math.isclose(float(np.sum(w.astype(np.float64) * dw)), ref, rel_tol=1e-5)


@pytest.mark.parametrize(
    "geom", CONV_GEOMETRIES.values(), ids=CONV_GEOMETRIES.keys()
)
def test_conv_gradients_match_scatter_oracle_elementwise(geom):
    n, c, k, h, wd, r, s, stride, pad = geom
    rng = np.random.default_rng(28)
    x = f32(rng.standard_normal((n, c, h, wd)))
    w = f32(rng.standard_normal((k, c, r, s)))
    ho = (h + 2 * pad - r) // stride + 1
    wo = (wd + 2 * pad - s) // stride + 1
    dy = f32(rng.standard_normal((n, k, ho, wo)))
    want_dx, want_dw = conv2d_backward_loops(x, w, dy, stride=stride, pad=pad)
    dx = conv2d_backward_data(x, w, dy, stride=stride, pad=pad)
    dw = conv2d_backward_weight(x, w, dy, stride=stride, pad=pad)
    assert dx.shape == want_dx.shape and dw.shape == want_dw.shape
    assert rel_error(dx, want_dx) < 1e-6
    assert rel_error(dw, want_dw) < 1e-6
    # input pixels that no tap reads get exactly zero
    assert np.array_equal(dx == 0, want_dx == 0)


@pytest.mark.parametrize("pad", [0, 1])
def test_conv_kernels_neither_mutate_nor_alias_inputs(pad):
    # a stride-1 conv copies x into a patch buffer even at pad 0, and a
    # strided one at pad 0 reads it in place; either way outputs are fresh
    rng = np.random.default_rng(26)
    x = f32(rng.standard_normal((2, 3, 5, 5)))
    w = f32(rng.standard_normal((4, 3, 3, 3)))
    b = f32(rng.standard_normal(4))
    for stride in (1, 2):
        ho = (5 + 2 * pad - 3) // stride + 1
        dy = f32(rng.standard_normal((2, 4, ho, ho)))
        inputs = (x, w, b, dy)
        before = [a.tobytes() for a in inputs]
        outputs = [
            conv2d_forward(x, w, b, stride=stride, pad=pad),
            *conv2d_backward(x, w, dy, stride=stride, pad=pad),
            conv2d_backward_data(x, w, dy, stride=stride, pad=pad),
            conv2d_backward_weight(x, w, dy, stride=stride, pad=pad),
            conv2d_backward_bias(dy),
        ]
        assert [a.tobytes() for a in inputs] == before
        for out in outputs:
            assert not any(np.shares_memory(out, a) for a in inputs)


def test_conv_kernels_are_deterministic_across_threads():
    rng = np.random.default_rng(27)
    x = f32(rng.standard_normal((8, 8, 16, 16)))
    w = f32(rng.standard_normal((8, 8, 3, 3)))
    b = f32(rng.standard_normal(8))
    dy = f32(rng.standard_normal((8, 8, 16, 16)))

    def run_all():
        return (
            conv2d_forward(x, w, b, pad=1),
            conv2d_backward_data(x, w, dy, pad=1),
            conv2d_backward_weight(x, w, dy, pad=1),
        )

    serial = run_all()
    mismatches = []

    def worker():
        for _ in range(50):
            got = run_all()
            mismatches.extend(
                i for i, (a, e) in enumerate(zip(got, serial))
                if not np.array_equal(a, e)
            )

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_conv_non_integral_output_raises():
    x = np.ones((1, 1, 5, 5), dtype=np.float32)
    w = np.ones((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(KernelError):
        conv2d_forward(x, w, np.zeros(1, dtype=np.float32), stride=2, pad=0)


# ---------------------------------------------------------------------------
# relu / flatten
# ---------------------------------------------------------------------------


def test_relu_frozen():
    y = relu_forward(f32([[-2.0, 0.0, 3.0]]))
    assert np.array_equal(y, f32([[0.0, 0.0, 3.0]]))
    dx = relu_backward(f32([[-2.0, 0.0, 3.0]]), f32([[1.0, 1.0, 7.0]]))
    # subgradient at exactly zero is zero
    assert np.array_equal(dx, f32([[0.0, 0.0, 7.0]]))


def test_relu_backward_bytes_equal_the_where_form():
    rng = np.random.default_rng(33)
    x = f32(rng.standard_normal((8, 8, 16, 16)))
    dy = f32(rng.standard_normal((8, 8, 16, 16)))
    x.flat[::7] = 0.0
    x.flat[1::11] = -0.0
    dy.flat[2::13] = -0.0
    dy.flat[3::17] = 0.0
    got = relu_backward(x, dy)
    assert got.tobytes() == np.where(x > 0, dy, np.float32(0)).tobytes()


def test_relu_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    x = f32(rng.uniform(-1, 1, (4, 5)))
    x[np.abs(x) < 0.1] = 0.5  # keep the probe away from the kink
    g = f32(rng.uniform(-1, 1, (4, 5)))

    def loss(x_):
        return float(np.sum(relu_forward(x_).astype(np.float64) * g))

    dx = relu_backward(x, g)
    assert rel_error(dx, numerical_grad(loss, [x], 0)) < 1e-3


def test_flatten_round_trip():
    rng = np.random.default_rng(32)
    x = f32(rng.standard_normal((3, 2, 4, 4)))
    y = flatten_forward(x)
    assert y.shape == (3, 32)
    back = flatten_backward(x, y)
    assert np.array_equal(back, x)


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------


def test_softmax_uniform_logits_frozen():
    logits = np.zeros((2, 4), dtype=np.float32)
    labels = f32([0.0, 3.0])
    loss, _ = softmax_xent(logits, labels)
    assert loss.shape == (1,)
    assert abs(float(loss[0]) - math.log(4.0)) < 1e-6


def test_softmax_matches_bruteforce():
    rng = np.random.default_rng(41)
    logits = f32(rng.standard_normal((6, 5)))
    labels = f32(rng.integers(0, 5, 6))
    loss, dlogits = softmax_xent(logits, labels)
    oloss, odl = softmax_xent_bruteforce(logits, labels)
    assert abs(float(loss[0]) - oloss) < 1e-5
    assert rel_error(dlogits, odl) < 1e-5


def test_softmax_shift_invariance():
    rng = np.random.default_rng(42)
    logits = f32(rng.standard_normal((3, 4)))
    labels = f32([1.0, 0.0, 3.0])
    a, _ = softmax_xent(logits, labels)
    b, _ = softmax_xent(logits + f32(100.0), labels)
    assert abs(float(a[0]) - float(b[0])) < 1e-5


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(43)
    logits = f32(rng.uniform(-1, 1, (4, 3)))
    labels = f32(rng.integers(0, 3, 4))

    def loss(lg):
        return float(softmax_xent(lg, labels)[0][0])

    _, dlogits = softmax_xent(logits, labels)
    assert rel_error(dlogits, numerical_grad(loss, [logits], 0)) < 1e-3


def test_softmax_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(44)
    logits = f32(rng.standard_normal((5, 7)))
    labels = f32(rng.integers(0, 7, 5))
    _, dlogits = softmax_xent(logits, labels)
    assert np.all(np.abs(dlogits.sum(axis=1)) < 1e-6)


def test_softmax_bad_label_raises():
    logits = np.zeros((1, 3), dtype=np.float32)
    with pytest.raises(KernelError):
        softmax_xent(logits, f32([3.0]))
    with pytest.raises(KernelError):
        softmax_xent(logits, f32([0.5]))


@pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf, 1e20, -1e20, -1.0])
def test_softmax_non_finite_or_huge_label_raises_kernel_error(label):
    """The label is range-checked before its cast to int, which would warn on
    a NaN, an infinity or a value past int64."""
    logits = np.zeros((2, 3), dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelError, match=r"labels must be integral and in \[0, 3\)"):
            softmax_xent(logits, f32([1.0, label]))


# ---------------------------------------------------------------------------
# the finite check every kernel output passes


FINITE_CASES = {
    "one": lambda: np.ones(1, dtype=np.float32),
    "16k": lambda: np.ones(16384, dtype=np.float32),
    # not contiguous: every other channel, the first column dropped
    "view": lambda: np.ones((8, 8, 16, 16), dtype=np.float32)[:, ::2, :, 1:],
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", FINITE_CASES.values(), ids=FINITE_CASES)
def test_finite_raises_on_a_non_finite_first_middle_or_last_element(make, bad):
    n = make().size
    for where in (0, n // 2, n - 1):
        a = make()
        a[np.unravel_index(where, a.shape)] = bad
        with pytest.raises(KernelError, match="k: non-finite value in output"):
            _finite("k", a)


def test_finite_accepts_values_whose_squares_overflow():
    """A sum of squares that overflows float32 is not a non-finite element."""
    for a in (np.full(1, 1e20, dtype=np.float32),
              np.full(16384, -1e20, dtype=np.float32),
              np.full((4, 8, 6), 3e38, dtype=np.float32)[:, ::2, 1:]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _finite("k", np.ones(3, dtype=np.float32), a)


# ---------------------------------------------------------------------------
# optimizer / aggregation / swap
# ---------------------------------------------------------------------------


def test_sgd_update_frozen():
    w = f32([1.0, 2.0])
    out = sgd_update(w, f32([0.5, 0.5]), lr=0.1)
    assert np.allclose(out, [0.95, 1.95])
    assert np.array_equal(w, f32([1.0, 2.0]))  # input untouched
    assert out is not w


def test_aggregate_frozen():
    a, b = f32([1.0, 2.0]), f32([3.0, 4.0])
    assert np.array_equal(aggregate([a, b], mode="sum"), f32([4.0, 6.0]))
    assert np.array_equal(aggregate([a, b], mode="mean"), f32([2.0, 3.0]))


def test_aggregate_mean_of_identical_is_bitwise_for_pow2():
    # division by 2 and 4 is exact in binary floating point, so averaging
    # identical replicas must reproduce the input bit for bit
    rng = np.random.default_rng(51)
    x = f32(rng.standard_normal((17, 9)))
    for k in (2, 4):
        out = aggregate([x.copy() for _ in range(k)], mode="mean")
        assert np.array_equal(out, x)


def test_aggregate_single_input_is_identity():
    x = f32(np.random.default_rng(52).standard_normal((3, 3)))
    assert np.array_equal(aggregate([x], mode="mean"), x)


def test_aggregate_bad_mode_raises():
    with pytest.raises(KernelError):
        aggregate([f32([1.0])], mode="max")


def test_swap_exchanges_handles():
    a = Tensor((2,), f32([1.0, 2.0]))
    b = Tensor((2,), f32([3.0, 4.0]))
    da, db = a.data, b.data
    swap(a, b)
    assert a.data is db and b.data is da
    swap(a, b)  # involution
    assert a.data is da and b.data is db


def test_store_swap_requires_matching_shapes():
    store = TensorStore()
    store.set("a", f32([1.0, 2.0]))
    store.set("b", f32([[1.0], [2.0]]))
    with pytest.raises(KernelError):
        store.swap("a", "b")


# ---------------------------------------------------------------------------
# tensor store
# ---------------------------------------------------------------------------


def test_store_slot_declares_a_tensor_unseen_until_written():
    store = TensorStore()
    t = store.slot("y", (2,))
    assert not store.has("y") and "y" not in store and store.names() == []
    with pytest.raises(KernelError, match="no tensor named 'y'"):
        store.get("y")
    assert store.set("y", f32([1.0, 2.0])) is t and store.names() == ["y"]
    assert store.slot("y", (2,)) is t
    with pytest.raises(KernelError, match="shape mismatch writing 'y'"):
        store.slot("y", (3,))


def test_store_enforces_dtype_and_shape():
    store = TensorStore()
    store.set("x", f32([[1.0, 2.0]]))
    with pytest.raises(KernelError):
        store.set("x", f32([1.0, 2.0, 3.0]))  # shape changed
    with pytest.raises(KernelError):
        store.get("nope")


def test_store_set_copies_on_dtype_conversion():
    store = TensorStore()
    src = np.array([1.0, 2.0], dtype=np.float64)
    store.set("x", src)
    assert store.array("x").dtype == np.float32


def test_kernels_do_not_mutate_inputs():
    # hash every input before and after each pure kernel
    rng = np.random.default_rng(61)
    x = f32(rng.standard_normal((3, 4)))
    w = f32(rng.standard_normal((4, 2)))
    b = f32(rng.standard_normal(2))
    dy = f32(rng.standard_normal((3, 2)))

    def digest(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    before = digest(x, w, b, dy)
    fc_forward(x, w, b)
    fc_backward(x, w, dy)
    sgd_update(w, dy.T[:, :4].T if dy.shape == w.shape else w, lr=0.01)
    relu_forward(x)
    relu_backward(x, x)
    aggregate([x, x], mode="mean")
    assert digest(x, w, b, dy) == before


# ---------------------------------------------------------------------------
# tensor file format
# ---------------------------------------------------------------------------


def test_tensor_file_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    for shape in [(3,), (2, 5), (1, 2, 3), (2, 1, 4, 4)]:
        a = f32(rng.standard_normal(shape))
        path = tmp_path / "t.bin"
        write_tensor_file(path, a)
        back = read_tensor_file(path)
        assert back.shape == a.shape
        assert np.array_equal(back, a)


def test_tensor_file_truncation_raises(tmp_path):
    a = f32([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "t.bin"
    write_tensor_file(path, a)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(KernelError):
        read_tensor_file(path)


# ---------------------------------------------------------------------------
# kind registry
# ---------------------------------------------------------------------------


def test_registry_covers_expected_kinds():
    for kind in [
        "fc_forward",
        "fc_backward",
        "fc_backward_data",
        "fc_backward_weight",
        "fc_backward_bias",
        "conv2d_forward",
        "conv2d_backward",
        "conv2d_backward_data",
        "conv2d_backward_weight",
        "conv2d_backward_bias",
        "relu_forward",
        "relu_backward",
        "flatten_forward",
        "flatten_backward",
        "softmax_xent",
        "sgd_update",
        "aggregate",
        "swap",
        "copy",
        "send",
        "recv",
        "gate",
    ]:
        assert kind in KINDS, kind


def test_registry_shape_check_rejects_bad_wiring():
    spec = KINDS["fc_forward"]
    with pytest.raises(KernelError):
        spec.check_shapes([(1, 2), (3, 1), (1,)], [(1, 1)], {})


# ---------------------------------------------------------------------------
# one shape rule per kind, read by graph construction and by the kernels
# ---------------------------------------------------------------------------

CONV_ATTRS = {"stride": 2, "pad": 1}  # 5x7 input, 3x3 filter -> 3x4 output

# kind -> (valid input shapes, attrs, {input index: a shape the rule rejects}).
# relu_forward, copy, send and gate (whose token is only a dependency)
# constrain no input shape, so they have nothing to perturb.
RULE_CASES = {
    "fc_forward": ([(3, 4), (4, 2), (2,)], {}, {0: (3, 5), 1: (5, 2), 2: (3,)}),
    "fc_backward": ([(3, 4), (4, 2), (3, 2)], {}, {0: (3, 5), 1: (4, 3), 2: (2, 2)}),
    "fc_backward_data": ([(4, 2), (3, 2)], {}, {0: (4, 3), 1: (3, 3)}),
    "fc_backward_weight": ([(3, 4), (3, 2)], {}, {0: (2, 4), 1: (2, 2)}),
    "fc_backward_bias": ([(3, 2)], {}, {0: (3, 2, 1)}),
    "conv2d_forward": (
        [(2, 3, 5, 7), (4, 3, 3, 3), (4,)], CONV_ATTRS,
        {0: (2, 3, 6, 7), 1: (4, 2, 3, 3), 2: (3,)},
    ),
    "conv2d_backward": (
        [(2, 3, 5, 7), (4, 3, 3, 3), (2, 4, 3, 4)], CONV_ATTRS,
        {0: (2, 2, 5, 7), 1: (5, 3, 3, 3), 2: (2, 4, 3, 3)},
    ),
    "conv2d_backward_data": (
        [(2, 3, 5, 7), (4, 3, 3, 3), (2, 4, 3, 4)], CONV_ATTRS,
        {0: (2, 3, 6, 7), 1: (4, 3, 2, 3), 2: (2, 4, 4, 4)},
    ),
    "conv2d_backward_weight": (
        [(2, 3, 5, 7), (4, 3, 3, 3), (2, 4, 3, 4)], CONV_ATTRS,
        {0: (3, 3, 5, 7), 1: (4, 3, 3, 2), 2: (2, 5, 3, 4)},
    ),
    "conv2d_backward_bias": ([(2, 4, 3, 4)], {}, {0: (2, 4)}),
    "relu_forward": ([(3, 4)], {}, {}),
    "relu_backward": ([(3, 4), (3, 4)], {}, {0: (4, 3), 1: (3, 5)}),
    "flatten_forward": ([(2, 3, 4)], {}, {0: (6,)}),
    "flatten_backward": ([(2, 3, 4), (2, 12)], {}, {0: (2, 3, 5), 1: (2, 3, 4)}),
    "softmax_xent": ([(4, 3), (4,)], {}, {0: (5, 3), 1: (3,)}),
    "sgd_update": ([(3, 4), (3, 4)], {"lr": 0.1}, {0: (3, 5), 1: (4, 4)}),
    "aggregate": (
        [(2, 3), (2, 3), (2, 3)], {"mode": "sum"}, {0: (3, 2), 1: (2, 4), 2: (2,)},
    ),
    "copy": ([(2, 3)], {}, {}),
    "send": ([(2, 3)], {"channel": 1}, {}),
    "gate": ([(2, 3), (5,)], {}, {}),
}

HERE = Location("local", 0)


def one_op_graph(kind, in_shapes, out_shapes, attrs):
    g = BiGraph()
    ins = [g.add_tensor(f"in{i}", s, HERE) for i, s in enumerate(in_shapes)]
    outs = [g.add_tensor(f"out{i}", s, HERE) for i, s in enumerate(out_shapes)]
    return g, g.operators[g.add_operator(kind, kind, ins, outs, HERE, attrs=attrs)]


def execute(kind, g, op, arrays):
    """Run ``kind``'s registered hook with ``arrays`` bound to its inputs;
    returns its output arrays and the shapes it sent."""
    store = TensorStore()
    for tid, a in zip(op.inputs, arrays):
        store.set(g.tensors[tid].name, a)
    sent = []
    transport = SimpleNamespace(send=lambda ch, it, a: sent.append(a.shape))
    ctx = SimpleNamespace(store=store, graph=g, iteration=0, transport=transport)
    KINDS[kind].execute(ctx, op)
    return [store.array(g.tensors[t].name) for t in op.outputs], sent


def test_rule_cases_cover_every_kind_with_a_rule():
    assert set(RULE_CASES) == set(KINDS) - {"swap", "recv"}
    for kind in ("swap", "recv"):  # outputs not inferable from inputs
        with pytest.raises(KeyError):
            output_shapes(kind, [], {})


@pytest.mark.parametrize("kind", sorted(RULE_CASES))
def test_kernel_output_shapes_equal_the_rule(kind):
    in_shapes, attrs, _ = RULE_CASES[kind]
    want = output_shapes(kind, in_shapes, attrs)
    g, op = one_op_graph(kind, in_shapes, want, attrs)
    got, sent = execute(kind, g, op, [np.zeros(s, np.float32) for s in in_shapes])
    assert [a.shape for a in got] == want
    assert sent == ([in_shapes[0]] if kind == "send" else [])


PUBLIC_KERNELS = sorted(set(RULE_CASES) - {"copy", "send", "gate"})


@pytest.mark.parametrize("kind", PUBLIC_KERNELS)
def test_public_kernel_matches_its_bound_step(kind):
    in_shapes, attrs, _ = RULE_CASES[kind]
    rng = np.random.default_rng(29)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in in_shapes]
    if kind == "softmax_xent":  # integral labels in [0, K)
        arrays[1] = rng.integers(0, in_shapes[0][1], in_shapes[1]).astype(np.float32)
    g, op = one_op_graph(kind, in_shapes, output_shapes(kind, in_shapes, attrs), attrs)
    bound, _ = execute(kind, g, op, arrays)
    kernel = getattr(ops, kind)
    got = kernel(arrays, **attrs) if kind == "aggregate" else kernel(*arrays, **attrs)
    got = list(got) if isinstance(got, tuple) else [got]
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (a.dtype, a.shape, a.tobytes()) for a in bound
    ]


def test_public_kernel_rejects_an_attr_it_does_not_read_or_a_wrong_arity():
    x, w, b = (np.zeros(s, np.float32) for s in RULE_CASES["fc_forward"][0])
    calls = [
        lambda: fc_forward(x, w, b, stride=1),
        lambda: fc_forward(x, w),
        lambda: sgd_update(x, x, lr=0.1, mode="sum"),
        lambda: conv2d_backward_bias(np.zeros((2, 4, 3, 4), np.float32), pad=0),
        lambda: aggregate([x, x], lr=0.1),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("kind", PUBLIC_KERNELS)
def test_public_kernel_takes_its_name_and_doc_from_its_kind(kind):
    kernel = getattr(ops, kind)
    assert kernel.__name__ == kind and kind in ops.__all__
    if kind != "aggregate":  # the list adapter has a docstring of its own
        assert kernel.__doc__ == getattr(ops, f"_{kind}").__doc__
    assert kernel.__doc__


@pytest.mark.parametrize(
    "attrs", [{"stride": 2.7}, {"pad": 0.9}, {"stride": True}, {"pad": False},
              {"stride": 2.0}, {"pad": "1"}],
    ids=["stride-2.7", "pad-0.9", "stride-true", "pad-false", "stride-2.0", "pad-str"],
)
def test_conv_stride_and_pad_must_be_integers(attrs):
    in_shapes = RULE_CASES["conv2d_forward"][0]
    (key,) = attrs
    message = f"conv2d: {key} must be an integer, got {attrs[key]!r}"
    with pytest.raises(KernelError, match=re.escape(message)):
        output_shapes("conv2d_forward", in_shapes, attrs)
    with pytest.raises(GraphError, match=re.escape(message)):
        one_op_graph("conv2d_forward", in_shapes, [(2, 4, 2, 3)], attrs)
    x, w, b = (np.zeros(s, np.float32) for s in in_shapes)
    with pytest.raises(KernelError, match=re.escape(message)):
        conv2d_forward(x, w, b, **attrs)
    # numpy integers are integers
    assert np.array_equal(
        conv2d_forward(x, w, b, stride=np.int64(2), pad=np.int32(1)),
        conv2d_forward(x, w, b, stride=2, pad=1),
    )


PERTURBED = [
    (kind, index, bad)
    for kind, (_, _, bad_inputs) in sorted(RULE_CASES.items())
    for index, bad in bad_inputs.items()
]


@pytest.mark.parametrize(
    "kind,index,bad", PERTURBED, ids=[f"{k}-in{i}" for k, i, _ in PERTURBED]
)
def test_perturbed_input_is_rejected_by_graph_and_kernel(kind, index, bad):
    in_shapes, attrs, _ = RULE_CASES[kind]
    want = output_shapes(kind, in_shapes, attrs)
    shapes = list(in_shapes)
    shapes[index] = bad
    with pytest.raises(GraphError, match=f"{kind}: input shapes"):
        one_op_graph(kind, shapes, want, attrs)
    # the kernel gets the perturbed array through the registry's hook
    g, op = one_op_graph(kind, in_shapes, want, attrs)
    with pytest.raises(KernelError, match=f"{kind}: input shapes"):
        execute(kind, g, op, [np.zeros(s, np.float32) for s in shapes])


@pytest.mark.parametrize(
    "module",
    ["biflow", "biflow.dispatcher", "biflow.graph", "biflow.ops", "biflow.transport"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
