"""Numeric operator kinds, their kernels, and the per-run tensor store.

Every buffer is a row-major, C-contiguous float32 ndarray.  Kernels are pure
functions of their inputs (plus scalar attributes) with fixed loop/reduction
orders, so a rerun over identical inputs is bit-identical.  Each kernel
verifies the shapes it is given and that everything it produces is finite;
violations raise :class:`KernelError`.

The registry (`KINDS`) maps an operator-kind name to an :class:`OpKindSpec`
carrying a shape checker used at graph-construction time (it also enforces
arity) and an ``execute`` hook used by the dispatcher.  Custom kinds can be
added by passing an extended mapping to the dispatcher.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "KINDS",
    "KernelError",
    "OpKindSpec",
    "Tensor",
    "TensorStore",
    "aggregate",
    "conv2d_backward",
    "conv2d_forward",
    "default_registry",
    "fc_backward",
    "fc_forward",
    "read_tensor_file",
    "relu_backward",
    "relu_forward",
    "sgd_update",
    "softmax_xent",
    "swap",
    "write_tensor_file",
]

MAX_RANK = 4


class KernelError(RuntimeError):
    """A kernel was applied to nonconforming data or produced non-finite values."""


def _f32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise KernelError(msg)


def _finite(kind: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise KernelError(f"{kind}: non-finite value in output")


def check_shape(shape: tuple[int, ...]) -> None:
    """Raise unless ``shape`` has 1..4 dimensions, each positive."""
    if not (1 <= len(shape) <= MAX_RANK) or any(
        not isinstance(d, int) or d < 1 for d in shape
    ):
        raise KernelError(f"invalid tensor shape {shape!r}")


# ---------------------------------------------------------------------------
# Tensor and store


@dataclass
class Tensor:
    """A shaped float32 buffer.  ``data`` is the storage handle."""

    shape: tuple[int, ...]
    data: np.ndarray

    @classmethod
    def from_array(cls, array: np.ndarray) -> "Tensor":
        arr = _f32(array)
        check_shape(arr.shape)
        return cls(tuple(arr.shape), arr)


def swap(a: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Exchange the storage handles of two equal-shaped tensors in O(1).

    No elements are copied: after the call ``a.data`` is the very buffer
    formerly held by ``b`` and vice versa.  Applying swap twice restores the
    original binding.
    """
    _require(a.shape == b.shape, f"swap: shape mismatch {a.shape} vs {b.shape}")
    a.data, b.data = b.data, a.data
    return a, b


class TensorStore:
    """Named tensor buffers shared by every graph of a run.

    Names are the cross-graph identity: two graphs of one sequence that
    mention the same name read and write the same buffer.  Once a name is
    set its shape is fixed; re-setting with a different shape is an error.
    """

    def __init__(self) -> None:
        self._tensors: dict[str, Tensor] = {}

    def set(self, name: str, array: np.ndarray) -> Tensor:
        arr = _f32(array)
        check_shape(tuple(arr.shape))
        existing = self._tensors.get(name)
        if existing is None:
            t = Tensor(tuple(arr.shape), arr)
            self._tensors[name] = t
            return t
        if existing.shape != tuple(arr.shape):
            raise KernelError(
                f"store: shape mismatch writing {name!r}: "
                f"{tuple(arr.shape)} vs existing {existing.shape}"
            )
        existing.data = arr
        return existing

    def get(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KernelError(f"store: no tensor named {name!r}") from None

    def array(self, name: str) -> np.ndarray:
        return self.get(name).data

    def has(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list[str]:
        return sorted(self._tensors)

    def swap(self, name_a: str, name_b: str) -> None:
        swap(self.get(name_a), self.get(name_b))

    def remove(self, name: str) -> None:
        self._tensors.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)


# ---------------------------------------------------------------------------
# Dense (fully connected) kernels


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y[n,m] = sum_d x[n,d] * w[d,m] + b[m]."""
    x, w, b = _f32(x), _f32(w), _f32(b)
    _require(x.ndim == 2, f"fc_forward: x must be 2-d, got {x.shape}")
    _require(w.ndim == 2, f"fc_forward: w must be 2-d, got {w.shape}")
    _require(b.ndim == 1, f"fc_forward: b must be 1-d, got {b.shape}")
    _require(
        x.shape[1] == w.shape[0] and w.shape[1] == b.shape[0],
        f"fc_forward: shapes do not conform: x{x.shape} w{w.shape} b{b.shape}",
    )
    y = x @ w + b
    _finite("fc_forward", y)
    return y


def fc_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the dense layer: dx = dy.w^T, dw = x^T.dy, db = colsum(dy).

    The composition of :func:`fc_backward_data`, :func:`fc_backward_weight`
    and :func:`fc_backward_bias`.
    """
    x, w, dy = _f32(x), _f32(w), _f32(dy)
    _require(
        x.ndim == 2 and w.ndim == 2 and dy.ndim == 2,
        "fc_backward: x, w, dy must all be 2-d",
    )
    _require(
        dy.shape == (x.shape[0], w.shape[1]) and x.shape[1] == w.shape[0],
        f"fc_backward: shapes do not conform: x{x.shape} w{w.shape} dy{dy.shape}",
    )
    return (
        fc_backward_data(w, dy),
        fc_backward_weight(x, dy),
        fc_backward_bias(dy),
    )


def fc_backward_data(w: np.ndarray, dy: np.ndarray) -> np.ndarray:
    w, dy = _f32(w), _f32(dy)
    _require(
        w.ndim == 2 and dy.ndim == 2 and dy.shape[1] == w.shape[1],
        f"fc_backward_data: shapes do not conform: w{w.shape} dy{dy.shape}",
    )
    dx = dy @ w.T
    _finite("fc_backward_data", dx)
    return dx


def fc_backward_weight(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    x, dy = _f32(x), _f32(dy)
    _require(
        x.ndim == 2 and dy.ndim == 2 and x.shape[0] == dy.shape[0],
        f"fc_backward_weight: shapes do not conform: x{x.shape} dy{dy.shape}",
    )
    dw = x.T @ dy
    _finite("fc_backward_weight", dw)
    return dw


def fc_backward_bias(dy: np.ndarray) -> np.ndarray:
    dy = _f32(dy)
    _require(dy.ndim == 2, f"fc_backward_bias: dy must be 2-d, got {dy.shape}")
    db = dy.sum(axis=0)
    _finite("fc_backward_bias", db)
    return db


# ---------------------------------------------------------------------------
# Convolution kernels (direct cross-correlation, NCHW / KCRS)


def _conv_out_dim(size: int, k: int, stride: int, pad: int, axis: str) -> int:
    span = size + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise KernelError(
            f"conv2d: non-integral output {axis} dim for size={size} "
            f"kernel={k} stride={stride} pad={pad}"
        )
    return span // stride + 1


def _conv_attrs(attrs: dict) -> tuple[int, int]:
    stride = int(attrs.get("stride", 1))
    pad = int(attrs.get("pad", 0))
    _require(stride >= 1, f"conv2d: stride must be >= 1, got {stride}")
    _require(pad >= 0, f"conv2d: pad must be >= 0, got {pad}")
    return stride, pad


def _im2col(
    xp: np.ndarray, r: int, s: int, stride: int, ho: int, wo: int
) -> np.ndarray:
    # [N, C, R, S, Ho, Wo] patch tensor; rows/cols gathered in fixed order.
    n, c = xp.shape[0], xp.shape[1]
    cols = np.empty((n, c, r, s, ho, wo), dtype=np.float32)
    for i in range(r):
        for j in range(s):
            cols[:, :, i, j] = xp[
                :, :, i : i + stride * ho : stride, j : j + stride * wo : stride
            ]
    return cols


def _check_conv_shapes(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None
) -> None:
    _require(x.ndim == 4, f"conv2d: x must be 4-d NCHW, got {x.shape}")
    _require(w.ndim == 4, f"conv2d: w must be 4-d KCRS, got {w.shape}")
    _require(
        w.shape[1] == x.shape[1],
        f"conv2d: channel mismatch: x has {x.shape[1]}, w expects {w.shape[1]}",
    )
    if b is not None:
        _require(
            b.ndim == 1 and b.shape[0] == w.shape[0],
            f"conv2d: b must be 1-d of length {w.shape[0]}, got {b.shape}",
        )


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Cross-correlation of NCHW input with KCRS filters plus per-filter bias."""
    x, w, b = _f32(x), _f32(w), _f32(b)
    _check_conv_shapes(x, w, b)
    k, c, r, s = w.shape
    ho = _conv_out_dim(x.shape[2], r, stride, pad, "height")
    wo = _conv_out_dim(x.shape[3], s, stride, pad, "width")
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, r, s, stride, ho, wo)
    y = np.einsum("ncijhw,kcij->nkhw", cols, w, dtype=np.float32) + b[
        None, :, None, None
    ]
    y = _f32(y)
    _finite("conv2d_forward", y)
    return y


def _conv_backward_dims(
    kind: str, x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int, pad: int
) -> tuple[int, int]:
    """Shape-check a backward call; returns the output spatial dims (ho, wo)."""
    _check_conv_shapes(x, w, None)
    k, c, r, s = w.shape
    ho = _conv_out_dim(x.shape[2], r, stride, pad, "height")
    wo = _conv_out_dim(x.shape[3], s, stride, pad, "width")
    _require(
        dy.shape == (x.shape[0], k, ho, wo),
        f"{kind}: dy shape {dy.shape} does not match expected "
        f"{(x.shape[0], k, ho, wo)}",
    )
    return ho, wo


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward with respect to input, filters, and bias.

    The composition of the three split kernels below.
    """
    x, w, dy = _f32(x), _f32(w), _f32(dy)
    _conv_backward_dims("conv2d_backward", x, w, dy, stride, pad)
    return (
        conv2d_backward_data(x, w, dy, stride=stride, pad=pad),
        conv2d_backward_weight(x, w, dy, stride=stride, pad=pad),
        conv2d_backward_bias(dy),
    )


def conv2d_backward_data(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Input gradient: col2im of dy.w (``x`` supplies only its shape)."""
    x, w, dy = _f32(x), _f32(w), _f32(dy)
    ho, wo = _conv_backward_dims("conv2d_backward_data", x, w, dy, stride, pad)
    n, c, h, wd = x.shape
    r, s = w.shape[2], w.shape[3]
    dcols = np.einsum("nkhw,kcij->ncijhw", dy, w, dtype=np.float32)
    dxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float32)
    for i in range(r):
        for j in range(s):
            dxp[
                :, :, i : i + stride * ho : stride, j : j + stride * wo : stride
            ] += dcols[:, :, i, j]
    dx = _f32(dxp[:, :, pad : pad + h, pad : pad + wd])
    _finite("conv2d_backward_data", dx)
    return dx


def conv2d_backward_weight(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Filter gradient: im2col(x) contracted with dy."""
    x, w, dy = _f32(x), _f32(w), _f32(dy)
    ho, wo = _conv_backward_dims("conv2d_backward_weight", x, w, dy, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, w.shape[2], w.shape[3], stride, ho, wo)
    dw = _f32(np.einsum("ncijhw,nkhw->kcij", cols, dy, dtype=np.float32))
    _finite("conv2d_backward_weight", dw)
    return dw


def conv2d_backward_bias(dy: np.ndarray) -> np.ndarray:
    """Bias gradient only: dy summed over batch and spatial axes."""
    dy = _f32(dy)
    _require(dy.ndim == 4, f"conv2d_backward_bias: dy must be 4-d, got {dy.shape}")
    db = _f32(dy.sum(axis=(0, 2, 3)))
    _finite("conv2d_backward_bias", db)
    return db


# ---------------------------------------------------------------------------
# Activation, loss, update, aggregation


def relu_forward(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    x = _f32(x)
    y = np.maximum(x, np.float32(0))
    _finite("relu_forward", y)
    return y


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dy gated by x > 0; the subgradient at exactly 0 is 0."""
    x, dy = _f32(x), _f32(dy)
    _require(
        x.shape == dy.shape,
        f"relu_backward: shape mismatch x{x.shape} dy{dy.shape}",
    )
    dx = np.where(x > 0, dy, np.float32(0))
    _finite("relu_backward", dx)
    return dx


def flatten_forward(x: np.ndarray) -> np.ndarray:
    x = _f32(x)
    _require(x.ndim >= 2, f"flatten_forward: need >= 2 dims, got {x.shape}")
    return x.reshape(x.shape[0], -1)


def flatten_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    x, dy = _f32(x), _f32(dy)
    _require(
        dy.size == x.size and dy.shape[0] == x.shape[0],
        f"flatten_backward: dy{dy.shape} does not match x{x.shape}",
    )
    return dy.reshape(x.shape)


def softmax_xent(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-stabilized softmax cross-entropy.

    Returns a length-1 loss tensor holding the mean negative log-likelihood
    and the logits gradient ``(softmax - onehot) / N``.  Labels are a float
    tensor of integral class indices in ``[0, K)``.
    """
    logits, labels = _f32(logits), _f32(labels)
    _require(logits.ndim == 2, f"softmax_xent: logits must be 2-d, got {logits.shape}")
    n, k = logits.shape
    _require(
        labels.shape == (n,),
        f"softmax_xent: labels must have shape ({n},), got {labels.shape}",
    )
    idx = labels.astype(np.int64)
    _require(
        bool((idx == labels).all() and (idx >= 0).all() and (idx < k).all()),
        f"softmax_xent: labels must be integral and in [0, {k})",
    )
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1, keepdims=True)
    p = e / denom
    log_p = z[np.arange(n), idx] - np.log(denom[:, 0])
    loss = np.array([-log_p.mean()], dtype=np.float32)
    onehot = np.zeros_like(p)
    onehot[np.arange(n), idx] = np.float32(1)
    dlogits = (p - onehot) / np.float32(n)
    _finite("softmax_xent", loss, dlogits)
    return loss, _f32(dlogits)


def sgd_update(w: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """w - lr * grad, written to a fresh buffer (never in place)."""
    w, grad = _f32(w), _f32(grad)
    _require(
        w.shape == grad.shape,
        f"sgd_update: shape mismatch w{w.shape} grad{grad.shape}",
    )
    out = w - np.float32(lr) * grad
    _finite("sgd_update", out)
    return out


def aggregate(parts: list[np.ndarray], mode: str = "mean") -> np.ndarray:
    """Sum equal-shaped tensors in the given (peer-rank) order; mean divides by k."""
    _require(len(parts) >= 1, "aggregate: need at least one input")
    _require(mode in ("sum", "mean"), f"aggregate: unknown mode {mode!r}")
    arrays = [_f32(p) for p in parts]
    shape = arrays[0].shape
    for i, a in enumerate(arrays[1:], start=1):
        _require(
            a.shape == shape,
            f"aggregate: input {i} shape {a.shape} differs from {shape}",
        )
    acc = arrays[0].copy()
    for a in arrays[1:]:
        acc += a
    if mode == "mean":
        acc /= np.float32(len(arrays))
    _finite("aggregate", acc)
    return acc


# ---------------------------------------------------------------------------
# Raw tensor file format: u32 rank, u32 per dim, then little-endian float32


def write_tensor_file(path: str, array: np.ndarray) -> None:
    arr = _f32(array)
    check_shape(tuple(arr.shape))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def read_tensor_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise KernelError(f"tensor file {path!r}: truncated header")
    (rank,) = struct.unpack_from("<I", raw, 0)
    if not (1 <= rank <= MAX_RANK) or len(raw) < 4 + 4 * rank:
        raise KernelError(f"tensor file {path!r}: bad rank {rank}")
    dims = struct.unpack_from(f"<{rank}I", raw, 4)
    count = 1
    for d in dims:
        if d < 1:
            raise KernelError(f"tensor file {path!r}: bad dim {d}")
        count *= d
    body = raw[4 + 4 * rank :]
    if len(body) != 4 * count:
        raise KernelError(
            f"tensor file {path!r}: payload is {len(body)} bytes, expected {4 * count}"
        )
    return np.frombuffer(body, dtype="<f4").reshape(dims).astype(np.float32)


# ---------------------------------------------------------------------------
# Operator-kind registry


@dataclass(frozen=True)
class OpKindSpec:
    """Static description of an operator kind.

    ``check_shapes(in_shapes, out_shapes, attrs)`` raises on any arity or
    shape-relation violation; ``execute(ctx, op)`` performs the operation
    against a run context exposing ``store``, ``graph``, ``iteration``,
    ``transport`` and ``copy_latency_s``.
    """

    kind: str
    check_shapes: Callable[[list, list, dict], None]
    execute: Callable[[object, object], None]
    crosses_location: bool = False


def _in_names(ctx, op) -> list[str]:
    return [ctx.graph.tensors[i].name for i in op.inputs]


def _out_names(ctx, op) -> list[str]:
    return [ctx.graph.tensors[i].name for i in op.outputs]


def _plain(fn: Callable[[list[np.ndarray], dict], list[np.ndarray]]):
    def execute(ctx, op) -> None:
        ins = [ctx.store.array(n) for n in _in_names(ctx, op)]
        outs = fn(ins, op.attrs)
        for name, arr in zip(_out_names(ctx, op), outs):
            ctx.store.set(name, arr)

    return execute


def _execute_copy(ctx, op) -> None:
    src = ctx.graph.tensors[op.inputs[0]]
    dst = ctx.graph.tensors[op.outputs[0]]
    if ctx.copy_latency_s > 0 and src.location != dst.location:
        time.sleep(ctx.copy_latency_s)
    ctx.store.set(dst.name, ctx.store.array(src.name).copy())


def _execute_swap(ctx, op) -> None:
    a, b = _out_names(ctx, op)
    ctx.store.swap(a, b)


def _execute_send(ctx, op) -> None:
    if ctx.transport is None:
        raise KernelError(f"send {op.name!r}: no transport attached to this run")
    ctx.transport.send(
        int(op.attrs["channel"]), ctx.iteration, ctx.store.array(_in_names(ctx, op)[0])
    )


def _execute_recv(ctx, op) -> None:
    if ctx.transport is None:
        raise KernelError(f"recv {op.name!r}: no transport attached to this run")
    arr = ctx.transport.recv(int(op.attrs["channel"]), ctx.iteration)
    ctx.store.set(_out_names(ctx, op)[0], arr)


def _expect_arity(kind: str, ins: list, outs: list, n_in: int, n_out: int) -> None:
    _require(
        len(ins) == n_in and len(outs) == n_out,
        f"{kind}: expected {n_in} inputs / {n_out} outputs, "
        f"got {len(ins)} / {len(outs)}",
    )


def _eq(kind: str, got, want, what: str) -> None:
    _require(got == want, f"{kind}: {what} is {got}, expected {want}")


def _fc_out_shape(x, w, b):
    _require(
        len(x) == 2 and len(w) == 2 and len(b) == 1,
        f"fc: bad ranks x{x} w{w} b{b}",
    )
    _require(
        x[1] == w[0] and w[1] == b[0],
        f"fc: shapes do not conform: x{x} w{w} b{b}",
    )
    return (x[0], w[1])


def _conv_out_shape(x, w, attrs):
    _require(len(x) == 4 and len(w) == 4, f"conv2d: bad ranks x{x} w{w}")
    _require(w[1] == x[1], f"conv2d: channel mismatch x{x} w{w}")
    stride, pad = _conv_attrs(attrs)
    ho = _conv_out_dim(x[2], w[2], stride, pad, "height")
    wo = _conv_out_dim(x[3], w[3], stride, pad, "width")
    return (x[0], w[0], ho, wo)


def _check_fc_forward(ins, outs, attrs):
    _expect_arity("fc_forward", ins, outs, 3, 1)
    _eq("fc_forward", outs[0], _fc_out_shape(*ins), "output shape")


def _check_fc_backward(ins, outs, attrs):
    _expect_arity("fc_backward", ins, outs, 3, 3)
    x, w, dy = ins
    _eq("fc_backward", dy, _fc_out_shape(x, w, (w[1],)), "dy shape")
    _eq("fc_backward", outs[0], x, "dx shape")
    _eq("fc_backward", outs[1], w, "dw shape")
    _eq("fc_backward", outs[2], (w[1],), "db shape")


def _check_fc_backward_data(ins, outs, attrs):
    _expect_arity("fc_backward_data", ins, outs, 2, 1)
    w, dy = ins
    _require(len(w) == 2 and len(dy) == 2 and dy[1] == w[1], "fc_backward_data: shapes do not conform")
    _eq("fc_backward_data", outs[0], (dy[0], w[0]), "dx shape")


def _check_fc_backward_weight(ins, outs, attrs):
    _expect_arity("fc_backward_weight", ins, outs, 2, 1)
    x, dy = ins
    _require(len(x) == 2 and len(dy) == 2 and x[0] == dy[0], "fc_backward_weight: shapes do not conform")
    _eq("fc_backward_weight", outs[0], (x[1], dy[1]), "dw shape")


def _check_fc_backward_bias(ins, outs, attrs):
    _expect_arity("fc_backward_bias", ins, outs, 1, 1)
    _require(len(ins[0]) == 2, "fc_backward_bias: dy must be 2-d")
    _eq("fc_backward_bias", outs[0], (ins[0][1],), "db shape")


def _check_conv_forward(ins, outs, attrs):
    _expect_arity("conv2d_forward", ins, outs, 3, 1)
    x, w, b = ins
    _require(len(b) == 1 and b[0] == w[0], f"conv2d_forward: bad bias shape {b}")
    _eq("conv2d_forward", outs[0], _conv_out_shape(x, w, attrs), "output shape")


def _check_conv_backward(ins, outs, attrs):
    _expect_arity("conv2d_backward", ins, outs, 3, 3)
    x, w, dy = ins
    _eq("conv2d_backward", dy, _conv_out_shape(x, w, attrs), "dy shape")
    _eq("conv2d_backward", outs[0], x, "dx shape")
    _eq("conv2d_backward", outs[1], w, "dw shape")
    _eq("conv2d_backward", outs[2], (w[0],), "db shape")


def _check_conv_backward_data(ins, outs, attrs):
    _expect_arity("conv2d_backward_data", ins, outs, 3, 1)
    x, w, dy = ins
    _eq("conv2d_backward_data", dy, _conv_out_shape(x, w, attrs), "dy shape")
    _eq("conv2d_backward_data", outs[0], x, "dx shape")


def _check_conv_backward_weight(ins, outs, attrs):
    _expect_arity("conv2d_backward_weight", ins, outs, 3, 1)
    x, w, dy = ins
    _eq("conv2d_backward_weight", dy, _conv_out_shape(x, w, attrs), "dy shape")
    _eq("conv2d_backward_weight", outs[0], w, "dw shape")


def _check_conv_backward_bias(ins, outs, attrs):
    _expect_arity("conv2d_backward_bias", ins, outs, 1, 1)
    _require(len(ins[0]) == 4, "conv2d_backward_bias: dy must be 4-d")
    _eq("conv2d_backward_bias", outs[0], (ins[0][1],), "db shape")


def _check_relu_forward(ins, outs, attrs):
    _expect_arity("relu_forward", ins, outs, 1, 1)
    _eq("relu_forward", outs[0], ins[0], "output shape")


def _check_relu_backward(ins, outs, attrs):
    _expect_arity("relu_backward", ins, outs, 2, 1)
    _eq("relu_backward", ins[1], ins[0], "dy shape")
    _eq("relu_backward", outs[0], ins[0], "dx shape")


def _check_flatten_forward(ins, outs, attrs):
    _expect_arity("flatten_forward", ins, outs, 1, 1)
    x = ins[0]
    _require(len(x) >= 2, "flatten_forward: input must have >= 2 dims")
    flat = 1
    for d in x[1:]:
        flat *= d
    _eq("flatten_forward", outs[0], (x[0], flat), "output shape")


def _check_flatten_backward(ins, outs, attrs):
    _expect_arity("flatten_backward", ins, outs, 2, 1)
    x, dy = ins
    flat = 1
    for d in x[1:]:
        flat *= d
    _eq("flatten_backward", dy, (x[0], flat), "dy shape")
    _eq("flatten_backward", outs[0], x, "dx shape")


def _check_softmax_xent(ins, outs, attrs):
    _expect_arity("softmax_xent", ins, outs, 2, 2)
    logits, labels = ins
    _require(len(logits) == 2, "softmax_xent: logits must be 2-d")
    _eq("softmax_xent", labels, (logits[0],), "labels shape")
    _eq("softmax_xent", outs[0], (1,), "loss shape")
    _eq("softmax_xent", outs[1], logits, "dlogits shape")


def _check_sgd_update(ins, outs, attrs):
    _expect_arity("sgd_update", ins, outs, 2, 1)
    _eq("sgd_update", ins[1], ins[0], "grad shape")
    _eq("sgd_update", outs[0], ins[0], "output shape")
    _require("lr" in attrs, "sgd_update: missing required attr 'lr'")


def _check_aggregate(ins, outs, attrs):
    _require(len(ins) >= 1, "aggregate: need at least one input")
    _require(len(outs) == 1, "aggregate: exactly one output")
    mode = attrs.get("mode", "mean")
    _require(mode in ("sum", "mean"), f"aggregate: unknown mode {mode!r}")
    for i, s in enumerate(ins):
        _eq("aggregate", s, ins[0], f"input {i} shape")
    _eq("aggregate", outs[0], ins[0], "output shape")


def _check_swap(ins, outs, attrs):
    _require(len(ins) == 0, "swap: takes no inputs")
    _require(len(outs) == 2, "swap: exactly two outputs")
    _eq("swap", outs[1], outs[0], "second buffer shape")


def _check_copy(ins, outs, attrs):
    _expect_arity("copy", ins, outs, 1, 1)
    _eq("copy", outs[0], ins[0], "output shape")


def _check_send(ins, outs, attrs):
    _require(len(ins) == 1 and len(outs) == 0, "send: one input, no outputs")
    _require("channel" in attrs, "send: missing required attr 'channel'")


def _check_recv(ins, outs, attrs):
    _require(len(ins) == 0 and len(outs) == 1, "recv: no inputs, one output")
    _require("channel" in attrs, "recv: missing required attr 'channel'")


def _check_gate(ins, outs, attrs):
    _require(len(ins) == 2 and len(outs) == 1, "gate: two inputs, one output")
    _eq("gate", outs[0], ins[0], "output shape")


KINDS: dict[str, OpKindSpec] = {}


def _register(kind: str, check, execute, crosses_location: bool = False) -> None:
    KINDS[kind] = OpKindSpec(kind, check, execute, crosses_location)


_register("fc_forward", _check_fc_forward,
          _plain(lambda ins, a: [fc_forward(*ins)]))
_register("fc_backward", _check_fc_backward,
          _plain(lambda ins, a: list(fc_backward(*ins))))
_register("fc_backward_data", _check_fc_backward_data,
          _plain(lambda ins, a: [fc_backward_data(*ins)]))
_register("fc_backward_weight", _check_fc_backward_weight,
          _plain(lambda ins, a: [fc_backward_weight(*ins)]))
_register("fc_backward_bias", _check_fc_backward_bias,
          _plain(lambda ins, a: [fc_backward_bias(*ins)]))
_register("conv2d_forward", _check_conv_forward,
          _plain(lambda ins, a: [conv2d_forward(*ins, *_conv_attrs(a))]))
_register("conv2d_backward", _check_conv_backward,
          _plain(lambda ins, a: list(conv2d_backward(*ins, *_conv_attrs(a)))))
_register("conv2d_backward_data", _check_conv_backward_data,
          _plain(lambda ins, a: [conv2d_backward_data(*ins, *_conv_attrs(a))]))
_register("conv2d_backward_weight", _check_conv_backward_weight,
          _plain(lambda ins, a: [conv2d_backward_weight(*ins, *_conv_attrs(a))]))
_register("conv2d_backward_bias", _check_conv_backward_bias,
          _plain(lambda ins, a: [conv2d_backward_bias(ins[0])]))
_register("relu_forward", _check_relu_forward,
          _plain(lambda ins, a: [relu_forward(*ins)]))
_register("relu_backward", _check_relu_backward,
          _plain(lambda ins, a: [relu_backward(*ins)]))
_register("flatten_forward", _check_flatten_forward,
          _plain(lambda ins, a: [flatten_forward(*ins)]))
_register("flatten_backward", _check_flatten_backward,
          _plain(lambda ins, a: [flatten_backward(*ins)]))
_register("softmax_xent", _check_softmax_xent,
          _plain(lambda ins, a: list(softmax_xent(*ins))))
_register("sgd_update", _check_sgd_update,
          _plain(lambda ins, a: [sgd_update(ins[0], ins[1], float(a["lr"]))]))
_register("aggregate", _check_aggregate,
          _plain(lambda ins, a: [aggregate(ins, a.get("mode", "mean"))]))
_register("swap", _check_swap, _execute_swap)
_register("copy", _check_copy, _execute_copy, crosses_location=True)
_register("send", _check_send, _execute_send)
_register("recv", _check_recv, _execute_recv)
_register("gate", _check_gate,
          _plain(lambda ins, a: [ins[0].copy()]))


def default_registry() -> dict[str, OpKindSpec]:
    """A fresh copy of the built-in kind table, safe to extend."""
    return dict(KINDS)
