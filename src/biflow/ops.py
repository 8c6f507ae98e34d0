"""Numeric operator kinds, their kernels, and the per-run tensor store.

Every buffer is a row-major, C-contiguous float32 ndarray.  Kernels are pure
functions of their inputs (plus scalar attributes) with fixed loop/reduction
orders, so a rerun over identical inputs is bit-identical.

Each operator kind has one shape rule, ``(input shapes, attrs) -> output
shapes``, which raises :class:`KernelError` naming the kind and the shapes
when the inputs do not conform.  Three callers read it, and nothing else
decides a shape relation: the kind's ``check_shapes`` (arity, then the
declared outputs must equal the rule's), which ``BiGraph.add_operator``
runs; the kind's kernel, on the shapes of its arrays; and
``builders.plan_steps``, through :func:`output_shapes`.  Only ``swap`` and
``recv`` cannot infer their outputs from their inputs, so their checks are
written by hand.  A rule also checks the attributes it reads (conv stride
and pad, the aggregate mode, ``lr``, ``channel``); kernels then check what
no shape fixes, label range and finite outputs, raising :class:`KernelError`.

The registry (`KINDS`) maps an operator-kind name to an :class:`OpKindSpec`
carrying that shape check and an ``execute`` hook used by the dispatcher.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import prod
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
    "fc_backward",
    "fc_forward",
    "output_shapes",
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


def _finite(kind: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise KernelError(f"{kind}: non-finite value in output")


def check_shape(shape: tuple[int, ...]) -> None:
    """Raise unless ``shape`` has 1..4 dimensions, each positive."""
    if not (1 <= len(shape) <= MAX_RANK) or any(
        not isinstance(d, int) or d < 1 for d in shape
    ):
        raise KernelError(
            f"invalid tensor shape {shape!r}: need 1..{MAX_RANK} dims, each >= 1"
        )


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
    _check_swap((), (a.shape, b.shape), {})
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

    def __contains__(self, name: str) -> bool:
        return name in self._tensors


# ---------------------------------------------------------------------------
# Dense (fully connected) kernels


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y[n,m] = sum_d x[n,d] * w[d,m] + b[m]."""
    x, w, b = _f32(x), _f32(w), _f32(b)
    _fc_forward_shapes((x.shape, w.shape, b.shape), {})
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
    _fc_backward_shapes((x.shape, w.shape, dy.shape), {})
    return (
        fc_backward_data(w, dy),
        fc_backward_weight(x, dy),
        fc_backward_bias(dy),
    )


def fc_backward_data(w: np.ndarray, dy: np.ndarray) -> np.ndarray:
    w, dy = _f32(w), _f32(dy)
    _fc_backward_data_shapes((w.shape, dy.shape), {})
    dx = dy @ w.T
    _finite("fc_backward_data", dx)
    return dx


def fc_backward_weight(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    x, dy = _f32(x), _f32(dy)
    _fc_backward_weight_shapes((x.shape, dy.shape), {})
    dw = x.T @ dy
    _finite("fc_backward_weight", dw)
    return dw


def fc_backward_bias(dy: np.ndarray) -> np.ndarray:
    dy = _f32(dy)
    _fc_backward_bias_shapes((dy.shape,), {})
    db = dy.sum(axis=0)
    _finite("fc_backward_bias", db)
    return db


# ---------------------------------------------------------------------------
# Convolution kernels (direct cross-correlation, NCHW / KCRS)


def _conv_attrs(attrs: dict) -> tuple[int, int]:
    stride = int(attrs.get("stride", 1))
    pad = int(attrs.get("pad", 0))
    if stride < 1:
        raise KernelError(f"conv2d: stride must be >= 1, got {stride}")
    if pad < 0:
        raise KernelError(f"conv2d: pad must be >= 0, got {pad}")
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


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Cross-correlation of NCHW input with KCRS filters plus per-filter bias."""
    x, w, b = _f32(x), _f32(w), _f32(b)
    ((_, _, ho, wo),) = _conv2d_forward_shapes(
        (x.shape, w.shape, b.shape), {"stride": stride, "pad": pad}
    )
    k, c, r, s = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, r, s, stride, ho, wo)
    y = np.einsum("ncijhw,kcij->nkhw", cols, w, dtype=np.float32) + b[
        None, :, None, None
    ]
    y = _f32(y)
    _finite("conv2d_forward", y)
    return y


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward with respect to input, filters, and bias.

    The composition of the three split kernels below.
    """
    x, w, dy = _f32(x), _f32(w), _f32(dy)
    _conv2d_backward_shapes(
        (x.shape, w.shape, dy.shape), {"stride": stride, "pad": pad}
    )
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
    _conv2d_backward_data_shapes(
        (x.shape, w.shape, dy.shape), {"stride": stride, "pad": pad}
    )
    n, c, h, wd = x.shape
    r, s = w.shape[2], w.shape[3]
    ho, wo = dy.shape[2], dy.shape[3]
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
    _conv2d_backward_weight_shapes(
        (x.shape, w.shape, dy.shape), {"stride": stride, "pad": pad}
    )
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, w.shape[2], w.shape[3], stride, dy.shape[2], dy.shape[3])
    dw = _f32(np.einsum("ncijhw,nkhw->kcij", cols, dy, dtype=np.float32))
    _finite("conv2d_backward_weight", dw)
    return dw


def conv2d_backward_bias(dy: np.ndarray) -> np.ndarray:
    """Bias gradient only: dy summed over batch and spatial axes."""
    dy = _f32(dy)
    _conv2d_backward_bias_shapes((dy.shape,), {})
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
    _relu_backward_shapes((x.shape, dy.shape), {})
    dx = np.where(x > 0, dy, np.float32(0))
    _finite("relu_backward", dx)
    return dx


def flatten_forward(x: np.ndarray) -> np.ndarray:
    x = _f32(x)
    ((n, flat),) = _flatten_forward_shapes((x.shape,), {})
    return x.reshape(n, flat)


def flatten_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    x, dy = _f32(x), _f32(dy)
    _flatten_backward_shapes((x.shape, dy.shape), {})
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
    _softmax_xent_shapes((logits.shape, labels.shape), {})
    n, k = logits.shape
    idx = labels.astype(np.int64)
    if not ((idx == labels).all() and (idx >= 0).all() and (idx < k).all()):
        raise KernelError(f"softmax_xent: labels must be integral and in [0, {k})")
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
    _sgd_update_shapes((w.shape, grad.shape), {"lr": lr})
    out = w - np.float32(lr) * grad
    _finite("sgd_update", out)
    return out


def aggregate(parts: list[np.ndarray], mode: str = "mean") -> np.ndarray:
    """Sum equal-shaped tensors in the given (peer-rank) order; mean divides by k."""
    arrays = [_f32(p) for p in parts]
    _aggregate_shapes([a.shape for a in arrays], {"mode": mode})
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
    against a run context exposing ``store``, ``graph``, ``iteration`` and
    ``transport``.
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


# ---------------------------------------------------------------------------
# Shape rules: one per kind, (input shapes, attrs) -> output shapes


def _nonconforming(kind: str, ins, detail: str = "") -> KernelError:
    return KernelError(f"{kind}: input shapes {list(ins)} do not conform{detail}")


def _equal_shapes(kind: str, ins) -> list:
    if not ins or ins.count(ins[0]) != len(ins):
        raise _nonconforming(kind, ins)
    return [ins[0]]


def _first_shape(ins, attrs) -> list:
    return [ins[0]]


def _fc_forward_shapes(ins, attrs):
    x, w, b = ins
    if len(x) == len(w) == 2 and x[1] == w[0] and b == (w[1],):
        return [(x[0], w[1])]
    raise _nonconforming("fc_forward", ins)


def _fc_backward_shapes(ins, attrs):
    x, w, dy = ins
    if len(x) == len(w) == 2 and x[1] == w[0] and dy == (x[0], w[1]):
        return [x, w, (w[1],)]
    raise _nonconforming("fc_backward", ins)


def _fc_backward_data_shapes(ins, attrs):
    w, dy = ins
    if len(w) == len(dy) == 2 and dy[1] == w[1]:
        return [(dy[0], w[0])]
    raise _nonconforming("fc_backward_data", ins)


def _fc_backward_weight_shapes(ins, attrs):
    x, dy = ins
    if len(x) == len(dy) == 2 and x[0] == dy[0]:
        return [(x[1], dy[1])]
    raise _nonconforming("fc_backward_weight", ins)


def _fc_backward_bias_shapes(ins, attrs):
    (dy,) = ins
    if len(dy) == 2:
        return [(dy[1],)]
    raise _nonconforming("fc_backward_bias", ins)


def _conv_y_shape(kind: str, ins, attrs) -> tuple[int, ...]:
    """Output shape of the cross-correlation of x = ins[0] (NCHW) with
    w = ins[1] (KCRS); the padded input must tile exactly by the stride."""
    x, w = ins[0], ins[1]
    stride, pad = _conv_attrs(attrs)
    if len(x) == len(w) == 4 and w[1] == x[1]:
        dh, dw = x[2] + 2 * pad - w[2], x[3] + 2 * pad - w[3]
        if dh >= 0 and dw >= 0 and dh % stride == 0 and dw % stride == 0:
            return (x[0], w[0], dh // stride + 1, dw // stride + 1)
    raise _nonconforming(kind, ins, f" at stride={stride} pad={pad}")


def _conv2d_forward_shapes(ins, attrs):
    y = _conv_y_shape("conv2d_forward", ins, attrs)
    if ins[2] != (y[1],):
        raise _nonconforming("conv2d_forward", ins)
    return [y]


def _conv_grad_shapes(kind: str, ins, attrs) -> list:
    """[dx, dw, db] shapes for inputs (x, w, dy), once dy is checked."""
    x, w, dy = ins
    if dy != _conv_y_shape(kind, ins, attrs):
        raise _nonconforming(kind, ins)
    return [x, w, (w[0],)]


def _conv2d_backward_shapes(ins, attrs):
    return _conv_grad_shapes("conv2d_backward", ins, attrs)


def _conv2d_backward_data_shapes(ins, attrs):
    return _conv_grad_shapes("conv2d_backward_data", ins, attrs)[:1]


def _conv2d_backward_weight_shapes(ins, attrs):
    return _conv_grad_shapes("conv2d_backward_weight", ins, attrs)[1:2]


def _conv2d_backward_bias_shapes(ins, attrs):
    (dy,) = ins
    if len(dy) == 4:
        return [(dy[1],)]
    raise _nonconforming("conv2d_backward_bias", ins)


def _relu_backward_shapes(ins, attrs):
    return _equal_shapes("relu_backward", ins)


def _flatten_forward_shapes(ins, attrs):
    (x,) = ins
    if len(x) >= 2:
        return [(x[0], prod(x[1:]))]
    raise _nonconforming("flatten_forward", ins)


def _flatten_backward_shapes(ins, attrs):
    x, dy = ins
    if len(x) >= 2 and dy == (x[0], prod(x[1:])):
        return [x]
    raise _nonconforming("flatten_backward", ins)


def _softmax_xent_shapes(ins, attrs):
    logits, labels = ins
    if len(logits) == 2 and labels == (logits[0],):
        return [(1,), logits]
    raise _nonconforming("softmax_xent", ins)


def _sgd_update_shapes(ins, attrs):
    if "lr" not in attrs:
        raise KernelError("sgd_update: missing required attr 'lr'")
    return _equal_shapes("sgd_update", ins)


def _aggregate_shapes(ins, attrs):
    mode = attrs.get("mode", "mean")
    if mode not in ("sum", "mean"):
        raise KernelError(f"aggregate: unknown mode {mode!r}")
    return _equal_shapes("aggregate", ins)


def _send_shapes(ins, attrs):
    if "channel" not in attrs:
        raise KernelError("send: missing required attr 'channel'")
    return []


def _check_swap(ins, outs, attrs) -> None:
    if ins or len(outs) != 2 or outs[0] != outs[1]:
        raise KernelError(
            f"swap: needs no inputs and two equal-shaped outputs, "
            f"got {list(ins)} -> {list(outs)}"
        )


def _check_recv(ins, outs, attrs) -> None:
    if ins or len(outs) != 1:
        raise KernelError(
            f"recv: needs no inputs and one output, got {list(ins)} -> {list(outs)}"
        )
    if "channel" not in attrs:
        raise KernelError("recv: missing required attr 'channel'")


def _check_by_rule(kind: str, n_in: int | None, rule):
    """``check_shapes`` from a shape rule: ``n_in`` inputs (any number when
    None), then the declared output shapes must equal the rule's."""

    def check_shapes(ins, outs, attrs) -> None:
        if n_in is not None and len(ins) != n_in:
            raise KernelError(f"{kind}: expected {n_in} inputs, got {len(ins)}")
        want = rule(ins, attrs)
        if list(outs) != want:
            raise KernelError(f"{kind}: output shapes {list(outs)}, expected {want}")

    return check_shapes


KINDS: dict[str, OpKindSpec] = {}
_RULES: dict[str, Callable[[list, dict], list]] = {}


def _register(kind, n_in, rule, execute, crosses_location: bool = False) -> None:
    _RULES[kind] = rule
    KINDS[kind] = OpKindSpec(
        kind, _check_by_rule(kind, n_in, rule), execute, crosses_location
    )


def output_shapes(kind: str, in_shapes, attrs: dict) -> list[tuple[int, ...]]:
    """The output shapes the shape rule of ``kind`` gives for ``in_shapes``
    (``in_shapes`` must have the kind's arity)."""
    return _RULES[kind](list(in_shapes), attrs)


_register("fc_forward", 3, _fc_forward_shapes,
          _plain(lambda ins, a: [fc_forward(*ins)]))
_register("fc_backward", 3, _fc_backward_shapes,
          _plain(lambda ins, a: list(fc_backward(*ins))))
_register("fc_backward_data", 2, _fc_backward_data_shapes,
          _plain(lambda ins, a: [fc_backward_data(*ins)]))
_register("fc_backward_weight", 2, _fc_backward_weight_shapes,
          _plain(lambda ins, a: [fc_backward_weight(*ins)]))
_register("fc_backward_bias", 1, _fc_backward_bias_shapes,
          _plain(lambda ins, a: [fc_backward_bias(*ins)]))
_register("conv2d_forward", 3, _conv2d_forward_shapes,
          _plain(lambda ins, a: [conv2d_forward(*ins, *_conv_attrs(a))]))
_register("conv2d_backward", 3, _conv2d_backward_shapes,
          _plain(lambda ins, a: list(conv2d_backward(*ins, *_conv_attrs(a)))))
_register("conv2d_backward_data", 3, _conv2d_backward_data_shapes,
          _plain(lambda ins, a: [conv2d_backward_data(*ins, *_conv_attrs(a))]))
_register("conv2d_backward_weight", 3, _conv2d_backward_weight_shapes,
          _plain(lambda ins, a: [conv2d_backward_weight(*ins, *_conv_attrs(a))]))
_register("conv2d_backward_bias", 1, _conv2d_backward_bias_shapes,
          _plain(lambda ins, a: [conv2d_backward_bias(ins[0])]))
_register("relu_forward", 1, _first_shape,
          _plain(lambda ins, a: [relu_forward(*ins)]))
_register("relu_backward", 2, _relu_backward_shapes,
          _plain(lambda ins, a: [relu_backward(*ins)]))
_register("flatten_forward", 1, _flatten_forward_shapes,
          _plain(lambda ins, a: [flatten_forward(*ins)]))
_register("flatten_backward", 2, _flatten_backward_shapes,
          _plain(lambda ins, a: [flatten_backward(*ins)]))
_register("softmax_xent", 2, _softmax_xent_shapes,
          _plain(lambda ins, a: list(softmax_xent(*ins))))
_register("sgd_update", 2, _sgd_update_shapes,
          _plain(lambda ins, a: [sgd_update(ins[0], ins[1], float(a["lr"]))]))
_register("aggregate", None, _aggregate_shapes,
          _plain(lambda ins, a: [aggregate(ins, a.get("mode", "mean"))]))
KINDS["swap"] = OpKindSpec("swap", _check_swap, _execute_swap)
_register("copy", 1, _first_shape, _execute_copy, crosses_location=True)
_register("send", 1, _send_shapes, _execute_send)
KINDS["recv"] = OpKindSpec("recv", _check_recv, _execute_recv)
_register("gate", 2, _first_shape,
          _plain(lambda ins, a: [ins[0].copy()]))
