"""Numeric operator kinds, their kernels, and the per-run tensor store.

Every buffer is a row-major, C-contiguous float32 ndarray.  Kernels are pure
functions of their inputs (plus scalar attributes) with fixed loop/reduction
orders, so a rerun over identical inputs is bit-identical.

Each operator kind has one shape rule, ``(input shapes, attrs) -> output
shapes``, which raises :class:`KernelError` naming the kind and the shapes
when the inputs do not conform.  Three callers read it, and nothing else
decides a shape relation: the kind's ``check_shapes`` (arity, then the
declared outputs must equal the rule's), which ``BiGraph.add_operator``
runs; the kind's kernel, on the shapes of its arrays, and its ``bind``, on
the shapes of its input tensors; and ``builders.plan_steps``, through
:func:`output_shapes`.  Only ``swap`` and ``recv`` cannot infer their
outputs from their inputs, so their checks are written by hand.  A rule
also checks the attributes it reads (conv stride and pad, the aggregate
mode, ``lr``, ``channel``); kernels then check what no shape fixes, label
range and finite outputs, raising :class:`KernelError`.

A kind whose outputs are the results of a *core*, which computes and
checks finite outputs on arrays already known to conform, is declared
once, by its ``_register`` line: rule, core, attr parser and the names of
the attrs it reads.  Its bound step (below) and its public kernel, such as
``conv2d_forward(x, w, b, stride=2, pad=1)``, both come from that entry:
the kernel takes arrays, made C-contiguous float32, and attrs as keywords,
runs the rule and parser as a bound step does, and returns the core's
outputs, so it means exactly what one operator of its kind means.

Convolution is lowered to GEMM, as in Caffe, with one patch gather for
all three kernels.  The gather lays each (image, channel) plane into a
zeroed flat buffer with its padding, so at stride 1 each filter tap is one
contiguous run of Ho·Wp floats, read over an extended Ho×Wp output grid
(Wp the padded width); at stride > 1 a tap is Ho strided rows of Wo floats.
The patch matrix is [C·R·S, Ho·width] per image, and each kernel is one
stacked float32 ``np.matmul`` against it, which numpy runs as one sgemm per
image.  The forward crops the Wp-Wo junk columns from its output, and the
weight gradient meets them with zero columns of dy.  Backward data is the
transposed convolution, computed as a direct one: the same forward lowering
at stride 1 over dy, dilated by the stride and padded by R-1-pad (cropped
where negative), against the flipped filters transposed to [C, K·R·S], so
no kernel scatters.  OpenBLAS runs an sgemm on the calling thread while
M·N·K is at most 65536 times its multithread threshold (4 by default), and
a per-image GEMM at the shapes trained here stays below that (at most
8·(16·18)·72 = 165888 multiply-adds for an 8-filter 3×3 layer over 8
channels at 16×16, pad 1).  One GEMM over the whole batch would cross it,
and OpenBLAS's helper threads then spin against the dispatcher's lanes.
Since no kernel needs a helper thread, biflow loads numpy with a one-thread
OpenBLAS pool (``OPENBLAS_NUM_THREADS=1`` while numpy loads, and while
``run_distributed`` starts its host processes), which saves each host the
CPU its idle helpers spin for after the import.  Two cases keep OpenBLAS's
default: a numpy loaded before biflow, and a thread count the user set in
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``.

The registry (`KINDS`) maps an operator-kind name to an :class:`OpKindSpec`
carrying that shape check and a ``bind`` hook.  The dispatcher binds each
operator once per run call, on its first run: the hook takes the operator's
input and output :class:`Tensor` objects from the store, evaluates the rule
and parses the attrs, and returns a zero-argument step.  Each run of the
operator then calls the step, which reads the tensors' ``data`` (already
C-contiguous float32), checks that each input still has the shape the
rule accepted, calls the core and assigns each output after checking its
shape.  The spec's ``execute(ctx, op)`` method, one bind and one call,
runs an operator once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from math import isfinite, prod
from operator import attrgetter, index
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "KINDS",
    "KernelError",
    "OpKindSpec",
    "Tensor",
    "TensorStore",
    "aggregate",
    "conv2d_backward",
    "conv2d_backward_bias",
    "conv2d_backward_data",
    "conv2d_backward_weight",
    "conv2d_forward",
    "fc_backward",
    "fc_backward_bias",
    "fc_backward_data",
    "fc_backward_weight",
    "fc_forward",
    "flatten_backward",
    "flatten_forward",
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
        # vdot(a, a) is finite only when every element is: NaN propagates,
        # an infinity squares to +inf and no square is negative.  A sum that
        # overflowed on large finite values is settled element by element.
        if not isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
            raise KernelError(f"{kind}: non-finite value in output")


def as_index(value, what: str = "value") -> int:
    """``value`` as an int, by ``operator.index``: ints and numpy ints pass,
    and a float, which ``int()`` would truncate (2.7 to 2), or a bool, an
    int subclass, raises ``TypeError`` naming ``what``."""
    try:
        if type(value) is not bool:
            return index(value)
    except TypeError:
        pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


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
    """A shaped float32 buffer.  ``data`` is the storage handle.

    Every assignment of ``data`` keeps ``shape``: :meth:`TensorStore.set`,
    :func:`swap` and the bound steps of ``KINDS`` are the only writers, and
    each checks the new array's shape against it first.  A bound step
    relies on that, as it checks its input shapes against those its kind's
    shape rule accepted when it was bound.  A tensor that a store has
    declared (:meth:`TensorStore.slot`) but nothing has written yet holds
    ``data`` None.
    """

    shape: tuple[int, ...]
    data: np.ndarray


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
    Each name keeps one :class:`Tensor` object for the life of the store,
    which is what a bound step holds.
    """

    def __init__(self) -> None:
        self._tensors: dict[str, Tensor] = {}

    def set(self, name: str, array: np.ndarray) -> Tensor:
        arr = _f32(array)
        shape = arr.shape
        existing = self._tensors.get(name)
        if existing is not None and existing.shape == shape:
            # the shape was checked when the name was first set
            existing.data = arr
            return existing
        check_shape(shape)
        if existing is None:
            t = Tensor(shape, arr)
            self._tensors[name] = t
            return t
        raise _mismatch(name, shape, existing.shape)

    def slot(self, name: str, shape: tuple[int, ...]) -> Tensor:
        """The tensor named ``name``, which must have ``shape``.  A name the
        store does not hold yet is declared, with no data: until it is
        written, ``get``, ``has`` and ``names`` do not see it."""
        t = self._tensors.get(name)
        if t is None:
            check_shape(shape)
            t = self._tensors[name] = Tensor(shape, None)
        elif t.shape != shape:
            raise _mismatch(name, shape, t.shape)
        return t

    def get(self, name: str) -> Tensor:
        t = self._tensors.get(name)
        if t is None or t.data is None:
            raise KernelError(f"store: no tensor named {name!r}")
        return t

    def array(self, name: str) -> np.ndarray:
        return self.get(name).data

    def has(self, name: str) -> bool:
        t = self._tensors.get(name)
        return t is not None and t.data is not None

    def names(self) -> list[str]:
        return sorted(n for n, t in self._tensors.items() if t.data is not None)

    def swap(self, name_a: str, name_b: str) -> None:
        swap(self.get(name_a), self.get(name_b))

    __contains__ = has


def _mismatch(name: str, shape, existing) -> KernelError:
    return KernelError(
        f"store: shape mismatch writing {name!r}: {shape} vs existing {existing}"
    )


# ---------------------------------------------------------------------------
# Dense (fully connected) cores.  A core computes on arrays that its kind's
# rule accepted; the kind's bound step and its public kernel, both made by
# the kind's ``_register`` line below, call it.


def _fc_forward(x, w, b):
    """y[n,m] = sum_d x[n,d] * w[d,m] + b[m]."""
    y = x @ w + b
    _finite("fc_forward", y)
    return y


def _fc_backward_data(w, dy):
    """Input gradient of the dense layer: dx = dy.w^T."""
    dx = dy @ w.T
    _finite("fc_backward_data", dx)
    return dx


def _fc_backward_weight(x, dy):
    """Weight gradient of the dense layer: dw = x^T.dy."""
    dw = x.T @ dy
    _finite("fc_backward_weight", dw)
    return dw


def _fc_backward_bias(dy):
    """Bias gradient of the dense layer: db = colsum(dy)."""
    db = dy.sum(axis=0)
    _finite("fc_backward_bias", db)
    return db


def _fc_backward(x, w, dy):
    """Gradients of the dense layer: dx = dy.w^T, dw = x^T.dy, db = colsum(dy).

    The composition of :func:`fc_backward_data`, :func:`fc_backward_weight`
    and :func:`fc_backward_bias`.
    """
    return _fc_backward_data(w, dy), _fc_backward_weight(x, dy), _fc_backward_bias(dy)


# ---------------------------------------------------------------------------
# Convolution cores (cross-correlation, NCHW / KCRS): one patch gather, then
# one sgemm per image on the calling thread (see the module docstring)


def _conv_attrs(attrs: dict) -> tuple[int, int]:
    try:
        stride = as_index(attrs.get("stride", 1), "stride")
        pad = as_index(attrs.get("pad", 0), "pad")
    except TypeError as e:
        raise KernelError(f"conv2d: {e}") from None
    if stride < 1:
        raise KernelError(f"conv2d: stride must be >= 1, got {stride}")
    if pad < 0:
        raise KernelError(f"conv2d: pad must be >= 0, got {pad}")
    return stride, pad


def _placed(size: int, pad: int, dilation: int, extent: int) -> tuple[slice, slice]:
    """(source, destination) slices of one axis: source index t lands at
    t·dilation + pad of a padded axis of ``extent``, and a negative ``pad``
    crops the indices that would land outside it."""
    lo = max(0, -(pad // dilation))
    hi = min(size, (extent - 1 - pad) // dilation + 1)
    start = lo * dilation + pad
    stop = start + (hi - lo - 1) * dilation + 1 if hi > lo else start
    return slice(lo, hi), slice(start, stop, dilation)


def _patches(
    x: np.ndarray, r: int, s: int, stride: int, pad_h: int, pad_w: int,
    dilation: int = 1,
) -> tuple[np.ndarray, int]:
    """Patch matrix of ``x`` for an R×S filter, and its output grid width.

    Each (image, channel) plane of ``x``, dilated by ``dilation`` and padded
    by ``pad_h``/``pad_w`` per side (cropped where negative), is laid into a
    zeroed flat buffer with S-1 floats of slack; a strided conv with no
    padding reads ``x`` in place.  The matrix is [N, C·R·S, Ho·width], rows
    in (c, i, j) order to match a KCRS filter flattened to [K, C·R·S].  At
    stride 1, tap (i, j) is one contiguous run of Ho·Wp floats of the
    buffer, read over an extended Ho×Wp grid: the width is the padded width
    Wp, and the last Wp-Wo columns wrap into the next row, for the caller
    to crop or to meet with zeros.  At stride > 1 a tap is Ho strided rows
    of Wo floats, and the width is Wo.
    """
    n, c, h, wd = x.shape
    hp = (h - 1) * dilation + 1 + 2 * pad_h
    wp = (wd - 1) * dilation + 1 + 2 * pad_w
    ho, wo = (hp - r) // stride + 1, (wp - s) // stride + 1
    if stride > 1 and (pad_h, pad_w, dilation) == (0, 0, 1):
        # strided taps stay inside their plane: read x in place
        flat = x.reshape(n, c, h * wd)
    else:
        flat = np.zeros((n, c, hp * wp + s - 1), dtype=np.float32)
        planes = flat[:, :, : hp * wp].reshape(n, c, hp, wp)
        (src_h, dst_h), (src_w, dst_w) = (
            _placed(h, pad_h, dilation, hp), _placed(wd, pad_w, dilation, wp)
        )
        planes[:, :, dst_h, dst_w] = x[:, :, src_h, src_w]
    # every tap in one copy, from a read-only view of the buffer whose axes
    # are (n, c, i, j, then the tap's grid)
    sn, sc, f = flat.strides[0], flat.strides[1], flat.itemsize
    if stride == 1:
        taps = as_strided(
            flat, (n, c, r, s, ho * wp), (sn, sc, wp * f, f, f), writeable=False
        )
        return taps.reshape(n, c * r * s, ho * wp), wp
    taps = as_strided(
        flat,
        (n, c, r, s, ho, wo),
        (sn, sc, wp * f, f, stride * wp * f, stride * f),
        writeable=False,
    )
    return taps.reshape(n, c * r * s, ho * wo), wo


def _conv2d_forward(x, w, b, *, stride, pad, y_shape):
    """Cross-correlation of NCHW input with KCRS filters plus per-filter bias."""
    n, k, ho, wo = y_shape
    cols, width = _patches(x, w.shape[2], w.shape[3], stride, pad, pad)
    y = np.matmul(w.reshape(k, -1), cols)
    y += b[:, None]
    y = _f32(y.reshape(n, k, ho, width)[:, :, :, :wo])
    _finite("conv2d_forward", y)
    return y


def _conv2d_backward_data(x, w, dy, *, stride, pad):
    """Input gradient, as the transposed convolution (``x`` supplies only
    its shape).

    That is the forward lowering at stride 1, applied to ``dy`` dilated by
    the stride and padded by R-1-pad in H and S-1-pad in W (cropped where
    that is negative), with the filters flipped and transposed to
    [C, K·R·S].
    """
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    cols, width = _patches(dy, r, s, 1, r - 1 - pad, s - 1 - pad, stride)
    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, k * r * s)
    dx = np.matmul(flipped, cols)
    dx = _f32(dx.reshape(n, c, h, width)[:, :, :, :wd])
    _finite("conv2d_backward_data", dx)
    return dx


def _conv2d_backward_weight(x, w, dy, *, stride, pad):
    """Filter gradient: dy times the patch matrix of x transposed, per
    image, summed over the batch; dy gets zero columns to meet the junk
    columns of a stride-1 patch matrix."""
    n, k, ho, wo = dy.shape
    cols, width = _patches(x, w.shape[2], w.shape[3], stride, pad, pad)
    if width != wo:
        wide = np.zeros((n, k, ho, width), dtype=np.float32)
        wide[:, :, :, :wo] = dy
        dy = wide
    dw = np.matmul(dy.reshape(n, k, ho * width), cols.transpose(0, 2, 1))
    dw = dw.sum(axis=0).reshape(w.shape)
    _finite("conv2d_backward_weight", dw)
    return dw


def _conv2d_backward_bias(dy):
    """Bias gradient only: dy summed over batch and spatial axes."""
    db = _f32(dy.sum(axis=(0, 2, 3)))
    _finite("conv2d_backward_bias", db)
    return db


def _conv2d_backward(x, w, dy, *, stride, pad):
    """Gradients of conv2d_forward with respect to input, filters, and bias.

    The composition of the three split kernels above.
    """
    return (
        _conv2d_backward_data(x, w, dy, stride=stride, pad=pad),
        _conv2d_backward_weight(x, w, dy, stride=stride, pad=pad),
        _conv2d_backward_bias(dy),
    )


# ---------------------------------------------------------------------------
# Activation, loss, update, aggregation cores


def _relu_forward(x):
    """Elementwise max(x, 0)."""
    y = np.maximum(x, np.float32(0))
    _finite("relu_forward", y)
    return y


def _relu_backward(x, dy):
    """dy gated by x > 0; the subgradient at exactly 0 is 0."""
    # dy's bits where x > 0, +0.0 elsewhere: the bytes of
    # np.where(x > 0, dy, 0) for every input, without the per-element branch
    # that a random sign mask mispredicts.
    mask = np.negative((x > 0).astype(np.uint32))
    mask &= dy.view(np.uint32)
    dx = mask.view(np.float32)
    _finite("relu_backward", dx)
    return dx


def _flatten_forward(x):
    """x as [N, the product of its other dims], a view."""
    return x.reshape(x.shape[0], -1)


def _flatten_backward(x, dy):
    """dy in the shape of x, a view."""
    return dy.reshape(x.shape)


def _softmax_xent(logits, labels):
    """Row-stabilized softmax cross-entropy.

    Returns a length-1 loss tensor holding the mean negative log-likelihood
    and the logits gradient ``(softmax - onehot) / N``.  Labels are a float
    tensor of integral class indices in ``[0, K)``.
    """
    n, k = logits.shape
    # each row's one-hot: a label hits exactly one class when it is integral
    # and in [0, K), and none when it is fractional, out of range, NaN or
    # infinite (the comparison needs no cast, which would warn on those)
    onehot = labels[:, None] == np.arange(k, dtype=np.float32)
    if np.count_nonzero(onehot) != n:
        raise KernelError(f"softmax_xent: labels must be integral and in [0, {k})")
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(z)
    denom = np.add.reduce(e, axis=1, keepdims=True)
    p = e / denom
    log_p = z[onehot] - np.log(denom[:, 0])
    # the bytes of -log_p.mean(): a float32 quotient rounds the same whether
    # it is computed in float32 or in float64 and then rounded
    loss = np.add.reduce(log_p, keepdims=True)
    loss /= np.float32(-n)
    # (p - onehot) / N, in place: p - 0 is p
    p -= onehot
    p /= np.float32(n)
    _finite("softmax_xent", loss, p)
    return loss, p


def _sgd_update(w, grad, *, lr):
    """w - lr * grad, written to a fresh buffer (never in place)."""
    out = w - lr * grad  # lr is a np.float32
    _finite("sgd_update", out)
    return out


def _aggregate(*parts, mode):
    """Sum equal-shaped tensors in the given (peer-rank) order; mean divides by k."""
    acc = parts[0].copy()
    for a in parts[1:]:
        acc += a
    if mode == "mean":
        acc /= np.float32(len(parts))
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
    shape-relation violation.  ``bind(ctx, op)`` binds one operator to a run
    context exposing ``store``, ``graph``, ``iteration`` and ``transport``:
    it reads the names of ``op``'s tensors from ``ctx.graph.io_names(op)``,
    takes their :class:`Tensor` objects from the store, evaluates the shape
    rule and parses the attrs, once, and returns a zero-argument *step* that
    performs the operation each time it is called.  :meth:`execute` performs
    it once.
    """

    kind: str
    check_shapes: Callable[[list, list, dict], None]
    bind: Callable[[object, object], Callable[[], None]]
    crosses_location: bool = False

    def execute(self, ctx, op) -> None:
        """Run ``op`` once in ``ctx``: one bind and one call of its step."""
        self.bind(ctx, op)()


_DATA = attrgetter("data")
_SHAPE = attrgetter("shape")


def _rebound(kind: str, rule, shapes: list, arrays: list, attrs: dict) -> KernelError:
    """The error of a step whose input shapes are not those bound."""
    now = [a.shape for a in arrays]
    rule(now, attrs)  # raises the rule's own message when they do not conform
    return KernelError(f"{kind}: input shapes {now} are not {shapes}, as bound")


class _Kind(NamedTuple):
    """A kind's entry in ``_RULES``: its shape rule and, for a kind whose
    outputs are the results of its core, the core, ``parse(attrs,
    out_shapes)``, which makes the core's keyword arguments when given, and
    the names of the attrs it reads."""

    rule: Callable[[list, dict], list]
    core: Callable | None
    parse: Callable[[dict, list], dict] | None
    attrs: tuple[str, ...]


def _planned(entry: _Kind, shapes: list, attrs: dict):
    """``entry``'s rule on the input ``shapes``, then its attrs parsed: the
    output shapes, and the core with its keyword arguments bound."""
    out_shapes = entry.rule(shapes, attrs)
    if entry.parse is None:
        return out_shapes, entry.core
    return out_shapes, partial(entry.core, **entry.parse(attrs, out_shapes))


def _bind_plain(kind: str, entry: _Kind):
    """``bind`` for a kind whose outputs are the results of its core.

    The rule runs once, on the input shapes, and the attrs are parsed once;
    each call of the step checks that its input arrays still have those
    shapes, then that each result has its output tensor's shape in the
    graph.  Inputs are read as the store holds them, C-contiguous float32,
    and every core returns C-contiguous float32.
    """
    rule = entry.rule

    def bind(ctx, op):
        store, attrs = ctx.store, op.attrs
        in_names, out_names = ctx.graph.io_names(op)
        ins = [store.get(n) for n in in_names]
        shapes = [t.data.shape for t in ins]
        fn = _planned(entry, shapes, attrs)[1]
        # at the graph's shapes, so a result that an attrs edit reshaped fails
        tensors = ctx.graph.tensors
        outs = [store.slot(n, tensors[t].shape) for n, t in zip(out_names, op.outputs)]
        if len(outs) == 1:
            (out,), (name,) = outs, out_names

            def step() -> None:
                arrays = [*map(_DATA, ins)]
                if [*map(_SHAPE, arrays)] != shapes:
                    raise _rebound(kind, rule, shapes, arrays, attrs)
                y = fn(*arrays)
                if y.shape != out.shape:
                    raise _mismatch(name, y.shape, out.shape)
                out.data = y

            return step

        def steps() -> None:
            arrays = [*map(_DATA, ins)]
            if [*map(_SHAPE, arrays)] != shapes:
                raise _rebound(kind, rule, shapes, arrays, attrs)
            for t, name, y in zip(outs, out_names, fn(*arrays)):
                if y.shape != t.shape:
                    raise _mismatch(name, y.shape, t.shape)
                t.data = y

        return steps

    return bind


def _public(kind: str, n_in: int | None, entry: _Kind):
    """The public kernel of a kind whose outputs are the results of its
    core: what one operator of the kind does, on arrays.  It takes the
    input arrays, each made C-contiguous float32, and the attrs as
    keywords, runs the kind's rule and parser as a bound step does, and
    returns the core's outputs.  A keyword the kind does not read, or a
    number of arrays other than its arity, raises ``TypeError``."""

    def kernel(*arrays, **attrs):
        if n_in is not None and len(arrays) != n_in:
            raise TypeError(f"{kind}() takes {n_in} arrays, got {len(arrays)}")
        unknown = sorted(attrs.keys() - entry.attrs)
        if unknown:
            raise TypeError(f"{kind}() got unexpected keyword arguments {unknown}")
        arrays = [*map(_f32, arrays)]
        return _planned(entry, [a.shape for a in arrays], attrs)[1](*arrays)

    kernel.__name__ = kernel.__qualname__ = kind
    kernel.__doc__ = entry.core.__doc__
    return kernel


def _transport(ctx, op):
    if ctx.transport is None:
        raise KernelError(f"{op.kind} {op.name!r}: no transport attached to this run")
    return ctx.transport


def _bind_swap(ctx, op):
    _, (a, b) = ctx.graph.io_names(op)
    ta, tb = ctx.store.get(a), ctx.store.get(b)
    _check_swap((), (ta.shape, tb.shape), {})

    def step() -> None:
        ta.data, tb.data = tb.data, ta.data

    return step


def _bind_send(ctx, op):
    transport = _transport(ctx, op)
    (src,), _ = ctx.graph.io_names(op)
    t, channel = ctx.store.get(src), int(op.attrs["channel"])
    return lambda: transport.send(channel, ctx.iteration, t.data)


def _bind_recv(ctx, op):
    transport = _transport(ctx, op)
    channel = int(op.attrs["channel"])
    _, (dst,) = ctx.graph.io_names(op)
    t = ctx.store.slot(dst, ctx.graph.tensors[op.outputs[0]].shape)

    def step() -> None:
        arr = _f32(transport.recv(channel, ctx.iteration))
        if arr.shape != t.shape:
            raise _mismatch(dst, arr.shape, t.shape)
        t.data = arr

    return step


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
_RULES: dict[str, _Kind] = {}


def _register(kind, n_in, rule, core=None, parse=None, attrs=(), *, bind=None,
              crosses_location: bool = False):
    """Register ``kind`` with its shape rule and either a ``bind`` of its own
    or the plain binding of ``core`` (see :func:`_bind_plain`); for the
    latter, return the kind's public kernel (see :func:`_public`)."""
    entry = _RULES[kind] = _Kind(rule, core, parse, attrs)
    KINDS[kind] = OpKindSpec(kind, _check_by_rule(kind, n_in, rule),
                             bind or _bind_plain(kind, entry), crosses_location)
    return None if bind else _public(kind, n_in, entry)


def output_shapes(kind: str, in_shapes, attrs: dict) -> list[tuple[int, ...]]:
    """The output shapes the shape rule of ``kind`` gives for ``in_shapes``
    (``in_shapes`` must have the kind's arity)."""
    return _RULES[kind].rule(list(in_shapes), attrs)


def _conv_kw(attrs, out_shapes) -> dict:
    stride, pad = _conv_attrs(attrs)
    return {"stride": stride, "pad": pad}


def _gate(x, token):
    return x.copy()


_CONV = ("stride", "pad")
fc_forward = _register("fc_forward", 3, _fc_forward_shapes, _fc_forward)
fc_backward = _register("fc_backward", 3, _fc_backward_shapes, _fc_backward)
fc_backward_data = _register("fc_backward_data", 2, _fc_backward_data_shapes,
                             _fc_backward_data)
fc_backward_weight = _register("fc_backward_weight", 2, _fc_backward_weight_shapes,
                               _fc_backward_weight)
fc_backward_bias = _register("fc_backward_bias", 1, _fc_backward_bias_shapes,
                             _fc_backward_bias)
conv2d_forward = _register(
    "conv2d_forward", 3, _conv2d_forward_shapes, _conv2d_forward,
    lambda a, outs: {**_conv_kw(a, outs), "y_shape": outs[0]}, _CONV,
)
conv2d_backward = _register("conv2d_backward", 3, _conv2d_backward_shapes,
                            _conv2d_backward, _conv_kw, _CONV)
conv2d_backward_data = _register("conv2d_backward_data", 3,
                                 _conv2d_backward_data_shapes,
                                 _conv2d_backward_data, _conv_kw, _CONV)
conv2d_backward_weight = _register("conv2d_backward_weight", 3,
                                   _conv2d_backward_weight_shapes,
                                   _conv2d_backward_weight, _conv_kw, _CONV)
conv2d_backward_bias = _register("conv2d_backward_bias", 1,
                                 _conv2d_backward_bias_shapes, _conv2d_backward_bias)
relu_forward = _register("relu_forward", 1, _first_shape, _relu_forward)
relu_backward = _register("relu_backward", 2, _relu_backward_shapes, _relu_backward)
flatten_forward = _register("flatten_forward", 1, _flatten_forward_shapes,
                            _flatten_forward)
flatten_backward = _register("flatten_backward", 2, _flatten_backward_shapes,
                             _flatten_backward)
softmax_xent = _register("softmax_xent", 2, _softmax_xent_shapes, _softmax_xent)
sgd_update = _register("sgd_update", 2, _sgd_update_shapes, _sgd_update,
                       lambda a, outs: {"lr": np.float32(float(a["lr"]))}, ("lr",))
_aggregate_arrays = _register("aggregate", None, _aggregate_shapes, _aggregate,
                              lambda a, outs: {"mode": a.get("mode", "mean")},
                              ("mode",))
KINDS["swap"] = OpKindSpec("swap", _check_swap, _bind_swap)
_register("copy", 1, _first_shape, np.ndarray.copy, crosses_location=True)
_register("send", 1, _send_shapes, bind=_bind_send)
KINDS["recv"] = OpKindSpec("recv", _check_recv, _bind_recv)
_register("gate", 2, _first_shape, _gate)


def aggregate(parts: list[np.ndarray], mode: str = "mean") -> np.ndarray:
    """The ``aggregate`` kernel over the list ``parts``: their sum in list
    (peer-rank) order, divided by their number for ``mode="mean"``."""
    return _aggregate_arrays(*parts, mode=mode)
