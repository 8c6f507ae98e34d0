"""Graph-composition recipes for training schemes.

Everything here is a pure constructor: networks become bi-graphs, and the
parallelization schemes — iterated SGD, data parallelism with a parameter
server, pipelined model parallelism — are expressed purely as graph wiring
plus placement metadata.  No scheme has any runtime code of its own; the
dispatcher's readiness rules do all the work.

SGD and data parallelism start from one core graph per net: forward, loss
and backward on one device's compute thread.  SGD adds its parameter
updates to it.  Data parallelism replicates it once per peer with
``graph.replicate``, renamed ``_p{k}`` and placed on the peer, and adds the
glue in place: gradient copies up to the server, aggregates in rank order,
the server's updates and copies back down.  The pipeline replicates a
staged forward graph per micro-batch, sharing the parameters.  Every name
in a replica is the core's name with the replica suffix appended.
"""

from __future__ import annotations

import operator
import zlib
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .dispatcher import WorkerLane
from .graph import BiGraph, GraphError, GraphSequence, Location, replicate
from .ops import KernelError, TensorStore, output_shapes
from .profiler import COMPUTE, COPY, TRANSPORT

COMPUTE_THREAD = 0


# ---------------------------------------------------------------------------
# network description


@dataclass(frozen=True)
class LayerSpec:
    """One layer: fully connected ("fc"), convolution ("conv"), or "relu"."""

    kind: str
    out: int = 0  # fc units / conv output channels
    kernel: int = 0  # conv filter size (square)
    stride: int = 1
    pad: int = 0

    @classmethod
    def from_config(cls, raw: dict) -> "LayerSpec":
        return cls(
            kind=raw["kind"],
            out=int(raw.get("out", 0)),
            kernel=int(raw.get("kernel", 0)),
            stride=int(raw.get("stride", 1)),
            pad=int(raw.get("pad", 0)),
        )


@dataclass(frozen=True)
class NetSpec:
    """A feed-forward net: per-sample input shape, layers, batch per peer."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    batch: int = 1
    lr: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.batch < 1:
            raise GraphError(f"batch must be >= 1, got {self.batch}")
        if not self.layers:
            raise GraphError("net needs at least one layer")
        # planned once, which shape-checks the whole stack eagerly
        object.__setattr__(self, "_steps", _plan(self))

    @property
    def classes(self) -> int:
        return self._steps[-1].out_shape[1]

    @classmethod
    def from_config(cls, raw: dict) -> "NetSpec":
        """Every net ends in a softmax cross-entropy loss; a config that
        names another ``loss`` is rejected."""
        loss = raw.get("loss", "softmax_xent")
        if loss != "softmax_xent":
            raise GraphError(f"unsupported loss {loss!r}")
        return cls(
            input_shape=tuple(raw["input_shape"]),
            layers=tuple(LayerSpec.from_config(l) for l in raw["layers"]),
            batch=int(raw.get("batch", 1)),
            lr=float(raw.get("lr", 0.01)),
        )


@dataclass(frozen=True)
class _Step:
    """One forward operation in the planned stack (layers plus any inserted
    flattens), with every shape resolved."""

    kind: str  # fc | conv | relu | flatten
    pos: int  # 1-based layer position; flatten shares its consumer's pos
    layer: int  # 0-based index into net.layers, -1 for inserted flattens
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    w_shape: tuple[int, ...] | None = None
    b_shape: tuple[int, ...] | None = None
    attrs: tuple[tuple[str, int], ...] = ()  # the op's attrs, as dict items


_FWD_OP = {"fc": "fc_forward", "conv": "conv2d_forward", "relu": "relu_forward",
           "flatten": "flatten_forward"}


def plan_steps(net: NetSpec) -> tuple[_Step, ...]:
    """The forward stack of ``net``: every op, every shape, flattens inserted
    where a 4-d activation meets a dense layer or the loss.  Each output
    shape comes from the forward kind's shape rule in ``ops``.  The stack is
    planned once, when the spec is made, and is immutable."""
    return net._steps


def _plan(net: NetSpec) -> tuple[_Step, ...]:
    steps: list[_Step] = []
    shape: tuple[int, ...] = (net.batch, *net.input_shape)
    if len(shape) not in (2, 4):
        raise GraphError(f"input must be 1-d or 3-d per sample, got {net.input_shape}")

    def add(kind: str, pos: int, layer: int, w=None, b=None, attrs=None) -> None:
        nonlocal shape
        attrs = attrs or {}
        ins = [shape] if w is None else [shape, w, b]
        try:
            (out,) = output_shapes(_FWD_OP[kind], ins, attrs)
        except KernelError as exc:
            raise GraphError(f"layer {pos}: {exc}") from None
        steps.append(_Step(kind, pos, layer, shape, out, w, b, tuple(attrs.items())))
        shape = out

    def maybe_flatten(pos: int) -> None:
        if len(shape) == 4:
            add("flatten", pos, -1)

    for idx, layer in enumerate(net.layers):
        pos = idx + 1
        if layer.kind == "fc":
            if layer.out < 1:
                raise GraphError(f"layer {pos}: fc needs out >= 1")
            maybe_flatten(pos)
            add("fc", pos, idx, (shape[1], layer.out), (layer.out,))
        elif layer.kind == "conv":
            if layer.out < 1 or layer.kernel < 1:
                raise GraphError(f"layer {pos}: conv needs out and kernel >= 1")
            add(
                "conv", pos, idx, (layer.out, shape[1], layer.kernel, layer.kernel),
                (layer.out,), {"stride": layer.stride, "pad": layer.pad},
            )
        elif layer.kind == "relu":
            add("relu", pos, idx)
        else:
            raise GraphError(f"layer {pos}: unknown kind {layer.kind!r}")
    maybe_flatten(len(net.layers) + 1)
    if len(shape) != 2 or shape[1] < 2:
        raise GraphError(f"loss needs >= 2 logit columns, got {shape}")
    return tuple(steps)


def param_names(net: NetSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical parameter tensors, in layer order: w{pos}, b{pos}."""
    out = []
    for step in plan_steps(net):
        if step.w_shape is not None:
            out.append((f"w{step.pos}", step.w_shape))
            out.append((f"b{step.pos}", step.b_shape))
    return out


# ---------------------------------------------------------------------------
# placement plans and layout metadata


@dataclass(frozen=True)
class Stage:
    """A contiguous run of layers [first, last) placed on one location."""

    layers: tuple[int, int]
    location: Location


@dataclass(frozen=True)
class ParallelPlan:
    """Resource assignment for a training scheme."""

    scheme: str  # single | data | model
    peers: tuple[Location, ...] = ()
    server: Location | None = None
    stages: tuple[Stage, ...] = ()
    replicas: int = 1
    copy_thread_base: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "peers", tuple(self.peers))
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.scheme not in ("single", "data", "model"):
            raise GraphError(f"unknown scheme {self.scheme!r}")
        if self.copy_thread_base <= COMPUTE_THREAD:
            raise GraphError("copy threads must not collide with compute threads")
        if self.scheme == "data":
            if not self.peers:
                raise GraphError("data scheme needs at least one peer")
            if self.server is None:
                raise GraphError("data scheme needs a server location")
        if self.scheme == "model":
            if not self.stages:
                raise GraphError("model scheme needs stages")
            if self.replicas < 1:
                raise GraphError("model scheme needs replicas >= 1")

    @classmethod
    def from_config(cls, raw: dict) -> "ParallelPlan":
        def loc(d):
            return Location(d.get("host", "local"), int(d.get("device", 0)))

        return cls(
            scheme=raw.get("scheme", "single"),
            peers=tuple(loc(p) for p in raw.get("peers", [])),
            server=loc(raw["server"]) if "server" in raw else None,
            stages=tuple(
                Stage((int(s["layers"][0]), int(s["layers"][1])), loc(s))
                for s in raw.get("stages", [])
            ),
            replicas=int(raw.get("replicas", 1)),
            copy_thread_base=int(raw.get("copy_thread_base", 1)),
        )


@dataclass(frozen=True)
class Layout:
    """What a built sequence's tensors and lanes mean, for feeding,
    metric sampling, and profiling."""

    data_names: tuple[str, ...]
    label_names: tuple[str, ...] = ()
    loss_names: tuple[str, ...] = ()
    canonical_params: tuple[str, ...] = ()
    peer_params: tuple[tuple[str, ...], ...] = ()
    token_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()
    copy_threads: frozenset = frozenset()

    def lane_class(self, lane: WorkerLane) -> str:
        if lane.thread == COMPUTE_THREAD:
            return COMPUTE
        if lane.thread in self.copy_threads:
            return COPY
        return TRANSPORT


# ---------------------------------------------------------------------------
# deterministic initialization and synthetic data


# Counter-based streams (Salmon et al., "Parallel Random Numbers: As Easy as
# 1, 2, 3", SC 2011), from numpy array arithmetic alone, so no biflow
# process loads numpy.random.  A stream is a 64-bit key; its word i is the
# SplitMix64 finalizer of key + (i + 1)·γ, which is the (i + 1)-th output
# of SplitMix64 started at the key.  The uint64 arithmetic wraps silently.
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U_GAMMA, _U_MUL1, _U_MUL2 = np.uint64(_GAMMA), np.uint64(_MUL1), np.uint64(_MUL2)
_S27, _S30, _S31, _S32 = (np.uint64(s) for s in (27, 30, 31, 32))
_S9, _ONE = np.uint32(9), np.uint32(0x3F800000)  # float32 1.0
_TURN = np.float32(2 * np.pi)
_PHASE = np.array([[0.0], [-0.25]], dtype=np.float32)  # cos, then sin, in turns


def _fmix(z: int) -> int:
    z = (z ^ z >> 30) * _MUL1 & _MASK
    z = (z ^ z >> 27) * _MUL2 & _MASK
    return z ^ z >> 31


def _stream_key(*parts: int) -> int:
    """The key of the stream named by ``parts``: each part in turn is mixed
    into the key by one SplitMix64 step.  A part outside [0, 2**64) raises
    ``ValueError``."""
    key = 0
    for part in parts:
        part = operator.index(part)
        if not 0 <= part <= _MASK:
            raise ValueError(f"random stream key parts must be in [0, 2**64), got {part}")
        key = _fmix(key + _GAMMA & _MASK ^ part)
    return key


def _words(key: int, n: int) -> np.ndarray:
    """Words 0..n-1 of stream ``key``, as a fresh uint64 array."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _U_GAMMA
    z += np.uint64(key)
    t = z >> _S30
    z ^= t
    z *= _U_MUL1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _U_MUL2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def _labels(words: np.ndarray, classes: int) -> np.ndarray:
    """One class in [0, classes) per word: the multiply-shift of its high
    half."""
    got = words >> _S32
    got *= np.uint64(classes)
    got >>= _S32
    return got


def _normals(words: np.ndarray, n: int, scale: float) -> np.ndarray:
    """``n`` float32 normals of standard deviation ``scale`` from at least
    n/2 words, which it overwrites.  Box–Muller over each word's two 32-bit
    halves (through a uint32 view, so the byte order names the halves): the
    top 23 bits of each become a float32 in [1, 2) by the mantissa trick;
    one gives the radius, sqrt(-2·ln u) for u in (0, 1], the other the
    angle.  The cosines of every word come first, then the sines."""
    u = words.view(np.uint32)
    u >>= _S9
    u |= _ONE
    f = u.view(np.float32).reshape(-1, 2).T
    r = np.subtract(2.0, f[0])
    np.log(r, out=r)
    r *= np.float32(-2.0 * scale * scale)
    np.sqrt(r, out=r)
    out = np.add(_PHASE, f[1])
    out *= _TURN
    np.cos(out, out=out)
    out *= r
    return out.reshape(-1)[:n]


def _gaussian(key: int, shape: tuple[int, ...], scale: float) -> np.ndarray:
    n = prod(shape)
    return _normals(_words(key, (n + 1) // 2), n, scale).reshape(shape)


def _param_array(name: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Seeded per canonical name, so every replica of a parameter is
    bit-identical no matter which graph asked for it.  A weight is drawn
    from the stream keyed (seed, crc32(name)) at the He scale,
    sqrt(2 / fan_in); a bias starts at zero."""
    if name.startswith("b"):
        return np.zeros(shape, dtype=np.float32)
    fan_in = prod(shape[:-1]) if len(shape) == 2 else prod(shape[1:])
    key = _stream_key(seed, zlib.crc32(name.encode()))
    return _gaussian(key, shape, (2.0 / max(fan_in, 1)) ** 0.5)


def init_params(net: NetSpec, store: TensorStore, seed: int, layout: Layout) -> None:
    """Write every parameter tensor the layout names into the store, each
    drawn by :func:`_param_array` from biflow's own counter-based
    generator."""
    for j, (cname, shape) in enumerate(param_names(net)):
        if layout.canonical_params and layout.canonical_params[j] != cname:
            raise GraphError("layout does not match net parameters")
        arr = _param_array(cname, shape, seed)
        store.set(cname, arr)
        for peer in layout.peer_params:
            store.set(peer[j], arr.copy())


FEED_BLOCK = 8  # samples per random stream of a synthetic batch


@dataclass(frozen=True)
class SyntheticFeed:
    """Gaussian class clusters, generated deterministically per iteration.

    An iteration's samples are numbered across the whole ``batch * peers``
    batch and split contiguously by peer rank.  Each fixed block of
    ``FEED_BLOCK`` samples has its own stream of biflow's counter-based
    generator, keyed by (seed, iteration, block), so sample i depends only
    on (seed, iteration, i): k peers at batch B see exactly the same data
    as one peer at batch k·B, and a host that feeds one rank draws only the
    blocks that rank's slice covers.  The class centers and the evaluation
    batch have streams of their own.  The blocks of the last iteration
    asked for are kept, read-only, so the peers of an iteration share one
    draw.  A negative seed raises ``ValueError`` at the first draw.
    """

    seed: int
    input_shape: tuple[int, ...]
    classes: int
    batch: int  # per peer
    peers: int = 1
    spread: float = 3.0
    noise: float = 1.0

    @classmethod
    def for_net(cls, net: NetSpec, seed: int, peers: int = 1) -> "SyntheticFeed":
        return cls(
            seed=seed,
            input_shape=net.input_shape,
            classes=net.classes,
            batch=net.batch,
            peers=peers,
        )

    @cached_property
    def _centers(self) -> np.ndarray:
        key = _stream_key(self.seed, 5)
        return _gaussian(key, (self.classes, *self.input_shape), self.spread)

    def _draw(self, n: int, *key: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` samples from the stream keyed (seed, *key): its first n
        words give the labels, the rest the noise."""
        m = n * prod(self.input_shape)
        words = _words(_stream_key(self.seed, *key), n + (m + 1) // 2)
        labels = _labels(words[:n], self.classes)
        x = self._centers.take(labels, axis=0)
        x += _normals(words[n:], m, self.noise).reshape(x.shape)
        return x, labels.astype(np.float32)

    def _block(self, iteration: int, block: int) -> tuple[np.ndarray, np.ndarray]:
        kept = self.__dict__.get("_kept")
        if kept is None or kept[0] != iteration:
            kept = self.__dict__["_kept"] = (iteration, {})
        got = kept[1].get(block)
        if got is None:
            x, labels = self._draw(FEED_BLOCK, 17, iteration, block)
            x.flags.writeable = labels.flags.writeable = False
            got = kept[1][block] = (x, labels)
        return got

    def _samples(self, iteration: int, lo: int, hi: int):
        """Read-only samples [lo, hi) of ``iteration``'s full batch."""
        first = lo // FEED_BLOCK
        blocks = [self._block(iteration, b)
                  for b in range(first, (hi - 1) // FEED_BLOCK + 1)]
        if len(blocks) == 1:
            x, labels = blocks[0]
        else:
            x, labels = (np.concatenate(parts) for parts in zip(*blocks))
            x.flags.writeable = labels.flags.writeable = False
        off = first * FEED_BLOCK
        return x[lo - off:hi - off], labels[lo - off:hi - off]

    def full_batch(self, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """The read-only batch of ``iteration``, every peer's slice."""
        return self._samples(iteration, 0, self.batch * self.peers)

    def batch_for(self, iteration: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
        return self._samples(iteration, rank * self.batch, (rank + 1) * self.batch)

    def eval_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return self._draw(n, 29, 0)


@dataclass(frozen=True)
class TrainingSetup:
    """Picklable store initializer: every host of a distributed run seeds
    the full parameter set and simply never touches the names it doesn't
    own."""

    net: NetSpec
    seed: int
    layout: Layout

    def __call__(self, store: TensorStore) -> None:
        init_params(self.net, store, self.seed, self.layout)


def feeder(feed: SyntheticFeed, layout: Layout, *, only: set[str] | None = None):
    """before_iteration hook filling each peer's data and label sources.

    ``only`` restricts writes to the named tensors (a host partition feeds
    just the sources it owns).
    """

    def before_iteration(iteration: int, store: TensorStore) -> None:
        for rank, (xn, ln) in enumerate(zip(layout.data_names, layout.label_names)):
            if only is not None and xn not in only:
                continue
            x, labels = feed.batch_for(iteration, rank)
            store.set(xn, x)
            store.set(ln, labels)

    return before_iteration


# ---------------------------------------------------------------------------
# forward / backward assembly


def _step_output_name(step: _Step) -> str:
    """The activation a forward step writes: ``a{pos}``, or for an inserted
    flatten (which shares its consumer's pos) ``a{pos-1}_flat`` / ``x_flat``."""
    if step.kind != "flatten":
        return f"a{step.pos}"
    return "x_flat" if step.pos == 1 else f"a{step.pos - 1}_flat"


def _op(g, name, kind, ins, outs, loc, thread=COMPUTE_THREAD, attrs=None) -> None:
    """Add operator ``name`` reading the tensors named ``ins`` and writing
    those named ``outs``."""
    g.add_operator(name, kind, map(g.tensor_id, ins), map(g.tensor_id, outs), loc,
                   thread=thread, attrs=attrs)


def _add_forward(g, steps, loc):
    """Add sources and the forward chain; returns the tape of
    (step, in_name, out_name) plus the logits tensor name."""
    g.add_tensor("x", steps[0].in_shape, loc)
    for step in steps:
        if step.w_shape is not None:
            g.add_tensor(f"w{step.pos}", step.w_shape, loc)
            g.add_tensor(f"b{step.pos}", step.b_shape, loc)
    tape = []
    cur = "x"
    for step in steps:
        out = _step_output_name(step)
        g.add_tensor(out, step.out_shape, loc)
        params = [] if step.w_shape is None else [f"w{step.pos}", f"b{step.pos}"]
        _op(g, f"{step.kind}{step.pos}", _FWD_OP[step.kind], [cur, *params], [out],
            loc, attrs=dict(step.attrs))
        tape.append((step, cur, out))
        cur = out
    return tape, cur


def _add_loss(g, loc, logits, batch):
    dlogits = f"d{logits}"
    g.add_tensor("labels", (batch,), loc)
    g.add_tensor("loss", (1,), loc)
    g.add_tensor(dlogits, g.tensor_named(logits).shape, loc)
    _op(g, "loss", "softmax_xent", [logits, "labels"], ["loss", dlogits], loc)
    return dlogits


_BWD_OP = {"fc": "fc_backward", "conv": "conv2d_backward"}
_BWD_SPLIT = {
    "fc": ("fc_backward_data", "fc_backward_weight", "fc_backward_bias"),
    "conv": ("conv2d_backward_data", "conv2d_backward_weight",
             "conv2d_backward_bias"),
}


def _add_backward(g, tape, loc, dlogits, split):
    """Reverse walk over the tape.  Returns [(param, grad, shape)] triples in
    layer order.  With ``split`` the data/weight/bias gradients are separate
    operators.  On both paths the walk ends at the bottom parameter layer:
    it takes the split weight and bias operators, and neither its data
    gradient nor any step below it is computed, since nothing reads them."""
    grads_by_layer = []
    dy = dlogits
    bottom = next(
        (i for i, (step, _x, _y) in enumerate(tape) if step.w_shape is not None),
        len(tape),
    )
    for i in range(len(tape) - 1, bottom - 1, -1):
        step, x_name, _y_name = tape[i]
        dx = f"d{x_name}"
        name = f"bwd_{step.kind}{step.pos}"
        if step.kind in ("relu", "flatten"):
            kind = "relu_backward" if step.kind == "relu" else "flatten_backward"
            g.add_tensor(dx, step.in_shape, loc)
            _op(g, name, kind, [x_name, dy], [dx], loc)
            dy = dx
            continue
        attrs = dict(step.attrs)
        w, b = f"w{step.pos}", f"b{step.pos}"
        dw, db = f"d{w}", f"d{b}"
        g.add_tensor(dw, step.w_shape, loc)
        g.add_tensor(db, step.b_shape, loc)
        grads_by_layer.append([(w, dw, step.w_shape), (b, db, step.b_shape)])
        if i != bottom:
            g.add_tensor(dx, step.in_shape, loc)
        if not split and i != bottom:
            _op(g, name, _BWD_OP[step.kind], [x_name, w, dy], [dx, dw, db], loc,
                attrs=attrs)
        else:
            data_kind, weight_kind, bias_kind = _BWD_SPLIT[step.kind]
            conv = step.kind == "conv"
            if i != bottom:
                _op(g, f"{name}_data", data_kind, [x_name, w, dy] if conv else [w, dy],
                    [dx], loc, attrs=attrs)
            _op(g, f"{name}_weight", weight_kind,
                [x_name, w, dy] if conv else [x_name, dy], [dw], loc, attrs=attrs)
            _op(g, f"{name}_bias", bias_kind, [dy], [db], loc)
        dy = dx
    # reverse the walk back into layer order: w1, b1, w2, b2, ...
    return [triple for layer in reversed(grads_by_layer) for triple in layer]


def _core_graph(net: NetSpec, loc: Location, split: bool):
    """The core graph of ``net``: forward, loss and backward, all on ``loc``'s
    compute thread.  Returns it with the [(param, grad, shape)] triples of
    :func:`_add_backward`."""
    g = BiGraph()
    tape, logits = _add_forward(g, plan_steps(net), loc)
    dlogits = _add_loss(g, loc, logits, net.batch)
    return g, _add_backward(g, tape, loc, dlogits, split)


def _add_update(g, pname, gname, loc, thread, lr) -> None:
    """``{pname}_new`` = ``pname`` - lr * ``gname``."""
    g.add_tensor(f"{pname}_new", g.tensor_named(pname).shape, loc)
    _op(g, f"upd_{pname}", "sgd_update", [pname, gname], [f"{pname}_new"], loc,
        thread=thread, attrs={"lr": lr})


def _add_swaps(swaps, params, loc, thread, suffix="") -> None:
    """One ``swap_{name}{suffix}`` per (name, shape) in ``params``, exchanging
    ``{name}{suffix}`` with its update ``{name}_new{suffix}``."""
    for pname, shape in params:
        cur, new = pname + suffix, f"{pname}_new{suffix}"
        swaps.add_tensor(cur, shape, loc)
        swaps.add_tensor(new, shape, loc)
        _op(swaps, f"swap_{cur}", "swap", [], [cur, new], loc, thread=thread)


# ---------------------------------------------------------------------------
# scheme builders


def build_sgd_iteration(
    net: NetSpec, placement: Location = Location("local", 0)
) -> GraphSequence:
    """[training graph, parameter-swap graph] for plain iterated SGD.

    The training graph is the core graph (forward, loss, backward) plus one
    update per parameter, written to a fresh ``*_new`` tensor; the swap
    graph exchanges the buffer handles so the next iteration reads the
    update without any cyclic edge.
    """
    g, grads = _core_graph(net, placement, split=False)
    for pname, gname, _shape in grads:
        _add_update(g, pname, gname, placement, COMPUTE_THREAD, net.lr)
    swaps = BiGraph()
    _add_swaps(swaps, [(p, s) for p, _g, s in grads], placement, COMPUTE_THREAD)

    layout = Layout(
        data_names=("x",),
        label_names=("labels",),
        loss_names=("loss",),
        canonical_params=tuple(p for p, _g, _s in grads),
    )
    return GraphSequence([g, swaps], layout=layout)


def build_data_parallel(
    net: NetSpec, plan: ParallelPlan, *, split_backward: bool = False
) -> GraphSequence:
    """Synchronous data parallelism against a parameter server.

    The training graph is the core graph, the one ``build_sgd_iteration``
    adds its updates to, replicated once per peer: replica k is renamed
    ``_p{k}``, placed on ``plan.peers[k]`` and fed its own batch slice.
    Glue added in place joins the replicas to the server.  As soon as one
    layer's backward finishes, that layer's gradients copy up to the server
    on the peer's upload thread, overlapping the copy with the backward of
    the layers below.  The server averages the peers' gradients in rank
    order, applies one update to the canonical parameters, and broadcast
    copies carry the result back down on each peer's download thread.
    Swaps flip peer and server parameter buffers.

    ``split_backward`` emits separate data/weight/bias gradient operators,
    which only releases each layer's parameter gradients earlier: with or
    without it, the bottom layer's data gradient, which nothing reads, is
    not computed.
    """
    if plan.scheme != "data":
        raise GraphError(f"plan scheme must be 'data', got {plan.scheme!r}")
    base = plan.copy_thread_base
    n_peers = len(plan.peers)
    server_thread = base + 2 * n_peers
    server = plan.server

    core, grads = _core_graph(net, plan.peers[0], split_backward)
    g = replicate(core, n_peers, rename="_p{i}", place=plan.peers)

    for pname, _gname, shape in grads:
        g.add_tensor(pname, shape, server)
    for k, loc in enumerate(plan.peers):
        for _pname, gname, shape in grads:
            peer_grad = f"{gname}_p{k}"
            g.add_tensor(f"{peer_grad}_srv", shape, server)
            _op(g, f"up_{peer_grad}", "copy", [peer_grad], [f"{peer_grad}_srv"], loc,
                thread=base + 2 * k)
    for pname, gname, shape in grads:
        avg = f"{gname}_avg"
        g.add_tensor(avg, shape, server)
        parts = [f"{gname}_p{k}_srv" for k in range(n_peers)]
        _op(g, f"agg_{pname}", "aggregate", parts, [avg], server, thread=server_thread,
            attrs={"mode": "mean"})
        _add_update(g, pname, avg, server, server_thread, net.lr)
        for k, loc in enumerate(plan.peers):
            g.add_tensor(f"{pname}_new_p{k}", shape, loc)
            _op(g, f"down_{pname}_p{k}", "copy", [f"{pname}_new"],
                [f"{pname}_new_p{k}"], loc, thread=base + 2 * k + 1)

    swaps = BiGraph()
    for pname, _gname, shape in grads:
        _add_swaps(swaps, [(pname, shape)], server, server_thread)
        for k, loc in enumerate(plan.peers):
            _add_swaps(swaps, [(pname, shape)], loc, base + 2 * k + 1, f"_p{k}")

    canonical = tuple(p for p, _g, _s in grads)
    layout = Layout(
        data_names=tuple(f"x_p{k}" for k in range(n_peers)),
        label_names=tuple(f"labels_p{k}" for k in range(n_peers)),
        loss_names=tuple(f"loss_p{k}" for k in range(n_peers)),
        canonical_params=canonical,
        peer_params=tuple(
            tuple(f"{c}_p{k}" for c in canonical) for k in range(n_peers)
        ),
        copy_threads=frozenset(
            list(range(base, base + 2 * n_peers)) + [server_thread]
        ),
    )
    return GraphSequence([g, swaps], layout=layout)


def build_model_parallel_pipeline(net: NetSpec, plan: ParallelPlan) -> GraphSequence:
    """Forward net split into stages, replicated over micro-batches.

    Stage boundaries get copy operators; parameters are shared across
    replicas.  Each stage entry is gated on a token so replica r's stage s
    cannot start before replica r-1 leaves that stage — the staircase
    schedule is a hard graph dependency, not a scheduling accident.
    Replica 0's tokens are plain zero-filled sources; later replicas get
    theirs from a copy of the previous replica's stage output.
    """
    if plan.scheme != "model":
        raise GraphError(f"plan scheme must be 'model', got {plan.scheme!r}")
    steps = plan_steps(net)
    n_layers = len(net.layers)
    spans = [s.layers for s in plan.stages]
    if spans[0][0] != 0 or spans[-1][1] != n_layers:
        raise GraphError(f"stages must cover layers [0, {n_layers})")
    for (a, b), (c, _d) in zip(spans, spans[1:]):
        if b != c:
            raise GraphError("stages must be contiguous")
    if any(a >= b for a, b in spans):
        raise GraphError("every stage needs at least one layer")

    def stage_of(step: _Step) -> int:
        layer = step.layer if step.layer >= 0 else min(step.pos - 1, n_layers - 1)
        for s, (a, b) in enumerate(spans):
            if a <= layer < b:
                return s
        raise GraphError(f"layer {layer} not covered by any stage")

    base = plan.copy_thread_base
    template = BiGraph()
    first_loc = plan.stages[0].location
    template.add_tensor("x", steps[0].in_shape, first_loc)
    for step in steps:
        if step.w_shape is not None:
            loc = plan.stages[stage_of(step)].location
            template.add_tensor(f"w{step.pos}", step.w_shape, loc)
            template.add_tensor(f"b{step.pos}", step.b_shape, loc)

    # each stage's last step: its output shapes the stage's gate token and
    # feeds the next replica's token
    stage_last: dict[int, _Step] = {}
    for step in steps:
        stage_last[stage_of(step)] = step

    cur = "x"
    cur_stage = -1
    for step in steps:
        s = stage_of(step)
        loc = plan.stages[s].location
        if s != cur_stage:
            if cur_stage >= 0:
                moved = f"{cur}_s{s}"
                template.add_tensor(moved, template.tensor_named(cur).shape, loc)
                _op(template, f"stage{s}_in", "copy", [cur], [moved], loc, thread=base)
                cur = moved
            token = f"token_s{s}"
            template.add_tensor(token, stage_last[s].out_shape, loc)
            gated = f"{cur}_gate{s}"
            template.add_tensor(gated, template.tensor_named(cur).shape, loc)
            _op(template, f"gate{s}", "gate", [cur, token], [gated], loc, thread=base)
            cur = gated
            cur_stage = s
        out = _step_output_name(step)
        template.add_tensor(out, step.out_shape, loc)
        params = [] if step.w_shape is None else [f"w{step.pos}", f"b{step.pos}"]
        _op(template, f"{step.kind}{step.pos}", _FWD_OP[step.kind], [cur, *params],
            [out], loc, attrs=dict(step.attrs))
        cur = out

    shared = [c for c, _s in param_names(net)]
    g = replicate(template, plan.replicas, rename="_r{i}", shared=shared)

    # serialize each stage across replicas: replica r's gate token comes from
    # a copy of replica r-1's output of the same stage
    for s in range(len(plan.stages)):
        loc = plan.stages[s].location
        last_out = _step_output_name(stage_last[s])
        for r in range(1, plan.replicas):
            _op(g, f"token_s{s}_r{r}_feed", "copy", [f"{last_out}_r{r - 1}"],
                [f"token_s{s}_r{r}"], loc, thread=base + 1)

    final = _step_output_name(stage_last[len(plan.stages) - 1])
    layout = Layout(
        data_names=tuple(f"x_r{r}" for r in range(plan.replicas)),
        canonical_params=tuple(shared),
        token_names=tuple(f"token_s{s}_r0" for s in range(len(plan.stages))),
        output_names=tuple(f"{final}_r{r}" for r in range(plan.replicas)),
        copy_threads=frozenset({base, base + 1}),
    )
    return GraphSequence([g], layout=layout)


def fill_tokens(store: TensorStore, seq: GraphSequence) -> None:
    """Zero-fill replica 0's gate tokens (pipeline sources)."""
    layout = seq.layout
    graph = seq.graphs[0]
    for name in layout.token_names:
        store.set(name, np.zeros(graph.tensor_named(name).shape, dtype=np.float32))
