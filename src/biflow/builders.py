"""Graph-composition recipes for training schemes.

Everything here is a pure constructor: networks become bi-graphs, and the
parallelization schemes — iterated SGD, data parallelism with a parameter
server, pipelined model parallelism — are expressed purely as graph wiring
plus placement metadata.  No scheme has any runtime code of its own; the
dispatcher's readiness rules do all the work.
"""

from __future__ import annotations

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


def _param_array(name: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Seeded per canonical name, so every replica of a parameter is
    bit-identical no matter which graph asked for it."""
    if name.startswith("b"):
        return np.zeros(shape, dtype=np.float32)
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    fan_in = prod(shape[:-1]) if len(shape) == 2 else prod(shape[1:])
    scale = np.sqrt(2.0 / max(fan_in, 1))
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def init_params(net: NetSpec, store: TensorStore, seed: int, layout: Layout) -> None:
    """Write every parameter tensor the layout names into the store."""
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
    ``FEED_BLOCK`` samples has its own stream, keyed by (seed, iteration,
    block), so sample i depends only on (seed, iteration, i): k peers at
    batch B see exactly the same data as one peer at batch k·B, and a host
    that feeds one rank draws only the blocks that rank's slice covers.
    The blocks of the last iteration asked for are kept, read-only, so the
    peers of an iteration share one draw.
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
        rng = np.random.default_rng([self.seed, 5])
        c = rng.standard_normal((self.classes, *self.input_shape))
        return (c * self.spread).astype(np.float32)

    def _draw(self, n: int, *key: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([self.seed, *key])
        labels = rng.integers(0, self.classes, n)
        x = self._centers[labels] + (
            rng.standard_normal((n, *self.input_shape)) * self.noise
        ).astype(np.float32)
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


def _add_forward(g, steps, suffix, loc, thread):
    """Add sources and the forward chain; returns the tape of
    (step, in_name, out_name) plus the logits tensor name."""
    g.add_tensor(f"x{suffix}", steps[0].in_shape, loc)
    for step in steps:
        if step.w_shape is not None:
            g.add_tensor(f"w{step.pos}{suffix}", step.w_shape, loc)
            g.add_tensor(f"b{step.pos}{suffix}", step.b_shape, loc)
    tape = []
    cur = f"x{suffix}"
    for step in steps:
        out = _step_output_name(step) + suffix
        g.add_tensor(out, step.out_shape, loc)
        ins = [g.tensor_id(cur)]
        if step.w_shape is not None:
            ins += [g.tensor_id(f"w{step.pos}{suffix}"),
                    g.tensor_id(f"b{step.pos}{suffix}")]
        g.add_operator(
            f"{step.kind}{step.pos}{suffix}", _FWD_OP[step.kind],
            ins, [g.tensor_id(out)], loc, thread=thread, attrs=dict(step.attrs),
        )
        tape.append((step, cur, out))
        cur = out
    return tape, cur


def _add_loss(g, suffix, loc, thread, logits, batch):
    g.add_tensor(f"labels{suffix}", (batch,), loc)
    g.add_tensor(f"loss{suffix}", (1,), loc)
    dlogits = f"d{logits}"
    g.add_tensor(dlogits, g.tensor_named(logits).shape, loc)
    g.add_operator(
        f"loss{suffix}", "softmax_xent",
        [g.tensor_id(logits), g.tensor_id(f"labels{suffix}")],
        [g.tensor_id(f"loss{suffix}"), g.tensor_id(dlogits)],
        loc, thread=thread,
    )
    return dlogits


_BWD_OP = {"fc": "fc_backward", "conv": "conv2d_backward"}
_BWD_SPLIT = {
    "fc": ("fc_backward_data", "fc_backward_weight", "fc_backward_bias"),
    "conv": ("conv2d_backward_data", "conv2d_backward_weight",
             "conv2d_backward_bias"),
}


def _add_backward(g, tape, suffix, loc, thread, dlogits, split):
    """Reverse walk over the tape.  Returns [(param, grad, shape)] pairs in
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
        name = f"bwd_{step.kind}{step.pos}{suffix}"
        if step.kind in ("relu", "flatten"):
            kind = "relu_backward" if step.kind == "relu" else "flatten_backward"
            g.add_tensor(dx, step.in_shape, loc)
            g.add_operator(
                name, kind, [g.tensor_id(x_name), g.tensor_id(dy)],
                [g.tensor_id(dx)], loc, thread=thread,
            )
        else:
            w = f"w{step.pos}{suffix}"
            b = f"b{step.pos}{suffix}"
            dw, db = f"d{w}", f"d{b}"
            g.add_tensor(dw, step.w_shape, loc)
            g.add_tensor(db, step.b_shape, loc)
            grads_by_layer.append([(w, dw, step.w_shape), (b, db, step.b_shape)])
            if split or i == bottom:
                data_kind, weight_kind, bias_kind = _BWD_SPLIT[step.kind]
                if i != bottom:
                    g.add_tensor(dx, step.in_shape, loc)
                    data_in = (
                        [g.tensor_id(w), g.tensor_id(dy)] if step.kind == "fc"
                        else [g.tensor_id(x_name), g.tensor_id(w), g.tensor_id(dy)]
                    )
                    g.add_operator(
                        name + "_data", data_kind, data_in, [g.tensor_id(dx)],
                        loc, thread=thread, attrs=dict(step.attrs),
                    )
                weight_in = [g.tensor_id(x_name), g.tensor_id(dy)]
                if step.kind == "conv":
                    weight_in = [g.tensor_id(x_name), g.tensor_id(w), g.tensor_id(dy)]
                g.add_operator(
                    name + "_weight", weight_kind, weight_in, [g.tensor_id(dw)],
                    loc, thread=thread, attrs=dict(step.attrs),
                )
                g.add_operator(
                    name + "_bias", bias_kind, [g.tensor_id(dy)], [g.tensor_id(db)],
                    loc, thread=thread,
                )
            else:
                g.add_tensor(dx, step.in_shape, loc)
                g.add_operator(
                    name, _BWD_OP[step.kind],
                    [g.tensor_id(x_name), g.tensor_id(w), g.tensor_id(dy)],
                    [g.tensor_id(dx), g.tensor_id(dw), g.tensor_id(db)],
                    loc, thread=thread, attrs=dict(step.attrs),
                )
        dy = dx
    # reverse the walk back into layer order: w1, b1, w2, b2, ...
    return [pair for layer in reversed(grads_by_layer) for pair in layer]


# ---------------------------------------------------------------------------
# scheme builders


def build_sgd_iteration(
    net: NetSpec, placement: Location = Location("local", 0)
) -> GraphSequence:
    """[training graph, parameter-swap graph] for plain iterated SGD.

    The training graph runs forward, loss, backward, and writes updated
    parameters to fresh ``*_new`` tensors; the swap graph exchanges the
    buffer handles so the next iteration reads the update without any
    cyclic edge.
    """
    steps = plan_steps(net)
    g = BiGraph()
    tape, logits = _add_forward(g, steps, "", placement, COMPUTE_THREAD)
    dlogits = _add_loss(g, "", placement, COMPUTE_THREAD, logits, net.batch)
    grads = _add_backward(g, tape, "", placement, COMPUTE_THREAD, dlogits,
                          split=False)
    for pname, gname, shape in grads:
        g.add_tensor(f"{pname}_new", shape, placement)
        g.add_operator(
            f"upd_{pname}", "sgd_update",
            [g.tensor_id(pname), g.tensor_id(gname)],
            [g.tensor_id(f"{pname}_new")],
            placement, thread=COMPUTE_THREAD, attrs={"lr": net.lr},
        )

    swaps = BiGraph()
    for pname, _gname, shape in grads:
        swaps.add_tensor(pname, shape, placement)
        swaps.add_tensor(f"{pname}_new", shape, placement)
        swaps.add_operator(
            f"swap_{pname}", "swap", [],
            [swaps.tensor_id(pname), swaps.tensor_id(f"{pname}_new")],
            placement, thread=COMPUTE_THREAD,
        )

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

    Every peer owns a full replica (tensors suffixed ``_p{k}``) fed with its
    own batch slice.  As soon as one layer's backward finishes, that layer's
    gradients copy to the server on the peer's dedicated upload thread —
    overlapping the copy with the backward of the layers below.  The server
    averages the peers' gradients in rank order, applies one update to the
    canonical parameters, and broadcast copies carry the result back on each
    peer's download thread.  Swaps flip peer and server parameter buffers.

    ``split_backward`` emits separate data/weight/bias gradient operators,
    which only releases each layer's parameter gradients earlier: with or
    without it, the bottom layer's data gradient, which nothing reads, is
    not computed.
    """
    if plan.scheme != "data":
        raise GraphError(f"plan scheme must be 'data', got {plan.scheme!r}")
    steps = plan_steps(net)
    base = plan.copy_thread_base
    n_peers = len(plan.peers)
    server_thread = base + 2 * n_peers
    server = plan.server

    g = BiGraph()
    canonical = param_names(net)
    for cname, shape in canonical:
        g.add_tensor(cname, shape, server)

    per_peer_grads: list[list[tuple[str, str, tuple[int, ...]]]] = []
    for k, loc in enumerate(plan.peers):
        sfx = f"_p{k}"
        tape, logits = _add_forward(g, steps, sfx, loc, COMPUTE_THREAD)
        dlogits = _add_loss(g, sfx, loc, COMPUTE_THREAD, logits, net.batch)
        grads = _add_backward(g, tape, sfx, loc, COMPUTE_THREAD, dlogits,
                              split=split_backward)
        per_peer_grads.append(grads)
        for pname, gname, shape in grads:
            g.add_tensor(f"{gname}_srv", shape, server)
            g.add_operator(
                f"up_{gname}", "copy",
                [g.tensor_id(gname)], [g.tensor_id(f"{gname}_srv")],
                loc, thread=base + 2 * k,
            )

    for j, (cname, shape) in enumerate(canonical):
        parts = [per_peer_grads[k][j][1] + "_srv" for k in range(n_peers)]
        g.add_tensor(f"d{cname}_avg", shape, server)
        g.add_operator(
            f"agg_{cname}", "aggregate",
            [g.tensor_id(p) for p in parts], [g.tensor_id(f"d{cname}_avg")],
            server, thread=server_thread, attrs={"mode": "mean"},
        )
        g.add_tensor(f"{cname}_new", shape, server)
        g.add_operator(
            f"upd_{cname}", "sgd_update",
            [g.tensor_id(cname), g.tensor_id(f"d{cname}_avg")],
            [g.tensor_id(f"{cname}_new")],
            server, thread=server_thread, attrs={"lr": net.lr},
        )
        for k, loc in enumerate(plan.peers):
            g.add_tensor(f"{cname}_new_p{k}", shape, loc)
            g.add_operator(
                f"down_{cname}_p{k}", "copy",
                [g.tensor_id(f"{cname}_new")],
                [g.tensor_id(f"{cname}_new_p{k}")],
                loc, thread=base + 2 * k + 1,
            )

    swaps = BiGraph()
    for j, (cname, shape) in enumerate(canonical):
        swaps.add_tensor(cname, shape, server)
        swaps.add_tensor(f"{cname}_new", shape, server)
        swaps.add_operator(
            f"swap_{cname}", "swap", [],
            [swaps.tensor_id(cname), swaps.tensor_id(f"{cname}_new")],
            server, thread=server_thread,
        )
        for k, loc in enumerate(plan.peers):
            swaps.add_tensor(f"{cname}_p{k}", shape, loc)
            swaps.add_tensor(f"{cname}_new_p{k}", shape, loc)
            swaps.add_operator(
                f"swap_{cname}_p{k}", "swap", [],
                [swaps.tensor_id(f"{cname}_p{k}"),
                 swaps.tensor_id(f"{cname}_new_p{k}")],
                loc, thread=base + 2 * k + 1,
            )

    layout = Layout(
        data_names=tuple(f"x_p{k}" for k in range(n_peers)),
        label_names=tuple(f"labels_p{k}" for k in range(n_peers)),
        loss_names=tuple(f"loss_p{k}" for k in range(n_peers)),
        canonical_params=tuple(c for c, _s in canonical),
        peer_params=tuple(
            tuple(f"{c}_p{k}" for c, _s in canonical) for k in range(n_peers)
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
                template.add_operator(
                    f"stage{s}_in", "copy",
                    [template.tensor_id(cur)], [template.tensor_id(moved)],
                    loc, thread=base,
                )
                cur = moved
            token = f"token_s{s}"
            template.add_tensor(token, stage_last[s].out_shape, loc)
            gated = f"{cur}_gate{s}"
            template.add_tensor(gated, template.tensor_named(cur).shape, loc)
            template.add_operator(
                f"gate{s}", "gate",
                [template.tensor_id(cur), template.tensor_id(token)],
                [template.tensor_id(gated)], loc, thread=base,
            )
            cur = gated
            cur_stage = s
        out = _step_output_name(step)
        template.add_tensor(out, step.out_shape, loc)
        ins = [template.tensor_id(cur)]
        if step.w_shape is not None:
            ins += [template.tensor_id(f"w{step.pos}"),
                    template.tensor_id(f"b{step.pos}")]
        template.add_operator(
            f"{step.kind}{step.pos}", _FWD_OP[step.kind],
            ins, [template.tensor_id(out)], loc,
            thread=COMPUTE_THREAD, attrs=dict(step.attrs),
        )
        cur = out

    shared = [c for c, _s in param_names(net)]
    g = replicate(template, plan.replicas, rename="_r{i}", shared=shared)

    # serialize each stage across replicas: replica r's gate token comes from
    # a copy of replica r-1's output of the same stage
    for s in range(len(plan.stages)):
        loc = plan.stages[s].location
        last_out = _step_output_name(stage_last[s])
        for r in range(1, plan.replicas):
            g.add_operator(
                f"token_s{s}_r{r}_feed", "copy",
                [g.tensor_id(f"{last_out}_r{r - 1}")],
                [g.tensor_id(f"token_s{s}_r{r}")],
                loc, thread=base + 1,
            )

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
