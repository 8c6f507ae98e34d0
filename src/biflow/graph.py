"""Bipartite dataflow graphs.

A :class:`BiGraph` holds two vertex classes: tensors (shaped buffers pinned
to a location) and operators (kernel applications pinned to a location and a
thread).  Edges run only between the classes: an operator's ``inputs`` are
tensor ids it reads, its ``outputs`` tensor ids it writes.  Construction
enforces the structural invariants incrementally — acyclicity, at most one
producer per tensor, co-location of every non-copy operator with its
tensors — so a graph assembled through the public API is valid by
construction.  ``validate`` re-checks everything from scratch and reports
sources and sinks.

Tensor names are the cross-graph identity: two graphs in one sequence that
name the same tensor share its buffer in the run's store.  Vertex ids are
graph-local.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import ops as _ops

__all__ = [
    "BiGraph",
    "GraphError",
    "GraphSequence",
    "Location",
    "OperatorVertex",
    "TensorVertex",
    "ValidationReport",
    "graph_from_json",
    "graph_to_json",
    "merge",
    "replicate",
]

HOST_CPU = -1


class GraphError(ValueError):
    """A structural precondition or invariant was violated."""


@dataclass(frozen=True)
class Location:
    """Where a vertex lives: a host name and a device ordinal.

    Device ``-1`` is the host CPU; non-negative ordinals are emulated
    accelerator contexts on that host.
    """

    host: str
    device: int = HOST_CPU

    def __post_init__(self) -> None:
        if not self.host or not isinstance(self.host, str):
            raise GraphError(f"location host must be a non-empty string, got {self.host!r}")
        if not isinstance(self.device, int) or self.device < HOST_CPU:
            raise GraphError(f"location device must be an int >= -1, got {self.device!r}")


@dataclass
class TensorVertex:
    id: int
    name: str
    shape: tuple[int, ...]
    location: Location


@dataclass
class OperatorVertex:
    id: int
    name: str
    kind: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    location: Location
    thread: int = 0
    attrs: dict = field(default_factory=dict)


@dataclass
class ValidationReport:
    sources: list[int]
    sinks: list[int]
    ok: bool
    violations: list[str]


class BiGraph:
    """A directed acyclic bipartite graph of tensors and operators."""

    def __init__(self) -> None:
        self.tensors: dict[int, TensorVertex] = {}
        self.operators: dict[int, OperatorVertex] = {}
        self.insertion_order: list[int] = []
        self._next_id = 0
        self._tensor_by_name: dict[str, int] = {}
        self._op_names: dict[str, int] = {}
        self._producer: dict[int, int] = {}
        self._consumers: dict[int, list[tuple[int, int]]] = {}

    # --- construction -----------------------------------------------------

    def _fresh_id(self) -> int:
        vid = self._next_id
        self._next_id += 1
        return vid

    def add_tensor(self, name: str, shape: Iterable[int], location: Location) -> int:
        """Register a tensor vertex; returns its graph-local id."""
        if not name:
            raise GraphError("tensor name must be non-empty")
        if name in self._tensor_by_name:
            raise GraphError(f"duplicate tensor name {name!r}")
        if not isinstance(location, Location):
            raise GraphError(f"location must be a Location, got {location!r}")
        dims = tuple(shape)
        # index() takes ints and numpy ints but no float, where int() would
        # truncate 2.7 to 2; bool is an int subclass, so it is refused by type
        try:
            shape = tuple(map(operator.index, dims))
        except TypeError:
            shape = None
        if shape is None or bool in map(type, dims):
            raise GraphError(f"tensor {name!r}: dims must be integers, got {dims!r}")
        try:
            _ops.check_shape(shape)
        except _ops.KernelError as exc:
            raise GraphError(str(exc)) from None
        vid = self._fresh_id()
        self.tensors[vid] = TensorVertex(vid, name, shape, location)
        self._tensor_by_name[name] = vid
        self._consumers[vid] = []
        return vid

    def _would_cycle(self, inputs: tuple[int, ...], outputs: tuple[int, ...]) -> bool:
        # Adding the operator creates edges input -> op -> output; a cycle
        # appears exactly when some output already reaches some input.
        targets = set(inputs)
        seen: set[int] = set()
        stack = list(outputs)
        while stack:
            tid = stack.pop()
            if tid in targets:
                return True
            if tid in seen:
                continue
            seen.add(tid)
            for op_id, _pos in self._consumers.get(tid, ()):
                stack.extend(self.operators[op_id].outputs)
        return False

    def add_operator(
        self,
        name: str,
        kind: str,
        inputs: Iterable[int],
        outputs: Iterable[int],
        location: Location,
        thread: int = 0,
        attrs: dict | None = None,
    ) -> int:
        """Register an operator vertex wired to existing tensors.

        Raises :class:`GraphError` on unknown tensor ids, arity or shape
        mismatches for registry-known kinds, location mismatches for
        non-copy kinds, a second producer for any output, or a cycle.
        """
        if not name:
            raise GraphError("operator name must be non-empty")
        if name in self._op_names:
            raise GraphError(f"duplicate operator name {name!r}")
        if not isinstance(location, Location):
            raise GraphError(f"location must be a Location, got {location!r}")
        if not isinstance(thread, int) or thread < 0:
            raise GraphError(f"operator thread must be an int >= 0, got {thread!r}")
        inputs = tuple(int(i) for i in inputs)
        outputs = tuple(int(o) for o in outputs)
        attrs = dict(attrs or {})

        for tid in (*inputs, *outputs):
            if tid not in self.tensors:
                raise GraphError(f"operator {name!r} references unknown tensor id {tid}")
        if set(inputs) & set(outputs):
            raise GraphError(
                f"operator {name!r} lists a tensor as both input and output"
            )
        if len(set(outputs)) != len(outputs):
            raise GraphError(f"operator {name!r} lists a duplicate output")
        for tid in outputs:
            if tid in self._producer:
                raise GraphError(
                    f"tensor {self.tensors[tid].name!r} already has a producer "
                    f"({self.operators[self._producer[tid]].name!r})"
                )

        spec = _ops.KINDS.get(kind)
        if spec is not None:
            self._check_shapes(spec, name, inputs, outputs, attrs)

        crosses = spec.crosses_location if spec is not None else False
        if not crosses:
            for tid in (*inputs, *outputs):
                tloc = self.tensors[tid].location
                if tloc != location:
                    raise GraphError(
                        f"operator {name!r} at {location} touches tensor "
                        f"{self.tensors[tid].name!r} at {tloc}; only copy may cross"
                    )

        if self._would_cycle(inputs, outputs):
            raise GraphError(f"operator {name!r} would close a cycle")

        vid = self._fresh_id()
        self.operators[vid] = OperatorVertex(
            vid, name, kind, inputs, outputs, location, thread, attrs
        )
        self.insertion_order.append(vid)
        self._op_names[name] = vid
        for pos, tid in enumerate(inputs):
            self._consumers[tid].append((vid, pos))
        for tid in outputs:
            self._producer[tid] = vid
        return vid

    def add_operator_from(
        self, op: OperatorVertex, tensor_ids, name: str | None = None
    ) -> int:
        """Re-add ``op`` of another graph here, under ``name`` (default: its
        own), with its tensor ids translated through ``tensor_ids``."""
        return self.add_operator(
            op.name if name is None else name,
            op.kind,
            [tensor_ids[i] for i in op.inputs],
            [tensor_ids[o] for o in op.outputs],
            op.location,
            op.thread,
            op.attrs,
        )

    def _check_shapes(self, spec, name, inputs, outputs, attrs) -> None:
        try:
            spec.check_shapes(
                [self.tensors[t].shape for t in inputs],
                [self.tensors[t].shape for t in outputs],
                attrs,
            )
        except _ops.KernelError as exc:
            raise GraphError(f"operator {name!r}: {exc}") from None

    # --- lookups ----------------------------------------------------------

    def tensor_id(self, name: str) -> int:
        try:
            return self._tensor_by_name[name]
        except KeyError:
            raise GraphError(f"no tensor named {name!r}") from None

    def has_tensor(self, name: str) -> bool:
        return name in self._tensor_by_name

    def tensor_named(self, name: str) -> TensorVertex:
        return self.tensors[self.tensor_id(name)]

    def operator_id(self, name: str) -> int:
        try:
            return self._op_names[name]
        except KeyError:
            raise GraphError(f"no operator named {name!r}") from None

    def operator_named(self, name: str) -> OperatorVertex:
        return self.operators[self.operator_id(name)]

    def producer_of(self, tensor_id: int) -> int | None:
        return self._producer.get(tensor_id)

    def consumers_of(self, tensor_id: int) -> list[tuple[int, int]]:
        return list(self._consumers.get(tensor_id, ()))

    def operators_in_order(self) -> list[OperatorVertex]:
        return [self.operators[i] for i in self.insertion_order]

    # --- analysis ---------------------------------------------------------

    def toposort(self) -> list[int]:
        """Operator ids in a dependency-respecting order (Kahn, stable)."""
        pending = {
            oid: sum(1 for t in op.inputs if t in self._producer)
            for oid, op in self.operators.items()
        }
        order: list[int] = []
        ready = deque(oid for oid in self.insertion_order if pending[oid] == 0)
        while ready:
            oid = ready.popleft()
            order.append(oid)
            for tid in self.operators[oid].outputs:
                for cid, _pos in self._consumers.get(tid, ()):
                    pending[cid] -= 1
                    if pending[cid] == 0:
                        ready.append(cid)
        if len(order) != len(self.operators):
            stuck = [
                self.operators[oid].name for oid in self.insertion_order if pending[oid] > 0
            ]
            raise GraphError(f"graph is cyclic; operators on a cycle: {stuck}")
        return order

    def validate(self) -> ValidationReport:
        """Full structural scan; never raises, reports violations instead."""
        violations: list[str] = []

        producers: dict[int, list[int]] = {tid: [] for tid in self.tensors}
        consumers: dict[int, int] = {tid: 0 for tid in self.tensors}
        for oid in self.insertion_order:
            op = self.operators[oid]
            for tid in (*op.inputs, *op.outputs):
                if tid not in self.tensors:
                    violations.append(
                        f"operator {op.name!r} references unknown vertex id {tid}"
                    )
            for tid in op.inputs:
                if tid in consumers:
                    consumers[tid] += 1
            for tid in op.outputs:
                if tid in producers:
                    producers[tid].append(oid)

        for tid, plist in producers.items():
            if len(plist) > 1:
                names = [self.operators[p].name for p in plist]
                violations.append(
                    f"tensor {self.tensors[tid].name!r} has {len(plist)} producers: {names}"
                )

        for oid in self.insertion_order:
            op = self.operators[oid]
            spec = _ops.KINDS.get(op.kind)
            crosses = spec.crosses_location if spec is not None else False
            if spec is not None and all(
                t in self.tensors for t in (*op.inputs, *op.outputs)
            ):
                try:
                    self._check_shapes(spec, op.name, op.inputs, op.outputs, op.attrs)
                except GraphError as exc:
                    violations.append(str(exc))
            if not crosses:
                for tid in (*op.inputs, *op.outputs):
                    if tid in self.tensors and self.tensors[tid].location != op.location:
                        violations.append(
                            f"operator {op.name!r} is not co-located with tensor "
                            f"{self.tensors[tid].name!r}"
                        )

        for t in self.tensors.values():
            try:
                _ops.check_shape(t.shape)
            except _ops.KernelError as exc:
                violations.append(str(exc))

        try:
            self.toposort()
        except GraphError as exc:
            violations.append(str(exc))

        sources: list[int] = []
        sinks: list[int] = []
        for tid in self.tensors:
            if not producers[tid]:
                sources.append(tid)
            if consumers[tid] == 0:
                sinks.append(tid)
        for oid in self.insertion_order:
            op = self.operators[oid]
            if not op.inputs:
                sources.append(oid)
            if not op.outputs:
                sinks.append(oid)
        sources.sort()
        sinks.sort()
        return ValidationReport(sources, sinks, not violations, violations)

    # --- misc -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BiGraph(tensors={len(self.tensors)}, operators={len(self.operators)})"


@dataclass
class GraphSequence:
    """An ordered list of graphs, run in rotation once per iteration; the
    run call sets the number of iterations.

    The completion of each graph is the synchronization point: graph ``i+1``
    of an iteration never starts before every sink of graph ``i`` is reached.
    """

    graphs: list[BiGraph]
    layout: object | None = None

    def __post_init__(self) -> None:
        if not self.graphs:
            raise GraphError("a sequence needs at least one graph")


# ---------------------------------------------------------------------------
# Structural transforms


def _copy_into(
    dst: BiGraph,
    src: BiGraph,
    tensor_name: Callable[[str], str],
    op_name: Callable[[str], str],
    skip_tensor: Callable[[str], bool] = lambda n: False,
) -> dict[int, int]:
    """Copy src's vertices into dst with renamed identities; returns id map."""
    id_map: dict[int, int] = {}
    for tid, t in src.tensors.items():
        if skip_tensor(t.name):
            id_map[tid] = dst.tensor_id(t.name)
            continue
        id_map[tid] = dst.add_tensor(tensor_name(t.name), t.shape, t.location)
    for op in src.operators_in_order():
        dst.add_operator_from(op, id_map, op_name(op.name))
    return id_map


def _fresh_name(base: str, taken: Callable[[str], bool]) -> str:
    if not taken(base):
        return base
    i = 2
    while taken(f"{base}_m{i}"):
        i += 1
    return f"{base}_m{i}"


def merge(a: BiGraph, b: BiGraph, bind: dict[str, str] | None = None) -> BiGraph:
    """Fuse two graphs into a new one, gluing tensors named in ``bind``.

    ``bind`` maps a tensor name of ``a`` to a tensor name of ``b``; each
    bound pair becomes a single vertex (keeping the ``a`` name).  All other
    vertices are carried over, renamed only when names collide.  Inputs are
    left untouched.  Raises on unknown names, shape or location mismatches
    on a binding, a bound tensor produced in both graphs, or a cycle
    created by the fusion.
    """
    bind = dict(bind or {})
    for a_name, b_name in bind.items():
        if not a.has_tensor(a_name):
            raise GraphError(f"merge: graph a has no tensor named {a_name!r}")
        if not b.has_tensor(b_name):
            raise GraphError(f"merge: graph b has no tensor named {b_name!r}")
        ta, tb = a.tensor_named(a_name), b.tensor_named(b_name)
        if ta.shape != tb.shape:
            raise GraphError(
                f"merge: binding {a_name!r}->{b_name!r} joins shapes {ta.shape} and {tb.shape}"
            )
        if ta.location != tb.location:
            raise GraphError(
                f"merge: binding {a_name!r}->{b_name!r} joins locations "
                f"{ta.location} and {tb.location}"
            )

    out = BiGraph()
    _copy_into(out, a, lambda n: n, lambda n: n)

    bound_b_names = {b_name: a_name for a_name, b_name in bind.items()}
    id_map: dict[int, int] = {}
    for tid, t in b.tensors.items():
        if t.name in bound_b_names:
            id_map[tid] = out.tensor_id(bound_b_names[t.name])
        else:
            name = _fresh_name(t.name, out.has_tensor)
            id_map[tid] = out.add_tensor(name, t.shape, t.location)
    for op in b.operators_in_order():
        name = _fresh_name(op.name, lambda n: n in out._op_names)
        try:
            out.add_operator_from(op, id_map, name)
        except GraphError as exc:
            raise GraphError(f"merge: {exc}") from None
    return out


def replicate(
    graph: BiGraph,
    k: int,
    rename: str = "_r{i}",
    shared: Iterable[str] = (),
) -> BiGraph:
    """Build ``k`` disjoint copies of a graph inside one new graph.

    Vertices are renamed per replica by appending ``rename`` formatted with
    the replica index.  Tensors named in ``shared`` appear once, under their
    original name, and are referenced by every replica; everything else is
    duplicated.  Raises on unknown shared names.
    """
    if k < 1:
        raise GraphError(f"replicate: k must be >= 1, got {k}")
    shared = set(shared)
    for name in shared:
        if not graph.has_tensor(name):
            raise GraphError(f"replicate: no tensor named {name!r} to share")

    out = BiGraph()
    for name in sorted(shared, key=graph.tensor_id):
        t = graph.tensor_named(name)
        out.add_tensor(t.name, t.shape, t.location)
    for i in range(k):
        suffix = rename.format(i=i)
        _copy_into(
            out,
            graph,
            tensor_name=lambda n, s=suffix: n + s,
            op_name=lambda n, s=suffix: n + s,
            skip_tensor=lambda n: n in shared,
        )
    return out


# ---------------------------------------------------------------------------
# JSON graph-spec format


def graph_to_json(graph: BiGraph) -> dict:
    """Serialize to the text graph-spec format (tensors referenced by name)."""
    return {
        "tensors": [
            {
                "name": t.name,
                "shape": list(t.shape),
                "host": t.location.host,
                "device": t.location.device,
            }
            for t in sorted(graph.tensors.values(), key=lambda t: t.id)
        ],
        "operators": [
            {
                "name": op.name,
                "kind": op.kind,
                "inputs": [graph.tensors[i].name for i in op.inputs],
                "outputs": [graph.tensors[o].name for o in op.outputs],
                "host": op.location.host,
                "device": op.location.device,
                "thread": op.thread,
                "attrs": dict(op.attrs),
            }
            for op in graph.operators_in_order()
        ],
    }


def graph_from_json(obj: dict) -> BiGraph:
    """Parse the text graph-spec format produced by :func:`graph_to_json`."""
    if not isinstance(obj, dict) or "tensors" not in obj or "operators" not in obj:
        raise GraphError("graph spec must be an object with 'tensors' and 'operators'")
    g = BiGraph()
    for entry in obj["tensors"]:
        try:
            g.add_tensor(
                entry["name"],
                entry["shape"],
                Location(entry["host"], int(entry.get("device", HOST_CPU))),
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad tensor entry {entry!r}: {exc}") from None
    for entry in obj["operators"]:
        try:
            g.add_operator(
                entry["name"],
                entry["kind"],
                [g.tensor_id(n) for n in entry.get("inputs", [])],
                [g.tensor_id(n) for n in entry.get("outputs", [])],
                Location(entry["host"], int(entry.get("device", HOST_CPU))),
                int(entry.get("thread", 0)),
                dict(entry.get("attrs", {})),
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad operator entry {entry!r}: {exc}") from None
    return g
