"""Bipartite dataflow graphs.

A :class:`BiGraph` holds two vertex classes: tensors (shaped buffers pinned
to a location) and operators (kernel applications pinned to a location and a
thread).  Edges run only between the classes: an operator's ``inputs`` are
tensor ids it reads, its ``outputs`` tensor ids it writes.  Each structural
invariant is checked once, where a vertex is added: known ids, tensor
shapes, acyclicity, at most one producer per tensor, each known kind's shape
rule, and co-location of every non-copy operator with its tensors.  Vertices
are frozen, so no later edit can break these; the one mutable field is an
operator's ``attrs`` dict, and editing it can break only its shape rule.
So ``validate`` re-runs the shape rules alone, and reports sources and sinks.

Tensor names are the cross-graph identity: two graphs in one sequence that
name the same tensor share its buffer in the run's store.  Vertex ids are
graph-local.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class TensorVertex:
    id: int
    name: str
    shape: tuple[int, ...]
    location: Location


@dataclass(frozen=True)
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
        self._io_names: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}

    # --- construction -----------------------------------------------------

    def _fresh_id(self) -> int:
        vid = self._next_id
        self._next_id += 1
        return vid

    def add_tensor(self, name: str, shape: Iterable[int], location: Location) -> int:
        """Register a tensor vertex; returns its graph-local id."""
        if not isinstance(location, Location):
            raise GraphError(f"location must be a Location, got {location!r}")
        dims = tuple(shape)
        try:  # no float, which int() would truncate, and no bool
            shape = tuple(map(_ops.as_index, dims))
        except TypeError:
            raise GraphError(
                f"tensor {name!r}: dims must be integers, got {dims!r}"
            ) from None
        try:
            _ops.check_shape(shape)
        except _ops.KernelError as exc:
            raise GraphError(str(exc)) from None
        return self._insert_tensor(name, shape, location)

    def _insert_tensor(
        self, name: str, shape: tuple[int, ...], location: Location
    ) -> int:
        """Register a tensor whose shape and location are known to be valid."""
        if not name:
            raise GraphError("tensor name must be non-empty")
        if name in self._tensor_by_name:
            raise GraphError(f"duplicate tensor name {name!r}")
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
        spec = _ops.KINDS.get(kind)
        if spec is not None:
            self._check_shapes(spec, name, inputs, outputs, attrs)
        if self._would_cycle(inputs, outputs):
            raise GraphError(f"operator {name!r} would close a cycle")
        return self._insert_operator(
            name, kind, inputs, outputs, location, thread, attrs
        )

    def _insert_operator(
        self, name, kind, inputs, outputs, location, thread, attrs
    ) -> int:
        """Register an operator known to close no cycle and to fit its kind's
        shape rule, with ``inputs`` and ``outputs`` distinct known tensor ids.
        Checks the rest: a unique name, one producer per output, and that
        only a copy crosses locations."""
        if not name:
            raise GraphError("operator name must be non-empty")
        if name in self._op_names:
            raise GraphError(f"duplicate operator name {name!r}")
        for tid in outputs:
            if tid in self._producer:
                raise GraphError(
                    f"tensor {self.tensors[tid].name!r} already has a producer "
                    f"({self.operators[self._producer[tid]].name!r})"
                )
        spec = _ops.KINDS.get(kind)
        if spec is None or not spec.crosses_location:
            for tid in (*inputs, *outputs):
                tloc = self.tensors[tid].location
                if tloc != location:
                    raise GraphError(
                        f"operator {name!r} at {location} touches tensor "
                        f"{self.tensors[tid].name!r} at {tloc}; only copy may cross"
                    )

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

    def add_operator_from(self, op: OperatorVertex, tensor_ids) -> int:
        """Re-add ``op`` of another graph here, with its tensor ids
        translated through ``tensor_ids`` onto tensors of the same shapes:
        ``transport.partition_by_host`` moves each operator into its host's
        subgraph this way.  Its shape rule held where it was added, and a
        subset of an acyclic graph's edges closes no cycle, so only the
        name, the producers and the co-location are checked (as for each
        replica of :func:`replicate`)."""
        return self._insert_operator(
            op.name,
            op.kind,
            tuple(tensor_ids[i] for i in op.inputs),
            tuple(tensor_ids[o] for o in op.outputs),
            op.location,
            op.thread,
            dict(op.attrs),
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

    def io_names(self, op: OperatorVertex) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The names of ``op``'s input and output tensors, in edge order.

        Resolved on the first call for each operator and kept: no vertex is
        removed or renamed, and an operator's edges are fixed when it is
        added.  Every ``bind`` hook in ``ops.KINDS`` reads names here.
        """
        names = self._io_names.get(op.id)
        if names is None:
            tensors = self.tensors
            names = self._io_names[op.id] = (
                tuple(tensors[t].name for t in op.inputs),
                tuple(tensors[t].name for t in op.outputs),
            )
        return names

    def operators_in_order(self) -> list[OperatorVertex]:
        return [self.operators[i] for i in self.insertion_order]

    # --- analysis ---------------------------------------------------------

    def toposort(self) -> list[int]:
        """Operator ids in a dependency-respecting order (Kahn, stable).
        The graph is acyclic by construction, so every operator is listed."""
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
        return order

    def validate(self) -> ValidationReport:
        """Re-run each known kind's shape rule, which an ``attrs`` edit can
        break, and list the sources and sinks; never raises, reports
        violations instead.  Sources are the tensors with no producer and
        the operators with no inputs; sinks, the tensors with no consumer
        and the operators with no outputs."""
        violations: list[str] = []
        for op in self.operators_in_order():
            spec = _ops.KINDS.get(op.kind)
            if spec is not None:
                try:
                    self._check_shapes(spec, op.name, op.inputs, op.outputs, op.attrs)
                except GraphError as exc:
                    violations.append(str(exc))
        ops = self.operators.items()
        sources = [t for t in self.tensors if t not in self._producer]
        sources += [oid for oid, op in ops if not op.inputs]
        sinks = [t for t, users in self._consumers.items() if not users]
        sinks += [oid for oid, op in ops if not op.outputs]
        return ValidationReport(sorted(sources), sorted(sinks), not violations, violations)

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


def replicate(
    graph: BiGraph,
    k: int,
    rename: str = "_r{i}",
    shared: Iterable[str] = (),
    place: Sequence[Location] | None = None,
) -> BiGraph:
    """Build ``k`` disjoint copies of a graph inside one new graph.

    Vertices are renamed per replica by appending ``rename`` formatted with
    the replica index.  Tensors named in ``shared`` appear once, under their
    original name and at their own location, and are referenced by every
    replica; everything else is duplicated.  With ``place``, one location
    per replica, replica ``i``'s tensors and operators move to ``place[i]``;
    the template's other vertices must then sit on one location.  Raises on
    unknown shared names and on a placement that breaks either rule.
    """
    if k < 1:
        raise GraphError(f"replicate: k must be >= 1, got {k}")
    shared = set(shared)
    for name in shared:
        if not graph.has_tensor(name):
            raise GraphError(f"replicate: no tensor named {name!r} to share")
    if place is not None:
        place = tuple(place)
        if len(place) != k:
            raise GraphError(
                f"replicate: placement names {len(place)} locations for {k} replicas"
            )
        spans = {t.location for t in graph.tensors.values() if t.name not in shared}
        spans.update(op.location for op in graph.operators.values())
        if len(spans) > 1:
            raise GraphError(
                f"replicate: a placed template must sit on one location, "
                f"it spans {sorted(map(str, spans))}"
            )

    out = BiGraph()
    for name in sorted(shared, key=graph.tensor_id):
        t = graph.tensor_named(name)
        out.add_tensor(t.name, t.shape, t.location)
    # A replica keeps the template's shapes and edges, so its shape rules
    # hold and it closes no cycle: only the names, the producers and the
    # locations that renaming, sharing and placing can break are checked.
    for i in range(k):
        suffix = rename.format(i=i)
        loc = None if place is None else place[i]
        ids: dict[int, int] = {}
        for tid, t in graph.tensors.items():
            if t.name in shared:
                ids[tid] = out.tensor_id(t.name)
            else:
                ids[tid] = out._insert_tensor(
                    t.name + suffix, t.shape, t.location if loc is None else loc
                )
        for op in graph.operators_in_order():
            out._insert_operator(
                op.name + suffix, op.kind,
                tuple(ids[t] for t in op.inputs), tuple(ids[t] for t in op.outputs),
                op.location if loc is None else loc, op.thread, dict(op.attrs),
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


def _entry_location(entry: dict) -> Location:
    # by as_index, not int(): a device of 0.7 is an error, not device 0
    device = _ops.as_index(entry.get("device", HOST_CPU), "device")
    return Location(entry["host"], device)


def graph_from_json(obj: dict) -> BiGraph:
    """Parse the text graph-spec format produced by :func:`graph_to_json`."""
    if not isinstance(obj, dict) or "tensors" not in obj or "operators" not in obj:
        raise GraphError("graph spec must be an object with 'tensors' and 'operators'")
    g = BiGraph()
    for entry in obj["tensors"]:
        try:
            g.add_tensor(entry["name"], entry["shape"], _entry_location(entry))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad tensor entry {entry!r}: {exc}") from None
    for entry in obj["operators"]:
        try:
            g.add_operator(
                entry["name"],
                entry["kind"],
                [g.tensor_id(n) for n in entry.get("inputs", [])],
                [g.tensor_id(n) for n in entry.get("outputs", [])],
                _entry_location(entry),
                _ops.as_index(entry.get("thread", 0), "thread"),
                dict(entry.get("attrs", {})),
            )
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad operator entry {entry!r}: {exc}") from None
    return g
