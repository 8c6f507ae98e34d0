"""Independent reference implementations used to check the real kernels.

Everything here is written the slow, obvious way (explicit Python loops,
brute-force formulas) on purpose: these are oracles, not production code,
and they must not share structure with the implementations they check.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from biflow.graph import BiGraph, GraphError, graph_to_json


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-12)
    return float(np.linalg.norm((a - b).ravel()) / denom)


def fc_forward_loops(x, w, b):
    """Triple-loop dense forward."""
    n, d = x.shape
    m = w.shape[1]
    y = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = float(b[j])
            for k in range(d):
                acc += float(x[i, k]) * float(w[k, j])
            y[i, j] = acc
    return y


def fc_backward_loops(x, w, dy):
    """Loop versions of the three dense gradients."""
    n, d = x.shape
    m = w.shape[1]
    dx = np.zeros((n, d), dtype=np.float64)
    dw = np.zeros((d, m), dtype=np.float64)
    db = np.zeros((m,), dtype=np.float64)
    for i in range(n):
        for k in range(d):
            for j in range(m):
                dx[i, k] += float(dy[i, j]) * float(w[k, j])
                dw[k, j] += float(x[i, k]) * float(dy[i, j])
    for i in range(n):
        for j in range(m):
            db[j] += float(dy[i, j])
    return dx, dw, db


def conv2d_loops(x, w, b, stride=1, pad=0):
    """Seven-nested-loop direct cross-correlation."""
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    ho = (h + 2 * pad - r) // stride + 1
    wo = (wd + 2 * pad - s) // stride + 1
    y = np.zeros((n, k, ho, wo), dtype=np.float64)
    for ni in range(n):
        for ki in range(k):
            for oi in range(ho):
                for oj in range(wo):
                    acc = float(b[ki])
                    for ci in range(c):
                        for ri in range(r):
                            for si in range(s):
                                ii = oi * stride + ri - pad
                                jj = oj * stride + si - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += float(x[ni, ci, ii, jj]) * float(
                                        w[ki, ci, ri, si]
                                    )
                    y[ni, ki, oi, oj] = acc
    return y


def conv2d_backward_loops(x, w, dy, stride=1, pad=0):
    """Input and filter gradients of :func:`conv2d_loops`, scattered one
    filter tap at a time: each output element sends dy times the tap's
    filter weight to the input pixel it read, and dy times that pixel to
    the tap's filter weight."""
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    ho, wo = dy.shape[2], dy.shape[3]
    dx = np.zeros((n, c, h, wd), dtype=np.float64)
    dw = np.zeros((k, c, r, s), dtype=np.float64)
    for ni in range(n):
        for ki in range(k):
            for oi in range(ho):
                for oj in range(wo):
                    g = float(dy[ni, ki, oi, oj])
                    for ci in range(c):
                        for ri in range(r):
                            for si in range(s):
                                ii = oi * stride + ri - pad
                                jj = oj * stride + si - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    dx[ni, ci, ii, jj] += g * float(w[ki, ci, ri, si])
                                    dw[ki, ci, ri, si] += g * float(x[ni, ci, ii, jj])
    return dx, dw


def softmax_xent_bruteforce(logits, labels):
    """Per-row softmax cross-entropy straight from the definition."""
    n, k = logits.shape
    losses = []
    dlogits = np.zeros((n, k), dtype=np.float64)
    for i in range(n):
        exps = [math.exp(float(v)) for v in logits[i]]
        total = sum(exps)
        probs = [e / total for e in exps]
        label = int(labels[i])
        losses.append(-math.log(probs[label]))
        for j in range(k):
            dlogits[i, j] = (probs[j] - (1.0 if j == label else 0.0)) / n
    return sum(losses) / n, dlogits


def numerical_grad(f, arrays, wrt, eps=1e-3):
    """Central-difference gradient of scalar-valued ``f`` w.r.t. one input.

    ``f(*arrays)`` must return a scalar.  Perturbs each element of
    ``arrays[wrt]`` by +/- eps, evaluating through the real (float32)
    kernels but differencing in float64.
    """
    base = [np.array(a, dtype=np.float32, copy=True) for a in arrays]
    target = base[wrt]
    grad = np.zeros(target.shape, dtype=np.float64)
    flat = target.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(*base))
        flat[i] = orig - eps
        lo = float(f(*base))
        flat[i] = orig
        grad.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
    return grad


def critical_path(ops):
    """Longest dependency chain; ops is a list of (op_id, cost, deps)."""
    info = {oid: (cost, deps) for oid, cost, deps in ops}
    memo = {}

    def longest(oid):
        if oid not in memo:
            cost, deps = info[oid]
            memo[oid] = cost + max((longest(d) for d in deps), default=0.0)
        return memo[oid]

    return max((longest(oid) for oid in info), default=0.0)


def min_makespan_bruteforce(ops):
    """Optimal makespan over every per-lane execution order.

    ops is a list of (op_id, lane, cost, deps).  Enumerates all orderings
    of each lane's operators, schedules each combination earliest-first,
    and returns the best feasible makespan.  Exponential: tiny inputs only.
    """
    from itertools import permutations, product

    by_lane = {}
    info = {}
    for oid, lane, cost, deps in ops:
        by_lane.setdefault(lane, []).append(oid)
        info[oid] = (cost, set(deps))

    best = None
    for combo in product(*(permutations(v) for v in by_lane.values())):
        preds = {oid: set(info[oid][1]) for oid in info}
        for order in combo:
            for a, b in zip(order, order[1:]):
                preds[b].add(a)
        end = {}
        remaining = set(info)
        progressed = True
        while remaining and progressed:
            progressed = False
            for oid in sorted(remaining):
                if preds[oid] <= end.keys():
                    start = max((end[p] for p in preds[oid]), default=0.0)
                    end[oid] = start + info[oid][0]
                    remaining.discard(oid)
                    progressed = True
        if remaining:
            continue  # this lane order contradicts the dependencies
        makespan = max(end.values())
        best = makespan if best is None else min(best, makespan)
    return best


def topological_orders(n_ops, deps):
    """All topological orders of a small op set; deps maps op -> set of
    prerequisite ops.  Exhaustive, for oracle use on tiny graphs only."""
    orders = []

    def extend(order, remaining):
        if not remaining:
            orders.append(tuple(order))
            return
        for op in sorted(remaining):
            if deps.get(op, set()) <= set(order):
                extend(order + [op], remaining - {op})

    extend([], set(range(n_ops)) if isinstance(n_ops, int) else set(n_ops))
    return orders


def graph_digest(graph, ordered: bool = False) -> str:
    """sha256 of a graph's ``graph_to_json``: every tensor's name, shape and
    location, every operator's name, kind, input and output names,
    location, thread and attrs.

    Unordered (the default), tensors and operators are sorted by name, so
    two graphs that differ only in insertion order hash alike.  The spec
    holds no computed float, so the digest is the same on every BLAS build.
    """
    spec = graph_to_json(graph)
    if not ordered:
        spec = {key: sorted(entries, key=lambda e: e["name"])
                for key, entries in spec.items()}
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def recompose(partitions):
    """Fuse the send/recv pairs of ``partition_by_host``'s partitions back
    into copies: the inverse of partitioning, from each channel's
    ``ChannelSpec`` (the cut copy's name, placement and thread)."""
    out = BiGraph()
    specs = {}
    for p in partitions.values():
        for spec in p.sends + p.recvs:
            specs[spec.channel] = spec
    halves = {}
    pending = []
    ids = {
        host: {
            t.id: out.add_tensor(t.name, t.shape, t.location)
            for t in partitions[host].graph.tensors.values()
        }
        for host in sorted(partitions)
    }
    for host in sorted(partitions):
        g = partitions[host].graph
        for op in sorted(g.operators.values(), key=lambda o: o.id):
            if op.kind in ("send", "recv"):
                half = halves.setdefault(int(op.attrs["channel"]), {})
                if op.kind == "send":
                    half["src"] = ids[host][op.inputs[0]]
                else:
                    half["dst"] = ids[host][op.outputs[0]]
            else:
                pending.append((op, host))
    for op, host in pending:
        out.add_operator_from(op, ids[host])
    for channel in sorted(halves):
        half = halves[channel]
        spec = specs.get(channel)
        if set(half) != {"src", "dst"} or spec is None or spec.op_location is None:
            raise GraphError(f"channel {channel} has an unmatched endpoint")
        out.add_operator(
            spec.name, "copy", [half["src"]], [half["dst"]],
            spec.op_location, thread=spec.op_thread,
        )
    return out
