"""The ``numpy`` backend: vectorized kernels for the analysis hot paths.

Every kernel here is **bit-identical** to its reference implementation on
the outputs the analyses consume — the equivalence contract of DESIGN.md
§5, enforced by ``tests/test_backends.py``. The techniques:

* same pairing / same fold order — tree reductions fold whole levels in
  one elementwise array operation using exactly the reference's pairing,
  so each IEEE operation sees the same operands;
* per-row pairwise summation — numpy's ``sum`` over the contiguous axis
  of a stacked ``(rows, m)`` array applies the same pairwise summation
  as summing each row alone, so batched sums equal per-block sums;
* same outputs from a different sweep — the merge-tree kernels work in
  rank space on steepest-ascent regions (:func:`_region_sweep`): array
  passes settle every vertex whose higher neighbours share its region,
  and a union-find runs only over the vertices that can merge
  components. The tree maps (in the reference's insertion and children
  order), ``vertex_arc`` and the glued augmented tree are the
  reference's, bit for bit; the visit order is not;
* a kernel that cannot guarantee exactness for its inputs (unknown
  operator, mixed shapes, zero-count accumulators) falls back to the
  reference implementation rather than approximate.

Importing this module is the backend's availability probe: an
environment without numpy raises ``ImportError`` here and the registry
falls back to ``reference`` with a single warning.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain
from typing import Any

import numpy as np

from repro.backend.registry import _REFERENCE


def _ref(name: str) -> Callable[..., Any]:
    """The reference implementation (the fallback for inexact cases)."""
    return _REFERENCE[name]


# ---------------------------------------------------------------------------
# (1) vmpi collectives: the moment-merge route
# ---------------------------------------------------------------------------


def pairwise_reduce_numpy(values: list[Any],
                          op: Callable[[Any, Any], Any]) -> Any:
    """Tree reduction: moment merges fold whole levels in array operations.

    ``allreduce(moment_merge_op)`` — the in-situ statistics exchange — has
    the same pairing as ``merge_moments``' tree fold, so it routes there
    and runs through the vectorized Pébay formulas. Every other operator
    falls back to the reference loop.
    """
    vals = list(values)
    if getattr(op, "is_moment_merge", False) and len(vals) > 1:
        return merge_moments_numpy(vals)
    return _ref("vmpi.pairwise_reduce")(vals, op)


# ---------------------------------------------------------------------------
# (2) topology: steepest-ascent regions in rank space
# ---------------------------------------------------------------------------


def _sweep_ranks(ids: np.ndarray, values: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sweep order (descending ``(value, id)``) and each vertex's rank."""
    order = np.lexsort((ids, values))[::-1]
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return order, rank


def _region_sweep(n: int, at: np.ndarray, nb: np.ndarray
                  ) -> tuple[np.ndarray, dict[int, int], dict[int, list[int]]]:
    """The reference's union-find sweep, reduced to the vertices that can
    merge components.

    Everything is in rank space: vertex ``p`` is the ``p``-th of the
    sweep, so "processed before" is "smaller rank". ``at``/``nb`` list
    each vertex's *higher* neighbours (``nb[k] < at[k]``), grouped by
    ``at`` ascending and, within a vertex, in the reference's probe order.

    1. *Regions.* Every vertex points at its highest neighbour if that
       one is higher (a maximum at itself); pointer jumping maps it to
       the maximum its steepest-ascent path reaches. Every vertex on that
       path is higher, so when the sweep reaches a vertex it is already
       in its region maximum's component.
    2. *Union-find over cross-region vertices.* A vertex whose higher
       neighbours all lie in its own region meets one component. Only a
       vertex with a higher neighbour in another region can merge, so a
       union-find over region maxima and saddles, fed those vertices in
       rank order with their neighbours' regions in probe order, sees
       the reference's distinct components, in the reference's order,
       at every step. Each of its roots is its component's latest tree
       node.
    3. *Arcs by binary lifting.* A vertex's arc is its component's latest
       node when the sweep reaches it: the deepest ancestor of its region
       maximum with rank at most its own (ranks grow toward the root). A
       maximum or saddle is its own arc.

    Returns ``(arc, parent_of, kids)``: every vertex's arc node, and the
    merge tree over the critical vertices (those with ``arc[p] == p``) as
    child -> parent and saddle -> children in the reference's order.
    """
    p = np.arange(n)
    counts = np.bincount(at, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(counts)))

    # (1) regions: steepest-ascent pointers, then pointer jumping.
    region = p.copy()
    inner = counts > 0
    if nb.size:
        region[inner] = np.minimum.reduceat(nb, offsets[:-1][inner])
    while True:
        jumped = region[region]
        if np.array_equal(jumped, region):
            break
        region = jumped

    # (2) union-find over the vertices with a higher neighbour in
    # another region.
    nb_region = region[nb]
    cross = np.flatnonzero(
        np.bincount(at[nb_region != region[at]], minlength=n)).tolist()
    nb_region_l = nb_region.tolist()
    offsets_l = offsets.tolist()
    uf = list(range(n))
    parent_of: dict[int, int] = {}
    kids: dict[int, list[int]] = {}
    for v in cross:
        roots: list[int] = []
        for x in nb_region_l[offsets_l[v]:offsets_l[v + 1]]:
            while uf[x] != x:  # find with path halving
                uf[x] = uf[uf[x]]
                x = uf[x]
            if x not in roots:
                roots.append(x)
        if len(roots) > 1:  # saddle: the merging components' nodes
            for x in roots:
                uf[x] = v
                parent_of[x] = v
            kids[v] = roots

    # (3) arcs: binary lifting over tree parents (roots loop to self).
    up = p.copy()
    if parent_of:
        up[np.fromiter(parent_of, np.int64, len(parent_of))] = np.fromiter(
            parent_of.values(), np.int64, len(parent_of))
    levels = [up]
    while True:
        nxt = levels[-1][levels[-1]]
        if np.array_equal(nxt, levels[-1]):
            break
        levels.append(nxt)
    arc = region
    for anc in reversed(levels):
        cand = anc[arc]
        arc = np.where(cand <= p, cand, arc)
    return arc, parent_of, kids


def merge_tree_numpy(field: np.ndarray, id_map: np.ndarray | None = None):
    """Grid merge tree by steepest-ascent regions (:func:`_region_sweep`):
    the reference's tree maps, children order and ``vertex_arc``, bit for
    bit, with union-find work only at cross-region vertices."""
    from repro.analysis.topology.merge_tree import MergeTree

    values_arr = np.asarray(field, dtype=np.float64).ravel()
    n = values_arr.size
    if n == 0:
        raise ValueError("cannot compute the merge tree of an empty field")
    shape = tuple(np.asarray(field).shape)
    if id_map is not None:
        ids = np.asarray(id_map).ravel()
        if ids.size != n:
            raise ValueError(f"id_map size {ids.size} != field size {n}")
        sorted_ids = np.sort(ids)  # np.unique hashes: ~20x slower here
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise ValueError("id_map must assign distinct ids")
    else:
        ids = np.arange(n, dtype=np.int64)

    order, rank = _sweep_ranks(ids, values_arr)
    # Neighbour ranks, row p for the rank-p vertex, in the reference's
    # probe order (per axis −stride then +stride); n = out of bounds.
    rank_ext = np.append(rank, n)
    cols = []
    stride = n
    for extent in shape:
        stride //= extent
        coord = (order // stride) % extent
        cols.append(rank_ext[np.where(coord > 0, order - stride, n)])
        cols.append(rank_ext[np.where(coord < extent - 1, order + stride, n)])
    p = np.arange(n)
    nbr = np.stack(cols, axis=1) if cols else np.empty((n, 0), np.int64)
    higher = nbr < p[:, None]
    arc, parent_of, kids = _region_sweep(
        n, np.broadcast_to(p[:, None], nbr.shape)[higher], nbr[higher])

    vertex_arc = np.empty(n, dtype=ids.dtype)
    vertex_arc[order] = ids[order[arc]]
    # Tree maps over the critical vertices, in sweep order as the
    # reference inserts them.
    crit = np.flatnonzero(arc == p)
    crit_ids = ids[order[crit]].astype(np.int64).tolist()
    id_of = dict(zip(crit.tolist(), crit_ids))
    value = dict(zip(crit_ids, values_arr[order[crit]].tolist()))
    parent: dict[int, int | None] = dict.fromkeys(crit_ids)
    children: dict[int, list[int]] = {i: [] for i in crit_ids}
    for c, q in parent_of.items():
        parent[id_of[c]] = id_of[q]
    for c, ks in kids.items():
        children[id_of[c]] = [id_of[k] for k in ks]
    return (MergeTree.from_maps(value, parent, children),
            vertex_arc.reshape(shape))


def _edge_positions(sorted_ids: np.ndarray, sorter: np.ndarray,
                    edges: list[tuple[int, int]]) -> np.ndarray | None:
    """``(m, 2)`` vertex positions of the edge endpoints, or ``None`` when
    an endpoint is not a vertex (the caller raises its own error)."""
    ends = np.fromiter(chain.from_iterable(edges), np.int64,
                       2 * len(edges)).reshape(len(edges), 2)
    if sorted_ids.size == 0:
        return None if len(edges) else ends
    pos = np.minimum(np.searchsorted(sorted_ids, ends), sorted_ids.size - 1)
    if not np.array_equal(sorted_ids[pos], ends):
        return None
    return sorter[pos]


def _graph_tree(ids: np.ndarray, values: np.ndarray, ends: np.ndarray):
    """Augmented merge tree of a graph by steepest-ascent regions.

    In the reference sweep every vertex is a node and becomes its
    component's latest vertex, so a vertex's parent is the next vertex
    swept into its component. Between merges a component's arc
    (:func:`_region_sweep`) is fixed: the vertices sharing an arc form a
    chain in rank order, and the chain's last vertex hangs below the
    saddle where the arc's component merges.
    """
    from repro.analysis.topology.merge_tree import MergeTree

    n = ids.size
    order, rank = _sweep_ranks(ids, values)
    # Directed entries in the reference's adjacency order (u→v then v→u
    # per edge), kept where the neighbour is higher.
    at = rank[ends].ravel()
    nb = rank[ends[:, ::-1]].ravel()
    keep = nb < at
    by_vertex = np.argsort(at[keep], kind="stable")
    arc, parent_of, kids = _region_sweep(n, at[keep][by_vertex],
                                         nb[keep][by_vertex])

    p = np.arange(n)
    seq = np.lexsort((p, arc))  # the chains: by arc, then by rank
    heads = np.flatnonzero(arc[seq] == seq)  # each chain starts at its arc
    tail = dict(zip(seq[heads].tolist(),
                    seq[np.append(heads[1:], n) - 1].tolist()))
    nxt = p.copy()
    nxt[seq[:-1]] = seq[1:]
    prev = p.copy()
    prev[seq[1:]] = seq[:-1]

    ids_r = ids[order]
    ids_l = ids_r.tolist()
    parent_l = ids_r[nxt].tolist()
    children_l = [[x] for x in ids_r[prev].tolist()]
    for a, v in tail.items():
        parent_l[v] = ids_l[parent_of[a]] if a in parent_of else None
        children_l[a] = [ids_l[tail[k]] for k in kids.get(a, ())]
    value = dict(zip(ids_l, values[order].tolist()))
    return MergeTree.from_maps(value, dict(zip(ids_l, parent_l)),
                               dict(zip(ids_l, children_l)))


def graph_merge_tree_numpy(values: dict[int, float],
                           edges: list[tuple[int, int]]):
    """Augmented merge tree of a graph, swept in rank space."""
    if not values:
        raise ValueError("cannot compute the merge tree of an empty graph")
    ids = np.fromiter(values, np.int64, len(values))
    vals = np.fromiter(values.values(), np.float64, len(values))
    sorter = np.argsort(ids)
    ends = _edge_positions(ids[sorter], sorter, edges)
    if ends is None:
        # Reproduce the reference's first-offender KeyError.
        for u, v in edges:
            if u not in values or v not in values:
                raise KeyError(f"edge ({u},{v}) references unknown vertex")
    return _graph_tree(ids, vals, ends)


def _raise_glue_input_error(boundary_trees, edges) -> None:
    """Raise the error streaming the input would raise first: a
    duplicate vertex, then, edge by edge, a self-edge or an undeclared
    endpoint."""
    seen: set[int] = set()
    for bt in boundary_trees:
        for vid in bt.nodes:
            vid = int(vid)
            if vid in seen:
                raise ValueError(f"vertex {vid} already streamed")
            seen.add(vid)
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-edge on vertex {u}")
        for x in (u, v):
            if x not in seen:
                raise KeyError(
                    f"edge ({u},{v}) streamed before vertex {x} was declared")


def glue_batch_numpy(boundary_trees, cross_edges):
    """Batch glue: the augmented merge tree of the combined vertex/edge
    set in one rank-space pass instead of streaming chain-merges.

    The augmented merge tree is unique given the (value, id) total
    order, so this equals ``StreamingGlue``'s output node-for-node and
    arc-for-arc. The input is validated with array operations; a bad
    input raises the error streaming raises first (duplicate vertex,
    self-edge, undeclared endpoint), with the same message.
    """
    from repro.analysis.topology.merge_tree import MergeTree

    n = sum(len(bt.nodes) for bt in boundary_trees)
    ids = np.fromiter(chain.from_iterable(bt.nodes for bt in boundary_trees),
                      np.int64, n)
    vals = np.fromiter(
        chain.from_iterable(bt.nodes.values() for bt in boundary_trees),
        np.float64, n)
    edges = [*chain.from_iterable(bt.edges for bt in boundary_trees),
             *cross_edges]
    sorter = np.argsort(ids)
    sorted_ids = ids[sorter]
    ends = _edge_positions(sorted_ids, sorter, edges)
    if (ends is None or np.any(sorted_ids[1:] == sorted_ids[:-1])
            or np.any(ends[:, 0] == ends[:, 1])):
        _raise_glue_input_error(boundary_trees, edges)
    if n == 0:
        return MergeTree()
    return _graph_tree(ids, vals, ends)


# ---------------------------------------------------------------------------
# (3) statistics: moment merges / contingency / autocorrelation
# ---------------------------------------------------------------------------


def _pebay_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized ``MomentAccumulator.merge`` over packed rows.

    Term-for-term the same expressions (and evaluation order) as the
    scalar formulas, so each elementwise IEEE operation matches.
    """
    na = a[..., 0]
    nb = b[..., 0]
    n = na + nb
    delta = b[..., 3] - a[..., 3]
    delta2 = delta * delta
    out = np.empty_like(a)
    out[..., 0] = n
    out[..., 1] = np.minimum(a[..., 1], b[..., 1])
    out[..., 2] = np.maximum(a[..., 2], b[..., 2])
    out[..., 3] = a[..., 3] + delta * nb / n
    out[..., 4] = a[..., 4] + b[..., 4] + delta2 * na * nb / n
    out[..., 5] = (a[..., 5] + b[..., 5]
                   + delta * delta2 * na * nb * (na - nb) / (n * n)
                   + 3.0 * delta * (na * b[..., 4] - nb * a[..., 4]) / n)
    out[..., 6] = (a[..., 6] + b[..., 6]
                   + delta2 * delta2 * na * nb
                   * (na * na - na * nb + nb * nb) / (n * n * n)
                   + 6.0 * delta2
                   * (na * na * b[..., 4] + nb * nb * a[..., 4]) / (n * n)
                   + 4.0 * delta * (na * b[..., 5] - nb * a[..., 5]) / n)
    return out


def _fold_packed(arr: np.ndarray) -> np.ndarray:
    """Pairwise tree fold over axis 0 with the reference's pairing."""
    while arr.shape[0] > 1:
        m = arr.shape[0]
        even = m - (m % 2)
        merged = _pebay_pair(arr[0:even:2], arr[1:even:2])
        if m % 2:
            merged = np.concatenate([merged, arr[-1:]])
        arr = merged
    return arr[0]


def _unpack_moments(vec: np.ndarray):
    from repro.analysis.statistics.moments import MomentAccumulator

    return MomentAccumulator(n=int(vec[0]), minimum=float(vec[1]),
                             maximum=float(vec[2]), mean=float(vec[3]),
                             M2=float(vec[4]), M3=float(vec[5]),
                             M4=float(vec[6]))


def merge_moments_numpy(accs):
    """Tree merge of accumulators, folding whole levels elementwise."""
    accs = list(accs)
    if not accs:
        raise ValueError("cannot merge an empty accumulator list")
    if len(accs) == 1:
        return accs[0]
    # Tuple rows beat per-accumulator pack() calls ~3x; the float64
    # conversion of each field is identical either way.
    arr = np.array([(a.n, a.minimum, a.maximum, a.mean, a.M2, a.M3, a.M4)
                    for a in accs], dtype=np.float64)
    if np.any(arr[:, 0] == 0):
        # Empty accumulators short-circuit pairwise in the reference;
        # keep those exact semantics by deferring to it.
        return _ref("statistics.merge_moments")(accs)
    return _unpack_moments(_fold_packed(arr))


def merge_packed_moments_numpy(packed, n_vars: int):
    """Merge every variable's rank partials at once: reshape to
    ``(ranks, n_vars, 7)`` and fold the rank axis."""
    packed = list(packed)
    if not packed or n_vars == 0:
        return _ref("statistics.merge_packed_moments")(packed, n_vars)
    arr = np.stack([np.asarray(v, dtype=np.float64) for v in packed])
    arr = arr.reshape(len(packed), n_vars, 7)
    if np.any(arr[:, :, 0] == 0):
        return _ref("statistics.merge_packed_moments")(packed, n_vars)
    merged = _fold_packed(arr)
    return [_unpack_moments(merged[i]) for i in range(n_vars)]


def bivariate_histogram_numpy(x, y, x_edges, y_edges, shape):
    """Joint histogram as one ``bincount`` over linearised cell indices
    (identical integer counts to the scatter-add reference)."""
    nx, ny = shape
    xi = np.clip(np.searchsorted(x_edges, x, side="right") - 1, 0, nx - 1)
    yi = np.clip(np.searchsorted(y_edges, y, side="right") - 1, 0, ny - 1)
    flat = np.bincount(xi * ny + yi, minlength=nx * ny)
    return flat.astype(np.int64).reshape(nx, ny)


def autocorr_cross_sums_numpy(current, history):
    """All lags' cross sums in batched axis-wise passes; the current
    field's own sums are computed once instead of once per lag."""
    x = np.asarray(current, dtype=np.float64).ravel()
    if not history:
        return np.empty((0, 6), dtype=np.float64)
    ys = [np.asarray(h, dtype=np.float64).ravel() for h in history]
    if any(y.shape != x.shape for y in ys):
        return _ref("statistics.autocorr_cross_sums")(current, history)
    stack = np.stack(ys)
    out = np.empty((len(ys), 6), dtype=np.float64)
    out[:, 0] = x.size
    out[:, 1] = float(x.sum())
    out[:, 2] = stack.sum(axis=1)
    out[:, 3] = float((x * x).sum())
    out[:, 4] = (stack * stack).sum(axis=1)
    out[:, 5] = (x[None, :] * stack).sum(axis=1)
    return out


def autocorr_merge_numpy(packed_partials, max_lag: int):
    """Left-fold the rank partials for every lag at once (additions in
    the same rank order as the reference)."""
    if max_lag == 0:
        return np.empty((0, 6), dtype=np.float64)
    if not packed_partials:
        return np.zeros((max_lag, 6), dtype=np.float64)
    arr = np.stack([np.asarray(v, dtype=np.float64)
                    for v in packed_partials])
    arr = arr.reshape(arr.shape[0], max_lag, 6)
    acc = np.zeros((max_lag, 6), dtype=np.float64)
    for r in range(arr.shape[0]):
        acc = acc + arr[r]
    return acc


KERNELS: dict[str, Callable[..., Any]] = {
    "vmpi.pairwise_reduce": pairwise_reduce_numpy,
    "topology.merge_tree": merge_tree_numpy,
    "topology.graph_merge_tree": graph_merge_tree_numpy,
    "topology.glue_batch": glue_batch_numpy,
    "statistics.merge_moments": merge_moments_numpy,
    "statistics.merge_packed_moments": merge_packed_moments_numpy,
    "statistics.bivariate_histogram": bivariate_histogram_numpy,
    "statistics.autocorr_cross_sums": autocorr_cross_sums_numpy,
    "statistics.autocorr_merge": autocorr_merge_numpy,
}
