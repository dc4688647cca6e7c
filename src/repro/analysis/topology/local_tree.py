"""The in-situ stage: boundary trees (subtrees with topological ghost cells).

Each rank computes the merge tree of its block with the batch algorithm,
then reduces it to the *boundary tree*: the smallest structure a remote
glue stage needs to reconstruct global topology. Per [47] (and §III's
"boundary components that are the topological equivalent of simulation
ghost-cells") the retained vertex set is

* every critical vertex of the local tree (leaves, saddles, roots), and
* every vertex on the block's boundary faces.

Interior regular vertices are contracted away: along a monotone arc the
superlevel connectivity between retained vertices is fully described by
the chain of retained vertices in sweep order, so contraction loses
nothing (tested against the global tree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.topology.merge_tree import compute_merge_tree


@dataclass
class BoundaryTree:
    """A reduced subtree: what one rank ships to the in-transit glue.

    ``edges`` are (higher, lower) pairs in sweep order; ``boundary_ids``
    are the retained boundary vertices (the glue attaches cross-block
    edges to these).
    """

    nodes: dict[int, float]
    edges: list[tuple[int, int]]
    boundary_ids: list[int]
    n_block_cells: int = 0

    @property
    def nbytes(self) -> int:
        """Wire size: (id, value) per node + 2 ids per edge, 8 B each."""
        return 16 * len(self.nodes) + 16 * len(self.edges)

    def validate(self) -> None:
        for hi, lo in self.edges:
            if hi not in self.nodes or lo not in self.nodes:
                raise AssertionError(f"edge ({hi},{lo}) references missing node")
            if (self.nodes[hi], hi) <= (self.nodes[lo], lo):
                raise AssertionError(f"edge ({hi},{lo}) not descending")
        for b in self.boundary_ids:
            if b not in self.nodes:
                raise AssertionError(f"boundary vertex {b} not retained")


def compute_boundary_tree(block_values: np.ndarray, id_map: np.ndarray,
                          boundary_mask: np.ndarray) -> BoundaryTree:
    """Compute the boundary tree of one block.

    ``block_values``: the rank's scalar sub-brick. ``id_map``: global
    vertex ids, same shape. ``boundary_mask``: True where the vertex lies
    on a face shared with another block (see
    :func:`~repro.analysis.topology.distributed.block_boundary_mask`).
    """
    block_values = np.asarray(block_values, dtype=np.float64)
    if id_map.shape != block_values.shape or boundary_mask.shape != block_values.shape:
        raise ValueError("block_values, id_map and boundary_mask shapes must match")

    tree, vertex_arc = compute_merge_tree(block_values, id_map=id_map)
    flat_vals = block_values.ravel()
    flat_ids = np.asarray(id_map).ravel()
    flat_arc = np.asarray(vertex_arc).ravel()
    flat_boundary = np.asarray(boundary_mask, dtype=bool).ravel()

    # A vertex is critical (a tree node) exactly when it is its own arc.
    critical = flat_arc == flat_ids
    keep = np.flatnonzero(critical | flat_boundary)
    ids = flat_ids[keep]
    vals = flat_vals[keep]
    arc = flat_arc[keep]
    nodes = dict(zip(ids.tolist(), vals.tolist()))
    # The arc node's value: look each arc id up among the critical ids.
    crit_pos = np.flatnonzero(critical)
    by_id = np.argsort(flat_ids[crit_pos])
    arc_pos = crit_pos[by_id[np.searchsorted(flat_ids[crit_pos][by_id], arc)]]
    # One descending sort on (arc value, arc id, value, id) lays out every
    # arc as its upper node followed by the retained regular vertices on
    # it, arcs in sweep order (the tree's node order).
    seq = np.lexsort((ids, vals, arc, flat_vals[arc_pos]))[::-1]
    ids = ids[seq]
    heads = np.flatnonzero(ids == arc[seq])
    # Each retained vertex links to the next one on its arc; an arc's
    # last vertex links to the upper node's parent, if it has one.
    parents = [tree.parent[h] for h in ids[heads].tolist()]
    last = np.append(heads[1:], ids.size) - 1
    lower = np.append(ids[1:], 0)
    lower[last] = [0 if p is None else p for p in parents]
    linked = np.ones(ids.size, dtype=bool)
    linked[last] = [p is not None for p in parents]
    edges = list(zip(ids[linked].tolist(), lower[linked].tolist()))

    bt = BoundaryTree(nodes=nodes, edges=edges,
                      boundary_ids=np.sort(flat_ids[flat_boundary]).tolist(),
                      n_block_cells=int(block_values.size))
    return bt
