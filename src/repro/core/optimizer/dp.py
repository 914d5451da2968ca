"""Bellman iteration within a segment (paper Eq. 11-12).

The optimal sub-structure ``C_{i,j}(p_i, p_j)`` is a dense matrix over the
candidate classes of the segment's start node and the current node.  Each
extension by one node is a min-plus product with the inter-operator cost
matrix of the connecting edge, plus the new node's intra cost, plus (Eq. 12)
the cost of an extended edge from the segment start if one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ...graph.graph import ComputationGraph, Edge
from ...obs.metrics import counter, histogram
from ..cost.inter import InterOperatorCostModel
from .candidates import CandidateSet, type_key
from .memo import SearchMemo
from .segmenter import Segment

#: Bucket bounds for the DP table-size histogram (cells per table).
_TABLE_BUCKETS = (64, 256, 1024, 4096, 16384, 65536)

#: Chunk width of the min-plus product — bounds peak memory of the
#: (A x B x chunk) broadcast to a few MB.
_MIN_PLUS_CHUNK = 128


def min_plus(
    left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Tropical matrix product: ``out[a,c] = min_b left[a,b] + right[b,c]``.

    Returns the result and the argmin over ``b`` (backpointers).
    """
    n_a, n_b = left.shape
    n_b2, n_c = right.shape
    if n_b != n_b2:
        raise ValueError(f"shape mismatch {left.shape} x {right.shape}")
    out = np.empty((n_a, n_c))
    arg = np.empty((n_a, n_c), dtype=np.int32)
    for lo in range(0, n_c, _MIN_PLUS_CHUNK):
        hi = min(lo + _MIN_PLUS_CHUNK, n_c)
        stacked = left[:, :, None] + right[None, :, lo:hi]
        arg[:, lo:hi] = stacked.argmin(axis=1)
        out[:, lo:hi] = np.take_along_axis(
            stacked, arg[:, lo:hi][:, None, :], axis=1
        )[:, 0, :]
    return out, arg


@dataclass
class SegmentTable:
    """Optimal sub-structure of one segment with backpointers.

    ``cost[a, c]`` is the minimal segment cost when the start node uses
    candidate class ``a`` and the end node class ``c`` — including both
    endpoint intra costs.  ``backpointers[j]`` maps node ``j``'s optimal
    predecessor class: ``arg[a, c]`` is the class of node ``j-1``.
    """

    start: str
    end: str
    node_names: Tuple[str, ...]
    cost: np.ndarray
    backpointers: Dict[str, np.ndarray] = field(default_factory=dict)

    def extract(self, a: int, c: int, out: Dict[str, int]) -> None:
        """Fill ``out`` with the optimal class per node given endpoints."""
        index = {name: i for i, name in enumerate(self.node_names)}
        out[self.start] = a
        out[self.end] = c
        current = c
        for name in reversed(self.node_names[1:-1] + (self.end,)):
            arg = self.backpointers.get(name)
            if arg is None:
                continue
            previous = int(arg[a, current])
            prev_name = self.node_names[index[name] - 1]
            out[prev_name] = previous
            current = previous


def edge_signature(edge: Edge) -> Tuple:
    """Structural identity of an edge, independent of its node names.

    Two edges with equal signatures between operators of equal type keys
    and candidate sets of equal ``class_token`` carry identical traffic
    (stacked transformer layers, repeated ``(src, dst)`` type pairs).
    """
    return (
        edge.slot,
        tuple(sorted(edge.axis_map.items())),
        tuple(
            sorted(
                (axis, interval.start, interval.stop)
                for axis, interval in edge.src_fixed.items()
            )
        ),
    )


def edge_cost_matrix(
    graph: ComputationGraph,
    inter_model: InterOperatorCostModel,
    candidates: Mapping[str, CandidateSet],
    src: str,
    dst: str,
    memo: Optional[SearchMemo] = None,
) -> Optional[np.ndarray]:
    """Summed inter-operator cost over all edges ``src -> dst``.

    Returns ``None`` when no such edge exists (cost contribution zero).
    With ``memo``, each edge's Eq. 8-9 traffic is computed once per (edge
    signature, both operators' type keys, ``gpus_per_node``, both sets'
    class tokens) and reused — across stacked layers within one search and
    across searches sharing the memo; only the fitted latency model
    (:meth:`~repro.core.cost.inter.InterOperatorCostModel.predict`) runs
    per search.
    """
    edges = [e for e in graph.edges if e.src == src and e.dst == dst]
    if not edges:
        return None
    src_set = candidates[src]
    dst_set = candidates[dst]
    n_dev = src_set.specs[0].n_devices
    total = np.zeros((len(src_set), len(dst_set)))
    for edge in edges:
        matrices = None
        key = None
        if memo is not None:
            key = (
                edge_signature(edge),
                type_key(src_set.op),
                type_key(dst_set.op),
                inter_model.profiler.topology.gpus_per_node,
                src_set.class_token,
                dst_set.class_token,
            )
            matrices = memo.traffic.get(key)
            counter(
                "dp.edge_memo", outcome="hit" if matrices is not None else "miss"
            ).inc()
        if matrices is None:
            matrices = inter_model.traffic_matrices(
                edge,
                src_set.op,
                src_set.boundaries,
                dst_set.op,
                dst_set.boundaries,
            )
            if memo is not None:
                memo.traffic.put(key, matrices)
        total += inter_model.predict(*matrices, n_dev)
    return total


def solve_segment(
    graph: ComputationGraph,
    segment: Segment,
    candidates: Mapping[str, CandidateSet],
    inter_model: InterOperatorCostModel,
    memo: Optional[SearchMemo] = None,
) -> SegmentTable:
    """Run Eq. 11-12 over one segment, producing its optimal sub-structure."""
    names = segment.node_names
    start = names[0]
    start_set = candidates[start]
    n_start = len(start_set)
    if len(names) == 1:
        cost = np.full((n_start, n_start), np.inf)
        np.fill_diagonal(cost, start_set.intra)
        counter("dp.segments_solved").inc()
        histogram("dp.table_cells", buckets=_TABLE_BUCKETS).observe(cost.size)
        return SegmentTable(start, start, names, cost)
    # C_{i,i}: only the start node, p_i = p_i.
    cost = np.full((n_start, n_start), np.inf)
    np.fill_diagonal(cost, start_set.intra)
    table = SegmentTable(start, start, names, cost)
    previous = start
    for name in names[1:]:
        node_set = candidates[name]
        edge_prev = edge_cost_matrix(
            graph, inter_model, candidates, previous, name, memo=memo
        )
        if edge_prev is None:
            # Assumption 1 guarantees e_{j, j+1} exists for true chains; a
            # missing edge contributes zero cost.
            edge_prev = np.zeros((len(candidates[previous]), len(node_set)))
        new_cost, arg = min_plus(table.cost, edge_prev)
        counter("dp.states_expanded").inc(new_cost.size)
        new_cost += node_set.intra[None, :]
        if previous != start:
            edge_start = edge_cost_matrix(
                graph, inter_model, candidates, start, name, memo=memo
            )
            if edge_start is not None:
                new_cost += edge_start  # Eq. 12's e_{i, j+1}
        table.cost = new_cost
        table.backpointers[name] = arg
        table.end = name
        previous = name
    counter("dp.segments_solved").inc()
    histogram("dp.table_cells", buckets=_TABLE_BUCKETS).observe(table.cost.size)
    return table
