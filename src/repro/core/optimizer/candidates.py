"""Per-operator candidate sets for the optimization algorithm.

A node's raw partition space (paper Sec. 3) may contain many sequences that
are *boundary-equivalent*: they induce identical tensor layouts at every
point an edge can observe (Forward/Backward first and last steps, Gradient
last step).  Inter-operator costs depend only on those boundary layouts
(Eq. 8-9), so collapsing each equivalence class to its cheapest member is an
exact reduction of the DP state space — the search stays optimal while the
``O(P^3)`` Bellman products shrink substantially.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...graph.operators import OperatorSpec
from ...obs.metrics import counter
from ..dims import ALL_DIMS, Dim
from ..partitions import PartitionStep
from ..spec import PartitionSpec
from ..space import enumerate_specs
from .. import cost as _cost  # noqa: F401  (re-export convenience)
from ..cost.inter import BWD_END, BWD_START, FWD_END, FWD_START, GRAD_END, NodeBoundary
from ..cost.intra import IntraOperatorCostModel
from ..layout import grid_signature
from .canonical import canonical_specs
from .memo import SearchMemo

#: Boundary points that determine every edge-observable layout.
_BOUNDARY_POINTS = (FWD_START, FWD_END, BWD_START, BWD_END, GRAD_END)


@dataclass
class CandidateSet:
    """Collapsed candidate partition states of one operator.

    Attributes:
        op: The operator.
        specs: One representative spec per boundary-equivalence class, the
            cheapest of its class under the intra-operator cost.
        intra: Eq. 7 totals per representative, shape ``(P,)``.
        boundaries: Boundary-layout evaluators per representative.
        raw_size: Size of the un-collapsed space (paper's ``P``).
    """

    op: OperatorSpec
    specs: List[PartitionSpec]
    intra: np.ndarray
    boundaries: List[NodeBoundary]
    raw_size: int

    def __len__(self) -> int:
        return len(self.specs)

    def index_of(self, spec: PartitionSpec) -> int:
        return self.specs.index(spec)

    @property
    def class_token(self) -> bytes:
        """Content digest of the kept specs' boundary classes, in order.

        Two sets of one operator type with equal tokens have identical
        boundary layouts row for row, hence identical Eq. 8-9 traffic on
        any edge — whichever representative each class kept.  Set when the
        set is built and pickled with it; derived from the specs for sets
        that predate it, with the same value.
        """
        token = self.__dict__.get("_class_token")
        if token is None:
            token = _class_token(
                self.specs[0].n_bits if self.specs else 0,
                b"".join(
                    _digest(boundary_class_key(self.op, spec))
                    for spec in self.specs
                ),
            )
            self.__dict__["_class_token"] = token
        return token


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _class_token(n_bits: int, digests: bytes) -> bytes:
    return _digest(struct.pack("<q", n_bits) + digests)


def boundary_class_key(op: OperatorSpec, spec: PartitionSpec) -> bytes:
    """Hashable key of a spec's edge-observable boundary layouts.

    Encoded directly as packed binary (slice counts in fixed dim order, grid
    events as length-prefixed axis names + factors, DSI matrices via
    ``tobytes``) — no ``repr`` round-trips on the hot enumeration path.
    """
    counts = spec.slice_counts
    parts = [struct.pack(f"<{len(ALL_DIMS)}q", *(counts[d] for d in ALL_DIMS))]
    grid = bytearray()
    for dim_value, events in grid_signature(op, spec):
        label = dim_value.encode("ascii")
        grid += struct.pack("<B", len(label)) + label
        grid += struct.pack("<I", len(events))
        for axis, factor in events:
            name = axis.encode("ascii")
            grid += struct.pack("<B", len(name)) + name
            grid += struct.pack("<q", factor)
    parts.append(bytes(grid))
    for phase, t in _BOUNDARY_POINTS:
        parts.append(spec.evaluator.dsi_matrix(phase, t).tobytes())
    return b"|".join(parts)


def operator_dim_limits(op: OperatorSpec) -> Dict[Dim, int]:
    """A dim cannot be split into more slices than its size."""
    return {dim: max(op.dim_size(dim), 1) for dim in Dim}


@dataclass(frozen=True)
class OperatorSpace:
    """The alpha-free part of one operator type's candidate build.

    Arrays and a small step table only (no spec objects), so it is cheap
    to keep in a :class:`~repro.core.optimizer.memo.SearchMemo` and to ship
    back from a worker process.

    Attributes:
        n_bits: Cluster device-id bits.
        step_table: The distinct partition steps of the space.
        step_ids: Per spec (enumeration order, extras last), its steps as
            indices into ``step_table``, padded with -1.
        latency: Eq. 7 latency per spec (seconds).
        memory: Eq. 7 memory per spec (bytes).
        classes: Boundary class id per spec, numbered by first appearance.
        digests: Each class's 16-byte boundary-key digest, one row per
            class id.
        protected: Indices of the injected extra and canonical specs.
        collapse: Whether candidates keep one spec per class.
    """

    n_bits: int
    step_table: Tuple[PartitionStep, ...]
    step_ids: np.ndarray
    latency: np.ndarray
    memory: np.ndarray
    classes: np.ndarray
    digests: np.ndarray
    protected: Tuple[int, ...]
    collapse: bool

    def candidates(
        self,
        op: OperatorSpec,
        alpha: float,
        beam: Optional[int] = None,
        specs: Optional[Sequence[PartitionSpec]] = None,
    ) -> CandidateSet:
        """The candidate set under memory weight ``alpha`` (Eq. 7).

        Each class keeps its first cheapest member and the beam keeps the
        ``beam`` cheapest classes (stable on ties) plus the protected
        specs' classes, exactly as a scan over the specs in order would.
        ``specs`` are the space's own spec objects when the caller still
        holds them (their layout caches are warm); otherwise the kept
        specs are rebuilt from their steps.
        """
        costs = self.latency + alpha * self.memory
        raw_size = len(self.step_ids)
        if self.collapse:
            # Sorted by (class, cost, index): the first entry of each class
            # run is its first strictly-cheapest member.
            ranked = np.lexsort((costs, self.classes))
            ranked_classes = self.classes[ranked]
            first = np.ones(raw_size, dtype=bool)
            first[1:] = ranked_classes[1:] != ranked_classes[:-1]
            best = np.empty(len(self.digests), dtype=np.int64)
            best[ranked_classes[first]] = ranked[first]
            order = np.sort(best)
        else:
            order = np.arange(raw_size)
        n_classes = len(order)
        if beam is not None and len(order) > beam:
            by_cost = order[np.argsort(costs[order], kind="stable")]
            keep = set(by_cost[:beam].tolist())
            # Canonical baseline specs survive the beam so the search is
            # never worse than the best Megatron configuration.
            for index in self.protected:
                keep.add(
                    index if not self.collapse
                    else int(best[self.classes[index]])
                )
            order = np.array(sorted(keep))
        op_label = op.kind.name.lower()
        counter("candidates.builds", op=op_label).inc()
        counter("candidates.raw", op=op_label).inc(raw_size)
        counter("candidates.kept", op=op_label).inc(len(order))
        counter("candidates.pruned_equivalent", op=op_label).inc(
            raw_size - n_classes
        )
        counter("candidates.beam_evicted", op=op_label).inc(
            n_classes - len(order)
        )
        if specs is None:
            table = self.step_table
            kept = [
                PartitionSpec(
                    tuple(table[j] for j in self.step_ids[i] if j >= 0),
                    self.n_bits,
                )
                for i in order
            ]
        else:
            kept = [specs[i] for i in order]
        candidate_set = CandidateSet(
            op=op,
            specs=kept,
            intra=costs[order],
            boundaries=[NodeBoundary(op, s) for s in kept],
            raw_size=raw_size,
        )
        candidate_set.__dict__["_class_token"] = _class_token(
            self.n_bits, self.digests[self.classes[order]].tobytes()
        )
        return candidate_set


def build_space(
    op: OperatorSpec,
    n_bits: int,
    intra_model: IntraOperatorCostModel,
    include_temporal: bool = True,
    partition_batch: bool = True,
    collapse: bool = True,
    extra_specs: Sequence[PartitionSpec] = (),
) -> Tuple[OperatorSpace, List[PartitionSpec]]:
    """Enumerate and cost one operator's partition space (alpha-free).

    Returns the space and its spec objects, in the space's order.
    """
    legal = list(op.legal_dims)
    if not partition_batch and Dim.B in legal:
        legal.remove(Dim.B)
    specs = enumerate_specs(
        n_bits,
        legal,
        allow_temporal=op.allow_temporal,
        include_temporal=include_temporal,
        dim_limits=operator_dim_limits(op),
        axis_options={dim: op.partition_axis_options(dim) for dim in legal},
        axis_capacities=op.axis_capacities(),
        include_replicate=not op.is_matmul_like,
    )
    extras = list(extra_specs) + canonical_specs(
        op,
        n_bits,
        include_temporal=include_temporal,
        partition_batch=partition_batch,
    )
    protected = []
    for extra in extras:
        if extra not in specs:
            specs.append(extra)
        protected.append(specs.index(extra))
    if not specs:
        raise ValueError(
            f"operator {op.name} admits no partitioning over {n_bits} bits"
        )
    costs = intra_model.cost_batch(op, specs)
    class_ids: Dict[bytes, int] = {}
    classes = [
        class_ids.setdefault(boundary_class_key(op, spec), len(class_ids))
        for spec in specs
    ]
    step_index: Dict[PartitionStep, int] = {}
    step_ids = np.full(
        (len(specs), max(len(spec.steps) for spec in specs)), -1, dtype=np.int16
    )
    for row, spec in zip(step_ids, specs):
        row[: len(spec.steps)] = [
            step_index.setdefault(step, len(step_index)) for step in spec.steps
        ]
    space = OperatorSpace(
        n_bits=n_bits,
        step_table=tuple(step_index),
        step_ids=step_ids,
        latency=np.array([c.latency for c in costs], dtype=float),
        memory=np.array([c.memory_bytes for c in costs], dtype=float),
        classes=np.array(classes, dtype=np.int64),
        digests=np.frombuffer(
            b"".join(_digest(key) for key in class_ids), dtype=np.uint8
        ).reshape(-1, 16),
        protected=tuple(protected),
        collapse=collapse,
    )
    return space, specs


def space_key(
    op: OperatorSpec,
    n_bits: int,
    intra_model: IntraOperatorCostModel,
    include_temporal: bool,
    partition_batch: bool,
    collapse: bool,
    extra_specs: Sequence[PartitionSpec],
) -> Optional[Tuple]:
    """Memo key of :func:`build_space`'s inputs, or ``None`` if unkeyable.

    A noise-free profiler's fits are a function of its topology and sizes;
    a noisy one's depend on its draw order, so its spaces are never kept.
    The name suffix picks the operator's canonical Megatron specs.
    """
    profiler = intra_model.communication.profiler
    if profiler.noise != 0.0:
        return None
    memory = intra_model.memory
    key = (
        type_key(op),
        op.name.rsplit(".", 1)[-1],
        n_bits,
        profiler.topology,
        profiler.sizes,
        (type(memory).__qualname__, tuple(sorted(vars(memory).items()))),
        include_temporal,
        partition_batch,
        collapse,
        tuple(extra_specs),
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


def build_candidates(
    op: OperatorSpec,
    n_bits: int,
    intra_model: IntraOperatorCostModel,
    include_temporal: bool = True,
    partition_batch: bool = True,
    collapse: bool = True,
    extra_specs: Sequence[PartitionSpec] = (),
    beam: Optional[int] = None,
    memo: Optional[SearchMemo] = None,
) -> CandidateSet:
    """Enumerate, cost and collapse one operator's partition space.

    Args:
        op: The operator node.
        n_bits: Cluster device-id bits.
        intra_model: Eq. 7 evaluator (carries the memory weight ``alpha``).
        include_temporal: Search-space switch; False reproduces the
            conventional (Megatron/Alpa) space.
        partition_batch: When False, the batch dim is excluded — the 3D
            parallelism mode of paper Sec. 6.4 where data parallelism is
            controlled externally.
        collapse: Collapse boundary-equivalence classes (exact reduction).
        extra_specs: Hand-built specs to force into the set (baselines).
        beam: Keep only the ``beam`` cheapest classes by intra cost — an
            approximation used to bound search time on large clusters.
        memo: Reuse (and record) the alpha-free space of this operator type.
    """
    args = (op, n_bits, intra_model, include_temporal, partition_batch,
            collapse, tuple(extra_specs))
    key = space_key(*args) if memo is not None else None
    space = memo.spaces.get(key) if key is not None else None
    specs = None
    if space is None:
        space, specs = build_space(*args)
        if key is not None:
            memo.spaces.put(key, space)
    return space.candidates(op, intra_model.alpha, beam, specs)


def type_key(op: OperatorSpec) -> Tuple:
    """Nodes with equal type keys share candidate sets (stacked layers)."""
    return (
        op.kind,
        tuple(sorted((d.value, axes) for d, axes in op.dim_axes.items())),
        tuple(sorted(op.axis_sizes.items())),
        op.pointwise_flops,
        op.stash_inputs,
    )
