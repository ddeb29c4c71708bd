"""Partitioning the candidate graph into shard work units.

The similar-pair candidate graph (records as nodes, surviving candidate
pairs as edges) decomposes into connected components that can be resolved
independently — the structure CrowdER-style batching exploits.  Real
datasets at the paper's pruning thresholds, however, are dominated by one
giant component, so a practical partitioner needs two more tools:

* :func:`split_component` — a *size-capped* re-partitioning that splits a
  giant component on its **weakest edges**: edges are replayed in
  descending weight order through a size-capped union-find (a capped
  maximum-spanning-forest clustering), so only the lowest-similarity edges
  end up crossing blocks.
* :func:`pack_components` — an LPT (longest-processing-time) bin-packing
  scheduler that groups small components into ``num_shards`` balanced work
  units.

Two consumers exist:

* the **independent** execution mode shards the record graph via
  :func:`plan_pair_shards` (each shard resolves its own pairs end to end);
* the streaming service cuts a routed batch's candidate pairs into
  balanced contiguous chunks via :func:`vertex_slices` — the chunks are
  reassembled in row order, so any disjoint cover is correct and balance
  is the only objective.

Everything in this module is deterministic: ties break on the smallest
node id / earliest edge, never on hash order or scheduling.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import ConfigurationError


class UnionFind:
    """Array-backed union-find with size tracking (path halving)."""

    def __init__(self, size: int) -> None:
        self.parent = np.arange(size, dtype=np.int64)
        self.size = np.ones(size, dtype=np.int64)

    def find(self, node: int) -> int:
        parent = self.parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = int(parent[node])
        return node

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of *a* and *b*; False when already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def connected_components(
    num_nodes: int, edges: Sequence[Pair]
) -> list[np.ndarray]:
    """Connected components of an undirected graph, deterministically ordered.

    Returns:
        One sorted node array per component, components ordered by their
        smallest node id.  Isolated nodes form singleton components.
    """
    if num_nodes < 0:
        raise ConfigurationError(f"num_nodes must be >= 0, got {num_nodes}")
    uf = UnionFind(num_nodes)
    for a, b in edges:
        uf.union(int(a), int(b))
    roots = np.fromiter(
        (uf.find(node) for node in range(num_nodes)), dtype=np.int64, count=num_nodes
    )
    components: dict[int, list[int]] = {}
    for node in range(num_nodes):
        components.setdefault(int(roots[node]), []).append(node)
    ordered = sorted(components.values(), key=lambda nodes: nodes[0])
    return [np.asarray(nodes, dtype=np.int64) for nodes in ordered]


def split_component(
    nodes: np.ndarray,
    edges: Sequence[Pair],
    weights: Sequence[float] | None,
    max_pairs: int,
) -> list[np.ndarray]:
    """Split one component into blocks of at most ~*max_pairs* edges each.

    Strong (high-weight) edges are granted first, so when the cap forces a
    cut it lands on the **weakest** edges — the pairs least likely to carry
    useful cross-block inference.  Implementation: replay edges in
    descending weight order (ties: original edge order) through a
    union-find whose unions are refused once the combined block would hold
    more than *max_pairs* edges.

    Args:
        nodes: the component's node ids (sorted).
        edges: the component's edges (pairs of node ids).
        weights: one weight per edge (higher = stronger); ``None`` means
            uniform weights, i.e. split purely on edge order.
        max_pairs: cap on edges per block (must be >= 1).

    Returns:
        Sorted node arrays, ordered by smallest node id.  The union of the
        blocks is exactly *nodes*; a component with ``<= max_pairs`` edges
        comes back whole.
    """
    if max_pairs < 1:
        raise ConfigurationError(f"max_pairs must be >= 1, got {max_pairs}")
    if len(edges) <= max_pairs:
        return [np.asarray(nodes, dtype=np.int64)]
    local = {int(node): index for index, node in enumerate(nodes)}
    uf = UnionFind(len(nodes))
    # Edges already inside a block (accepted or closing a cycle) per root.
    internal = np.zeros(len(nodes), dtype=np.int64)
    if weights is None:
        order = range(len(edges))
    else:
        if len(weights) != len(edges):
            raise ConfigurationError(
                f"{len(edges)} edges but {len(weights)} weights"
            )
        # Descending weight; ties keep the original edge order (stable).
        order = np.argsort(-np.asarray(weights, dtype=np.float64), kind="stable")
    for index in order:
        a, b = edges[int(index)]
        ra, rb = uf.find(local[int(a)]), uf.find(local[int(b)])
        if ra == rb:
            internal[ra] += 1  # cycle edge: same block either way
            continue
        if internal[ra] + internal[rb] + 1 > max_pairs:
            continue  # refusing the union cuts this (weak) edge
        combined = internal[ra] + internal[rb] + 1
        uf.union(ra, rb)
        internal[uf.find(ra)] = combined
    blocks: dict[int, list[int]] = {}
    for position, node in enumerate(nodes):
        blocks.setdefault(uf.find(position), []).append(int(node))
    ordered = sorted(blocks.values(), key=lambda members: members[0])
    return [np.asarray(members, dtype=np.int64) for members in ordered]


def pack_components(
    weights: Sequence[float], num_bins: int
) -> list[list[int]]:
    """LPT bin packing: assign component indexes to ``num_bins`` bins.

    Components are placed heaviest-first onto the currently lightest bin
    (ties: lowest bin id), the classic longest-processing-time heuristic
    whose makespan is within 4/3 of optimal — comfortably inside the 2x
    balance bound the partition tests enforce.

    Returns:
        ``bins[b]`` holds the component indexes assigned to bin ``b``, in
        descending weight order; empty bins are dropped.
    """
    if num_bins < 1:
        raise ConfigurationError(f"num_bins must be >= 1, got {num_bins}")
    order = np.argsort(
        -np.asarray(weights, dtype=np.float64), kind="stable"
    )
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    loads = np.zeros(num_bins, dtype=np.float64)
    for index in order:
        lightest = int(np.argmin(loads))  # first minimum: lowest bin id
        bins[lightest].append(int(index))
        loads[lightest] += float(weights[int(index)])
    return [bin_ for bin_ in bins if bin_]


@dataclass(frozen=True)
class PairShard:
    """One independent-mode work unit: a set of candidate pairs.

    Attributes:
        shard_id: position in the plan (also the seed-derivation index).
        pairs: the candidate pairs this shard resolves, sorted.
        components: how many candidate-graph blocks were packed into it.
    """

    shard_id: int
    pairs: tuple[Pair, ...]
    components: int = 1

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ShardPlan:
    """A full partition of the candidate pairs into shard work units."""

    shards: tuple[PairShard, ...]
    num_components: int
    split_components: int = 0
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def pair_counts(self) -> list[int]:
        return [len(shard) for shard in self.shards]

    def balance(self) -> float:
        """Largest shard over the ideal (mean) load; 1.0 is perfect."""
        counts = self.pair_counts
        if not counts or sum(counts) == 0:
            return 1.0
        ideal = max(sum(counts) / len(counts), max(counts) and 1)
        return max(counts) / max(ideal, 1e-12)


def plan_pair_shards(
    pairs: Sequence[Pair],
    num_shards: int,
    weights: Sequence[float] | None = None,
    max_pairs: int | None = None,
) -> ShardPlan:
    """Partition candidate pairs into at most *num_shards* balanced shards.

    Pipeline: connected components of the record graph -> size-capped
    weak-edge splitting of any component over *max_pairs* -> LPT packing of
    the blocks into shard work units.  Every candidate pair lands in
    exactly one shard: a pair is an *edge* of the record graph, so both its
    records sit inside one component; when a split cuts the edge, the pair
    follows the block of its smaller record id (deterministic).

    Args:
        pairs: the candidate pairs (each a ``(low, high)`` record-id tuple).
        num_shards: target number of work units (>= 1).
        weights: per-pair edge weights (e.g. record-level similarity);
            higher = stronger.  Guides the weak-edge splitting only.
        max_pairs: split any component holding more pairs than this;
            ``None`` keeps components whole (pure CrowdER-style sharding).
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if max_pairs is not None and max_pairs < 1:
        raise ConfigurationError(f"max_pairs must be >= 1 or None, got {max_pairs}")
    pairs = list(pairs)
    if not pairs:
        return ShardPlan(shards=(), num_components=0)
    record_ids = sorted({record for pair in pairs for record in pair})
    dense = {record: index for index, record in enumerate(record_ids)}
    dense_edges = [(dense[a], dense[b]) for a, b in pairs]
    components = connected_components(len(record_ids), dense_edges)

    # Edges (with positions) per component root.
    uf = UnionFind(len(record_ids))
    for a, b in dense_edges:
        uf.union(a, b)
    edges_of: dict[int, list[int]] = {}
    for position, (a, b) in enumerate(dense_edges):
        edges_of.setdefault(uf.find(a), []).append(position)

    blocks: list[list[int]] = []  # pair positions per block
    split_components = 0
    for component in components:
        root = uf.find(int(component[0]))
        positions = edges_of.get(root, [])
        if max_pairs is None or len(positions) <= max_pairs:
            blocks.append(positions)
            continue
        split_components += 1
        component_edges = [dense_edges[p] for p in positions]
        component_weights = (
            None if weights is None else [float(weights[p]) for p in positions]
        )
        sub_blocks = split_component(
            component, component_edges, component_weights, max_pairs
        )
        block_of_node: dict[int, int] = {}
        for block_index, nodes in enumerate(sub_blocks):
            for node in nodes:
                block_of_node[int(node)] = block_index
        grouped: dict[int, list[int]] = {}
        for position in positions:
            a, b = dense_edges[position]
            # A cut pair follows its smaller record id's block.
            owner = block_of_node[min(a, b)] if block_of_node[a] != block_of_node[b] else block_of_node[a]
            grouped.setdefault(owner, []).append(position)
        for block_index in sorted(grouped):
            members = grouped[block_index]
            # Adopted cut pairs can push a block past the cap (a hub record
            # attracts every pair cut off its star); re-chunk so no block
            # exceeds max_pairs and the LPT packer can balance the load.
            for start in range(0, len(members), max_pairs):
                blocks.append(members[start : start + max_pairs])

    packed = pack_components([len(block) for block in blocks], num_shards)
    shards = []
    for shard_id, block_indexes in enumerate(packed):
        positions = sorted(p for index in block_indexes for p in blocks[index])
        shards.append(
            PairShard(
                shard_id=shard_id,
                pairs=tuple(pairs[p] for p in positions),
                components=len(block_indexes),
            )
        )
    return ShardPlan(
        shards=tuple(shards),
        num_components=len(components),
        split_components=split_components,
        stats={
            "records": len(record_ids),
            "pairs": len(pairs),
            "blocks": len(blocks),
        },
    )


def vertex_slices(num_vertices: int, num_slices: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` ranges over ``num_vertices`` rows.

    Chunked work is reassembled in row order, so *any* disjoint cover is
    correct; contiguous balanced slices maximise balance at zero planning
    cost.  Empty slices are dropped (fewer rows than slices).
    """
    if num_slices < 1:
        raise ConfigurationError(f"num_slices must be >= 1, got {num_slices}")
    if num_vertices < 0:
        raise ConfigurationError(f"num_vertices must be >= 0, got {num_vertices}")
    base, extra = divmod(num_vertices, num_slices)
    slices = []
    lo = 0
    for index in range(num_slices):
        hi = lo + base + (1 if index < extra else 0)
        if hi > lo:
            slices.append((lo, hi))
        lo = hi
    return slices


__all__ = [
    "UnionFind",
    "connected_components",
    "split_component",
    "pack_components",
    "PairShard",
    "ShardPlan",
    "plan_pair_shards",
    "vertex_slices",
]
