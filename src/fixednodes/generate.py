"""Reproducible random layered DAG generation.

Graphs come out valid by construction: layer 1 is exactly the leader set,
every deeper node receives one backbone edge from the directly preceding
layer (influenceability and the intended layer widths follow), and extra
edges only ever point to deeper layers.

Extra edges come from two pools of candidate pairs, adjacent and skipping,
that are never listed.  A ``_VirtualPool`` keeps one row per source layer,
numbers its pairs as the listed pool would, and stores only the positions
already taken, so the random stream, and with it every graph, is the listed
pools' (the slow reference ``pooled_layered_dag`` in ``tests/references.py``
lists them).  Set-up is O(depth), and each extra edge costs O(log depth +
pairs already drawn from its source layer).

Layer-skipping extras are off by default.  They produce perfectly valid DAGs,
but on such graphs the layered fixed-node criterion loses its equivalence
with the add-a-leader oracle, so the safe default keeps generated instances
inside the domain where all methods agree.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from .graph import StructuredDag


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape and density of a random layered DAG.

    ``widths[0]`` must equal ``leader_count``: layer-1 nodes have no incoming
    edges, so any non-leader there would be uncontrollable.  ``edge_count``
    is the total, backbone included.
    """

    depth: int
    widths: tuple[int, ...]
    leader_count: int
    seed: int
    edge_count: int
    skip_layer_prob: float = 0.0

    def __post_init__(self):
        if self.depth < 1 or len(self.widths) != self.depth:
            raise ValueError("widths must list one positive count per layer")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        if self.widths[0] != self.leader_count:
            raise ValueError("layer 1 consists exactly of the leaders")
        if not 0.0 <= self.skip_layer_prob <= 1.0:
            raise ValueError("skip_layer_prob must be in [0, 1]")
        backbone = self.node_count - self.leader_count
        if self.edge_count < backbone:
            raise ValueError(
                f"edge_count {self.edge_count} cannot cover the {backbone} backbone edges"
            )
        if self.edge_count > self._max_edges():
            raise ValueError(
                f"edge_count {self.edge_count} exceeds the {self._max_edges()} possible edges"
            )

    @property
    def node_count(self) -> int:
        return sum(self.widths)

    def _max_edges(self) -> int:
        """Placeable edges: every pair of nodes in distinct layers, or with
        skip probability zero (a hard no-skip guarantee) only those in
        adjacent layers."""
        w = self.widths
        if self.skip_layer_prob > 0.0:
            return (self.node_count**2 - sum(x * x for x in w)) // 2
        return sum(x * y for x, y in zip(w, w[1:]))


def spread_widths(depth: int, width: int, leader_count: int) -> tuple[int, ...]:
    """Per-layer widths for a target of ``depth * width`` total nodes.

    Layer 1 is pinned to the leader count; the remaining nodes spread as
    evenly as possible over the deeper layers, later layers taking the
    remainder.
    """
    if depth < 2:
        raise ValueError("spreading widths needs at least two layers")
    rest = depth * width - leader_count
    if rest < depth - 1:
        raise ValueError("not enough nodes for the requested depth")
    base, extra = divmod(rest, depth - 1)
    widths = [leader_count] + [base] * (depth - 1)
    for i in range(extra):
        widths[depth - 1 - i] += 1
    return tuple(widths)


def random_layered_dag(config: GeneratorConfig) -> StructuredDag:
    """Draw a graph for the configuration; identical seeds give identical graphs.

    The stream is that of two listed pools, adjacent and skipping pairs in
    lexicographic order of their layer pair ``(a, b)`` and u-major inside a
    layer pair, the backbone left out: each extra edge pops a uniform index
    from one pool, the skipping one with probability ``skip_layer_prob``
    while both hold pairs.  Each pool is a ``_VirtualPool`` instead, which
    gives the same pairs for the same numbers without listing any.
    """
    import numpy as np  # loaded only by the calls that draw

    rng = np.random.default_rng(config.seed)
    widths = config.widths
    firsts = [1]
    for w in widths:
        firsts.append(firsts[-1] + w)

    edges: set[tuple[int, int]] = set()
    rows: tuple[list[_Row], list[_Row]] = ([], [])  # adjacent, skipping
    for a in range(config.depth - 1):
        w_v, taken = widths[a + 1], []
        for iv in range(w_v):
            iu = int(rng.integers(widths[a]))
            edges.add((firsts[a] + iu, firsts[a + 1] + iv))
            taken.append(iu * w_v + iv)
        rows[0].append((a, firsts[a + 1], widths[a] * w_v, sorted(taken)))
        if config.skip_layer_prob > 0.0 and a + 2 < config.depth:
            rows[1].append((a, firsts[a + 2], widths[a] * (firsts[-1] - firsts[a + 2]), []))
    adjacent, skipping = (_VirtualPool(r, firsts) for r in rows)

    for _ in range(config.edge_count - len(edges)):
        want_skip = bool(skipping) and rng.random() < config.skip_layer_prob
        pool = skipping if want_skip else adjacent
        if not pool:
            pool = adjacent or skipping
        edges.add(pool.pop(int(rng.integers(len(pool)))))

    # every id is already an ``int``, so the graph skips ``of``'s conversion
    return StructuredDag(firsts[-1] - 1, frozenset(edges), frozenset(range(1, firsts[1])))


# One source layer's candidates: its index a, the first target id, the pair
# count, and the ascending positions no longer in the pool.  Targets run from
# that id to the end of layer a + 1 (adjacent) or of the graph (skipping), and
# a pair's position is ``w_a * (first id of v's layer - first target id) +
# iu * w_v + iv``: layer pair by layer pair, u-major inside one.
_Row = tuple[int, int, int, list[int]]


class _VirtualPool:
    """The remaining pairs of a run of rows, one per source layer, numbered
    as if listed row by row, without listing them.

    A Fenwick tree over the rows' remaining counts finds the row that holds
    the i-th remaining pair.  Inside it, the i-th remaining position p is the
    least fixpoint of ``p = i + #(removed <= p)``, reached by bisecting the
    removed list from ``p = i``.  So ``pop(i)`` returns what ``list.pop(i)``
    on the listed pool would.
    """

    def __init__(self, rows: list[_Row], firsts: list[int]):
        self.rows, self.firsts = rows, firsts
        self.tree = tree = [0] + [count - len(removed) for _, _, count, removed in rows]
        self.size = sum(tree)
        for i in range(1, len(tree)):
            up = i + (i & -i)
            if up < len(tree):
                tree[up] += tree[i]
        self.top = 1 << len(rows).bit_length() >> 1  # highest power of 2 <= len(rows)

    def __len__(self) -> int:
        return self.size

    def pop(self, i: int) -> tuple[int, int]:
        tree, end, firsts = self.tree, len(self.tree), self.firsts
        row, step = 0, self.top
        while step:
            if row + step < end and tree[row + step] <= i:
                row += step
                i -= tree[row]
            step >>= 1
        a, lo, _, removed = self.rows[row]
        p = i + bisect_right(removed, i)
        while (q := i + bisect_right(removed, p)) != p:
            p = q
        insort(removed, p)
        self.size -= 1
        row += 1
        while row < end:
            tree[row] -= 1
            row += row & -row
        w_u = firsts[a + 1] - firsts[a]
        b = bisect_right(firsts, lo + p // w_u) - 1
        iu, iv = divmod(p - w_u * (firsts[b] - lo), firsts[b + 1] - firsts[b])
        return firsts[a] + iu, firsts[b] + iv
