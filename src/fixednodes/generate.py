"""Reproducible random layered DAG generation.

Graphs come out valid by construction: layer 1 is exactly the leader set,
every deeper node receives one backbone edge from the directly preceding
layer (influenceability and the intended layer widths follow), and extra
edges only ever point to deeper layers.

Extra edges come from two pools of candidate pairs, adjacent and skipping,
that are never listed.  A ``_VirtualPool`` numbers its pairs as the listed
pool would, layer pair by layer pair, and stores only the positions already
taken, so the random stream, and with it every graph, is the listed pools'
(the slow reference ``pooled_layered_dag`` in ``tests/references.py``
lists them).  In ``edge_count`` mode each extra edge costs
O(log blocks + removed pairs in its block), where a block is one layer pair;
``edge_prob`` mode still draws one uniform per candidate pair, but in chunks
of bounded memory.

Layer-skipping extras are off by default.  They produce perfectly valid DAGs,
but on such graphs the layered fixed-node criterion loses its equivalence
with the add-a-leader oracle, so the safe default keeps generated instances
inside the domain where all methods agree.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Iterator

from .graph import StructuredDag


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape and density of a random layered DAG.

    ``widths[0]`` must equal ``leader_count``: layer-1 nodes have no incoming
    edges, so any non-leader there would be uncontrollable.  Exactly one of
    ``edge_count``/``edge_prob`` selects the density mode.
    """

    depth: int
    widths: tuple[int, ...]
    leader_count: int
    seed: int
    edge_count: int | None = None
    edge_prob: float | None = None
    skip_layer_prob: float = 0.0

    def __post_init__(self):
        if self.depth < 1 or len(self.widths) != self.depth:
            raise ValueError("widths must list one positive count per layer")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        if self.widths[0] != self.leader_count:
            raise ValueError("layer 1 consists exactly of the leaders")
        if (self.edge_count is None) == (self.edge_prob is None):
            raise ValueError("exactly one of edge_count/edge_prob is required")
        if not 0.0 <= self.skip_layer_prob <= 1.0:
            raise ValueError("skip_layer_prob must be in [0, 1]")
        if self.edge_prob is not None and not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")
        if self.edge_count is not None:
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
        """Placeable edges; with skip probability zero only adjacent pairs count."""
        return sum(self.widths[a] * self.widths[b] for a, b in self._layer_pairs())

    def _layer_pairs(self) -> Iterator[tuple[int, int]]:
        """Layer index pairs ``(a, b)``, ``a < b``, whose nodes an edge may join;
        a zero skip probability is a hard no-skip guarantee: ``b == a + 1``."""
        reach = self.depth if self.skip_layer_prob > 0.0 else 1
        for a in range(self.depth):
            for b in range(a + 1, min(a + 1 + reach, self.depth)):
                yield a, b


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
    ``_layer_pairs()`` order and u-major inside a layer pair, the backbone
    left out: ``edge_count`` pops a uniform index from one pool per extra
    edge, ``edge_prob`` keeps each pair of a pool on one uniform.  Each
    pool is a ``_VirtualPool`` instead, which gives the same pairs for the
    same numbers without listing any.
    """
    import numpy as np  # loaded only by the calls that draw

    rng = np.random.default_rng(config.seed)
    widths = config.widths
    firsts = [1]
    for w in widths:
        firsts.append(firsts[-1] + w)

    edges: set[tuple[int, int]] = set()
    backbone: list[list[int]] = [[]]
    for k in range(1, config.depth):
        taken = []
        for iv in range(widths[k]):
            iu = int(rng.integers(widths[k - 1]))
            edges.add((firsts[k - 1] + iu, firsts[k] + iv))
            taken.append(iu * widths[k] + iv)
        backbone.append(sorted(taken))

    blocks: tuple[list[_Block], list[_Block]] = ([], [])  # adjacent, skipping
    for a, b in config._layer_pairs():
        skips = b > a + 1
        removed = [] if skips else backbone[b]
        blocks[skips].append((firsts[a], firsts[b], widths[a] * widths[b], widths[b], removed))
    adjacent, skipping = map(_VirtualPool, blocks)

    if config.edge_count is not None:
        for _ in range(config.edge_count - len(edges)):
            want_skip = bool(skipping) and rng.random() < config.skip_layer_prob
            pool = skipping if want_skip else adjacent
            if not pool:
                pool = adjacent or skipping
            edge = pool.pop(int(rng.integers(len(pool))))
            edges.add(edge)
    else:
        for pool, prob in (
            (adjacent, config.edge_prob),
            (skipping, config.edge_prob * config.skip_layer_prob),
        ):
            if prob <= 0.0:
                continue
            edges.update(pool.sample(rng, prob))

    return StructuredDag.of(firsts[-1] - 1, edges, range(1, firsts[1]))


# One layer pair's candidates: first u, first v, pair count, width of v's
# layer, and the ascending positions ``iu * w_v + iv`` no longer in the pool.
_Block = tuple[int, int, int, int, list[int]]

_CHUNK = 1 << 16  # uniforms per draw in edge_prob mode: 512 KB of doubles


class _VirtualPool:
    """The remaining pairs of a run of blocks, numbered as if listed block by
    block and u-major inside a block, without listing them.

    A Fenwick tree over the blocks' remaining counts finds the block that
    holds the i-th remaining pair.  Inside it, the i-th remaining position p
    is the least fixpoint of ``p = i + #(removed <= p)``, reached by
    bisecting the removed list from ``p = i``.  So ``pop(i)`` returns what
    ``list.pop(i)`` on the listed pool would.
    """

    def __init__(self, blocks: list[_Block]):
        self.blocks = blocks
        self.tree = tree = [0] + [count - len(removed) for _, _, count, _, removed in blocks]
        self.size = sum(tree)
        for i in range(1, len(tree)):
            up = i + (i & -i)
            if up < len(tree):
                tree[up] += tree[i]
        self.top = 1 << len(blocks).bit_length() >> 1  # highest power of 2 <= len(blocks)

    def __len__(self) -> int:
        return self.size

    def pop(self, i: int) -> tuple[int, int]:
        tree, end = self.tree, len(self.tree)
        block, step = 0, self.top
        while step:
            if block + step < end and tree[block + step] <= i:
                block += step
                i -= tree[block]
            step >>= 1
        first_u, first_v, _, w_v, removed = self.blocks[block]
        p = i + bisect_right(removed, i)
        while (q := i + bisect_right(removed, p)) != p:
            p = q
        insort(removed, p)
        self.size -= 1
        block += 1
        while block < end:
            tree[block] -= 1
            block += block & -block
        iu, iv = divmod(p, w_v)
        return first_u + iu, first_v + iv

    def sample(self, rng, prob: float) -> Iterator[tuple[int, int]]:
        """Each remaining pair with probability ``prob``: one uniform per pair
        in pool order, drawn ``_CHUNK`` at a time."""
        import numpy as np

        if not self.size:
            return
        firsts_u, firsts_v, counts, w_v = (
            np.array(column, dtype=np.int64) for column in list(zip(*self.blocks))[:4]
        )
        ends = np.cumsum(counts)
        starts = ends - counts
        gone = np.array(
            [s + p for s, (*_, removed) in zip(starts.tolist(), self.blocks) for p in removed],
            dtype=np.int64,
        )
        # the k-th removed position has gone[k] - k remaining pairs before it
        gone -= np.arange(len(gone))
        for lo in range(0, self.size, _CHUNK):
            rank = lo + np.flatnonzero(rng.random(min(_CHUNK, self.size - lo)) < prob)
            at = rank + np.searchsorted(gone, rank, side="right")
            block = np.searchsorted(ends, at, side="right")
            iu, iv = np.divmod(at - starts[block], w_v[block])
            yield from zip((firsts_u[block] + iu).tolist(), (firsts_v[block] + iv).tolist())
