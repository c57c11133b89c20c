"""Reproducible random layered DAG generation.

Graphs come out valid by construction: layer 1 is exactly the leader set,
every deeper node receives one backbone edge from the directly preceding
layer (influenceability and the intended layer widths follow), and extra
edges only ever point to deeper layers.

Layer-skipping extras are off by default.  They produce perfectly valid DAGs,
but on such graphs the layered fixed-node criterion loses its equivalence
with the add-a-leader oracle, so the safe default keeps generated instances
inside the domain where all methods agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

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
    """Draw a graph for the configuration; identical seeds give identical graphs."""
    rng = np.random.default_rng(config.seed)
    layers: list[list[int]] = []
    nxt = 1
    for w in config.widths:
        layers.append(list(range(nxt, nxt + w)))
        nxt += w

    edges: set[tuple[int, int]] = set()
    for k in range(1, config.depth):
        for v in layers[k]:
            u = layers[k - 1][int(rng.integers(len(layers[k - 1])))]
            edges.add((u, v))

    adjacent: list[tuple[int, int]] = []
    skipping: list[tuple[int, int]] = []
    for a, b in config._layer_pairs():
        pool = adjacent if b == a + 1 else skipping
        pool.extend(
            (u, v) for u in layers[a] for v in layers[b] if (u, v) not in edges
        )

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
            keep = rng.random(len(pool)) < prob
            edges.update(e for e, take in zip(pool, keep) if take)

    return StructuredDag.of(nxt - 1, edges, layers[0])
