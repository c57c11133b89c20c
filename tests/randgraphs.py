"""Seeded random graph helpers shared by the test suites."""

from __future__ import annotations

import random

from fixednodes import GeneratorConfig, StructuredDag, random_layered_dag, spread_widths


def random_dag(
    rng: random.Random,
    *,
    max_nodes: int = 12,
    max_leaders: int = 3,
    skip_prob: float = 0.0,
) -> StructuredDag:
    """One random layered DAG, shape and density drawn from ``rng``.

    With ``skip_prob`` zero every edge joins adjacent layers, which is the
    domain where the layered criterion provably tracks the oracle.
    """
    leaders = rng.randint(1, max_leaders)
    depth = rng.randint(1, 5)
    widths = [leaders]
    budget = max_nodes - leaders
    for _ in range(depth - 1):
        if budget <= 0:
            break
        w = rng.randint(1, min(4, budget))
        widths.append(w)
        budget -= w
    depth = len(widths)
    n = sum(widths)
    backbone = n - leaders
    max_edges = sum(
        widths[a] * widths[b]
        for a in range(depth)
        for b in range(a + 1, depth)
        if b == a + 1 or skip_prob > 0.0
    )
    extra_room = max_edges - backbone
    edge_count = backbone + (rng.randint(0, min(extra_room, n)) if extra_room > 0 else 0)
    config = GeneratorConfig(
        depth=depth,
        widths=tuple(widths),
        leader_count=leaders,
        seed=rng.randrange(2**32),
        edge_count=edge_count,
        skip_layer_prob=skip_prob,
    )
    return random_layered_dag(config)


def redrawn_leaders(rng: random.Random, dag: StructuredDag) -> StructuredDag:
    """``dag`` with some of its source leaders dropped, which leaves nodes no
    leader reaches, and up to two inner nodes promoted, which gives leaders
    with in-edges."""
    kept = rng.sample(sorted(dag.leaders), rng.randint(1, len(dag.leaders)))
    others = sorted(dag.nodes - dag.leaders)
    return dag.with_leaders(kept + rng.sample(others, rng.randint(0, min(2, len(others)))))


def shaped_dag(
    depth: int, width: int, leaders: int, skip_prob: float, seed: int, edges: int = 3000
) -> StructuredDag:
    """A generated graph of the benchmark's shapes: n=1000 with 3000 edges by
    default, n=200 with 400 edges for ``shaped_dag(10, 20, 10, p, seed, 400)``."""
    config = GeneratorConfig(
        depth=depth,
        widths=spread_widths(depth, width, leaders),
        leader_count=leaders,
        seed=seed,
        edge_count=edges,
        skip_layer_prob=skip_prob,
    )
    return random_layered_dag(config)


def layered_n1000_graphs(seed: int) -> list[StructuredDag]:
    """The four graphs of the benchmark's ``layered-n1000`` workload at
    ``seed``: deep (100 layers of 10) and wide (20 of 50), each at skip 0 and
    0.3, drawn as ``bench/workloads.py`` draws them."""
    rng = random.Random(f"layered-n1000/{seed}")
    return [
        shaped_dag(depth, width, leaders, skip, rng.randrange(2**32))
        for depth, width, leaders in ((100, 10, 4), (20, 50, 25))
        for skip in (0.0, 0.3)
    ]


def all_n200_graphs(seed: int) -> list[StructuredDag]:
    """The two 200-node graphs of the benchmark's ``all-n200`` workload at
    ``seed``, at skip 0 and 0.3."""
    rng = random.Random(f"all-n200/{seed}")
    return [shaped_dag(10, 20, 10, skip, rng.randrange(2**32), edges=400) for skip in (0.0, 0.3)]
