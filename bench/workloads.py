"""The benchmark's workloads: seeded graph lists and the CLI flags they run with.

Each workload is a fixed list of graphs drawn from the benchmark's seed.  The
program under test only ever sees the graph JSON files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fixednodes.generate import GeneratorConfig, random_layered_dag, spread_widths
from fixednodes.graph import StructuredDag, graph_to_json

SKIP_PROB = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    oracle_reference: bool  # reference sets come from the oracle (else from layered)
    build: Callable[[int], list[StructuredDag]]


def _sized(depth: int, width: int, leaders: int, edges: int, skip: float, seed: int) -> StructuredDag:
    config = GeneratorConfig(
        depth=depth,
        widths=spread_widths(depth, width, leaders),
        leader_count=leaders,
        seed=seed,
        edge_count=edges,
        skip_layer_prob=skip,
    )
    return random_layered_dag(config)


def _small(rng: random.Random, leaders: int, depth: int, skip: float) -> StructuredDag:
    """Widths 1-4 below ``leaders`` sources (n <= 20), up to n extra edges."""
    widths = [leaders] + [rng.randint(1, 4) for _ in range(depth - 1)]
    n = sum(widths)
    backbone = n - leaders
    max_edges = sum(
        widths[a] * widths[b]
        for a in range(depth)
        for b in range(a + 1, depth)
        if b == a + 1 or skip > 0.0
    )
    extra_room = max_edges - backbone
    extra = rng.randint(0, min(extra_room, n)) if extra_room > 0 else 0
    config = GeneratorConfig(
        depth=depth,
        widths=tuple(widths),
        leader_count=leaders,
        seed=rng.randrange(2**32),
        edge_count=backbone + extra,
        skip_layer_prob=skip,
    )
    return random_layered_dag(config)


def _sweep_small(seed: int) -> list[StructuredDag]:
    """Leaders 1-4 and depth 1-5 cycle through all 20 pairs instead of being
    drawn, each pair once without and once with skip edges.  Drawing them
    moved the pass's total work by about 10% from seed to seed."""
    rng = random.Random(f"sweep-small/{seed}")
    return [
        _small(rng, 1 + (i // 2) % 4, 1 + (i // 8) % 5, SKIP_PROB if i % 2 else 0.0)
        for i in range(300)
    ]


def _all_n200(seed: int) -> list[StructuredDag]:
    rng = random.Random(f"all-n200/{seed}")
    return [_sized(10, 20, 10, 400, skip, rng.randrange(2**32)) for skip in (0.0, SKIP_PROB)]


def _layered_n1000(seed: int) -> list[StructuredDag]:
    rng = random.Random(f"layered-n1000/{seed}")
    return [
        _sized(depth, width, leaders, 3000, skip, rng.randrange(2**32))
        for depth, width, leaders in ((100, 10, 4), (20, 50, 25))
        for skip in (0.0, SKIP_PROB)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-small", ("--method", "all"), True, _sweep_small),
        Workload("all-n200", ("--method", "all", "--trials", "20"), True, _all_n200),
        Workload("layered-n1000", ("--method", "layered"), False, _layered_n1000),
    )
}


def write_workload(name: str, seed: int, directory: Path) -> None:
    """Write the workload's graphs as ``g000.json``, ``g001.json``, ...; the
    order of the files is the order the graphs are run in."""
    directory.mkdir(parents=True, exist_ok=True)
    for index, dag in enumerate(WORKLOADS[name].build(seed)):
        (directory / f"g{index:03d}.json").write_text(graph_to_json(dag))


def graph_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("g[0-9][0-9][0-9].json"))
