"""Generate a random layered network, cross-check every method, render DOT.

Run with:  python demos/generate_and_render.py [seed]
"""

import sys
import time

from fixednodes import (
    GeneratorConfig,
    analyze,
    export_dot,
    random_layered_dag,
    spread_widths,
)

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7

config = GeneratorConfig(
    depth=6,
    widths=spread_widths(6, 10, 4),
    leader_count=4,
    seed=seed,
    edge_count=80,
)
dag = random_layered_dag(config)
print(f"generated: {dag.node_count} nodes, {len(dag.edges)} edges, "
      f"leaders {sorted(dag.leaders)} (seed {seed})")

started = time.perf_counter()
report = analyze(dag, ("layered", "oracle", "numeric"), trials=20, seed=0)
elapsed = time.perf_counter() - started
print(f"generic dimension: {report.generic_dim}")
for name, fixed in report.fixed_sets.items():
    print(f"  {name:<8} fixed set: {sorted(fixed)}")
print(f"methods agree: {report.consistent}")
print(f"analysis took {elapsed * 1000:.0f} ms")

dot = export_dot(dag, report.fixed_sets["layered"])
print("\nDOT rendering (pipe into `dot -Tsvg` to draw):")
print(dot)
