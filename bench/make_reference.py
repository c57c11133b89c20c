"""Write ``reference.json``: the default seed's fixed sets and dimensions.

Usage, from the root of a checkout::

    python3 bench/make_reference.py

Where a workload runs the oracle, the reference is the oracle's set, computed
here through the library rather than the CLI.  ``layered-n1000`` never runs
the oracle (it takes minutes per graph at n=1000), so its reference is the
layered set of the code it was recorded with: adjacent-layer graphs equal the
oracle there, and the layer-skipping ones are pinned as a regression
reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import reference_entry  # noqa: E402
from fixednodes.search import fixed_nodes_layered, fixed_nodes_oracle  # noqa: E402
from fixednodes.stems import generic_dimension  # noqa: E402
from run import DEFAULT_SEED, REFERENCE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    workloads = {}
    for name, spec in WORKLOADS.items():
        route = fixed_nodes_oracle if spec.oracle_reference else fixed_nodes_layered
        workloads[name] = [
            reference_entry(dag, route(dag).fixed_nodes, generic_dimension(dag)[0])
            for dag in spec.build(DEFAULT_SEED)
        ]
    lines = ",\n".join(
        f'    "{name}": [\n' + ",\n".join(f"      {json.dumps(e)}" for e in entries) + "\n    ]"
        for name, entries in workloads.items()
    )
    REFERENCE.write_text(f'{{\n  "seed": {DEFAULT_SEED},\n  "workloads": {{\n{lines}\n  }}\n}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
