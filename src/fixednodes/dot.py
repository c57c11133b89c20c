"""Graphviz DOT rendering of an analyzed graph.

Layers become same-rank groups and fixed nodes carry a ``class="fixed"``
attribute, leaving concrete colors to the renderer.  Output is byte-stable:
nodes and edges are emitted in sorted order.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidGraphError
from .graph import StructuredDag, label_layers


def export_dot(dag: StructuredDag, fixed: Iterable[int]) -> str:
    """Render ``dag`` by the layers of its own labeling, ``fixed`` marked."""
    fixed_set = frozenset(fixed)
    if not fixed_set <= dag.nodes:
        raise InvalidGraphError("fixed nodes must be nodes of the graph")
    lines = ["digraph structured_network {", "  rankdir=TB;"]
    for k, layer in enumerate(label_layers(dag).layers, start=1):
        lines.append(f"  {{ rank=same; // layer {k}")
        for v in sorted(layer):
            marks = []
            if v in dag.leaders:
                marks.append('shape="doublecircle"')
            if v in fixed_set:
                marks.append('class="fixed"')
            suffix = f" [{', '.join(marks)}]" if marks else ""
            lines.append(f"    {v}{suffix};")
        lines.append("  }")
    for u, v in dag.sorted_edges:
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
