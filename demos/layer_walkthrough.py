"""Layer-by-layer walkthrough of the fixed-node search on a 13-node network.

Run with:  python demos/layer_walkthrough.py
"""

from fixednodes import StructuredDag, fixed_nodes_layered, generic_dimension, label_layers

# Two leaders feed a five-layer hierarchy.  Node 5 funnels everything leader 2
# can reach, node 6 funnels the overlap of leader 1's branches, and layer 4
# fans out so widely that none of its nodes is pinned down.
dag = StructuredDag.of(
    13,
    [
        (1, 3), (1, 4), (2, 5),
        (3, 6), (4, 6), (5, 7), (5, 8),
        (6, 9), (6, 10), (7, 10), (7, 11),
        (10, 12), (10, 13), (11, 13),
    ],
    leaders=[1, 2],
)

labeling = label_layers(dag)
print(f"{dag.node_count} nodes, {len(dag.edges)} edges, leaders {sorted(dag.leaders)}")
print(f"hierarchy depth {labeling.depth}:")
for k, layer in enumerate(labeling.layers, start=1):
    print(f"  layer {k}: {sorted(layer)}")

dim = generic_dimension(dag)[0]
print()
print("Per layer: disjoint leader-rooted paths try to cover as many layer")
print("nodes as possible (the layer's max coverage, mu); a node that appears")
print("in EVERY maximum matched set stays controllable no matter how the edge")
print("weights vary.  The layered search decides this from one flow per layer,")
print("without listing the sets; fast_path names the rule that decided.")
print("Each verdict is then checked against the definition: v is fixed iff")
print("promoting v to a leader leaves the generic dimension unchanged.")
result = fixed_nodes_layered(dag)
for report in result.per_layer:
    print(f"\nlayer {report.layer_index}: targets {sorted(report.targets)}, mu {report.mu}")
    print(f"  fixed here: {sorted(report.fixed) or '(none)'} ({report.fast_path})")
    for v in sorted(report.targets):
        promoted = generic_dimension(dag.with_leaders(dag.leaders | {v}))[0]
        if (promoted == dim) != (v in report.fixed):
            raise SystemExit(f"node {v}: the verdict contradicts the definition")
        print(f"    node {v} as a leader: dimension {promoted} (the graph's is {dim})")

print(f"\nfixed nodes of the whole network: {sorted(result.fixed_nodes)}")
print(f"generic dimension of the controllable subspace: {dim}")
