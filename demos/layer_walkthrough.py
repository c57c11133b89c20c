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

print()
print("Per layer: disjoint leader-rooted paths try to cover as many layer")
print("nodes as possible; a node that appears in EVERY maximum matched set")
print("stays controllable no matter how the edge weights vary.")
print("A set of layer nodes is a maximum matched set when a max flow into")
print("exactly those nodes reaches the layer's max coverage; the layered")
print("search lists these sets itself on graphs of at most 15 nodes.")
result = fixed_nodes_layered(dag)
for report in result.per_layer:
    k, layer = report.layer_index, report.targets
    pinned = layer.intersection(*report.matched_sets)
    print(f"\nlayer {k}: targets {sorted(layer)}, max coverage {report.mu}")
    print(f"  all matched sets:   {[sorted(s) for s in report.matched_sets]}")
    print(f"  in every set:       {sorted(pinned) or '(none)'}")
    print(f"  fixed here:         {sorted(report.fixed) or '(none)'} ({report.fast_path})")

print(f"\nfixed nodes of the whole network: {sorted(result.fixed_nodes)}")
print(f"generic dimension of the controllable subspace: {generic_dimension(dag)[0]}")
