"""The two ground-truth routes: add-a-leader probing and sampled ranks.

Run with:  python demos/oracle_and_numeric.py
"""

import numpy as np

from fixednodes import StructuredDag, fixed_nodes_oracle, generic_dimension, numeric_fixed_nodes

# -- combinatorial probing ---------------------------------------------------

dag = StructuredDag.of(7, [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (5, 7)], [1])
dim, witness = generic_dimension(dag)
print(f"single-leader chain with forks: dimension {dim}")
print(f"  longest stem: {list(witness.stems[0])}")

print("\nprobing each node with an extra input:")
for v in sorted(dag.nodes - dag.leaders):
    probed, fam = generic_dimension(dag.with_leaders(dag.leaders | {v}))
    verdict = "fixed" if probed == dim else f"not fixed (dimension -> {probed})"
    print(f"  node {v}: {verdict}")
print(f"oracle result: {sorted(fixed_nodes_oracle(dag).fixed_nodes)}")

# -- numeric sampling --------------------------------------------------------

# A three-state bidirectional chain driven in the middle.  Whatever the weights,
# states 1 and 3 move in lockstep (their rows of the controllability matrix are
# proportional), so only state 2 is robustly controllable.
chain = StructuredDag.of(3, [(1, 2), (2, 1), (2, 3), (3, 2)], [2])

print("\nbidirectional 3-chain, input on state 2:")
rng = np.random.default_rng(0)
b = np.array([[0.0], [1.0], [0.0]])
for draw in range(3):
    # a[v-1, u-1] weighs edge (u, v): magnitude in [0.5, 2.0], random sign
    a = np.zeros((3, 3))
    for u, v in sorted(chain.edges):
        a[v - 1, u - 1] = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    c = np.hstack([b, a @ b, a @ a @ b])
    with np.printoptions(precision=3, suppress=True):
        print(f"  draw {draw}: rank {np.linalg.matrix_rank(c)}, controllability matrix:")
        print("   ", str(c).replace("\n", "\n    "))

fixed = numeric_fixed_nodes(chain, trials=20, seed=0)
print(f"states controllable under every weight choice: {sorted(fixed)}")
