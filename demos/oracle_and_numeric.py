"""The two ground-truth routes: add-a-leader probing and exact sampled ranks.

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
# proportional), so only state 2 is robustly controllable.  The numeric route
# ranks each draw exactly over the integers mod the prime p = 2^31 - 1.
chain = StructuredDag.of(3, [(1, 2), (2, 1), (2, 3), (3, 2)], [2])
p = 2**31 - 1


def rank_mod_p(columns):
    """Rank of integer vectors mod p, by Gaussian elimination on Python ints."""
    rows, rank = [list(c) for c in columns], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inverse % p
            rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


print("\nbidirectional 3-chain, input on state 2, weights in [1, p):")
rng = np.random.default_rng(0)
for draw in range(3):
    weight = dict(zip(sorted(chain.edges), rng.integers(1, p, size=len(chain.edges)).tolist()))
    # column j of the controllability matrix is A^j e_2; (A x)[v] sums w(u, v) x[u]
    columns = [[0, 1, 0]]
    for _ in range(2):
        x = columns[-1]
        image = [0, 0, 0]
        for (u, v), w in weight.items():
            image[v - 1] = (image[v - 1] + w * x[u - 1]) % p
        columns.append(image)
    unit_ranks = [rank_mod_p(columns + [[int(t == v) for t in (1, 2, 3)]]) for v in (1, 2, 3)]
    print(f"  draw {draw}: rank {rank_mod_p(columns)}, columns mod p: {columns}")
    print(f"    rank with e_v added, v = 1, 2, 3: {unit_ranks}")

fixed = numeric_fixed_nodes(chain, trials=20, seed=0)
print(f"states controllable under every weight choice: {sorted(fixed)}")
