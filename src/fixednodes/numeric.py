"""State-space oracle: fixed nodes read off sampled weight realizations.

:func:`numeric_fixed_nodes` is independent of all graph combinatorics: it
draws concrete weights for the pattern, spans each draw's controllability
matrix ``[B, AB, A^2 B, ...]`` and reads its rank and per-node
controllability off that span.  Works for any sparsity pattern, cyclic ones
included; acyclicity is a concern of the combinatorial modules only.

Every draw is ranked exactly, over the prime field of ``p = 2^31 - 1``
elements, so no tolerance enters.  A draw's weights are integers in
``[1, p)``; node v is fixed in a draw when its unit vector ``e_v`` lies in
the draw's span.  A truly fixed node is fixed in every draw that reaches the
generic rank r: the (r + 1)-minors of ``[C | e_v]`` vanish as polynomials in
the weights, so they vanish mod p too.  A draw can only err the other way,
fixing a node that is not fixed or falling short of r, and by the
Schwartz-Zippel bound it does so with probability at most ``r * (depth - 1)
/ (p - 1)`` per node, where depth is the number of nonzero blocks of the
stack.  So the route keeps the nodes fixed in every draw at the top rank.

A call draws all its weights from one generator seeded with its ``seed``,
one integer per edge weight in sorted-edge order: draw ``i`` depends only on
the pattern, the seed and ``i``.  numpy is imported by the functions that
use it, so importing the package leaves it out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InconclusiveError, InvalidGraphError
from .graph import StructuredDag

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TRIALS = 50
# The field's order: a prime below 2**31, so a product of two entries fits int64.
_P = 2**31 - 1
# Graphs from this size up are refused: the basis alone would take 32 GiB,
# and _mulmod's sums stay exact only for fewer terms.
_MAX_NODES = 2**16


def numeric_fixed_nodes(
    dag: StructuredDag,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    expected_dim: int | None = None,
) -> frozenset[int]:
    """Nodes whose unit vector lies in the span of every top-rank draw.

    Draws whose rank falls below the observed maximum are non-generic and
    discarded, and a higher rank restarts the fold.  Sampling stops once
    ``min(trials, 2)`` draws have reached the top rank, and ``expected_dim``
    too when it is given; the fixed set is the intersection of those draws'.
    When the true dimension is known, pass it as ``expected_dim``: draws
    below it are then rejected, and if none attains it within three times
    the trial budget the route raises :class:`InconclusiveError`.  Without
    it, the budget is ``trials`` draws.
    """
    import numpy as np
    check_numeric_route(dag, trials)
    pattern = _pattern(dag)
    rng = np.random.default_rng(seed)
    budget = trials if expected_dim is None else 3 * trials
    # the draws' reduced row echelon basis, each row kept at its pivot's index
    basis = np.zeros((dag.node_count, dag.node_count), dtype=np.int64)
    top = at_top = 0
    fixed: frozenset[int] = frozenset()
    for _ in range(budget):
        rank, draw_fixed = _draw(basis, pattern, _draw_weights(rng, len(dag.edges)))
        if rank > top:
            top, at_top, fixed = rank, 0, draw_fixed
        if rank == top:
            at_top, fixed = at_top + 1, fixed & draw_fixed
        if at_top >= min(trials, 2) and (expected_dim is None or top >= expected_dim):
            break
    if expected_dim is not None and top < expected_dim:
        raise InconclusiveError(
            f"no draw reached rank {expected_dim} in {budget} trials (best {top})"
        )
    return fixed


def check_numeric_route(dag: StructuredDag, trials: int) -> None:
    """Raise :class:`ValueError` unless the route can run ``trials`` draws
    on ``dag``: at least one trial, fewer than 2^16 nodes, and at least one
    leader (:class:`InvalidGraphError`)."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    if dag.node_count >= _MAX_NODES:
        raise ValueError(
            f"the numeric route takes fewer than {_MAX_NODES} nodes, got {dag.node_count}"
        )
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")


def _draw_weights(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next draw of ``rng``'s stream: ``count`` weights, uniform in
    ``[1, p)``, so none is zero."""
    return rng.integers(1, _P, size=count)


def _pattern(dag: StructuredDag) -> tuple[np.ndarray, ...]:
    """The arrays a draw is spanned from: the leaders' indices, and the
    sorted edges ordered by head, as their tails, the first edge of each head
    and that head, and the order that takes sorted-edge weights to them."""
    import numpy as np
    edges = np.array(dag.sorted_edges, dtype=np.intp).reshape(-1, 2) - 1
    order = np.argsort(edges[:, 1], kind="stable")
    heads = edges[order, 1]
    starts = np.diff(heads, prepend=-1).nonzero()[0]
    leaders = np.array(sorted(dag.leaders), dtype=np.intp) - 1
    return leaders, edges[order, 0], starts, heads[starts], order


def _draw(
    basis: np.ndarray, pattern: tuple[np.ndarray, ...], weights: np.ndarray
) -> tuple[int, frozenset[int]]:
    """One draw's rank and fixed nodes, from its weights in sorted-edge
    order, spanned in the all-zero ``n x n`` array ``basis`` (see
    :func:`_span`), which is zero again on return.  A node is in the span
    exactly when it is a pivot whose row is its unit vector."""
    import numpy as np
    pivots = _span(basis, pattern, weights)
    units = pivots[np.count_nonzero(basis[pivots], axis=1) == 1]
    basis[pivots] = 0
    return len(pivots), frozenset((units + 1).tolist())


def _span(basis: np.ndarray, pattern: tuple[np.ndarray, ...], weights: np.ndarray) -> np.ndarray:
    """Span ``[B, AB, ...]`` for one draw's weights into the all-zero
    ``basis`` as reduced row echelon rows, each at its pivot's index, and
    return the pivots.

    The first candidates are the leaders' unit rows; each later round's are
    A times the rows the previous round added.  A round works in the column
    window from its candidates' first nonzero column: it reduces them against
    the basis rows pivoting there, reduces them among themselves and
    back-substitutes the new rows into the basis rows that have a nonzero at
    a new pivot.  The span is A-invariant once a round adds no row.
    """
    import numpy as np
    leaders, tails, starts, heads, order = pattern
    w = weights[order]
    n = len(basis)
    pivot = np.zeros(n, dtype=bool)
    rows = np.zeros((len(leaders), n), dtype=np.int64)
    rows[np.arange(len(leaders)), leaders] = 1
    while True:
        used = rows.any(axis=0)
        if not used.any():
            break
        lo = int(used.argmax())
        block = rows[:, lo:]
        inside = pivot[lo:].nonzero()[0]
        if len(inside):
            block = (block - _mulmod(block[:, inside], basis[inside + lo, lo:])) % _P
        kept, cols = _eliminate(block)
        if not kept:
            break
        new, cols = block[kept], np.array(cols) + lo
        hit = basis[:, cols].any(axis=1).nonzero()[0]
        if len(hit):
            basis[hit, lo:] = (basis[hit, lo:] - _mulmod(basis[np.ix_(hit, cols)], new)) % _P
        basis[cols, lo:] = new
        pivot[cols] = True
        # A times the new rows, each term reduced before the sums per head
        rows = np.zeros((len(cols), n), dtype=np.int64)
        terms = basis[cols][:, tails] * w % _P
        rows[:, heads] = np.add.reduceat(terms, starts, axis=1) % _P
    return pivot.nonzero()[0]


def _eliminate(block: np.ndarray) -> tuple[list[int], list[int]]:
    """Reduce the rows of ``block`` among themselves mod p, in place: each
    nonzero row gets a pivot of 1 that is zero in every other row.  Returns
    the nonzero rows and their pivot columns; every other row is zero."""
    kept, cols = [], []
    for i in range(len(block)):
        nonzero = block[i].nonzero()[0]
        if not len(nonzero):
            continue
        q = int(nonzero[0])
        block[i] = block[i] * pow(int(block[i, q]), -1, _P) % _P
        others = block[:, q].nonzero()[0]
        others = others[others != i]
        if len(others):
            block[others] = (block[others] - block[others, q, None] * block[i] % _P) % _P
        kept.append(i)
        cols.append(q)
    return kept, cols


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` mod p for int64 arrays of entries in ``[0, p)``.  ``a`` is
    split into 16-bit low and 15-bit high limbs, so each product of a limb
    and an entry of ``b`` is below 2^47 and the int64 sums stay exact for
    inner sizes below 2^16."""
    low = (a & 0xFFFF) @ b % _P
    high = (a >> 16) @ b % _P
    return ((high << 16) + low) % _P
