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
    """The arrays a draw is spanned from: the leaders' indices, the tails
    and heads of the sorted edges, which is the weights' order, and the
    first edge of each tail, so that the edges out of tails ``lo..hi`` are
    ``tstart[lo]:tstart[hi + 1]``."""
    import numpy as np
    tails, heads = np.array(dag.sorted_edges, dtype=np.intp).reshape(-1, 2).T - 1
    tstart = np.searchsorted(tails, np.arange(dag.node_count + 1))
    leaders = np.array(sorted(dag.leaders), dtype=np.intp) - 1
    return leaders, tails, heads, tstart


def _draw(
    basis: np.ndarray, pattern: tuple[np.ndarray, ...], weights: np.ndarray
) -> tuple[int, frozenset[int]]:
    """One draw's rank and fixed nodes, from its weights in sorted-edge
    order, spanned in the all-zero ``n x n`` array ``basis`` (see
    :func:`_span`), which is zero again on return: only the rounds' windows
    are cleared.  A node is in the span exactly when it is a pivot whose row
    is its unit vector, the one nonzero of that row."""
    count, windows = _span(basis, pattern, weights)
    for rows, lo, end in windows:
        basis[rows, lo:end] = 0
    return len(count.nonzero()[0]), frozenset(((count == 1).nonzero()[0] + 1).tolist())


def _span(
    basis: np.ndarray, pattern: tuple[np.ndarray, ...], weights: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, int, int]]]:
    """Span ``[B, AB, ...]`` for one draw's weights into the all-zero
    ``basis`` as reduced row echelon rows, each at its pivot's index.
    Returns each row's count of nonzeros, 0 where no row pivots, and each
    round's pivots with the columns ``lo:end`` outside which their rows are
    zero.

    The leaders' unit rows are the first round.  Each later round's
    candidates are A times the rows the previous round added, summed over
    the edges whose tails lie in that round's window; their heads give the
    new window ``[lo, hi]``, and hi widens to the last column of every basis
    row pivoting in the window (:func:`_widen`).  The round reduces its
    candidates against those rows only, as the candidates are zero outside
    the window, and reduces them among themselves.  It back-substitutes the
    new rows only into the basis rows that reach lo, by their last column,
    and have a nonzero at a new pivot; their last column then widens to hi.
    The span is A-invariant once a round adds no row.

    Differences ``x - y`` of entries are taken as ``(x + p - y) % p``, so
    that ``%`` never sees a negative number, on which numpy's is slower.
    """
    import numpy as np
    leaders, tails, heads, tstart = pattern
    n = len(basis)
    # each basis row's last possibly nonzero column, -1 where no row pivots
    last = np.full(n, -1)
    count = np.zeros(n, dtype=np.intp)
    basis[leaders, leaders] = count[leaders] = 1
    last[leaders] = leaders
    cols, lo, hi = leaders, int(leaders[0]), int(leaders[-1])
    new = basis[cols, lo : hi + 1]
    rounds = [(cols, lo)]
    while tstart[lo] < tstart[hi + 1]:
        # A times the new rows: the edges out of [lo, hi], grouped by head
        order = heads[tstart[lo] : tstart[hi + 1]].argsort(kind="stable") + tstart[lo]
        targets = heads[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = targets[1:] != targets[:-1]
        starts = first.nonzero()[0]
        terms = new[:, tails[order] - lo] * weights[order] % _P
        lo = int(targets[0])
        hi = _widen(last, lo, int(targets[-1]))
        block = np.zeros((len(cols), hi - lo + 1), dtype=np.int64)
        block[:, targets[starts] - lo] = np.add.reduceat(terms, starts, axis=1) % _P
        # the rows that may be nonzero in the window: those pivoting in it
        # and the earlier ones that reach it
        reach = (last[: hi + 1] >= lo).nonzero()[0]
        inside = reach[reach >= lo]
        if len(inside):
            block = (block + _P - _mulmod(block[:, inside - lo], basis[inside, lo : hi + 1])) % _P
        kept, pivots = _eliminate(block)
        if not kept:
            break
        new, cols = block[kept], np.array(pivots) + lo
        if len(reach):
            hit = reach[basis[reach[:, None], cols].any(axis=1)]
            rows = basis[hit, lo : hi + 1]
            count[hit] -= (rows != 0).sum(axis=1)
            rows += _P
            rows -= _mulmod(basis[hit[:, None], cols], new)
            rows %= _P
            count[hit] += (rows != 0).sum(axis=1)
            basis[hit, lo : hi + 1] = rows
            last[hit] = np.maximum(last[hit], hi)
        basis[cols, lo : hi + 1] = new
        last[cols] = hi
        count[cols] = (new != 0).sum(axis=1)
        rounds.append((cols, lo))
    return count, [(cols, lo, int(last[cols].max()) + 1) for cols, lo in rounds]


def _widen(last: np.ndarray, lo: int, hi: int) -> int:
    """``hi`` widened to the ``last`` column of every basis row pivoting in
    ``[lo, hi]``.  One pass is enough: candidates zero outside ``[lo, hi]``
    and reduced against those rows are zero at every pivot, since each row
    is zero at the others' pivots, so no row pivoting further on enters."""
    return max(hi, int(last[lo : hi + 1].max()))


def _eliminate(block: np.ndarray) -> tuple[list[int], list[int]]:
    """Reduce the rows of ``block`` among themselves mod p, in place: each
    nonzero row gets a pivot of 1 that is zero in every other row.  Returns
    the nonzero rows and their pivot columns; every other row is zero."""
    kept, cols = [], []
    for i, row in enumerate(block):
        nonzero = row.nonzero()[0]
        if not len(nonzero):
            continue
        q = int(nonzero[0])
        row *= pow(int(row[q]), -1, _P)
        row %= _P
        # one % per update: x + (p - c) * y stays below 2^63 and is never negative
        coef = _P - block[:, q]
        coef[i] = 0
        block += coef[:, None] * row
        block %= _P
        kept.append(i)
        cols.append(q)
    return kept, cols


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` mod p for int64 arrays of entries in ``[0, p)``.  ``a`` is
    split into 16-bit low and 15-bit high limbs, so each product of a limb
    and an entry of ``b`` is below 2^47 and the int64 sums stay exact for
    inner sizes below 2^16."""
    low = (a & 0xFFFF) @ b
    low %= _P
    high = (a >> 16) @ b
    high %= _P
    high <<= 16
    high += low
    high %= _P
    return high
