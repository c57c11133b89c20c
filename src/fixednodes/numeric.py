"""State-space oracle: fixed nodes read off sampled weight realizations.

:func:`numeric_fixed_nodes` is independent of all graph combinatorics: it
draws concrete weights for the pattern, builds each draw's controllability
matrix ``[B, AB, A^2 B, ...]``, and reads its rank and per-node
controllability off its column space.  Works for any sparsity pattern, cyclic
ones included; acyclicity is a concern of the combinatorial modules only.

A call draws all its weights from one generator seeded with its ``seed``,
one double per edge weight, read in order: draw ``i`` is the ``i``-th row of
that stream and depends only on the pattern, the seed and ``i``.  Draws are
ranked in batches: their ``A`` matrices are stacked, the blocks built for the
whole batch and one stacked SVD ranks them all, with a batch size set by n
alone.  Each draw keeps its own rank and residuals, and the verdicts and the
draw that ends sampling are those of ranking one draw at a time.  numpy is
imported by the functions that use it, so importing the package leaves it out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InconclusiveError, InvalidGraphError
from .graph import StructuredDag

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TRIALS = 50
# Relative rank threshold: a singular value counts when it exceeds TOL times
# the draw's largest, and a node is fixed when its residual stays below TOL.
TOL = 1e-8

# Magnitudes stay in [0.5, 2.0] with a random sign: bounded away from zero so
# a draw never masquerades as a pattern violation, and small enough to keep
# the controllability matrix well conditioned at the sizes handled here.
_MAG_LOW, _MAG_HIGH = 0.5, 2.0

# Entries of ``A`` that one batch of draws may stack (see ``_batch_size``).
_BATCH_ENTRIES = 2**16


def numeric_fixed_nodes(
    dag: StructuredDag,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    expected_dim: int | None = None,
) -> frozenset[int]:
    """Nodes whose basis vector lies in the column space of every top-rank draw.

    Each draw's SVD gives its rank, the count of singular values above ``TOL``
    times its largest, and an orthonormal basis; a node is fixed when the
    residual of its basis vector projected onto that basis stays below
    ``TOL`` in every top-rank draw.

    Draws whose rank falls below the observed maximum are non-generic and
    discarded: the residuals of the top-rank draws fold into a running floor,
    and a higher rank restarts it.  When the true dimension is known, pass it
    as ``expected_dim``: draws below it are then rejected, and if none attains
    it the sampler draws more (up to three times the trial budget) before
    raising :class:`InconclusiveError`.

    All draws come from one generator seeded with ``seed`` (see
    :func:`_draw_weights`).  The first ``trials`` draws are ranked in
    batches, one stacked SVD per batch (see :func:`_batch_size`), and each
    retry is a batch of one draw.  Per batch, only the draws at the batch's
    top rank are projected, so the floor is the one a fold in draw order gives.
    """
    import numpy as np
    if trials < 1:
        raise ValueError("at least one trial is required")
    index, b = _pattern(dag)
    rng = np.random.default_rng(seed)
    budget = trials if expected_dim is None else 3 * trials
    n = dag.node_count
    size = _batch_size(n)
    # one buffer of flattened A matrices: each batch overwrites the edge
    # entries of its rows, and every other entry stays zero
    a = np.zeros((min(size, trials), n * n))
    eye = np.eye(n)
    top = 0
    residual_floor = np.zeros(n)
    drawn = 0
    while drawn < budget:
        count = min(size, trials - drawn) if drawn < trials else 1
        a[:count, index] = _draw_weights(rng, count, len(index))
        u, ranks = _column_spaces(a[:count].reshape(count, n, n), b)
        drawn += count
        batch_top = int(ranks.max())
        if batch_top >= top:
            # residual of projecting each standard basis vector onto the
            # column space, for the batch's draws at its top rank only
            basis = u[ranks == batch_top, :, :batch_top]
            projection = basis @ basis.transpose(0, 2, 1)
            residuals = np.linalg.norm(eye - projection, axis=1).max(axis=0)
            residual_floor = (
                residuals if batch_top > top else np.maximum(residual_floor, residuals)
            )
            top = batch_top
        if drawn >= trials and (expected_dim is None or top >= expected_dim):
            break
    if expected_dim is not None and top < expected_dim:
        raise InconclusiveError(
            f"no draw reached rank {expected_dim} in {budget} trials (best {top})"
        )
    return frozenset(v for v in range(1, n + 1) if residual_floor[v - 1] < TOL)


def _pattern(dag: StructuredDag) -> tuple[np.ndarray, np.ndarray]:
    """The flat positions ``(v-1)*n + u-1`` of the weights of ``A``, one per
    edge ``(u, v)`` in sorted order, and ``B``, one unit column per leader."""
    import numpy as np
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")
    n = dag.node_count
    index = np.array([(v - 1) * n + u - 1 for u, v in dag.sorted_edges], dtype=np.intp)
    leaders = sorted(dag.leaders)
    b = np.zeros((n, len(leaders)))
    b[np.array(leaders) - 1, np.arange(len(leaders))] = 1.0
    return index, b


def _draw_weights(rng: np.random.Generator, count: int, edges: int) -> np.ndarray:
    """The next ``count`` draws of ``rng``'s stream, one row of ``edges``
    weights each: ``w = copysign(|x| + 0.5, x)`` for ``x ~ U[-1.5, 1.5)``.

    One double per weight gives magnitudes uniform in [0.5, 2.0] and a random
    sign; ``x == 0`` gives 0.5, so no weight is ever zero.
    """
    import numpy as np
    span = _MAG_HIGH - _MAG_LOW
    x = rng.uniform(-span, span, size=(count, edges))
    w = np.abs(x)
    w += _MAG_LOW
    return np.copysign(w, x, out=w)


def _batch_size(n: int) -> int:
    """Draws per batch: as many as keep the batch's ``A`` stack within
    ``2**16`` entries, and at least one.  That is all 50 default draws up to
    n = 36 and one draw per batch from n = 182 up, so a batch of several
    draws stacks fewer entries than a single draw at n = 182."""
    return max(1, _BATCH_ENTRIES // (n * n))


def _column_spaces(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the ``(draws, n, n)`` stack ``a`` of one pattern's draws and its
    ``B``: the left singular vectors ``(draws, n, min(n, K))`` of their
    stacked blocks ``(draws, n, K)``, by descending singular value, and their
    ranks, each the count of singular values above ``TOL`` times that draw's
    largest."""
    import numpy as np
    u, s, _ = np.linalg.svd(_stack_blocks(a, b), full_matrices=False)
    return u, np.count_nonzero(s > TOL * s[:, :1], axis=1)


def _stack_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[B, AB, ..., A^(n-1) B]`` for each ``A`` of the ``(draws, n, n)``
    stack ``a``, cut before the first block that is zero in every draw.

    Every block after an all-zero one is ``A @ 0 = 0``, so the cut leaves each
    draw's column space unchanged for any pattern; on a DAG it keeps about
    ``depth * |leaders|`` columns instead of ``n * |leaders|``.
    """
    import numpy as np
    blocks = [np.broadcast_to(b, (len(a), *b.shape))]
    for _ in range(a.shape[1] - 1):
        block = a @ blocks[-1]
        if not block.any():
            break
        blocks.append(block)
    return np.concatenate(blocks, axis=2)
