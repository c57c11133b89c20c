"""State-space oracle: sampled weight realizations and controllability ranks.

Independent of all graph combinatorics: draw concrete weights for the pattern,
build the controllability matrix ``[B, AB, A^2 B, ...]``, and read dimensions
and per-node controllability off its column space.  Works for any sparsity
pattern, cyclic ones included; acyclicity is a concern of the combinatorial
modules only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveError, InvalidGraphError
from .graph import StructuredDag

DEFAULT_TRIALS = 50
DEFAULT_TOL = 1e-8

# Magnitudes stay in [0.5, 2.0] with a random sign: bounded away from zero so
# a draw never masquerades as a pattern violation, and small enough to keep
# the controllability matrix well conditioned at the sizes handled here.
_MAG_LOW, _MAG_HIGH = 0.5, 2.0


@dataclass(frozen=True)
class Realization:
    """One concrete member of the pattern family, with its input matrix.

    ``a_matrix[v-1, u-1]`` is nonzero exactly when the edge ``(u, v)`` exists;
    ``b_matrix`` has one unit column per leader (ascending), weights fixed to 1.
    """

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    seed: int
    draw: str

    @property
    def node_count(self) -> int:
        return self.a_matrix.shape[0]


@dataclass(frozen=True)
class ControllabilityMatrix:
    c_matrix: np.ndarray
    rank: int
    tol: float


def sample_realization(dag: StructuredDag, seed: int) -> Realization:
    """Deterministically draw weights for the pattern (same seed, same draw)."""
    if dag.nodes != frozenset(range(1, dag.node_count + 1)):
        raise InvalidGraphError("realizations need contiguous node ids 1..n")
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")
    n = dag.node_count
    rng = np.random.default_rng(seed)
    edges = sorted(dag.edges)
    magnitudes = rng.uniform(_MAG_LOW, _MAG_HIGH, size=len(edges))
    signs = rng.integers(0, 2, size=len(edges)) * 2 - 1
    a = np.zeros((n, n))
    for (u, v), w in zip(edges, magnitudes * signs):
        a[v - 1, u - 1] = w
    b = np.zeros((n, len(dag.leaders)))
    for col, leader in enumerate(sorted(dag.leaders)):
        b[leader - 1, col] = 1.0
    return Realization(a, b, seed, f"uniform[{_MAG_LOW},{_MAG_HIGH}]*sign")


def controllability_matrix(realization: Realization, tol: float = DEFAULT_TOL) -> ControllabilityMatrix:
    """Stack ``B, AB, A^2 B, ...`` up to the first all-zero block and rank the
    stack: the count of singular values above ``tol`` (finite, > 0) times the
    largest."""
    _check_tol(tol)
    c, basis = _column_space(realization, tol)
    return ControllabilityMatrix(c, basis.shape[1], tol)


def numeric_generic_dimension(
    dag: StructuredDag,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> int:
    """Maximum controllability rank over independent draws.

    The rank is generic: almost every draw attains the true dimension, so a
    handful of trials suffices in practice.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    return max(
        controllability_matrix(sample_realization(dag, seed + t), tol).rank
        for t in range(trials)
    )


def numeric_fixed_nodes(
    dag: StructuredDag,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    expected_dim: int | None = None,
) -> frozenset[int]:
    """Nodes whose basis vector lies in the column space of every top-rank draw.

    One SVD per draw gives its rank, as in :func:`controllability_matrix`, and
    an orthonormal basis; a node is fixed when the residual of its basis
    vector projected onto that basis stays below ``tol`` in every top-rank draw.

    Draws whose rank falls below the observed maximum are non-generic and
    discarded.  When the true dimension is known, pass it as ``expected_dim``:
    draws below it are then rejected, and if none attains it the sampler
    retries with fresh seeds (up to three times the trial budget) before
    raising :class:`InconclusiveError`.
    """
    _check_tol(tol)
    if trials < 1:
        raise ValueError("at least one trial is required")
    budget = trials if expected_dim is None else 3 * trials
    bases: list[np.ndarray] = []
    top = 0
    for t in range(budget):
        _, basis = _column_space(sample_realization(dag, seed + t), tol)
        bases.append(basis)
        top = max(top, basis.shape[1])
        if t + 1 >= trials and (expected_dim is None or top >= expected_dim):
            break
    if expected_dim is not None and top < expected_dim:
        raise InconclusiveError(
            f"no draw reached rank {expected_dim} in {budget} trials (best {top})"
        )

    n = dag.node_count
    residual_floor = np.zeros(n)
    for basis in bases:
        if basis.shape[1] != top:
            continue
        # residual of projecting each standard basis vector onto the column space
        residuals = np.linalg.norm(np.eye(n) - basis @ basis.T, axis=0)
        residual_floor = np.maximum(residual_floor, residuals)
    return frozenset(v for v in range(1, n + 1) if residual_floor[v - 1] < tol)


def _check_tol(tol: float) -> None:
    # NaN fails both comparisons.
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def _column_space(realization: Realization, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The stacked blocks and an orthonormal basis of their column space: the
    left singular vectors whose singular values exceed ``tol`` times the largest."""
    c = _stack_blocks(realization)
    u, s, _ = np.linalg.svd(c, full_matrices=False)
    return c, u[:, : int(np.count_nonzero(s > tol * s[0]))]


def _stack_blocks(realization: Realization) -> np.ndarray:
    """``[B, AB, ..., A^(n-1) B]``, cut before the first all-zero block.

    Every block after an all-zero one is ``A @ 0 = 0``, so the cut leaves the
    column space unchanged for any pattern; on a DAG it keeps about
    ``depth * |leaders|`` columns instead of ``n * |leaders|``.
    """
    a, b = realization.a_matrix, realization.b_matrix
    blocks = [b]
    for _ in range(realization.node_count - 1):
        block = a @ blocks[-1]
        if not block.any():
            break
        blocks.append(block)
    return np.hstack(blocks)
