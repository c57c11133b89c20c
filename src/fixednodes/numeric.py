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
alone.  The first ``trials`` draws go in rounds of batches, ranked at the
same time on threads (numpy's SVDs and matmuls release the GIL) and folded
in draw order.  A round holds one batch per usable CPU left over by the
BLAS's own threads: with the BLAS's default of one thread per CPU that is
one batch and no thread is started, and with one BLAS thread it is one batch
per usable CPU.  No option controls this, and peak memory grows with the
number of workers.  Each draw keeps its own rank and residuals, and the
verdicts and the draw that ends sampling are those of ranking one draw at a
time.  numpy is imported by the functions that use it, so importing the
package leaves it out.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, nullcontext
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InconclusiveError, InvalidGraphError
from .graph import StructuredDag

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
# Entries of ``A`` that the batches of one round may hold together, one
# buffer per worker: 4 workers at n = 1000.  Each worker adds about 50 MB of
# peak memory per 2**20 entries (47-51 MB for one worker at n = 1000, 166-188
# MB for four, against 57-61 MB for ranking one batch at a time with the
# buffers of each batch freed at the next), so a call stays within about
# three times that.
_ROUND_ENTRIES = 2**22

# The environment variables each BLAS that numpy may be built with reads for
# its thread count, the first set one winning, keyed by a part of what
# numpy's build configuration says of the BLAS (see ``_blas_build``); the
# first key found applies.  OpenBLAS built with OpenMP reads OpenMP's only.
_BLAS_THREAD_VARS = {
    "use_openmp": ("OMP_NUM_THREADS",),
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
    "blis": ("BLIS_NUM_THREADS", "OMP_NUM_THREADS"),
    "accelerate": ("VECLIB_MAXIMUM_THREADS",),
}


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
    retry is a batch of one draw.  Batches are ranked in rounds of as many
    as :func:`_workers` gives, within ``_ROUND_ENTRIES`` entries of ``A`` in
    all: the calling thread ranks a round's first batch while helper threads
    rank the rest, and each batch then folds into the floor in draw order.
    Retries are rounds of one.
    Per batch, only the draws at the batch's top rank are projected, so the
    floor is the one a fold in draw order gives.
    """
    import numpy as np
    if trials < 1:
        raise ValueError("at least one trial is required")
    index, b = _pattern(dag)
    rng = np.random.default_rng(seed)
    budget = trials if expected_dim is None else 3 * trials
    n = dag.node_count
    size = min(_batch_size(n), trials)
    # one worker per batch of the first trials draws at most; the usable
    # CPUs and BLAS threads are looked up only when there are several
    workers = min(-(-trials // size), _ROUND_ENTRIES // (size * n * n))
    workers = min(workers, _workers()) if workers > 1 else 1
    # one buffer of flattened A matrices per worker: each batch overwrites the
    # edge entries of its rows, and every other entry stays zero.  And one of
    # projections, kept for the whole call: allocating them per batch let the
    # allocator return the heap's top to the system after each batch and
    # fault it back in for the next (about 2,900 more page faults and 5 ms
    # per all-n200 call with one worker)
    buffers = np.zeros((workers, size, n * n))
    projections = np.empty((workers, size, n, n))
    eye = np.eye(n)
    top = 0
    residual_floor = np.zeros(n)
    drawn = 0
    with _helper_threads(workers - 1) as helpers:
        while drawn < budget:
            # the sizes of the round's batches: up to one per worker among
            # the first trials draws, then one draw per retry
            left = trials - drawn
            counts = [min(size, left - k) for k in range(0, min(left, workers * size), size)]
            batches = []
            for a, out, count in zip(buffers, projections, counts or [1]):
                a[:count, index] = _draw_weights(rng, count, len(index))
                batches.append((a[:count].reshape(count, n, n), out))
                drawn += count
            # helpers rank all but the first batch while this thread ranks
            # it; reading the results in draw order raises the error that
            # ranking the batches one after another would raise
            futures = [helpers.submit(_rank_batch, *batch, b, eye, top) for batch in batches[1:]]
            ranked = [_rank_batch(*batches[0], b, eye, top), *(f.result() for f in futures)]
            for batch_top, residuals in ranked:
                if batch_top >= top:
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


def _workers() -> int:
    """Batches a round may rank at once: the usable CPUs over the threads
    numpy's BLAS runs per call, and at least one.  Each worker's SVDs and
    matmuls run on the BLAS's threads, so with its default of one thread per
    CPU a second worker only competes for the same cores."""
    cpus = _usable_cpus()
    return max(1, cpus // _blas_threads(cpus))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine, and no more than its cgroup's
    CPU quota (see :func:`_cgroup_cpus`)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpus()
    return cpus if quota is None else min(cpus, quota)


def _cgroup_cpus(
    membership: Path = Path("/proc/self/cgroup"), root: Path = Path("/sys/fs/cgroup")
) -> int | None:
    """The CPUs' worth of time per period that this process's cgroup may use,
    rounded up: cgroup v2's ``cpu.max`` or v1's CFS quota, read in the
    process's own cgroup or, where that path is not mounted, as in a
    container, at the hierarchy's root.  None when there is no quota or
    neither can be read.  A quota set only on an ancestor is not seen."""
    try:
        lines = membership.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        controllers, _, path = line.partition(":")[2].partition(":")
        if controllers == "":
            base, files = root, ("cpu.max",)
        elif "cpu" in controllers.split(","):
            base, files = root / "cpu", ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        for directory in (base / path.lstrip("/"), base):
            try:
                quota, period = " ".join((directory / f).read_text() for f in files).split()
                return None if quota in ("max", "-1") else max(1, -(-int(quota) // int(period)))
            except (OSError, ValueError, ZeroDivisionError):
                continue
    return None


def _blas_threads(cpus: int) -> int:
    """The threads numpy's BLAS runs per call, as the environment sets them:
    the first positive integer among the variables that BLAS reads (see
    ``_BLAS_THREAD_VARS``).  ``cpus`` where none is set, as OpenBLAS and MKL
    then run one thread per CPU, and where numpy does not name its BLAS or
    names one not listed.  The variables are read at each call, while the
    BLAS reads them when numpy loads it."""
    build = _blas_build()
    for key, names in _BLAS_THREAD_VARS.items():
        if key in build:
            for var in names:
                value = os.environ.get(var, "").strip()
                if value.isdigit() and int(value) > 0:
                    return int(value)
            break
    return cpus


@cache
def _blas_build() -> str:
    """The BLAS that numpy was built with, as its build configuration names
    it, and OpenBLAS's build options, in lower case; empty where numpy does
    not say (before 1.26)."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('openblas configuration', '')}".lower()
    except (TypeError, KeyError, AttributeError):
        return ""


def _helper_threads(count: int) -> AbstractContextManager[Executor | None]:
    """A pool of ``count`` threads that is shut down, waiting for every
    thread, when its block ends; with ``count`` 0, no pool, and
    ``concurrent.futures`` is not imported."""
    if count == 0:
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(count)


def _rank_batch(
    a: np.ndarray, out: np.ndarray, b: np.ndarray, eye: np.ndarray, least: int
) -> tuple[int, np.ndarray | None]:
    """The top rank among the ``(draws, n, n)`` stack ``a``'s draws and,
    unless that rank is below ``least``, the residual of each standard basis
    vector projected onto their column spaces, the largest over the draws at
    that rank.  The projections are built in ``out``, one ``(n, n)`` slot
    per draw, and the norms computed in place, as ``np.linalg.norm``
    computes them."""
    import numpy as np
    u, ranks = _column_spaces(a, b)
    top = int(ranks.max())
    if top < least:
        return top, None
    basis = u[ranks == top, :, :top]
    residual = np.matmul(basis, basis.transpose(0, 2, 1), out=out[: len(basis)])
    np.subtract(eye, residual, out=residual)
    np.multiply(residual, residual, out=residual)
    return top, np.sqrt(np.add.reduce(residual, axis=1)).max(axis=0)


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
