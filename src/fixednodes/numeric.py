"""State-space oracle: fixed nodes read off sampled weight realizations.

:func:`numeric_fixed_nodes` is independent of all graph combinatorics: it
draws concrete weights for the pattern, builds each draw's controllability
matrix ``[B, AB, A^2 B, ...]``, and reads its rank and per-node
controllability off its column space.  Works for any sparsity pattern, cyclic
ones included; acyclicity is a concern of the combinatorial modules only.

Two kernels rank the draws, chosen from the pattern alone.  Where the source
layers hold every node, every leader is in layer 1 and every edge joins
adjacent layers, as in the paper's p-layered DAGs, ``A^k B`` is zero outside
layer ``k + 1``, so the controllability matrix is block diagonal with one
block per layer.  The layer kernel draws only the blocks of ``A`` between
adjacent layers, carries ``B``'s layer-1 rows down one layer at a time and
ranks every layer's block with one stacked SVD, never forming an ``n x n``
matrix.  A block-diagonal matrix has the union of its blocks' singular
values and the direct sum of their column spaces, so with the cut at ``TOL``
times the draw's largest singular value over all layers its ranks and
verdicts are the whole stack's.  Every other pattern (an edge that skips a
layer, a cycle, a leader with in-edges) is ranked as the whole stack.

A call draws all its weights from one generator seeded with its ``seed``,
one double per edge weight, read in order: draw ``i`` is the ``i``-th row of
that stream and depends only on the pattern, the seed and ``i``.  Draws are
ranked in batches: their weights (``A``, or its blocks between layers) are
stacked, the blocks built for the whole batch and one stacked SVD ranks them
all, with a batch size set by n alone, whichever the kernel.  The first ``trials`` draws go in rounds of batches, ranked at the
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

import math
import os
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

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

    Graphs whose edges all join adjacent layers, with every leader in layer
    1, are ranked layer by layer (see :func:`_adjacent_layers`), from the
    same draws, with the same verdicts and the same limit on long chains,
    whose small singular values fall under the whole draw's cut either way.
    """
    import numpy as np
    if trials < 1:
        raise ValueError("at least one trial is required")
    kernel = _kernel(dag)
    rng = np.random.default_rng(seed)
    budget = trials if expected_dim is None else 3 * trials
    n = dag.node_count
    size = min(_batch_size(n), trials)
    # one worker per batch of the first trials draws at most; the usable
    # CPUs and BLAS threads are looked up only when there are several
    workers = min(-(-trials // size), _ROUND_ENTRIES // (size * n * n))
    workers = min(workers, _workers()) if workers > 1 else 1
    # one buffer of flattened weight blocks per worker: each batch overwrites
    # the edge entries of its rows, and every other entry stays zero.  And
    # one of projections, kept for the whole call: allocating them per batch
    # let the allocator return the heap's top to the system after each batch
    # and fault it back in for the next (about 2,900 more page faults and 5
    # ms per all-n200 call with one worker)
    buffers = np.zeros((workers, size, math.prod(kernel.shape)))
    projections = np.empty((workers, size, *kernel.slot))
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
                a[:count, kernel.index] = _draw_weights(rng, count, len(kernel.index))
                batches.append((a[:count].reshape(count, *kernel.shape), out))
                drawn += count
            # helpers rank all but the first batch while this thread ranks
            # it; reading the results in draw order raises the error that
            # ranking the batches one after another would raise
            futures = [helpers.submit(kernel.rank, *batch, top) for batch in batches[1:]]
            ranked = [kernel.rank(*batches[0], top), *(f.result() for f in futures)]
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


@cache
def _cgroup_cpus(
    membership: Path = Path("/proc/self/cgroup"), root: Path = Path("/sys/fs/cgroup")
) -> int | None:
    """The CPUs' worth of time per period that this process's cgroup may use,
    rounded up: cgroup v2's ``cpu.max`` or v1's CFS quota, read in the
    process's own cgroup or, where that path is not mounted, as in a
    container, at the hierarchy's root.  None when there is no quota or
    neither can be read.  A quota set only on an ancestor is not seen.  The
    files are read once per process, so a quota changed later is not seen
    either."""
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


class _Kernel(NamedTuple):
    """How one pattern's draws are laid out and ranked.  A draw's weights
    fill a buffer of shape ``shape``, each sorted edge's at its flat
    position in ``index``, and every other entry is zero.
    ``rank(a, out, least)`` ranks the ``(draws, *shape)`` batch ``a``,
    building projections in ``out``, one ``slot`` per draw: it returns the
    batch's top rank and, unless that rank is below ``least``, each node's
    residual, by id, the largest over the draws at that rank."""

    index: np.ndarray
    shape: tuple[int, ...]
    slot: tuple[int, ...]
    rank: Callable[[np.ndarray, np.ndarray, int], tuple[int, np.ndarray | None]]


def _kernel(dag: StructuredDag) -> _Kernel:
    """The layer kernel where :func:`_adjacent_layers` gives layers, else
    the whole stack's.

    The whole stack's buffer is ``A`` itself, the weight of edge ``(u, v)``
    at ``(v-1, u-1)``, and its ``B`` has one unit column per leader.  The
    layer kernel's buffer holds the ``p - 1`` blocks of ``A`` between
    adjacent layers, each padded to ``w x w`` for the widest layer's ``w``,
    and its ``B`` is the layer-1 rows of the whole one, padded to ``w``
    rows."""
    import numpy as np
    if not dag.leaders:
        raise InvalidGraphError("at least one leader is required")
    leaders = sorted(dag.leaders)
    layers = _adjacent_layers(dag)
    if layers is None:
        n = dag.node_count
        index = [(v - 1) * n + u - 1 for u, v in dag.sorted_edges]
        rows = [x - 1 for x in leaders]
        shape, slot, rank = (n, n), (n, n), partial(_rank_stack, np.eye(n))
    else:
        w = max(map(len, layers))
        # node v's place k * w + j in the (p, w) grid: the j-th node of layer k + 1
        place = [0] * (dag.node_count + 1)
        for k, layer in enumerate(layers):
            for j, v in enumerate(layer):
                place[v] = k * w + j
        # edge (u, v) into layer k + 2 weighs entry (j_v, j_u) of block k
        index = [(place[v] - w) * w + place[u] % w for u, v in dag.sorted_edges]
        rows = [place[x] for x in leaders]
        shape, slot = (len(layers) - 1, w, w), (len(layers), w, w)
        rank = partial(_rank_layers, np.eye(w), np.array(place[1:], dtype=np.intp))
    b = np.zeros((shape[-1], len(leaders)))
    b[rows, np.arange(len(leaders))] = 1.0
    return _Kernel(np.array(index, dtype=np.intp), shape, slot, partial(rank, b))


def _adjacent_layers(dag: StructuredDag) -> tuple[tuple[int, ...], ...] | None:
    """The source layers, when they hold every node, every leader is in
    layer 1 and every edge joins adjacent layers; else None.  It reads the
    peel, as :func:`~fixednodes.graph.label_layers` raises on a cycle.

    There ``A^k B`` is zero outside layer ``k + 1``, so the controllability
    matrix is block diagonal, one ``w_(k+1) x |leaders|`` block per layer:
    ``B``'s layer-1 rows, then each block times the one between its layer
    and the next."""
    layers = dag.source_layers
    layer_of = [0] * (dag.node_count + 1)
    for k, layer in enumerate(layers, start=1):
        for v in layer:
            layer_of[v] = k
    if not all(layer_of[1:]) or any(layer_of[x] != 1 for x in dag.leaders):
        return None
    if any(layer_of[v] != layer_of[u] + 1 for u, v in dag.edges):
        return None
    return layers


def _rank_stack(
    eye: np.ndarray, b: np.ndarray, a: np.ndarray, out: np.ndarray, least: int
) -> tuple[int, np.ndarray | None]:
    """The whole stack's ``rank`` (see :class:`_Kernel`) for the ``(draws,
    n, n)`` stack ``a`` and its ``B``: each draw's column space is that of
    its stacked blocks (see :func:`_column_spaces`)."""
    u, ranks = _column_spaces(a, b)
    top = int(ranks.max())
    if top < least:
        return top, None
    return top, _residuals(u[ranks == top, :, :top], eye, out)


def _rank_layers(
    eye: np.ndarray,
    place: np.ndarray,
    b: np.ndarray,
    a: np.ndarray,
    out: np.ndarray,
    least: int,
) -> tuple[int, np.ndarray | None]:
    """The layer kernel's ``rank`` (see :class:`_Kernel`) for the ``(draws,
    p - 1, w, w)`` stack ``a`` of blocks between layers and ``B``'s layer-1
    rows ``b``.  A block-diagonal matrix has the union of its blocks'
    singular values and the direct sum of their column spaces, so a draw's
    rank is the sum of its layers' ranks, all cut at ``TOL`` times its
    largest singular value over every layer, and a node's residual is read
    from its own layer's block, at its place in ``place``."""
    import numpy as np
    u, kept = _layer_spaces(a, b)
    ranks = kept.sum(axis=1)
    top = int(ranks.max())
    if top < least:
        return top, None
    chosen = ranks == top
    # each layer's basis is its first kept singular vectors: zero the rest
    basis = u[chosen] * (np.arange(u.shape[-1]) < kept[chosen][..., None, None])
    return top, _residuals(basis, eye, out).ravel()[place]


def _residuals(basis: np.ndarray, eye: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The residual of each standard basis vector projected onto the
    columns of each ``(..., rows, r)`` basis of the stack ``basis``, the
    largest along its first axis.  The projections are built in ``out``
    and the norms computed in place, as ``np.linalg.norm`` computes them."""
    import numpy as np
    residual = np.matmul(basis, basis.swapaxes(-1, -2), out=out[: len(basis)])
    np.subtract(eye, residual, out=residual)
    np.multiply(residual, residual, out=residual)
    return np.sqrt(np.add.reduce(residual, axis=-2)).max(axis=0)


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


def _layer_spaces(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the ``(draws, p - 1, w, w)`` stack ``a`` of one pattern's blocks
    between layers and ``B``'s layer-1 rows ``b``: the left singular vectors
    ``(draws, p, w, |leaders|)`` of each layer's block (see
    :func:`_layer_blocks`), by descending singular value, from one stacked
    SVD, and the count of each block's singular values above ``TOL`` times
    its draw's largest over all layers, ``(draws, p)``."""
    import numpy as np
    u, s, _ = np.linalg.svd(_layer_blocks(a, b), full_matrices=False)
    return u, np.count_nonzero(s > TOL * s.max(axis=(1, 2), keepdims=True), axis=2)


def _layer_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each layer's block of the controllability matrix for each draw of
    ``a``, ``(draws, p, w, |leaders|)``: ``b``, then block ``k`` of ``a``
    times the block before, one ``(w x w) @ (w x |leaders|)`` product per
    layer.  Block ``k`` holds the rows of layer ``k + 1`` of ``A^k B``,
    whose other rows are zero."""
    import numpy as np
    blocks = np.empty((len(a), a.shape[1] + 1, *b.shape))
    blocks[:, 0] = b
    for k in range(a.shape[1]):
        np.matmul(a[:, k], blocks[:, k], out=blocks[:, k + 1])
    return blocks
