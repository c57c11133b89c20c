from __future__ import annotations

import math
import os
import random
import threading
import time
import tracemalloc
from collections.abc import Iterable
from pathlib import Path

import numpy as np
import pytest

import fixednodes.numeric
import goldens
import randgraphs
from fixednodes import (
    GeneratorConfig,
    InconclusiveError,
    StructuredDag,
    fixed_nodes_oracle,
    generic_dimension,
    graph_from_json,
    random_layered_dag,
    spread_widths,
    numeric_fixed_nodes,
)
from references import (
    input_matrix,
    loop_weight_matrix,
    numeric_generic_dimension,
    per_draw_numeric_fixed_nodes,
    stream_weight_matrices,
)

DATA = Path(__file__).parent / "data"


def pinned_dags() -> dict[str, StructuredDag]:
    dags = {g.name: g.dag for g in goldens.GOLDENS}
    dags.update(skip4=goldens.SKIP4, skip7=goldens.SKIP7)
    for name in ("crit6", "skip200"):
        dags[name] = graph_from_json((DATA / f"{name}.graph.json").read_text())
    return dags


@pytest.fixture
def draws(monkeypatch) -> list[int]:
    """The draws made through ``numeric._draw_weights``, in call order, each
    by its index in its generator's stream."""
    indices = []
    stream = {"rng": None, "next": 0}
    original = fixednodes.numeric._draw_weights

    def recorded(rng, count, edges):
        if rng is not stream["rng"]:
            stream.update(rng=rng, next=0)
        indices.extend(range(stream["next"], stream["next"] + count))
        stream["next"] += count
        return original(rng, count, edges)

    monkeypatch.setattr(fixednodes.numeric, "_draw_weights", recorded)
    return indices


def full_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[B, AB, ..., A^(n-1) B]`` by the plain recurrence, all n blocks."""
    blocks = [b]
    for _ in range(len(a) - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def route_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack of blocks the route ranks for the single draw ``a``."""
    return fixednodes.numeric._stack_blocks(a[np.newaxis], b)[0]


def reference_basis(c: np.ndarray, tol: float) -> np.ndarray:
    """Left singular vectors of ``c`` above ``tol`` times the largest singular value."""
    u, s, _ = np.linalg.svd(c)
    return u[:, : int((s > tol * s[0]).sum())]


class TestSampleRealization:
    """Draw 0 of a seed's stream, as the route's kernel receives it."""

    def test_pattern_matches_edges_exactly(self, single7, draw_zero):
        a, _, _ = draw_zero(single7.dag, 0)
        nonzero = {
            (u + 1, v + 1) for v, u in zip(*np.nonzero(a))
        }  # a[v-1, u-1] != 0 encodes edge (u, v)
        assert nonzero == single7.dag.edges
        assert np.count_nonzero(a) == 6

    def test_same_seed_reproduces(self, pair13, draw_zero):
        a1, b1, _ = draw_zero(pair13.dag, 11)
        a2, b2, _ = draw_zero(pair13.dag, 11)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_different_seeds_differ_on_same_pattern(self, single7, draw_zero):
        a1, _, _ = draw_zero(single7.dag, 0)
        a2, _, _ = draw_zero(single7.dag, 1)
        assert (a1 != 0).tolist() == (a2 != 0).tolist()
        assert not np.array_equal(a1, a2)

    def test_magnitudes_bounded_away_from_zero(self, pair10, draw_zero):
        a, _, _ = draw_zero(pair10.dag, 3)
        mags = np.abs(a[a != 0])
        assert mags.min() >= 0.5 and mags.max() <= 2.0

    def test_weights_equal_the_per_edge_fill_bit_for_bit(self, draw_zero):
        dags = [g.dag for g in goldens.GOLDENS]
        rng = random.Random(0xF111)
        dags += [
            randgraphs.random_dag(rng, max_nodes=20, max_leaders=4, skip_prob=(0.0, 0.3, 0.6)[i % 3])
            for i in range(200)
        ]
        for dag in dags:
            for seed in (0, 7):
                a, _, _ = draw_zero(dag, seed)
                assert a.tobytes() == loop_weight_matrix(dag, seed).tobytes()

    def test_one_unit_column_per_leader(self, pair13, draw_zero):
        _, b, _ = draw_zero(pair13.dag, 0)
        assert b.shape == (13, 2)
        assert b[0, 0] == 1 and b[1, 1] == 1
        assert b.sum() == 2


class TestControllabilityMatrix:
    """The route's stack of blocks and rank for draw 0 of a seed's stream."""

    def test_block_recurrence(self, pair9, draw_zero):
        """Blocks follow ``A @`` the previous one; the stack ends either after
        n blocks or where the next block would be exactly zero."""
        for dag, truncates in ((pair9.dag, True), (goldens.CYCLIC_CHAIN3, False)):
            a, b, _ = draw_zero(dag, 5)
            c = route_stack(a, b)
            n, m = b.shape
            kept, rest = divmod(c.shape[1], m)
            assert c.shape[0] == n and rest == 0 and 1 <= kept <= n
            assert np.array_equal(c[:, :m], b)
            for j in range(1, kept):
                left = c[:, (j - 1) * m : j * m]
                right = c[:, j * m : (j + 1) * m]
                assert np.allclose(right, a @ left)
            assert kept == n or not np.any(a @ c[:, (kept - 1) * m :])
            assert (kept < n) == truncates

    def test_rank_matches_untruncated_stack(self, draw_zero):
        dags = [g.dag for g in goldens.GOLDENS] + [goldens.CYCLIC_CHAIN3]
        rng = random.Random(0x5EED)
        dags += [randgraphs.random_dag(rng, skip_prob=p) for p in (0.0, 0.3) for _ in range(20)]
        for dag in dags:
            for seed in range(3):
                a, b, rank = draw_zero(dag, seed)
                assert rank == reference_basis(full_stack(a, b), 1e-8).shape[1]

    def test_bidirectional_chain_rank_is_two_for_any_seed(self, draw_zero):
        for seed in range(20):
            assert draw_zero(goldens.CYCLIC_CHAIN3, seed)[2] == goldens.CYCLIC_CHAIN3_RANK

    def test_single7_rank_reaches_the_dimension(self, single7, draw_zero):
        assert draw_zero(single7.dag, 0)[2] == 5

    def test_one_node_graph(self, draw_zero):
        assert draw_zero(StructuredDag.of(1, [], [1]), 0)[2] == 1

    def test_rank_stable_across_tolerances(self, golden, draw_zero):
        """The fixed threshold sits in a wide gap of the singular values: a
        hundred times lower or higher counts the same rank."""
        a, b, rank = draw_zero(golden.dag, 2)
        c = route_stack(a, b)
        ranks = {reference_basis(c, tol).shape[1] for tol in (1e-10, 1e-6)}
        assert ranks == {rank}


class TestNumericDimension:
    def test_golden_dimensions(self, golden):
        assert numeric_generic_dimension(golden.dag, trials=20, seed=0) == golden.generic_dim

    def test_edgeless_all_leader_graph(self):
        dag = StructuredDag.of(4, [], [1, 2, 3, 4])
        assert numeric_generic_dimension(dag, trials=3, seed=0) == 4

    def test_needs_a_trial(self, single7):
        with pytest.raises(ValueError):
            numeric_generic_dimension(single7.dag, trials=0)


class TestNumericFixedNodes:
    def test_bidirectional_chain_fixes_the_middle(self):
        fixed = numeric_fixed_nodes(goldens.CYCLIC_CHAIN3, trials=20, seed=0)
        assert fixed == goldens.CYCLIC_CHAIN3_FIXED

    def test_golden_fixed_sets(self, golden):
        fixed = numeric_fixed_nodes(golden.dag, trials=50, seed=0)
        assert fixed == golden.fixed

    def test_leaders_fixed_in_shared_sink_graph(self):
        dag = StructuredDag.of(3, [(1, 3), (2, 3)], [1, 2])
        fixed = numeric_fixed_nodes(dag, trials=10, seed=0)
        assert dag.leaders <= fixed

    def test_expected_dimension_triggers_resampling_error(self, single7):
        with pytest.raises(InconclusiveError):
            numeric_fixed_nodes(single7.dag, trials=4, seed=0, expected_dim=6)

    def test_residuals_against_svd_basis(self, pair13):
        """Independent projection route: SVD bases of the full n-block stack must
        separate the reported fixed nodes from the rest by orders of magnitude."""
        fixed = numeric_fixed_nodes(pair13.dag, trials=25, seed=0)
        worst = np.zeros(13)
        used = 0
        b = input_matrix(pair13.dag)
        for seed in range(25):
            basis = reference_basis(full_stack(loop_weight_matrix(pair13.dag, seed), b), 1e-8)
            if basis.shape[1] != pair13.generic_dim:
                continue
            used += 1
            residuals = np.linalg.norm(np.eye(13) - basis @ basis.T, axis=0)
            worst = np.maximum(worst, residuals)
        assert used > 0
        for v in range(1, 14):
            if v in fixed:
                assert worst[v - 1] < 1e-8
            else:
                assert worst[v - 1] > 1e-4

    def test_small_residual_is_not_fixed(self, monkeypatch):
        """Leader 1 feeds nodes 2 and 3 with weights 1 and 1e-5, so every
        draw's column space is spanned by e1 and (0, 1, 1e-5), and node 2's
        residual is about 1e-5.  Promoting node 2 adds a stem, so it is not
        fixed, and the cut ``TOL`` must lie below that residual."""
        dag = StructuredDag.of(3, [(1, 2), (1, 3)], [1])

        def weights(rng, count, edges):
            return np.tile([1.0, 1e-5], (count, 1))

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", weights)
        assert fixed_nodes_oracle(dag).fixed_nodes == {1}
        assert numeric_fixed_nodes(dag, trials=3, seed=0, expected_dim=2) == {1}

    def test_memory_does_not_grow_with_the_draw_count(self, monkeypatch):
        """Each draw folds into the running floor and weights are drawn one
        round at a time, so many times the draws keep the traced peak within
        twice that of a few.  At n = 300 a batch is one draw; at n = 40 it
        is 40, so 120 draws are three batches and 20,000 are 500.  Peak
        memory grows with the worker count, which is pinned to 2."""
        monkeypatch.setattr(fixednodes.numeric, "_workers", lambda: 2)
        for depth, width, leaders, edges, shape, trials in (
            (10, 30, 10, 700, (300, 100), (3, 30)),
            (4, 10, 4, 80, (40, 16), (120, 20_000)),
        ):
            config = GeneratorConfig(
                depth=depth,
                widths=spread_widths(depth, width, leaders),
                leader_count=leaders,
                seed=5,
                edge_count=edges,
            )
            dag = random_layered_dag(config)
            dim = generic_dimension(dag)[0]
            assert (dag.node_count, dim) == shape
            peaks = []
            for count in trials:
                tracemalloc.start()
                try:
                    numeric_fixed_nodes(dag, trials=count, seed=0, expected_dim=dim)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] < 2 * peaks[0]


class TestBatchedDraws:
    """The batched route against ``references.per_draw_numeric_fixed_nodes``:
    the same fixed set from the same draws, in the same order, stopping at the
    same draw."""

    @staticmethod
    def assert_same_as_per_draw(dag, trials, expected_dim, draws):
        batched = numeric_fixed_nodes(dag, trials, seed=3, expected_dim=expected_dim)
        batched_draws = draws[:]
        draws.clear()
        assert batched == per_draw_numeric_fixed_nodes(dag, trials, seed=3, expected_dim=expected_dim)
        assert draws == batched_draws and len(draws) >= trials
        draws.clear()

    @pytest.mark.parametrize("trials", [1, 2, 50])
    def test_pinned_graphs(self, trials, draws):
        for dag in pinned_dags().values():
            for expected_dim in (None, generic_dimension(dag)[0]):
                self.assert_same_as_per_draw(dag, trials, expected_dim, draws)

    @pytest.mark.parametrize("skip_prob", [0.0, 0.3, 0.6])
    def test_random_dags(self, skip_prob, draws):
        rng = random.Random(0xBA7C + int(skip_prob * 10))
        for _ in range(200):
            dag = randgraphs.random_dag(rng, max_nodes=20, max_leaders=4, skip_prob=skip_prob)
            dim = generic_dimension(dag)[0]
            for trials in (1, 2, 50):
                self.assert_same_as_per_draw(dag, trials, dim, draws)

    @pytest.mark.parametrize(
        "deficient, drawn",
        [({0, 1, 2, 3, 4}, 6), ({0, 2}, 4)],
        ids=["first-batch-and-first-retry", "around-a-full-rank-draw"],
    )
    def test_rank_deficient_draws(self, single7, draws, monkeypatch, deficient, drawn):
        """Draws with ``A = 0`` reach rank 1 of 5: a batch made only of them
        leads to retries one draw at a time, and one among full-rank draws
        is left out of the floor."""
        recorded = fixednodes.numeric._draw_weights

        def sample(rng, count, edges):
            weights = recorded(rng, count, edges)
            weights[[i for i, d in enumerate(draws[-count:]) if d in deficient]] = 0.0
            return weights

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", sample)
        self.assert_same_as_per_draw(single7.dag, 4, single7.generic_dim, draws)
        assert numeric_fixed_nodes(single7.dag, 4, seed=3, expected_dim=5) == single7.fixed
        assert len(draws) == drawn

    def test_each_draw_ranked_against_its_own_largest_singular_value(
        self, single7, draws, monkeypatch
    ):
        """One draw with ``A`` scaled by 100 has singular values up to about
        1e8 times the others'; it must not set the rank cut of its batch."""
        recorded = fixednodes.numeric._draw_weights

        def sample(rng, count, edges):
            weights = recorded(rng, count, edges)
            weights[[i for i, d in enumerate(draws[-count:]) if d == 1]] *= 100
            return weights

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", sample)
        self.assert_same_as_per_draw(single7.dag, 4, single7.generic_dim, draws)
        assert numeric_generic_dimension(single7.dag, trials=4, seed=3) == single7.generic_dim
        assert draws == [0, 1, 2, 3]

    def test_inconclusive_after_the_same_draws(self, single7, draws):
        with pytest.raises(InconclusiveError):
            numeric_fixed_nodes(single7.dag, trials=4, seed=3, expected_dim=6)
        assert draws == list(range(12))
        draws.clear()
        with pytest.raises(InconclusiveError):
            per_draw_numeric_fixed_nodes(single7.dag, trials=4, seed=3, expected_dim=6)
        assert draws == list(range(12))

    def test_batch_shapes(self, monkeypatch):
        """n = 200 ranks one draw per SVD, n = 60 up to 18 and n <= 20 all 50
        draws in one: at most 2**16 entries of ``A`` per batch."""
        batches = []
        svd = np.linalg.svd

        def recorded(c, *args, **kwargs):
            batches.append(c.shape[0])
            return svd(c, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        dags = pinned_dags()
        skip200 = dags.pop("skip200")
        numeric_fixed_nodes(skip200, trials=20, expected_dim=generic_dimension(skip200)[0])
        assert len(batches) >= 20 and set(batches) == {1}
        crit6 = dags.pop("crit6")
        batches.clear()
        numeric_fixed_nodes(crit6, trials=50, expected_dim=generic_dimension(crit6)[0])
        # a round's batches may reach the SVD in any order
        assert sorted(batches) == [14, 18, 18]
        rng = random.Random(0xBA7D)
        small = list(dags.values()) + [randgraphs.random_dag(rng, max_nodes=20) for _ in range(20)]
        for dag in small:
            assert dag.node_count <= 20
            batches.clear()
            numeric_fixed_nodes(dag, trials=50, expected_dim=generic_dimension(dag)[0])
            assert batches == [50]


def layered_shape(
    depth: int, width: int, leaders: int, seed: int, edges: int, skip: float = 0.0
) -> StructuredDag:
    """A generated graph of ``depth * width`` nodes, as the bench builds them."""
    config = GeneratorConfig(
        depth=depth,
        widths=spread_widths(depth, width, leaders),
        leader_count=leaders,
        seed=seed,
        edge_count=edges,
        skip_layer_prob=skip,
    )
    return random_layered_dag(config)


def bench_n200(seed: int, skip: float) -> StructuredDag:
    """The all-n200 bench shape: depth 10, width 20, 10 leaders, 400 edges."""
    return layered_shape(10, 20, 10, seed, 400, skip)


def ranking_calls(monkeypatch) -> list[tuple[str, str]]:
    """The batches ranked from now on, one ``(kernel, thread name)`` pair
    each, recorded as the whole stack's ``_column_spaces`` (``"stack"``) or
    the layer kernel's ``_layer_spaces`` (``"layers"``) is called."""
    calls = []
    for attr, kernel in (("_column_spaces", "stack"), ("_layer_spaces", "layers")):

        def recorded(a, b, spaces=getattr(fixednodes.numeric, attr), kernel=kernel):
            calls.append((kernel, threading.current_thread().name))
            return spaces(a, b)

        monkeypatch.setattr(fixednodes.numeric, attr, recorded)
    return calls


def thread_names(calls: Iterable[tuple[str, str]]) -> set[str]:
    return {name for _, name in calls}


@pytest.mark.parametrize("cpus", [1, 4])
class TestRounds:
    """Rounds of batches ranked on threads, one batch per usable CPU when the
    BLAS runs one thread, against ``references.per_draw_numeric_fixed_nodes``.
    With one CPU no thread is started; with four, the helpers rank all but
    each round's first batch."""

    @staticmethod
    def ranking_threads(monkeypatch, cpus) -> list[tuple[str, str]]:
        monkeypatch.setattr(fixednodes.numeric, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(fixednodes.numeric, "_blas_threads", lambda cpus: 1)
        return ranking_calls(monkeypatch)

    def test_same_fixed_sets_and_draws_as_per_draw(self, cpus, draws, monkeypatch):
        calls = self.ranking_threads(monkeypatch, cpus)
        dags = pinned_dags()
        dags.update(n200=bench_n200(0, 0.0), n200_skip=bench_n200(1, 0.3))
        for dag in dags.values():
            for trials in (7, 20):
                for expected_dim in (None, generic_dimension(dag)[0]):
                    TestBatchedDraws.assert_same_as_per_draw(dag, trials, expected_dim, draws)
        # both kernels rank batches on the helpers
        for kernel in ("stack", "layers"):
            names = thread_names(call for call in calls if call[0] == kernel)
            assert bool(names - {threading.main_thread().name}) == (cpus > 1)

    def test_retries_one_draw_at_a_time(self, cpus, draws, monkeypatch):
        """skip200 ranks one draw per batch.  Draws 0 to 4 with ``A = 0``
        reach only the leaders' rank: the first round of four falls short,
        and the retries stop at draw 5, the first of full rank."""
        self.ranking_threads(monkeypatch, cpus)
        dag = pinned_dags()["skip200"]
        dim = generic_dimension(dag)[0]
        recorded = fixednodes.numeric._draw_weights

        def sample(rng, count, edges):
            weights = recorded(rng, count, edges)
            weights[[i for i, d in enumerate(draws[-count:]) if d < 5]] = 0.0
            return weights

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", sample)
        TestBatchedDraws.assert_same_as_per_draw(dag, 4, dim, draws)
        fixed = numeric_fixed_nodes(dag, 4, seed=3, expected_dim=dim)
        assert fixed == fixed_nodes_oracle(dag).fixed_nodes
        assert draws == list(range(6))

    def test_an_error_reaches_the_caller_in_draw_order(self, cpus, monkeypatch):
        """Batches 1 to 3 of skip200 raise, batch 1 last of all: the caller
        gets batch 1's error, as ranking one batch after another gives, and
        every thread the call started has ended."""
        self.ranking_threads(monkeypatch, cpus)
        dag = pinned_dags()["skip200"]
        u, v = dag.sorted_edges[0]
        batch_of = {}
        recorded = fixednodes.numeric._draw_weights

        def sample(rng, count, edges):
            weights = recorded(rng, count, edges)
            batch_of[weights[0, 0]] = len(batch_of)
            return weights

        column_spaces = fixednodes.numeric._column_spaces

        def failing(a, b):
            batch = batch_of[a[0, v - 1, u - 1]]
            if batch == 1:
                time.sleep(0.2)
            if batch >= 1:
                raise np.linalg.LinAlgError(f"batch {batch}")
            return column_spaces(a, b)

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", sample)
        monkeypatch.setattr(fixednodes.numeric, "_column_spaces", failing)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="^batch 1$"):
            numeric_fixed_nodes(dag, trials=20, seed=0)
        assert threading.active_count() == before
        # the batches of the round that raised, and no more
        assert len(batch_of) == max(cpus, 2)


class TestWorkerCount:
    """A round ranks one batch per usable CPU left over by the BLAS's own
    threads, read from the variables the BLAS numpy names reads."""

    @pytest.fixture
    def clean_env(self, monkeypatch):
        for names in fixednodes.numeric._BLAS_THREAD_VARS.values():
            for var in names:
                monkeypatch.delenv(var, raising=False)
        return monkeypatch

    @pytest.mark.parametrize(
        "blas, env, workers",
        [
            ("scipy-openblas", {}, 1),
            ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, 8),
            ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "2"}, 4),
            ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "3"}, 2),
            ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "16"}, 1),
            ("openblas", {"OMP_NUM_THREADS": "1"}, 8),
            ("openblas", {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),
            ("openblas", {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),
            ("openblas", {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 8),
            ("openblas", {"OPENBLAS_NUM_THREADS": "one"}, 1),
            ("openblas", {"MKL_NUM_THREADS": "1"}, 1),
            ("mkl", {"MKL_NUM_THREADS": "1"}, 8),
            ("mkl", {"OPENBLAS_NUM_THREADS": "1"}, 1),
            ("blis", {"BLIS_NUM_THREADS": "2"}, 4),
            ("accelerate", {"VECLIB_MAXIMUM_THREADS": "1", "OMP_NUM_THREADS": "8"}, 8),
            ("scipy-openblas openblas 0.3.27 use_openmp haswell", {"OPENBLAS_NUM_THREADS": "1"}, 1),
            ("scipy-openblas openblas 0.3.27 use_openmp haswell", {"OMP_NUM_THREADS": "2"}, 4),
            ("", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 1),
            ("netlib", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 1),
        ],
    )
    def test_workers_from_the_blas_threads(self, clean_env, blas, env, workers):
        clean_env.setattr(fixednodes.numeric, "_usable_cpus", lambda: 8)
        clean_env.setattr(fixednodes.numeric, "_blas_build", lambda: blas)
        for var, value in env.items():
            clean_env.setenv(var, value)
        assert fixednodes.numeric._workers() == workers

    def test_default_blas_starts_no_thread(self, clean_env, draws):
        """With no thread variable set the BLAS runs one thread per CPU, so
        even four usable CPUs rank one batch at a time."""
        clean_env.setattr(fixednodes.numeric, "_usable_cpus", lambda: 4)
        calls = ranking_calls(clean_env)
        dag = pinned_dags()["skip200"]
        numeric_fixed_nodes(dag, trials=8, seed=3)
        assert thread_names(calls) == {threading.main_thread().name}
        assert draws == list(range(8))

    def test_round_entries_cap_the_workers(self, draws, monkeypatch):
        """skip200 ranks one draw per batch; with eight workers and room for
        three draws' ``A`` in a round, the first round draws three batches."""
        n = 200
        monkeypatch.setattr(fixednodes.numeric, "_workers", lambda: 8)
        monkeypatch.setattr(fixednodes.numeric, "_ROUND_ENTRIES", 3 * n * n)

        def failing(a, b):
            raise np.linalg.LinAlgError("ranked")

        monkeypatch.setattr(fixednodes.numeric, "_column_spaces", failing)
        dag = pinned_dags()["skip200"]
        assert dag.node_count == n
        with pytest.raises(np.linalg.LinAlgError):
            numeric_fixed_nodes(dag, trials=20, seed=0)
        assert draws == [0, 1, 2]

    def test_one_batch_looks_up_no_worker_count(self, single7, monkeypatch):
        """A call whose first trials draws are one batch needs one worker,
        so it reads neither the CPUs nor the BLAS's threads."""

        def unexpected():
            raise AssertionError("worker count looked up")

        monkeypatch.setattr(fixednodes.numeric, "_workers", unexpected)
        assert numeric_fixed_nodes(single7.dag, trials=50, seed=0) == single7.fixed

    def test_threads_follow_the_usable_cpus(self, monkeypatch):
        """Unpatched CPU count, one BLAS thread: helpers rank batches exactly
        when the process may use more than one CPU (under ``taskset -c 0``,
        none)."""
        monkeypatch.setattr(fixednodes.numeric, "_blas_threads", lambda cpus: 1)
        calls = ranking_calls(monkeypatch)
        numeric_fixed_nodes(pinned_dags()["skip200"], trials=8, seed=3)
        helpers = thread_names(calls) - {threading.main_thread().name}
        assert bool(helpers) == (fixednodes.numeric._usable_cpus() > 1)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_usable_cpus_within_the_affinity_mask(self, monkeypatch):
        affinity = len(os.sched_getaffinity(0))
        assert 1 <= fixednodes.numeric._usable_cpus() <= affinity
        monkeypatch.setattr(fixednodes.numeric, "_cgroup_cpus", lambda: None)
        assert fixednodes.numeric._usable_cpus() == affinity
        monkeypatch.setattr(fixednodes.numeric, "_cgroup_cpus", lambda: 1)
        assert fixednodes.numeric._usable_cpus() == 1

    @pytest.mark.parametrize(
        "membership, files, cpus",
        [
            ("0::/box\n", {"box/cpu.max": "150000 100000\n"}, 2),
            ("0::/box\n", {"box/cpu.max": "100000 100000\n"}, 1),
            ("0::/box\n", {"box/cpu.max": "20000 100000\n"}, 1),
            ("0::/box\n", {"box/cpu.max": "max 100000\n"}, None),
            # a container sees its own cgroup at the hierarchy's root
            ("0::/elsewhere\n", {"cpu.max": "300000 100000\n"}, 3),
            ("0::/\n", {}, None),
            (
                "5:memory:/box\n4:cpu,cpuacct:/box\n",
                {"cpu/box/cpu.cfs_quota_us": "250000\n", "cpu/box/cpu.cfs_period_us": "100000\n"},
                3,
            ),
            (
                "4:cpu,cpuacct:/box\n",
                {"cpu/box/cpu.cfs_quota_us": "-1\n", "cpu/box/cpu.cfs_period_us": "100000\n"},
                None,
            ),
            ("0::/box\n", {"box/cpu.max": "garbled\n"}, None),
            ("0::/box\n", {"box/cpu.max": "100000 0\n"}, None),
        ],
    )
    def test_cgroup_quota(self, tmp_path, membership, files, cpus):
        (tmp_path / "cgroup").write_text(membership)
        for name, text in files.items():
            (tmp_path / "fs" / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "fs" / name).write_text(text)
        assert fixednodes.numeric._cgroup_cpus(tmp_path / "cgroup", tmp_path / "fs") == cpus

    def test_cgroup_quota_read_once_per_process(self, monkeypatch):
        """The quota files are read at the first lookup of the usable CPUs
        and not at the next, while the affinity mask is read at each."""
        reads = []
        read_text = Path.read_text

        def counted(path, *args, **kwargs):
            reads.append(path)
            return read_text(path, *args, **kwargs)

        masks = []
        if hasattr(os, "sched_getaffinity"):
            mask = os.sched_getaffinity
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: masks.append(pid) or mask(pid))
        monkeypatch.setattr(Path, "read_text", counted)
        fixednodes.numeric._cgroup_cpus.cache_clear()
        first = fixednodes.numeric._usable_cpus()
        assert reads[0] == Path("/proc/self/cgroup")
        read = len(reads)
        assert fixednodes.numeric._usable_cpus() == first
        assert len(reads) == read
        assert len(masks) == (2 if hasattr(os, "sched_getaffinity") else 0)

    def test_no_cgroup_file(self, tmp_path):
        assert fixednodes.numeric._cgroup_cpus(tmp_path / "missing", tmp_path) is None


class TestOneStream:
    """A call draws every weight from one generator seeded with its seed, so
    draw i depends only on the pattern, the seed and i."""

    @staticmethod
    def drawn_rows(monkeypatch, dag, trials, batch):
        rows = []
        original = fixednodes.numeric._draw_weights

        def recorded(rng, count, edges):
            weights = original(rng, count, edges)
            rows.extend(weights.copy())
            return weights

        with monkeypatch.context() as patch:
            patch.setattr(fixednodes.numeric, "_draw_weights", recorded)
            patch.setattr(fixednodes.numeric, "_batch_size", lambda n: batch)
            fixed = numeric_fixed_nodes(dag, trials, seed=9)
        return fixed, np.array(rows).reshape(trials, len(dag.edges))

    def test_draw_i_ignores_trials_and_batch_size(self, monkeypatch):
        dags = [g.dag for g in goldens.GOLDENS] + [goldens.SKIP4, goldens.SKIP7]
        rng = random.Random(0x57EA)
        dags += [randgraphs.random_dag(rng, max_nodes=20, skip_prob=0.3) for _ in range(10)]
        for dag in dags:
            fixed, rows = self.drawn_rows(monkeypatch, dag, 50, 50)
            first = loop_weight_matrix(dag, 9)
            assert rows[0].tolist() == [first[v - 1, u - 1] for u, v in sorted(dag.edges)]
            for trials in (1, 2, 50):
                for batch in (1, 50):
                    again, prefix = self.drawn_rows(monkeypatch, dag, trials, batch)
                    assert prefix.tobytes() == rows[:trials].tobytes()
                    if trials == 50:
                        assert again == fixed

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_zero_draw_weighs_half(self, single7, monkeypatch, draw_zero, x):
        class Constant:
            def uniform(self, low, high, size):
                return np.full(size, x)

        weights = fixednodes.numeric._draw_weights(Constant(), 2, 3)
        assert weights.tolist() == [[math.copysign(0.5, x)] * 3] * 2
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Constant())
        a, _, _ = draw_zero(single7.dag, 0)
        assert np.count_nonzero(a) == len(single7.dag.edges)
        assert set(np.abs(a[a != 0]).tolist()) == {0.5}

    def test_one_generator_per_call(self, single7, monkeypatch):
        """Batches, retries and draws of one at a time all read one stream."""
        built = []
        default_rng = np.random.default_rng

        def counted(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        numeric_fixed_nodes(single7.dag, trials=50, seed=4, expected_dim=5)
        assert built == [4]
        built.clear()
        with pytest.raises(InconclusiveError):
            numeric_fixed_nodes(single7.dag, trials=4, seed=6, expected_dim=6)
        assert built == [6]
        built.clear()
        skip200 = pinned_dags()["skip200"]
        numeric_fixed_nodes(skip200, trials=3, seed=2)
        assert built == [2]

    @pytest.mark.parametrize("skip", [0.0, 0.3])
    def test_agrees_with_the_oracle_on_the_n200_bench_shape(self, skip):
        """The shape of the all-n200 bench workload, 20 trials."""
        for seed in range(5):
            dag = bench_n200(seed, skip)
            assert (dag.node_count, len(dag.edges)) == (200, 400)
            dim, _ = generic_dimension(dag)
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            assert numeric_fixed_nodes(dag, trials=20, seed=seed, expected_dim=dim) == oracle


class TestLayerKernel:
    """Graphs whose source layers hold every node, with every leader in
    layer 1 and every edge between adjacent layers, are ranked by the layer
    kernel; all others by the whole stack's.  The layer kernel against
    ``references.per_draw_numeric_fixed_nodes``, which ranks the whole
    stack one draw at a time: the same fixed set or the same
    ``InconclusiveError``, from the same draws."""

    # draw index -> its weights, for the draws a change alters: A = 0 for
    # draws 0 to 4 and 6, so a first batch of them falls short and retries
    # follow, or A scaled by 100 for draw 1, whose largest singular value
    # must not set the cut of the others
    CHANGES = {
        "plain": lambda d, w: w,
        "zero": lambda d, w: np.zeros_like(w) if d < 5 or d == 6 else w,
        "scaled": lambda d, w: 100 * w if d == 1 else w,
    }

    @staticmethod
    def outcome(route, dag, trials, expected_dim, draws):
        """The route's fixed set, or ``InconclusiveError``, and the draws it made."""
        draws.clear()
        try:
            result = route(dag, trials, seed=3, expected_dim=expected_dim)
        except InconclusiveError:
            result = InconclusiveError
        return result, draws[:]

    @pytest.fixture
    def calls(self, monkeypatch) -> list[tuple[str, str]]:
        return ranking_calls(monkeypatch)

    def assert_same_as_per_draw(self, dag, trials, draws, calls, monkeypatch, changes=CHANGES):
        """Compare both routes with and without the expected dimension under
        each change of the draws; returns the layer kernel's outcomes."""
        sample = fixednodes.numeric._draw_weights
        outcomes = []
        for change in changes:

            def changed(rng, count, edges, change=self.CHANGES[change]):
                weights = sample(rng, count, edges)
                return np.array([change(d, w) for d, w in zip(draws[-count:], weights)])

            with monkeypatch.context() as patch:
                patch.setattr(fixednodes.numeric, "_draw_weights", changed)
                for expected_dim in (None, generic_dimension(dag)[0]):
                    calls.clear()
                    layered = self.outcome(numeric_fixed_nodes, dag, trials, expected_dim, draws)
                    assert {kernel for kernel, _ in calls} == {"layers"}
                    reference = self.outcome(
                        per_draw_numeric_fixed_nodes, dag, trials, expected_dim, draws
                    )
                    assert layered == reference, (change, expected_dim)
                    assert len(layered[1]) >= trials
                    outcomes.append(layered[0])
        return outcomes

    @pytest.mark.parametrize("trials", [1, 2, 50])
    def test_pinned_graphs(self, trials, draws, calls, monkeypatch):
        dags = pinned_dags()
        for name in ("single7", "pair10", "pair13", "crit6"):
            self.assert_same_as_per_draw(dags[name], trials, draws, calls, monkeypatch)

    def test_random_dags(self, draws, calls, monkeypatch):
        """1,000 graphs at skip 0, a third of them with some source leaders
        dropped, which leaves sources that are not leaders in layer 1."""
        rng = random.Random(0x1A7E)
        for i in range(1000):
            dag = randgraphs.random_dag(rng, max_nodes=20, max_leaders=4)
            if i % 3 == 0:
                kept = rng.sample(sorted(dag.leaders), rng.randint(1, len(dag.leaders)))
                dag = dag.with_leaders(kept)
            changes = self.CHANGES if i % 10 == 0 else ["plain"]
            self.assert_same_as_per_draw(dag, (1, 2, 7)[i % 3], draws, calls, monkeypatch, changes)

    @pytest.mark.parametrize(
        "depth, width, leaders, trials",
        [(30, 8, 4, 5), (100, 10, 4, 3), (20, 10, 25, 5), (20, 50, 25, 3)],
        ids=["deep-240", "deep-1000", "wide-200", "wide-1000"],
    )
    def test_deep_and_wide_graphs(self, depth, width, leaders, trials, draws, calls, monkeypatch):
        dag = layered_shape(depth, width, leaders, depth + width, 3 * depth * width)
        assert 200 <= dag.node_count <= 1000
        changes = self.CHANGES if dag.node_count < 1000 else ["plain", "zero"]
        self.assert_same_as_per_draw(dag, trials, draws, calls, monkeypatch, changes)

    def test_n200_bench_shape(self, draws, calls, monkeypatch):
        for seed in range(5):
            self.assert_same_as_per_draw(bench_n200(seed, 0.0), 20, draws, calls, monkeypatch)

    def test_deep_chain_stays_inconclusive(self, draws, calls, monkeypatch):
        """The 200-node path of ``test_limitations`` takes the layer kernel
        and, as with the whole stack, no draw reaches rank 200: the cut is
        the draw's largest singular value over all layers, not each
        layer's own."""
        path = StructuredDag.of(200, [(i, i + 1) for i in range(1, 200)], [1])
        outcomes = self.assert_same_as_per_draw(path, 3, draws, calls, monkeypatch, ["plain"])
        assert outcomes[1] is InconclusiveError

    def test_layer_blocks_are_the_nonzero_blocks_of_the_full_stack(self, monkeypatch):
        """Block k of each draw holds the rows of layer k + 1 of ``A^k B``, up
        to rounding, and zeros in its padding; every other row of ``A^k B``
        is zero, and so is ``A^k B`` from k = p on."""
        seen = []
        layer_blocks = fixednodes.numeric._layer_blocks

        def recorded(a, b):
            blocks = layer_blocks(a, b)
            seen.extend(blocks.copy())
            return blocks

        monkeypatch.setattr(fixednodes.numeric, "_layer_blocks", recorded)
        rng = random.Random(0xB10C)
        dags = [pinned_dags()[name] for name in ("single7", "pair10", "pair13", "crit6")]
        dags += [randgraphs.random_dag(rng, max_nodes=20, max_leaders=4) for _ in range(100)]
        dags += [bench_n200(0, 0.0), layered_shape(30, 8, 4, 38, 720)]
        for dag in dags:
            seen.clear()
            trials = 5
            numeric_fixed_nodes(dag, trials, seed=3)
            assert len(seen) == trials
            rows = [[v - 1 for v in layer] for layer in dag.source_layers]
            b = input_matrix(dag)
            m = b.shape[1]
            weights = stream_weight_matrices(dag, seed=3)
            for blocks in seen:
                c = full_stack(next(weights), b)
                assert (len(blocks), blocks.shape[2]) == (len(rows), m)
                assert not c[:, len(rows) * m :].any()
                for k, block in enumerate(blocks):
                    part = c[:, k * m : (k + 1) * m]
                    outside = np.ones(dag.node_count, dtype=bool)
                    outside[rows[k]] = False
                    assert not part[outside].any()
                    assert not block[len(rows[k]) :].any()
                    error = np.abs(block[: len(rows[k])] - part[rows[k]]).max()
                    assert error <= 1e-12 * np.abs(part).max()

    @pytest.mark.parametrize(
        "name", ["skip4", "skip7", "pair9", "skip200", "cyclic-chain3", "self-loop", "inner-leader"]
    )
    def test_other_patterns_take_the_whole_stack(self, name, draws, calls):
        """Layer-skipping edges, cycles and leaders with in-edges: the whole
        stack's kernel ranks every batch, and agrees with the reference."""
        dag = {
            **pinned_dags(),
            "cyclic-chain3": goldens.CYCLIC_CHAIN3,
            "self-loop": StructuredDag.of(2, [(1, 2), (2, 2)], [1]),
            "inner-leader": StructuredDag.of(3, [(1, 2), (2, 3)], [1, 2]),
        }[name]
        routed = self.outcome(numeric_fixed_nodes, dag, 7, None, draws)
        assert routed == self.outcome(per_draw_numeric_fixed_nodes, dag, 7, None, draws)
        assert calls and {kernel for kernel, _ in calls} == {"stack"}

    def test_memory_stays_below_one_dense_matrix(self):
        """On the wide n = 1000 shape of the bench, two draws keep the traced
        peak below one ``n x n`` float64 matrix: the layer kernel holds the
        blocks between layers, never ``A``."""
        dag = layered_shape(20, 50, 25, 7, 3000)
        n = dag.node_count
        assert n == 1000
        tracemalloc.start()
        try:
            numeric_fixed_nodes(dag, trials=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
