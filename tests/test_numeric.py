from __future__ import annotations

import math
import random
import tracemalloc
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

    def test_memory_does_not_grow_with_the_draw_count(self):
        """Each draw folds into the running floor, so ten times the draws
        keeps the traced peak within twice that of three draws."""
        config = GeneratorConfig(
            depth=10,
            widths=spread_widths(10, 30, 10),
            leader_count=10,
            seed=5,
            edge_count=700,
        )
        dag = random_layered_dag(config)
        dim = generic_dimension(dag)[0]
        assert (dag.node_count, dim) == (300, 100)
        peaks = []
        for trials in (3, 30):
            tracemalloc.start()
            try:
                numeric_fixed_nodes(dag, trials=trials, seed=0, expected_dim=dim)
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
        assert batches == [18, 18, 14]
        rng = random.Random(0xBA7D)
        small = list(dags.values()) + [randgraphs.random_dag(rng, max_nodes=20) for _ in range(20)]
        for dag in small:
            assert dag.node_count <= 20
            batches.clear()
            numeric_fixed_nodes(dag, trials=50, expected_dim=generic_dimension(dag)[0])
            assert batches == [50]


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
        """Depth 10, width 20, 10 leaders and 400 edges, 20 trials: the shape
        of the all-n200 bench workload."""
        for seed in range(5):
            config = GeneratorConfig(
                depth=10,
                widths=spread_widths(10, 20, 10),
                leader_count=10,
                seed=seed,
                edge_count=400,
                skip_layer_prob=skip,
            )
            dag = random_layered_dag(config)
            assert (dag.node_count, len(dag.edges)) == (200, 400)
            dim, _ = generic_dimension(dag)
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            assert numeric_fixed_nodes(dag, trials=20, seed=seed, expected_dim=dim) == oracle
