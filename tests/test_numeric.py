from __future__ import annotations

import builtins
import io
import os
import random
import threading
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fixednodes.numeric
import goldens
import randgraphs
from fixednodes import (
    GeneratorConfig,
    InconclusiveError,
    InvalidGraphError,
    StructuredDag,
    fixed_nodes_oracle,
    generic_dimension,
    graph_from_json,
    random_layered_dag,
    spread_widths,
    numeric_fixed_nodes,
)
from references import (
    FIELD,
    controllability_stack,
    draw_basis,
    exact_draw,
    float_weight_matrices,
    input_matrix,
    loop_weight_matrix,
    numeric_generic_dimension,
    per_draw_exact_fixed_nodes,
    per_draw_numeric_fixed_nodes,
    rank_mod_p,
)

DATA = Path(__file__).parent / "data"


def pinned_dags() -> dict[str, StructuredDag]:
    dags = {g.name: g.dag for g in goldens.GOLDENS}
    dags.update(skip4=goldens.SKIP4, skip7=goldens.SKIP7)
    for name in ("crit6", "skip200"):
        dags[name] = graph_from_json((DATA / f"{name}.graph.json").read_text())
    return dags


def other_patterns() -> dict[str, StructuredDag]:
    """Patterns beyond adjacent-layer DAGs: layer-skipping edges, a cycle, a
    self-loop and a leader with an in-edge."""
    return {
        **pinned_dags(),
        "cyclic-chain3": goldens.CYCLIC_CHAIN3,
        "self-loop": StructuredDag.of(2, [(1, 2), (2, 2)], [1]),
        "inner-leader": StructuredDag.of(3, [(1, 2), (2, 3)], [1, 2]),
    }


@pytest.fixture
def draws(monkeypatch) -> list[int]:
    """The draws made through ``numeric._draw_weights``, in call order, each
    by its index in its generator's stream."""
    indices = []
    stream = {"rng": None, "next": 0}
    original = fixednodes.numeric._draw_weights

    def recorded(rng, count):
        if rng is not stream["rng"]:
            stream.update(rng=rng, next=0)
        indices.append(stream["next"])
        stream["next"] += 1
        return original(rng, count)

    monkeypatch.setattr(fixednodes.numeric, "_draw_weights", recorded)
    return indices


def kernel_draw(dag: StructuredDag, weights) -> tuple[int, frozenset[int]]:
    """The route's per-draw kernel on one draw's weights in sorted-edge
    order; its basis must be all zero again afterwards."""
    n = dag.node_count
    basis = np.zeros((n, n), dtype=np.int64)
    pattern = fixednodes.numeric._pattern(dag)
    result = fixednodes.numeric._draw(basis, pattern, np.array(weights, dtype=np.int64))
    assert not basis.any()
    return result


def kernel_basis(dag: StructuredDag, weights) -> tuple[list[int], np.ndarray]:
    """The pivots and rows of the basis the kernel spans for one draw."""
    n = dag.node_count
    basis = np.zeros((n, n), dtype=np.int64)
    pattern = fixednodes.numeric._pattern(dag)
    pivots = fixednodes.numeric._span(basis, pattern, np.array(weights, dtype=np.int64))
    return pivots.tolist(), basis[pivots]


def stream(dag: StructuredDag, seed: int, count: int) -> np.ndarray:
    """Draws 0 to ``count - 1`` of ``seed``'s stream, one row each."""
    return np.random.default_rng(seed).integers(1, FIELD, size=(count, len(dag.edges)))


def full_stack(a: np.ndarray, b: np.ndarray) -> list[list[int]]:
    """The columns of all n blocks ``[B, AB, ..., A^(n-1) B]``, by the plain
    recurrence over Python ints, unreduced."""
    rows = a.tolist()
    block = [list(column) for column in zip(*b.tolist())]
    columns = []
    for _ in range(len(rows)):
        columns += block
        block = [[sum(x * y for x, y in zip(row, column)) for row in rows] for column in block]
    return columns


def rational_rank(vectors: list[list[int]]) -> int:
    """The rank of integer ``vectors`` over the rationals, by exact elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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
        """Every weight is an integer in [1, p): none is zero mod p."""
        a, _, _ = draw_zero(pair10.dag, 3)
        weights = a[a != 0]
        assert len(weights) == len(pair10.dag.edges)
        assert weights.min() >= 1 and weights.max() < FIELD

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
    """The span the route's kernel builds for one draw, against the stack
    ``[B, AB, A^2 B, ...]`` built by the references."""

    def test_block_recurrence(self):
        """The basis is the reduced row echelon form of the stack's column
        space: each row is 1 at its pivot, 0 before it and at every other
        pivot, with entries in [0, p), and the rows span exactly the
        columns of the stack."""
        rng = random.Random(0xB10C)
        dags = list(other_patterns().values())
        dags += [
            randgraphs.random_dag(rng, max_nodes=16, skip_prob=p) for p in (0.0, 0.5) for _ in range(25)
        ]
        for dag in dags:
            for seed in range(3):
                weights = stream(dag, seed, 1)[0]
                pivots, rows = kernel_basis(dag, weights)
                assert ((rows >= 0) & (rows < FIELD)).all()
                for q, row in zip(pivots, rows):
                    assert row[q] == 1 and not row[:q].any()
                    assert not row[[p for p in pivots if p != q]].any()
                columns = controllability_stack(dag, weights.tolist())
                rank = rank_mod_p(columns)
                assert len(pivots) == rank == rank_mod_p(columns + rows.tolist())

    def test_rank_matches_untruncated_stack(self, draw_zero):
        dags = [g.dag for g in goldens.GOLDENS] + [goldens.CYCLIC_CHAIN3]
        rng = random.Random(0x5EED)
        dags += [randgraphs.random_dag(rng, skip_prob=p) for p in (0.0, 0.3) for _ in range(20)]
        for dag in dags:
            for seed in range(3):
                a, b, rank = draw_zero(dag, seed)
                columns = [[x % FIELD for x in column] for column in full_stack(a, b)]
                assert rank == rank_mod_p(columns)

    def test_bidirectional_chain_rank_is_two_for_any_seed(self, draw_zero):
        for seed in range(20):
            assert draw_zero(goldens.CYCLIC_CHAIN3, seed)[2] == goldens.CYCLIC_CHAIN3_RANK

    def test_single7_rank_reaches_the_dimension(self, single7, draw_zero):
        assert draw_zero(single7.dag, 0)[2] == 5

    def test_one_node_graph(self, draw_zero):
        assert draw_zero(StructuredDag.of(1, [], [1]), 0)[2] == 1

    def test_rank_is_the_rational_rank(self, golden, draw_zero):
        """The kernel's rank of draw 2 over the field is the exact rank over
        the rationals of the same integer weights, and the generic
        dimension."""
        a, b, rank = draw_zero(golden.dag, 2)
        assert rank == rational_rank(full_stack(a, b)) == golden.generic_dim


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
        """Independent float route: SVD bases of the float draws' stacks
        separate the route's fixed nodes from the rest by orders of
        magnitude."""
        fixed = numeric_fixed_nodes(pair13.dag, trials=25, seed=0)
        worst = np.zeros(13)
        used = 0
        b = input_matrix(pair13.dag)
        weights = float_weight_matrices(pair13.dag, 0)
        for _ in range(25):
            basis = draw_basis(next(weights), b)
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
        """Leader 1 feeds nodes 2 and 3 with weights 1 and 1/100000, the
        field's counterpart of the 1e-5 below which a float cut once had to
        stay.  Every draw's span is e1 and (0, 1, 1/100000): no entry is
        small over the field, and node 2 is not fixed, as promoting it adds
        a stem."""
        dag = StructuredDag.of(3, [(1, 2), (1, 3)], [1])
        small = pow(100_000, FIELD - 2, FIELD)

        def weights(rng, count):
            return np.array([1, small])

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", weights)
        assert fixed_nodes_oracle(dag).fixed_nodes == {1}
        assert numeric_fixed_nodes(dag, trials=3, seed=0, expected_dim=2) == {1}

    def test_memory_does_not_grow_with_the_draw_count(self):
        """Every draw is spanned in the call's one basis and folds into one
        set, so many times the draws keep the traced peak within twice that
        of a few.  With one more than the true dimension expected, no draw
        is enough and each call makes all 3 * trials draws before it gives
        up: 3 or 30 at n = 300, 15 or 300 at n = 40."""
        for depth, width, leaders, edges, shape, trials in (
            (10, 30, 10, 700, (300, 100), (1, 10)),
            (4, 10, 4, 80, (40, 16), (5, 100)),
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
                    with pytest.raises(InconclusiveError, match=f"in {3 * count} trials"):
                        numeric_fixed_nodes(dag, trials=count, seed=0, expected_dim=dim + 1)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] < 2 * peaks[0]


class TestBatchedDraws:
    """The route against ``references.per_draw_exact_fixed_nodes``, which
    ranks each draw of the same stream with the slow exact reference and
    folds the draws as the route does: the same fixed set from the same
    draws, in the same order, stopping at the same draw."""

    @staticmethod
    def assert_same_as_per_draw(dag, trials, expected_dim, draws):
        routed = numeric_fixed_nodes(dag, trials, seed=3, expected_dim=expected_dim)
        routed_draws = draws[:]
        draws.clear()
        assert routed == per_draw_exact_fixed_nodes(dag, trials, seed=3, expected_dim=expected_dim)
        assert draws == routed_draws and len(draws) >= min(trials, 2)
        draws.clear()

    @pytest.mark.parametrize("trials", [1, 2, 50])
    def test_pinned_graphs(self, trials, draws):
        """The pinned graphs and two 200-node graphs of the benchmark's shape."""
        dags = list(pinned_dags().values())
        for skip, seed in ((0.0, 0), (0.3, 1)):
            dags.append(randgraphs.shaped_dag(10, 20, 10, skip, seed, 400))
        for dag in dags:
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
        "name, deficient, drawn",
        [("single7", {0, 1, 2, 3, 4}, 7), ("single7", {0, 2}, 4), ("skip200", {0, 1, 2, 3, 4}, 7)],
        ids=["first-four-and-first-retry", "around-a-full-rank-draw", "skip200-first-five"],
    )
    def test_rank_deficient_draws(self, draws, monkeypatch, name, deficient, drawn):
        """Draws with ``A = 0`` reach only the leaders' rank and are left out
        of the fold: with 4 trials, the first four draws and the first retry,
        or draws 0 and 2 around full-rank ones, and the route draws until two
        reach the dimension and fixes the oracle's set."""
        dag = pinned_dags()[name]
        dim = generic_dimension(dag)[0]
        recorded = fixednodes.numeric._draw_weights

        def sample(rng, count):
            weights = recorded(rng, count)
            return 0 * weights if draws[-1] in deficient else weights

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", sample)
        self.assert_same_as_per_draw(dag, 4, dim, draws)
        fixed = numeric_fixed_nodes(dag, 4, seed=3, expected_dim=dim)
        assert fixed == fixed_nodes_oracle(dag).fixed_nodes
        assert len(draws) == drawn

    def test_a_scaled_draw_keeps_its_span(self, single7, draws, monkeypatch):
        """Scaling a draw's ``A`` by 100 scales each block ``A^k B`` by
        ``100^k``, so its span and verdicts stay those of the unscaled draw:
        over the field no draw's magnitude sets a cut for another."""
        weights = stream(single7.dag, 3, 2)[1]
        assert kernel_draw(single7.dag, weights * 100 % FIELD) == kernel_draw(single7.dag, weights)
        recorded = fixednodes.numeric._draw_weights

        def sample(rng, count):
            weights = recorded(rng, count)
            return weights * 100 % FIELD if draws[-1] == 1 else weights

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", sample)
        self.assert_same_as_per_draw(single7.dag, 4, single7.generic_dim, draws)
        assert numeric_generic_dimension(single7.dag, trials=4, seed=3) == single7.generic_dim
        assert draws == [0, 1, 2, 3]

    @pytest.mark.parametrize("degenerate", [0, 1])
    def test_a_draw_that_fixes_too_much_is_outvoted(self, draws, monkeypatch, degenerate):
        """Leader 1 feeds nodes 2 and 3.  A draw that weighs edge (1, 3) 0
        keeps rank 2 but spans e1 and e2, so it fixes node 2, which is not
        fixed: promoting it adds a stem.  Whether it is the first or the
        second of the two top-rank draws, the intersection leaves node 2
        out."""
        dag = StructuredDag.of(3, [(1, 2), (1, 3)], [1])
        assert kernel_draw(dag, [5, 0]) == (2, frozenset({1, 2}))
        recorded = fixednodes.numeric._draw_weights

        def sample(rng, count):
            weights = recorded(rng, count)
            if draws[-1] == degenerate:
                weights[1] = 0
            return weights

        monkeypatch.setattr(fixednodes.numeric, "_draw_weights", sample)
        assert fixed_nodes_oracle(dag).fixed_nodes == {1}
        self.assert_same_as_per_draw(dag, 2, 2, draws)
        assert numeric_fixed_nodes(dag, trials=2, seed=3, expected_dim=2) == {1}
        assert draws == [0, 1]

    def test_inconclusive_after_the_same_draws(self, single7, draws):
        with pytest.raises(InconclusiveError):
            numeric_fixed_nodes(single7.dag, trials=4, seed=3, expected_dim=6)
        assert draws == list(range(12))
        draws.clear()
        with pytest.raises(InconclusiveError):
            per_draw_exact_fixed_nodes(single7.dag, trials=4, seed=3, expected_dim=6)
        assert draws == list(range(12))

    def test_two_top_rank_draws_end_a_call(self, draws):
        """Each draw is spanned on its own, and a call stops once two draws
        reach its top rank and the dimension: two draws on skip200 with 20
        trials, on crit6 and on small graphs with 50, one with one trial."""
        dags = pinned_dags()
        rng = random.Random(0xBA7D)
        small = [randgraphs.random_dag(rng, max_nodes=20) for _ in range(20)]
        for dag, trials in [(dags["skip200"], 20), (dags["crit6"], 50), *((d, 50) for d in small)]:
            draws.clear()
            numeric_fixed_nodes(dag, trials=trials, expected_dim=generic_dimension(dag)[0])
            assert draws == [0, 1]
            draws.clear()
            numeric_fixed_nodes(dag, trials=1)
            assert draws == [0]


class TestSameOnEveryMachine:
    """The route spans its draws one after another on the calling thread and
    reads nothing of the machine, so every machine makes the same draws and
    gets the same fixed set."""

    def test_reads_nothing_of_the_machine(self, draws, monkeypatch):
        """skip200 with 8 trials, then again with every way to ask for CPUs,
        files, the BLAS build or a thread patched to raise, and ``os.environ``
        swapped for a mapping that records the keys read."""
        dag = pinned_dags()["skip200"]
        fixed = numeric_fixed_nodes(dag, trials=8, seed=3)
        draws.clear()

        def refused(*args, **kwargs):
            raise AssertionError("the route asked the machine")

        class RecordingEnviron(Mapping):
            def __init__(self, env):
                self.env, self.read = dict(env), []

            def __getitem__(self, key):
                self.read.append(key)
                return self.env[key]

            def __iter__(self):
                self.read.append("every key")
                return iter(self.env)

            def __len__(self):
                return len(self.env)

        environ = RecordingEnviron(os.environ)
        with monkeypatch.context() as patch:
            patch.setattr(os, "cpu_count", refused)
            patch.setattr(os, "sched_getaffinity", refused, raising=False)
            for module in (builtins, io, os):
                patch.setattr(module, "open", refused)
            patch.setattr(Path, "read_text", refused)
            patch.setattr(Path, "open", refused)
            patch.setattr(np, "show_config", refused)
            patch.setattr(threading.Thread, "start", refused)
            patch.setattr(os, "environ", environ)
            again = numeric_fixed_nodes(dag, trials=8, seed=3)
        assert (again, draws, environ.read) == (fixed, [0, 1], [])

    def test_an_error_stops_the_draws(self, monkeypatch):
        """A kernel that raises from draw 1 on: the caller gets draw 1's
        error, and no later draw is made."""
        made = []
        draw = fixednodes.numeric._draw

        def failing(basis, pattern, weights):
            made.append(len(made))
            if made[-1] >= 1:
                raise ArithmeticError(f"draw {made[-1]}")
            return draw(basis, pattern, weights)

        monkeypatch.setattr(fixednodes.numeric, "_draw", failing)
        with pytest.raises(ArithmeticError, match="^draw 1$"):
            numeric_fixed_nodes(pinned_dags()["skip200"], trials=20, seed=0)
        assert made == [0, 1]


class TestOneStream:
    """A call draws every weight from one generator seeded with its seed, so
    draw i depends only on the pattern, the seed and i."""

    @staticmethod
    def drawn_rows(monkeypatch, dag, trials, expected_dim=None):
        rows = []
        original = fixednodes.numeric._draw_weights

        def recorded(rng, count):
            weights = original(rng, count)
            rows.append(weights.copy())
            return weights

        with monkeypatch.context() as patch:
            patch.setattr(fixednodes.numeric, "_draw_weights", recorded)
            fixed = numeric_fixed_nodes(dag, trials, seed=9, expected_dim=expected_dim)
        return fixed, np.array(rows).reshape(len(rows), len(dag.edges))

    def test_draw_i_ignores_trials_and_batch_size(self, monkeypatch):
        """Draw i is the i-th row of the stream, whatever the trials and
        with or without the expected dimension."""
        dags = [g.dag for g in goldens.GOLDENS] + [goldens.SKIP4, goldens.SKIP7]
        rng = random.Random(0x57EA)
        dags += [randgraphs.random_dag(rng, max_nodes=20, skip_prob=0.3) for _ in range(10)]
        for dag in dags:
            rows = stream(dag, 9, 150)
            first = loop_weight_matrix(dag, 9)
            assert rows[0].tolist() == [first[v - 1, u - 1] for u, v in sorted(dag.edges)]
            fixed, _ = self.drawn_rows(monkeypatch, dag, 50)
            for trials in (1, 2, 50):
                for expected_dim in (None, generic_dimension(dag)[0]):
                    again, prefix = self.drawn_rows(monkeypatch, dag, trials, expected_dim)
                    assert prefix.tobytes() == rows[: len(prefix)].tobytes()
                    if trials == 50:
                        assert again == fixed

    def test_lowest_draw_weighs_one(self, single7, monkeypatch, draw_zero):
        """A generator that returns its lowest value gives every edge weight
        1, never 0."""

        class Lowest:
            def integers(self, low, high, size):
                return np.full(size, low)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Lowest())
        a, _, _ = draw_zero(single7.dag, 0)
        assert np.count_nonzero(a) == len(single7.dag.edges)
        assert set(a[a != 0].tolist()) == {1}

    def test_highest_draw_weighs_minus_one(self, single7, monkeypatch, draw_zero):
        """A generator that returns its highest value gives every edge weight
        p - 1, that is -1 mod p, and the kernel spans that draw as the exact
        reference does."""

        class Highest:
            def integers(self, low, high, size):
                return np.full(size, high - 1)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Highest())
        a, _, rank = draw_zero(single7.dag, 0)
        assert np.count_nonzero(a) == len(single7.dag.edges)
        assert set(a[a != 0].tolist()) == {FIELD - 1}
        weights = [FIELD - 1] * len(single7.dag.edges)
        assert (rank, kernel_draw(single7.dag, weights)[1]) == exact_draw(single7.dag, weights)

    def test_one_generator_per_call(self, single7, monkeypatch):
        """Draws and retries all read one stream."""
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
            dag = randgraphs.shaped_dag(10, 20, 10, skip, seed, 400)
            assert (dag.node_count, len(dag.edges)) == (200, 400)
            dim, _ = generic_dimension(dag)
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            assert numeric_fixed_nodes(dag, trials=20, seed=seed, expected_dim=dim) == oracle


class TestLayerKernel:
    """The route's kernel draw by draw against ``references.exact_draw``, on
    adjacent-layer graphs and on every other pattern: the same rank and
    fixed set from the same weights.  Besides draws of the stream, each
    graph gets draws that are often not generic: weights in {0, 1, 2}, all
    ones and ``A = 0``."""

    @staticmethod
    def weight_rows(dag: StructuredDag, count: int, rng: random.Random) -> list[np.ndarray]:
        m = len(dag.edges)
        rows = list(stream(dag, rng.randrange(2**32), count))
        small = np.array([rng.randrange(3) for _ in range(m)], dtype=np.int64)
        return rows + [small, np.ones(m, dtype=np.int64), np.zeros(m, dtype=np.int64)]

    @staticmethod
    def assert_same_as_exact(dag: StructuredDag, rows: list[np.ndarray]) -> None:
        for weights in rows:
            assert kernel_draw(dag, weights) == exact_draw(dag, weights.tolist()), weights

    @pytest.mark.parametrize("trials", [1, 2, 50])
    def test_pinned_graphs(self, trials):
        rng = random.Random(trials)
        for dag in pinned_dags().values():
            count = trials if dag.node_count <= 60 else 2
            self.assert_same_as_exact(dag, self.weight_rows(dag, count, rng))

    def test_random_dags(self):
        """1,200 graphs at skip 0, 0.3, 0.6 and 0.9, a third of them with
        their leaders redrawn: some source leaders dropped, which leaves
        nodes no leader reaches, and up to two inner nodes promoted, which
        gives leaders with in-edges."""
        rng = random.Random(0x1A7E)
        for i in range(1200):
            skip = (0.0, 0.3, 0.6, 0.9)[i % 4]
            dag = randgraphs.random_dag(rng, max_nodes=12, max_leaders=4, skip_prob=skip)
            if i % 3 == 0:
                dag = randgraphs.redrawn_leaders(rng, dag)
            self.assert_same_as_exact(dag, self.weight_rows(dag, 1, rng))

    @pytest.mark.parametrize(
        "depth, width, leaders, trials",
        [(40, 6, 2, 2), (100, 10, 4, 1), (20, 10, 25, 2), (20, 50, 25, 1)],
        ids=["deep-240", "deep-1000", "wide-200", "wide-1000"],
    )
    def test_deep_and_wide_graphs(self, depth, width, leaders, trials):
        """Each shape at skip 0, and the n = 200 and 240 ones at skip 0.3 too."""
        rng = random.Random(depth + width)
        for skip in (0.0, 0.3) if depth * width < 1000 else (0.0,):
            edges = 3 * depth * width
            dag = randgraphs.shaped_dag(depth, width, leaders, skip, depth + width, edges)
            assert 200 <= dag.node_count <= 1000
            self.assert_same_as_exact(dag, self.weight_rows(dag, trials, rng)[:trials])

    def test_deep_chain_agrees_with_the_reference(self):
        """The 200-node path of ``test_limitations``, where a float rank
        check lost the smallest singular values: every draw of the stream
        spans all 200 nodes and fixes each one, and every draw, the
        non-generic ones too, matches the exact reference."""
        path = StructuredDag.of(200, [(i, i + 1) for i in range(1, 200)], [1])
        rows = self.weight_rows(path, 3, random.Random(200))
        self.assert_same_as_exact(path, rows)
        for weights in rows[:3]:
            assert kernel_draw(path, weights) == (200, path.nodes)

    def test_n200_bench_shape(self):
        rng = random.Random(200)
        for seed in range(5):
            for skip in (0.0, 0.3):
                dag = randgraphs.shaped_dag(10, 20, 10, skip, seed, 400)
                self.assert_same_as_exact(dag, self.weight_rows(dag, 1, rng)[:1])

    def test_layer_blocks_are_the_nonzero_blocks_of_the_full_stack(self, monkeypatch):
        """On graphs whose edges all join adjacent layers, numbered layer by
        layer, with every leader in layer 1, round k of the kernel is layer
        k + 1's block of the stack: its candidates, A times the rows round
        k - 1 added, are zero outside layer k + 1 and span exactly that
        layer's block ``A^k B`` of the reference stack."""
        rounds = []
        eliminate = fixednodes.numeric._eliminate

        def recorded(block):
            rounds.append(block.copy())
            return eliminate(block)

        monkeypatch.setattr(fixednodes.numeric, "_eliminate", recorded)
        rng = random.Random(0xB10C)
        dags = [pinned_dags()[name] for name in ("single7", "pair10", "pair13", "crit6")]
        dags += [randgraphs.random_dag(rng, max_nodes=20, max_leaders=4) for _ in range(100)]
        dags += [
            randgraphs.shaped_dag(10, 20, 10, 0.0, 0, 400),
            randgraphs.shaped_dag(30, 8, 4, 0.0, 38, 720),
        ]
        for dag in dags:
            layers = dag.source_layers
            assert sorted(dag.leaders) == list(layers[0]) == list(range(1, len(layers[0]) + 1))
            weights = stream(dag, 3, 1)[0]
            m, n = len(dag.leaders), dag.node_count
            columns = controllability_stack(dag, weights.tolist())
            rounds.clear()
            kernel_draw(dag, weights)
            assert len(rounds) == len(columns) // m
            for k, block in enumerate(rounds):
                lo = n - block.shape[1]
                assert lo == layers[k][0] - 1
                assert not block[:, len(layers[k]) :].any()
                candidates = [[0] * lo + row for row in block.tolist()]
                stacked = columns[k * m : (k + 1) * m]
                rank = rank_mod_p(stacked)
                assert rank == rank_mod_p(candidates) == rank_mod_p(stacked + candidates)

    @pytest.mark.parametrize(
        "name", ["skip4", "skip7", "pair9", "skip200", "cyclic-chain3", "self-loop", "inner-leader"]
    )
    def test_other_patterns_take_the_whole_stack(self, name, draws):
        """Layer-skipping edges, cycles, self-loops and leaders with in-edges
        take the same kernel: it agrees with the reference draw by draw, and
        the route with the reference's route."""
        dag = other_patterns()[name]
        self.assert_same_as_exact(dag, self.weight_rows(dag, 3, random.Random(name)))
        routed = numeric_fixed_nodes(dag, 7, seed=3)
        routed_draws = draws[:]
        draws.clear()
        assert routed == per_draw_exact_fixed_nodes(dag, 7, seed=3)
        assert draws == routed_draws


class TestExactKernel:
    """What the exact kernel adds: the route agrees with the oracle where a
    float route gave up, within bounded memory and time."""

    def test_agrees_with_the_oracle_on_the_layered_n1000_shapes(self):
        """The four graphs of the bench's layered-n1000 workload at seed 1,
        each in about 0.05-0.5 s on a 2-vCPU host; the two deep ones once
        exited 3, no float draw reaching their rank."""
        for dag in randgraphs.layered_n1000_graphs(1):
            dim = generic_dimension(dag)[0]
            oracle = fixed_nodes_oracle(dag).fixed_nodes
            assert numeric_fixed_nodes(dag, trials=20, seed=0, expected_dim=dim) == oracle

    def test_agrees_with_the_oracle_on_a_3000_node_path(self):
        """One round per node, and every node fixed."""
        path = StructuredDag.of(3000, [(i, i + 1) for i in range(1, 3000)], [1])
        assert fixed_nodes_oracle(path).fixed_nodes == path.nodes
        assert numeric_fixed_nodes(path, trials=20, seed=0, expected_dim=3000) == path.nodes

    def test_memory_stays_below_two_int64_matrices(self):
        """On every layered-n1000 shape, two draws keep the traced peak
        below two ``n x n`` int64 matrices: the basis is one, and a round's
        copies of its rows stay within the other."""
        for dag in randgraphs.layered_n1000_graphs(1):
            n = dag.node_count
            tracemalloc.start()
            try:
                numeric_fixed_nodes(dag, trials=2, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * n * n * 8

    def test_mulmod_is_exact_at_the_largest_entries(self):
        """Entries of p - 1 everywhere, 2**16 - 1 terms per sum: every
        product is p - 1 squared, and the sum is checked in Python ints."""
        inner = 2**16 - 1
        a = np.full((2, inner), FIELD - 1, dtype=np.int64)
        b = np.full((inner, 3), FIELD - 1, dtype=np.int64)
        b[0, 1] = 5
        result = fixednodes.numeric._mulmod(a, b)
        top = FIELD - 1
        full, fifth = inner * top**2 % FIELD, ((inner - 1) * top**2 + 5 * top) % FIELD
        assert result.tolist() == [[full, fifth, full]] * 2

    def test_refuses_graphs_of_2_to_the_16_nodes(self):
        """Fewer nodes keep the basis and the sums of the kernel exact; from
        2**16 up the route refuses before it allocates anything."""
        dag = StructuredDag.of(2**16, [(i, i + 1) for i in range(1, 2**16)], [1])
        with pytest.raises(ValueError, match="fewer than 65536 nodes, got 65536"):
            numeric_fixed_nodes(dag, trials=1)

    def test_refuses_fewer_than_one_trial(self):
        with pytest.raises(ValueError, match="^at least one trial is required$"):
            numeric_fixed_nodes(goldens.PAIR9.dag, trials=0)

    def test_refuses_a_leaderless_graph_before_it_reads_the_edges(self, monkeypatch):
        """The leader check is the last of the route's preconditions, all
        taken before the route reads the graph's edges."""

        def refused(dag):
            raise AssertionError("the route read the edges of a graph it refuses")

        monkeypatch.setattr(fixednodes.numeric, "_pattern", refused)
        leaderless = StructuredDag.of(2, [(1, 2)], [])
        with pytest.raises(InvalidGraphError, match="^at least one leader is required$"):
            numeric_fixed_nodes(leaderless, trials=1)

    def test_agrees_with_the_float_cross_check_on_small_graphs(self):
        """``references.per_draw_numeric_fixed_nodes`` ranks float draws of
        a stream of its own with SVDs and a 1e-8 cut; on small graphs the
        two routes agree."""
        rng = random.Random(0xF10A)
        dags = [
            randgraphs.random_dag(rng, max_nodes=12, skip_prob=p) for p in (0.0, 0.3) for _ in range(50)
        ]
        for dag in dags + [goldens.CYCLIC_CHAIN3]:
            exact = numeric_fixed_nodes(dag, 20, seed=1)
            assert exact == per_draw_numeric_fixed_nodes(dag, 20, seed=1)
