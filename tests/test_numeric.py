from __future__ import annotations

import math
import random

import numpy as np
import pytest

import goldens
import randgraphs
from fixednodes import (
    InconclusiveError,
    StructuredDag,
    controllability_matrix,
    fixed_nodes_oracle,
    numeric_fixed_nodes,
    numeric_generic_dimension,
    sample_realization,
)

BAD_TOLERANCES = (0.0, -1.0, math.nan, math.inf)


def full_stack(r) -> np.ndarray:
    """``[B, AB, ..., A^(n-1) B]`` by the plain recurrence, all n blocks."""
    blocks = [r.b_matrix]
    for _ in range(r.node_count - 1):
        blocks.append(r.a_matrix @ blocks[-1])
    return np.hstack(blocks)


def reference_basis(c: np.ndarray, tol: float) -> np.ndarray:
    """Left singular vectors of ``c`` above ``tol`` times the largest singular value."""
    u, s, _ = np.linalg.svd(c)
    return u[:, : int((s > tol * s[0]).sum())]


class TestSampleRealization:
    def test_pattern_matches_edges_exactly(self, single7):
        r = sample_realization(single7.dag, seed=0)
        nonzero = {
            (u + 1, v + 1) for v, u in zip(*np.nonzero(r.a_matrix))
        }  # a[v-1, u-1] != 0 encodes edge (u, v)
        assert nonzero == single7.dag.edges
        assert np.count_nonzero(r.a_matrix) == 6

    def test_same_seed_reproduces(self, pair13):
        a = sample_realization(pair13.dag, seed=11)
        b = sample_realization(pair13.dag, seed=11)
        assert np.array_equal(a.a_matrix, b.a_matrix)
        assert np.array_equal(a.b_matrix, b.b_matrix)

    def test_different_seeds_differ_on_same_pattern(self, single7):
        a = sample_realization(single7.dag, seed=0)
        b = sample_realization(single7.dag, seed=1)
        assert (a.a_matrix != 0).tolist() == (b.a_matrix != 0).tolist()
        assert not np.array_equal(a.a_matrix, b.a_matrix)

    def test_magnitudes_bounded_away_from_zero(self, pair10):
        r = sample_realization(pair10.dag, seed=3)
        mags = np.abs(r.a_matrix[r.a_matrix != 0])
        assert mags.min() >= 0.5 and mags.max() <= 2.0

    def test_one_unit_column_per_leader(self, pair13):
        r = sample_realization(pair13.dag, seed=0)
        assert r.b_matrix.shape == (13, 2)
        assert r.b_matrix[0, 0] == 1 and r.b_matrix[1, 1] == 1
        assert r.b_matrix.sum() == 2


class TestControllabilityMatrix:
    def test_block_recurrence(self, pair9):
        """Blocks follow ``A @`` the previous one; the stack ends either after
        n blocks or where the next block would be exactly zero."""
        for dag, truncates in ((pair9.dag, True), (goldens.CYCLIC_CHAIN3, False)):
            r = sample_realization(dag, seed=5)
            c = controllability_matrix(r).c_matrix
            n, m = r.b_matrix.shape
            kept, rest = divmod(c.shape[1], m)
            assert c.shape[0] == n and rest == 0 and 1 <= kept <= n
            assert np.array_equal(c[:, :m], r.b_matrix)
            for j in range(1, kept):
                left = c[:, (j - 1) * m : j * m]
                right = c[:, j * m : (j + 1) * m]
                assert np.allclose(right, r.a_matrix @ left)
            assert kept == n or not np.any(r.a_matrix @ c[:, (kept - 1) * m :])
            assert (kept < n) == truncates

    def test_rank_matches_untruncated_stack(self):
        dags = [g.dag for g in goldens.GOLDENS] + [goldens.CYCLIC_CHAIN3]
        rng = random.Random(0x5EED)
        dags += [randgraphs.random_dag(rng, skip_prob=p) for p in (0.0, 0.3) for _ in range(20)]
        for dag in dags:
            for seed in range(3):
                r = sample_realization(dag, seed=seed)
                expected = reference_basis(full_stack(r), 1e-8).shape[1]
                assert controllability_matrix(r, 1e-8).rank == expected

    def test_bidirectional_chain_rank_is_two_for_any_seed(self):
        for seed in range(20):
            r = sample_realization(goldens.CYCLIC_CHAIN3, seed=seed)
            assert controllability_matrix(r).rank == goldens.CYCLIC_CHAIN3_RANK

    def test_single7_rank_reaches_the_dimension(self, single7):
        r = sample_realization(single7.dag, seed=0)
        assert controllability_matrix(r).rank == 5

    def test_one_node_graph(self):
        r = sample_realization(StructuredDag.of(1, [], [1]), seed=0)
        assert controllability_matrix(r).rank == 1

    def test_rank_stable_across_tolerances(self, golden):
        r = sample_realization(golden.dag, seed=2)
        ranks = {controllability_matrix(r, tol).rank for tol in (1e-10, 1e-8, 1e-6)}
        assert len(ranks) == 1

    def test_rejects_nonpositive_tolerance(self, single7):
        r = sample_realization(single7.dag, seed=0)
        for tol in BAD_TOLERANCES:
            with pytest.raises(ValueError):
                controllability_matrix(r, tol=tol)


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
        fixed = numeric_fixed_nodes(golden.dag, trials=50, seed=0, tol=1e-8)
        assert fixed == golden.fixed

    def test_leaders_fixed_in_shared_sink_graph(self):
        dag = StructuredDag.of(3, [(1, 3), (2, 3)], [1, 2])
        fixed = numeric_fixed_nodes(dag, trials=10, seed=0)
        assert dag.leaders <= fixed

    def test_expected_dimension_triggers_resampling_error(self, single7):
        with pytest.raises(InconclusiveError):
            numeric_fixed_nodes(single7.dag, trials=4, seed=0, expected_dim=6)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_rejects_bad_tolerance_before_drawing(self, single7, tol, monkeypatch):
        def draw(*_args, **_kwargs):
            pytest.fail("weights drawn before the tolerance was checked")

        monkeypatch.setattr("fixednodes.numeric.sample_realization", draw)
        with pytest.raises(ValueError, match="tolerance"):
            numeric_fixed_nodes(single7.dag, trials=4, seed=0, tol=tol, expected_dim=5)

    def test_huge_tolerance_collapses_ranks(self, single7):
        with pytest.raises(InconclusiveError):
            numeric_fixed_nodes(single7.dag, trials=4, seed=0, tol=10.0, expected_dim=5)

    def test_residuals_against_svd_basis(self, pair13):
        """Independent projection route: SVD bases of the full n-block stack must
        separate the reported fixed nodes from the rest by orders of magnitude."""
        fixed = numeric_fixed_nodes(pair13.dag, trials=25, seed=0, tol=1e-8)
        worst = np.zeros(13)
        used = 0
        for seed in range(25):
            basis = reference_basis(full_stack(sample_realization(pair13.dag, seed=seed)), 1e-8)
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
