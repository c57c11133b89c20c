from __future__ import annotations

import numpy as np
import pytest

import fixednodes.numeric
import fixednodes.stems
import goldens


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One visible pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    label = getattr(item.function, "criterion", None)
    if report.when == "call" and label:
        writer = item.config.get_terminal_writer()
        verdict = "PASS" if report.passed else "FAIL"
        writer.line(f"\nacceptance criterion {label}: {verdict}")


@pytest.fixture
def single7() -> goldens.Golden:
    return goldens.SINGLE7


@pytest.fixture
def pair9() -> goldens.Golden:
    return goldens.PAIR9


@pytest.fixture
def pair10() -> goldens.Golden:
    return goldens.PAIR10


@pytest.fixture
def pair13() -> goldens.Golden:
    return goldens.PAIR13


@pytest.fixture(params=goldens.GOLDENS, ids=lambda g: g.name)
def golden(request) -> goldens.Golden:
    return request.param


@pytest.fixture
def solves(monkeypatch) -> list:
    """The networks ``FlowNetwork.solve_min_cost`` runs on, one entry per
    call: the dimension flow is the only min-cost solve."""
    solved = []
    solve = fixednodes.stems.FlowNetwork.solve_min_cost

    def counting(self, value):
        solved.append(self)
        solve(self, value)

    monkeypatch.setattr(fixednodes.stems.FlowNetwork, "solve_min_cost", counting)
    return solved


@pytest.fixture
def draw_zero(monkeypatch):
    """Draw 0 of a seed's stream as the numeric route spans it: a function of
    ``(dag, seed)`` that runs a one-trial ``numeric_fixed_nodes`` and returns
    the draw's ``A`` and ``B`` and its rank, as the per-draw kernel
    (``numeric._draw``) receives and returns them.  ``A`` and ``B`` are
    rebuilt from the kernel's pattern arrays and weights, the weight of edge
    ``(u, v)`` at ``(v - 1, u - 1)`` with u read off the first edge of each
    tail, and one unit column per leader, so a weight, tail or leader the
    pattern misplaces shows."""
    seen = []
    draw = fixednodes.numeric._draw

    def recorded(basis, pattern, weights):
        rank, fixed = draw(basis, pattern, weights)
        seen.append((pattern, weights.copy(), rank))
        return rank, fixed

    monkeypatch.setattr(fixednodes.numeric, "_draw", recorded)

    def run(dag, seed):
        seen.clear()
        fixednodes.numeric.numeric_fixed_nodes(dag, trials=1, seed=seed)
        (((leaders, tails, heads, tstart), weights, rank),) = seen
        n = dag.node_count
        tails_by_tstart = np.repeat(np.arange(n), np.diff(tstart))
        assert tails.tolist() == tails_by_tstart.tolist()
        a = np.zeros((n, n), dtype=np.int64)
        a[heads, tails_by_tstart] = weights
        b = np.zeros((n, len(leaders)), dtype=np.int64)
        b[leaders, np.arange(len(leaders))] = 1
        return a, b, rank

    return run
