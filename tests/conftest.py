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
    """Draw 0 of a seed's stream as the numeric route ranks it: a function of
    ``(dag, seed)`` that runs a one-trial ``numeric_fixed_nodes`` and returns
    the draw's ``A`` and ``B`` and its rank, as the kernel the graph takes
    receives and returns them.  The whole stack's kernel
    (``numeric._column_spaces``) receives ``A`` and ``B`` themselves.  The
    layer kernel's (``numeric._layer_spaces``) receives the blocks of ``A``
    between adjacent layers and ``B``'s layer-1 rows, each padded to the
    widest layer; they are put back at their layers' rows and columns, so a
    weight placed anywhere else, padding included, is lost."""
    seen = []
    column_spaces = fixednodes.numeric._column_spaces
    layer_spaces = fixednodes.numeric._layer_spaces

    def stacked(a, b):
        u, ranks = column_spaces(a, b)
        seen.append((a[0].copy(), b.copy(), int(ranks[0])))
        return u, ranks

    def layered(a, b):
        u, kept = layer_spaces(a, b)
        seen.append((a[0].copy(), b.copy(), int(kept[0].sum())))
        return u, kept

    monkeypatch.setattr(fixednodes.numeric, "_column_spaces", stacked)
    monkeypatch.setattr(fixednodes.numeric, "_layer_spaces", layered)

    def run(dag, seed):
        seen.clear()
        fixednodes.numeric.numeric_fixed_nodes(dag, trials=1, seed=seed)
        ((a, b, rank),) = seen
        if a.ndim == 2:
            return a, b, rank
        n = dag.node_count
        rows = [[v - 1 for v in layer] for layer in dag.source_layers]
        whole_a, whole_b = np.zeros((n, n)), np.zeros((n, b.shape[1]))
        whole_b[rows[0]] = b[: len(rows[0])]
        for k, block in enumerate(a):
            whole_a[np.ix_(rows[k + 1], rows[k])] = block[: len(rows[k + 1]), : len(rows[k])]
        return whole_a, whole_b, rank

    return run
