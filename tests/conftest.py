from __future__ import annotations

import pytest

import fixednodes.numeric
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
def draw_zero(monkeypatch):
    """Draw 0 of a seed's stream as the numeric route ranks it: a function of
    ``(dag, seed)`` that runs a one-trial ``numeric_fixed_nodes`` and returns
    the draw's ``A`` and ``B`` as ``numeric._column_spaces`` receives them
    and the rank it returns."""
    seen = []
    column_spaces = fixednodes.numeric._column_spaces

    def recorded(a, b):
        u, ranks = column_spaces(a, b)
        seen.append((a[0].copy(), b.copy(), int(ranks[0])))
        return u, ranks

    monkeypatch.setattr(fixednodes.numeric, "_column_spaces", recorded)

    def run(dag, seed):
        seen.clear()
        fixednodes.numeric.numeric_fixed_nodes(dag, trials=1, seed=seed)
        (draw,) = seen
        return draw

    return run
