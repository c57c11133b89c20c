"""Correctness checks on one ``fixednodes fixed`` report.

A report fails on a witness that is not a valid maximum family, on oracle and
numeric sets that differ, on methods that disagree on a graph whose edges all
join adjacent layers, on a ``consistent`` flag that misstates the sets, and,
where a checked-in reference exists, on any difference from it.  Layered
differing from the oracle on a layer-skipping graph is the known limit pinned
in ``tests/test_limitations.py``: it is counted, not failed.
"""

from __future__ import annotations

import json

from fixednodes.graph import StructuredDag, label_layers
from fixednodes.report import graph_digest
from fixednodes.stems import StemFamily, stem_family_violations

# Failure kinds; each one is a ``check.<kind>`` counter.
RAISED = "raised"
DISAGREE = "disagree"
MISMATCH = "mismatch"
WITNESS_INVALID = "witness_invalid"
FAILURE_KINDS = (RAISED, DISAGREE, MISMATCH, WITNESS_INVALID)
LAYERED_DIVERGENT = "layered_divergent"


def is_adjacent(dag: StructuredDag) -> bool:
    """True when every edge joins two consecutive layers."""
    layer_of = label_layers(dag).layer_of
    return all(layer_of[v] == layer_of[u] + 1 for u, v in dag.edges)


def reference_entry(dag: StructuredDag, fixed: set[int] | frozenset[int], dim: int) -> dict:
    return {"digest": graph_digest(dag), "generic_dim": dim, "fixed": sorted(fixed)}


def check_report(
    dag: StructuredDag,
    adjacent: bool,
    payload: dict,
    reference: dict | None = None,
) -> tuple[set[str], bool]:
    """Failure kinds found in ``payload``, and whether layered diverged from
    the oracle on a layer-skipping graph (not a failure)."""
    problems: set[str] = set()
    witness = StemFamily(tuple(tuple(stem) for stem in payload["witness"]))
    if stem_family_violations(dag, witness) or len(witness.covered) != payload["generic_dim"]:
        problems.add(WITNESS_INVALID)

    sets = {name: frozenset(entry["fixed"]) for name, entry in payload["methods"].items()}
    if payload["consistent"] != (len(set(sets.values())) == 1):
        problems.add(DISAGREE)
    if "oracle" in sets and "numeric" in sets and sets["oracle"] != sets["numeric"]:
        problems.add(DISAGREE)
    divergent = False
    if "layered" in sets and "oracle" in sets and sets["layered"] != sets["oracle"]:
        if adjacent:
            problems.add(DISAGREE)
        else:
            divergent = True

    if reference is not None:
        if reference["digest"] != graph_digest(dag) or reference["generic_dim"] != payload["generic_dim"]:
            problems.add(MISMATCH)
        expected = frozenset(reference["fixed"])
        for name, fixed in sets.items():
            exempt = name == "layered" and "oracle" in sets and not adjacent
            if fixed != expected and not exempt:
                problems.add(MISMATCH)
    return problems, divergent


class Checker:
    """Checks every attempt; the first output of a graph is checked in full,
    later attempts must reproduce it byte for byte."""

    def __init__(self, dags, references):
        self.dags = dags
        self.adjacent = [is_adjacent(dag) for dag in dags]
        self.references = references
        self.first: list[bytes | None] = [None] * len(dags)
        self.content: list[set[str]] = [set() for _ in dags]
        self.problems: list[set[str]] = [set() for _ in dags]
        self.divergent = [False] * len(dags)
        self.attempted = 0
        self.failed = 0

    def record(self, index: int, rc, data: bytes | None) -> None:
        self.attempted += 1
        if rc != 0 or data is None:
            found = {RAISED}
        elif self.first[index] is None:
            self.first[index] = data
            try:
                found, self.divergent[index] = check_report(
                    self.dags[index], self.adjacent[index], json.loads(data), self.references[index]
                )
            except (ValueError, KeyError, TypeError):
                found = {MISMATCH}
            self.content[index] = found
        elif data != self.first[index]:
            found = {MISMATCH}
        else:
            found = self.content[index]
        if found:
            self.failed += 1
            self.problems[index] |= found

    def counts(self) -> dict[str, int]:
        out = {kind: sum(kind in p for p in self.problems) for kind in FAILURE_KINDS}
        out[LAYERED_DIVERGENT] = sum(self.divergent)
        return out
