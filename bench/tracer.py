"""Span tracing from outside the program.

The tracer replaces public functions at the module attribute they are called
through (``fixednodes.report.fixed_nodes_oracle`` is what ``analyze`` calls,
not ``fixednodes.search.fixed_nodes_oracle``) with wrappers that record a span
per call.  Spans nest: each keeps the id of the span open when it started, so
a span's self time is its duration minus that of its children.  A target the
program no longer has is skipped and reads as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (module, attribute path, span name).  One span name may sit on several call
# sites; generic_dimension, for one, is reached from report and from search.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("fixednodes.cli", "graph_from_json", "graph.parse"),
    ("fixednodes.cli", "validate", "graph.validate"),
    ("fixednodes.cli", "analyze", "report.analyze"),
    ("fixednodes.cli", "attach_matched_sets", "search.attach"),
    ("fixednodes.cli", "report_to_json_dict", "report.json"),
    ("fixednodes.report", "validate", "graph.validate"),
    ("fixednodes.report", "label_layers", "graph.label"),
    ("fixednodes.report", "generic_dimension", "stems.dim"),
    ("fixednodes.report", "fixed_nodes_layered", "search.layered"),
    ("fixednodes.report", "fixed_nodes_oracle", "search.oracle"),
    ("fixednodes.report", "numeric_fixed_nodes", "numeric.fixed"),
    ("fixednodes.search", "label_layers", "graph.label"),
    ("fixednodes.search", "induce_prefix", "graph.prefix"),
    ("fixednodes.search", "generic_dimension", "stems.dim"),
    ("fixednodes.search", "LayerCoverage", "stems.coverage"),
    ("fixednodes.search", "enumerate_max_families", "stems.enum"),
    ("fixednodes.stems", "LayerCoverage.essential", "stems.essential"),
    ("fixednodes.numeric", "sample_realization", "numeric.draw"),
)


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    trace: int  # one trace per graph run
    name: str
    start: float
    end: float = 0.0


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.trace = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(sid, parent, self.trace, name, time.perf_counter()))
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        self.missing = []
        for module_name, path, name in self.targets:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(original, name))
            self._patches.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def totals(self) -> dict[str, Totals]:
        """Calls, total and self time per span name."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        out: dict[str, Totals] = {}
        for span in self.spans:
            t = out.setdefault(span.name, Totals())
            t.calls += 1
            t.total_s += span.end - span.start
            t.self_s += span.end - span.start - child_s[span.id]
        return out

    def traces_with(self, name: str) -> set[int]:
        return {span.trace for span in self.spans if span.name == name}

    def dump(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "trace": s.trace,
                            "name": s.name,
                            "start": round(s.start - origin, 9),
                            "end": round(s.end - origin, 9),
                        }
                    )
                    + "\n"
                )
