"""Rewrite every pinned file of this directory with the current program.

The pins are listed in ``tests/test_pinned_reports.py``: each ``GENERATED``
graph is written by ``fixednodes gen`` with its arguments, then each report
of ``CASES`` by ``fixednodes fixed`` with its arguments, on the graph just
written or on the hand-written graph file here.  A re-pin is one run of

    python tests/data/repin.py            # into tests/data
    python tests/data/repin.py OUT_DIR    # elsewhere, to compare

followed by ``git diff tests/data``.
"""

from __future__ import annotations

import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path[:0] = [str(DATA.parent.parent / "src"), str(DATA.parent)]

from fixednodes.cli import main  # noqa: E402
from test_pinned_reports import CASES, GENERATED  # noqa: E402


def run(*argv: str) -> None:
    if main(list(argv)) != 0:
        raise SystemExit(f"fixednodes {' '.join(argv)} failed")


def repin(out: Path) -> list[Path]:
    """Write every pin into ``out`` and return the paths written."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, args in GENERATED.items():
        written.append(out / f"{name}.graph.json")
        run("gen", *args, "-o", str(written[-1]))
    for case, (graph, args) in CASES.items():
        source = (out if graph in GENERATED else DATA) / f"{graph}.graph.json"
        written.append(out / f"{case}.report.json")
        run("fixed", str(source), *args, "-o", str(written[-1]))
    return written


if __name__ == "__main__":
    for path in repin(Path(sys.argv[1]) if len(sys.argv) > 1 else DATA):
        print(path)
