"""Command-line interface.

Subcommands: ``label``, ``dim``, ``fixed``, ``verify``, ``gen``, ``export-dot``.
Exit codes: 0 success, 1 invalid input or usage, 2 method disagreement in
``verify``, 3 numeric sampling inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .dot import export_dot
from .errors import InconclusiveError, InvalidGraphError
from .generate import GeneratorConfig, random_layered_dag, spread_widths
from .graph import (
    StructuredDag,
    graph_from_json,
    graph_to_json,
    label_layers,
    validate,
)
from .numeric import DEFAULT_TRIALS
from .report import ALL_METHODS, analyze, report_to_json_dict
from .stems import generic_dimension


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code ``verify`` keeps for a disagreement
        return 1 if exc.code == 2 else exc.code
    try:
        return args.run(args)
    except InconclusiveError as exc:
        print(f"error: numeric verification inconclusive: {exc}", file=sys.stderr)
        return 3
    except (InvalidGraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _at_least(low: int):
    """An argparse type for integers of at least ``low``; argparse names the
    flag in the usage error it raises."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's message for a non-integer: "invalid int value"
    return parse


_TRIALS = _at_least(1)
_TRIALS_HELP = (
    "numeric draw budget, tripled for retries below the dimension; "
    "the route stops after two draws at the top rank"
)
_SEED = _at_least(0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fixednodes",
        description="Determine fixed (parameter-robust controllable) nodes of "
        "leader-driven directed acyclic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("graph", help="path to a graph JSON file")
        cmd.add_argument("-o", "--output", help="write to this file instead of stdout")
        return cmd

    cmd = graph_command("label", "emit the layer labeling as JSON")
    cmd.set_defaults(run=_cmd_label)

    cmd = graph_command("dim", "emit the generic dimension and a witness family")
    cmd.set_defaults(run=_cmd_dim)

    for name, help_text in (
        ("fixed", "determine fixed nodes and emit the analysis report"),
        ("verify", "cross-check all methods; exit 2 on disagreement"),
    ):
        cmd = graph_command(name, help_text)
        if name == "fixed":
            cmd.add_argument(
                "--method",
                choices=ALL_METHODS + ("all",),
                default="all",
                help="which determination method(s) to run",
            )
        cmd.add_argument("--trials", type=_TRIALS, default=DEFAULT_TRIALS, help=_TRIALS_HELP)
        cmd.add_argument("--seed", type=_SEED, default=0)
        cmd.set_defaults(run=_cmd_fixed if name == "fixed" else _cmd_verify)

    cmd = sub.add_parser("gen", help="emit a random layered DAG as graph JSON")
    cmd.add_argument("--p", type=int, required=True, help="number of layers")
    cmd.add_argument("--width", type=int, required=True, help="average nodes per layer")
    cmd.add_argument("--edges", type=int, required=True, help="total edge count, backbone included")
    cmd.add_argument("--leaders", type=int, required=True)
    cmd.add_argument("--seed", type=_SEED, default=0)
    cmd.add_argument(
        "--skip-prob",
        type=float,
        default=0.0,
        help="probability that an extra edge skips at least one layer",
    )
    cmd.add_argument("-o", "--output", help="write to this file instead of stdout")
    cmd.set_defaults(run=_cmd_gen)

    cmd = graph_command("export-dot", "emit Graphviz DOT with fixed nodes styled")
    cmd.add_argument(
        "--method",
        choices=ALL_METHODS,
        default="layered",
        help="method used to determine the highlighted fixed nodes",
    )
    cmd.add_argument("--trials", type=_TRIALS, default=DEFAULT_TRIALS, help=_TRIALS_HELP)
    cmd.add_argument("--seed", type=_SEED, default=0)
    cmd.set_defaults(run=_cmd_export_dot)

    return parser


def _load_graph(args) -> StructuredDag:
    """Parse and validate the graph; ``analyze`` reads the same cached
    validation, so the graph is validated once per call."""
    dag = graph_from_json(Path(args.graph).read_text())
    violations = validate(dag)
    if violations:
        raise InvalidGraphError("; ".join(v.message for v in violations))
    return dag


def _emit(args, text: str) -> int:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _dump(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` and a newline, byte for byte.

    With ``indent`` set, ``json`` encodes in pure Python, one generator per
    container; this writer appends the same chunks to one list instead.  It
    takes only what the payloads hold: dicts with ``str`` keys, lists, ``str``,
    ``int``, ``bool``, ``float`` and ``None``; anything else raises
    ``TypeError``.
    """
    chunks: list[str] = []
    _write(payload, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


_quote = json.encoder.encode_basestring_ascii


def _write(value, newline: str, out) -> None:
    """Append the encoding of ``value``; ``newline`` is a newline and the
    indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        out(_quote(value))
    elif value is None or isinstance(value, (bool, float)):
        out(json.dumps(value))
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        if all(type(item) is int for item in value):
            out("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        out("[" + inner)
        _write(value[0], inner, out)
        for item in value[1:]:
            out("," + inner)
            _write(item, inner, out)
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(separator + _quote(key) + ": ")
            _write(item, inner, out)
            separator = "," + inner
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_label(args) -> int:
    dag = _load_graph(args)
    labeling = label_layers(dag)
    return _emit(
        args,
        _dump(
            {
                "depth": labeling.depth,
                "layers": [sorted(layer) for layer in labeling.layers],
            }
        ),
    )


def _cmd_dim(args) -> int:
    dag = _load_graph(args)
    dim, witness = generic_dimension(dag)
    return _emit(
        args,
        _dump({"generic_dim": dim, "witness": [list(stem) for stem in witness.stems]}),
    )


def _analysis(args, methods) -> dict:
    report = analyze(_load_graph(args), methods, trials=args.trials, seed=args.seed)
    return report_to_json_dict(report)


def _cmd_fixed(args) -> int:
    methods = ALL_METHODS if args.method == "all" else (args.method,)
    return _emit(args, _dump(_analysis(args, methods)))


def _cmd_verify(args) -> int:
    payload = _analysis(args, ALL_METHODS)
    status = _emit(args, _dump(payload))
    if not payload["consistent"]:
        sets = {name: entry["fixed"] for name, entry in payload["methods"].items()}
        print(f"error: methods disagree on the fixed set: {sets}", file=sys.stderr)
        return 2
    return status


def _cmd_gen(args) -> int:
    # every non-leader node takes one backbone edge, so a larger node count
    # cannot be drawn; refusing it here keeps it from sizing the widths
    nodes, reach = args.p * args.width, args.leaders + args.edges
    if nodes > reach:
        raise ValueError(
            f"{args.p} layers of width {args.width} hold {nodes} nodes, but {args.leaders} "
            f"leaders and {args.edges} edges reach at most {reach}"
        )
    config = GeneratorConfig(
        depth=args.p,
        widths=spread_widths(args.p, args.width, args.leaders),
        leader_count=args.leaders,
        seed=args.seed,
        edge_count=args.edges,
        skip_layer_prob=args.skip_prob,
    )
    return _emit(args, graph_to_json(random_layered_dag(config)))


def _cmd_export_dot(args) -> int:
    dag = _load_graph(args)
    report = analyze(dag, (args.method,), trials=args.trials, seed=args.seed)
    return _emit(args, export_dot(dag, report.fixed_sets[args.method]))


if __name__ == "__main__":
    raise SystemExit(main())
