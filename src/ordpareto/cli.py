"""Command line interface.

Subcommands: transform, filter, solve {sp,knapsack,mixed,wtop}, scalarize,
wsd, oracle-check. ``oracle-check`` reads the problem from the instance: a
knapsack is checked as ``knapsack``, any graph as ``mixed``. Vectors read
from stdin are in the format that :mod:`ordpareto.fileio` describes.
Exit codes: 0 success or ``--help``, 1 a bad command line, input or parse
error (one ``error: …`` line on stderr), 2 oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys

import ordpareto
from ordpareto.core import (
    A_HEAD,
    A_TAIL,
    ConeMatrix,
    OrdparetoError,
    excerpt,
    head_transform,
    inverse_transform,
    tail_transform,
    unprintable,
)
from ordpareto.fileio import (
    FORMATS,
    PROBLEMS,
    TEXT,
    emit_result,
    parse_instance,
    parse_vectors,
    read_weight,
    vector_text,
)
from ordpareto.solvers import (
    KnapsackInstance,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)

# Only filter, scalarize and wsd call these names, so their modules load on
# first use (PEP 562). The handlers look them up on this module, where a
# caller such as a tracer may have replaced them.
_ON_DEMAND = {"PointSet", "cone_filter", "pareto_filter", "weighted_sum_solve",
              "weight_space_decomposition"}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(ordpareto, name)  # the root loads its module
    return value


def _read_text(fh, name: str) -> str:
    """The whole text of ``fh``; a non-UTF-8 input is refused, named by ``name``."""
    try:
        return fh.read()
    except UnicodeDecodeError as exc:
        raise OrdparetoError(f"{name}: not UTF-8 text ({exc.reason})") from None


def _format_vec(v) -> str:
    try:
        return " ".join(map(str, v))
    except ValueError:  # raised by str() only past the digit limit
        raise unprintable("an output value") from None


def _write_lines(lines: list[str]) -> int:
    """Write a subcommand's whole output and return its exit code, 0. The
    lines are formatted first, so a value refused there leaves stdout empty."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def _cmd_transform(args) -> int:
    vectors = parse_vectors(_read_text(sys.stdin, "stdin"))
    transform = inverse_transform if args.inverse else (
        head_transform if args.head else tail_transform
    )
    return _write_lines([_format_vec(transform(v)) for v in vectors])


def _cmd_filter(args) -> int:
    vectors = parse_vectors(_read_text(sys.stdin, "stdin"))
    ps = _cli.PointSet(tuple(vectors))
    if args.cone == "pareto":
        kept = _cli.pareto_filter(ps, args.sense)
    else:
        kind = A_TAIL if args.cone == "tail" else A_HEAD
        kept = _cli.cone_filter(ps, ConeMatrix(len(vectors[0]), kind), args.sense)
    return _write_lines([_format_vec(p) for p in kept.points])


def _load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        text = _read_text(fh, excerpt(path))
    return parse_instance(text)


def _solver(problem: str, inst):
    """The solver of ``problem`` on this module at call time, where a tracer may
    have replaced it; refused if ``inst`` is not its kind of instance."""
    kind = "knapsack" if problem == "knapsack" else "graph"
    if (kind == "knapsack") != isinstance(inst, KnapsackInstance):
        raise OrdparetoError(f"instance file does not describe a {kind}")
    return {"sp": solve_shortest_path, "mixed": solve_mixed,
            "wtop": solve_weighted_counting, "knapsack": solve_knapsack}[problem]


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    res = _solver(args.problem, inst)(inst, args.all_efficient)
    sys.stdout.write(emit_result(res, args.format, args.problem))
    return 0


def _cmd_scalarize(args) -> int:
    try:
        weights = [read_weight(t) for t in args.weights.replace(",", " ").split()]
    except OrdparetoError as exc:
        raise OrdparetoError(f"not rational weights: {exc}") from None
    vectors = parse_vectors(_read_text(sys.stdin, "stdin"))
    value, argmins = _cli.weighted_sum_solve(_cli.PointSet(tuple(vectors)), weights)
    lines = [f"minimum {_format_vec((value,))}"]
    return _write_lines(lines + [_format_vec(p) for p in argmins.points])


def _cmd_wsd(args) -> int:
    vectors = parse_vectors(_read_text(sys.stdin, "stdin"))
    ps = _cli.pareto_filter(_cli.PointSet(tuple(vectors)))
    lines = []
    for cell in _cli.weight_space_decomposition(ps):
        lines.append(f"value {_format_vec(cell.value)}")
        lines += [f"  lambda-vertex {_format_vec(v)}" for v in cell.vertices]
        lines += [f"  mu-vertex {_format_vec(mu)}" for mu in cell.mu_vertices]
        lines += [f"  halfspace {_format_vec(d)} <= 0" for d in cell.normals]
    return _write_lines(lines)


def _cmd_oracle_check(args) -> int:
    from ordpareto.oracle import oracle_result  # only this subcommand needs the oracle

    inst = _load_instance(args.instance)
    # mixed on one ordinal objective without real weights is sp
    problem = "knapsack" if isinstance(inst, KnapsackInstance) else "mixed"
    solver_values = set(_solver(problem, inst)(inst).values())
    oracle_values = set(oracle_result(inst, problem, sampled=args.sampled).values())
    try:  # str() raises ValueError only past the digit limit
        solver, oracle = (", ".join(map(vector_text, sorted(values)))
                          for values in (solver_values, oracle_values))
    except ValueError:
        raise unprintable("a frontier value") from None
    if solver_values == oracle_values:
        print(f"MATCH [{solver}]")
        return 0
    print(f"MISMATCH solver=[{solver}] oracle=[{oracle}]")
    return 2


class _Parser(argparse.ArgumentParser):
    """argparse, but a bad command line raises OrdparetoError where argparse
    would exit 2, so it ends as any bad input does: exit 1, one short line."""

    def error(self, message: str):
        # A bad choice is cut by excerpt below; this keeps any other echoed
        # token, such as an unrecognized argument, to one short line.
        message = " ".join(message.split())
        raise OrdparetoError(message if len(message) <= 190 else f"{message[:190]}…")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {excerpt(value)} (choose from {choices})"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ordpareto",
        description="Ordinal combinatorial optimization via Pareto transformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "transform", help="tail-transform counting vectors from stdin"
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--inverse", action="store_true", help="tail vectors back to counts"
    )
    group.add_argument(
        "--head", action="store_true", help="prefix sums instead of suffix sums"
    )
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("filter", help="non-dominated subset of stdin vectors")
    p.add_argument(
        "--cone", choices=("pareto", "tail", "head"), default="pareto"
    )
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("solve", help="run an exact solver on an instance file")
    p.add_argument("problem", choices=PROBLEMS)
    p.add_argument("instance")
    p.add_argument("--all-efficient", action="store_true")
    p.add_argument("--format", choices=FORMATS, default=TEXT)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "scalarize", help="weighted-sum minimum over stdin tail vectors"
    )
    p.add_argument(
        "--weights", required=True, help="comma-separated positive rationals"
    )
    p.set_defaults(func=_cmd_scalarize)

    p = sub.add_parser(
        "wsd", help="weight space decomposition of stdin tail vectors"
    )
    p.set_defaults(func=_cmd_wsd)

    p = sub.add_parser(
        "oracle-check",
        help="compare a solver against brute-force enumeration",
    )
    p.add_argument("instance")
    p.add_argument(
        "--sampled",
        action="store_true",
        help="use the sampled ordinal-dominance oracle",
    )
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OrdparetoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the file name by excerpt, as it may be any length
        name = "" if exc.filename is None else f"{excerpt(exc.filename)}: "
        print(f"error: {name}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
