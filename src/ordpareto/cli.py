"""Command line interface.

Subcommands: transform, filter, solve {sp,knapsack,mixed,wtop}, scalarize,
wsd, oracle-check. Vectors read from stdin are one per line, entries
separated by whitespace or commas. Exit codes: 0 success, 1 usage or parse
error, 2 oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys

from ordpareto.core import (
    A_HEAD,
    A_TAIL,
    ConeMatrix,
    OrdparetoError,
    check_printable,
    excerpt,
    head_transform,
    inverse_transform,
    tail_transform,
    too_many_digits,
)
from ordpareto.fileio import (
    FORMATS,
    TEXT,
    emit_result,
    parse_instance,
    read_weight,
)
from ordpareto.nondominance import PointSet, cone_filter, pareto_filter
from ordpareto.oracle import (
    ORDINAL_SAMPLED,
    enumerate_paths,
    enumerate_subsets,
    oracle_efficient_set,
)
from ordpareto.scalarization import (
    weight_space_decomposition,
    weighted_sum_solve,
)
from ordpareto.solvers import (
    GraphInstance,
    KnapsackInstance,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)


def _read_int_vectors(stream) -> list[tuple[int, ...]]:
    vectors = []
    for no, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        try:
            vector = tuple(map(int, tokens))
        except ValueError:
            reason = next(filter(None, map(too_many_digits, tokens)), "")
            if reason:
                raise OrdparetoError(f"line {no}: {reason}") from None
            vector = ()
        if not vector:
            raise OrdparetoError(f"line {no}: not an integer vector: {excerpt(line)}")
        vectors.append(vector)
    if not vectors:
        raise OrdparetoError("no vectors on stdin")
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise OrdparetoError("vectors have differing lengths")
    return vectors


def _format_vec(v) -> str:
    check_printable(v, "an output value")
    return " ".join(str(x) for x in v)


def _write_lines(lines: list[str]) -> int:
    """Write a subcommand's whole output and return its exit code, 0. The
    lines are formatted first, so a value refused there leaves stdout empty."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def _cmd_transform(args) -> int:
    vectors = _read_int_vectors(sys.stdin)
    transform = inverse_transform if args.inverse else (
        head_transform if args.head else tail_transform
    )
    return _write_lines([_format_vec(transform(v)) for v in vectors])


def _cmd_filter(args) -> int:
    vectors = _read_int_vectors(sys.stdin)
    ps = PointSet(tuple(vectors))
    if args.cone == "pareto":
        kept = pareto_filter(ps, args.sense)
    else:
        kind = A_TAIL if args.cone == "tail" else A_HEAD
        kept = cone_filter(ps, ConeMatrix(len(vectors[0]), kind), args.sense)
    return _write_lines([_format_vec(p) for p in kept.points])


def _load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise OrdparetoError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_instance(text)


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    if args.problem == "knapsack":
        if not isinstance(inst, KnapsackInstance):
            raise OrdparetoError("instance file does not describe a knapsack")
        res = solve_knapsack(inst, args.all_efficient)
        out = emit_result(
            res,
            args.format,
            (inst.space,),
            element_prefix="i",
            value_key="chead",
            solution_key="items",
        )
        sys.stdout.write(out)
        return 0
    if not isinstance(inst, GraphInstance):
        raise OrdparetoError("instance file does not describe a graph")
    if args.problem == "sp":
        res = solve_shortest_path(inst, args.all_efficient)
    elif args.problem == "mixed":
        res = solve_mixed(inst, args.all_efficient)
    else:  # wtop
        res = solve_weighted_counting(inst, args.all_efficient)
        sys.stdout.write(
            emit_result(res, args.format, inst.spaces, value_key="ctildew")
        )
        return 0
    sys.stdout.write(emit_result(res, args.format, inst.spaces))
    return 0


def _cmd_scalarize(args) -> int:
    try:
        weights = [read_weight(t) for t in args.weights.replace(",", " ").split()]
    except OrdparetoError as exc:
        raise OrdparetoError(f"not rational weights: {exc}") from None
    vectors = _read_int_vectors(sys.stdin)
    value, argmins = weighted_sum_solve(PointSet(tuple(vectors)), weights)
    lines = [f"minimum {_format_vec((value,))}"]
    return _write_lines(lines + [_format_vec(p) for p in argmins.points])


def _cmd_wsd(args) -> int:
    vectors = _read_int_vectors(sys.stdin)
    ps = pareto_filter(PointSet(tuple(vectors)))
    lines = []
    for cell in weight_space_decomposition(ps):
        lines.append(f"value {_format_vec(cell.value)}")
        lines += [f"  lambda-vertex {_format_vec(v)}" for v in cell.vertices]
        lines += [f"  mu-vertex {_format_vec(mu)}" for mu in cell.mu_vertices]
        lines += [
            f"  halfspace {_format_vec(h.coeffs)} <= {_format_vec((h.rhs,))}"
            for h in cell.halfspaces
        ]
    return _write_lines(lines)


def _cmd_oracle_check(args) -> int:
    inst = _load_instance(args.instance)
    if isinstance(inst, KnapsackInstance):
        res = solve_knapsack(inst)
        solver_values = set(res.values())
        feasible = enumerate_subsets(inst)
        oracle = oracle_efficient_set(feasible, "head")
        oracle_values = {head_transform(s.counting) for s in oracle}
    else:
        if len(inst.spaces) != 1 or inst.num_real != 0:
            raise OrdparetoError(
                "oracle-check supports single-ordinal-objective graphs"
            )
        res = solve_shortest_path(inst)
        solver_values = set(res.values())
        feasible = enumerate_paths(inst)
        if feasible.solutions:
            concept = ORDINAL_SAMPLED if args.sampled else "tail"
            oracle = oracle_efficient_set(feasible, concept)
            oracle_values = {tail_transform(s.counting) for s in oracle}
        else:
            oracle_values = set()
    if solver_values == oracle_values:
        print(f"MATCH {sorted(solver_values)}")
        return 0
    print(f"MISMATCH solver={sorted(solver_values)} oracle={sorted(oracle_values)}")
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("problem", choices=("sp", "knapsack", "mixed", "wtop"))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OrdparetoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
