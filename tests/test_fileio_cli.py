import io
import json
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import ordpareto
from ordpareto import fileio
from ordpareto.cli import main
from ordpareto.fileio import (
    MAX_COMPONENTS,
    MAX_WEIGHT_DIGITS,
    ParseError,
    emit_result,
    parse_instance,
)
from ordpareto.core import CategorySpace, OrdparetoError
from ordpareto.solvers import (
    Edge,
    GraphInstance,
    Item,
    KnapsackInstance,
    SolveResult,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)

from conftest import INSTANCE_DIR, routes_k3
from helpers import emit_instance

ROUTES_K3 = (INSTANCE_DIR / "routes_k3.graph").read_text()
ROUTES_WEIGHTED = (INSTANCE_DIR / "routes_weighted.graph").read_text()
KNAPSACK_K2 = (INSTANCE_DIR / "knapsack_k2.txt").read_text()


class TestParsing:
    def test_routes_file(self):
        g = parse_instance(ROUTES_K3)
        assert isinstance(g, GraphInstance)
        assert g.nodes == 5
        assert len(g.edges) == 8
        assert g.spaces[0].K == 3
        assert [e.categories[0] for e in g.edges] == [2, 1, 2, 1, 3, 2, 1, 2]
        assert (g.source, g.target) == (1, 4)
        assert g == routes_k3()

    def test_weighted_file(self):
        g = parse_instance(ROUTES_WEIGHTED)
        assert g.num_real == 1
        assert [e.weights[0] for e in g.edges] == [1, 1, 8, 6, 2, 2]
        assert [e.categories[0] for e in g.edges] == [2, 2, 1, 2, 1, 1]

    def test_knapsack_file(self):
        k = parse_instance(KNAPSACK_K2)
        assert isinstance(k, KnapsackInstance)
        assert k.capacity == 5
        assert [(i.weight, i.category) for i in k.items] == [
            (2, 1),
            (3, 2),
            (4, 1),
        ]

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_instance("# only a comment\n")

    def test_error_carries_line_number(self):
        text = "GRAPH 2 1\nOBJECTIVES real=0 ordinal=2\nEDGE 1 1 2 7\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_instance(text + "SOURCE 1\nTARGET 2\n")

    def test_rational_weights(self):
        text = (
            "GRAPH 2 1\nOBJECTIVES real=1 ordinal=2\n"
            "EDGE 1 1 2 3/7 1\nSOURCE 1\nTARGET 2\n"
        )
        g = parse_instance(text)
        assert g.edges[0].weights == (Fraction(3, 7),)

    def test_instance_round_trip(self):
        for text in (ROUTES_K3, ROUTES_WEIGHTED, KNAPSACK_K2):
            emitted = emit_instance(parse_instance(text))
            assert emit_instance(parse_instance(emitted)) == emitted


class TestEmitResult:
    def test_text_format(self):
        res = solve_shortest_path(parse_instance(ROUTES_K3))
        text = emit_result(res, "text")
        lines = text.splitlines()
        assert "c=(1,0,1) ctilde=(2,1,1) o=(eta1,eta3) path=e4,e5" in lines
        assert lines == sorted(lines)

    def test_unreachable(self):
        g = parse_instance(
            "GRAPH 3 1\nOBJECTIVES real=0 ordinal=2\n"
            "EDGE 1 1 2 1\nSOURCE 1\nTARGET 3\n"
        )
        assert emit_result(solve_shortest_path(g), "text") == "UNREACHABLE\n"

    def test_json_round_trip(self):
        g = parse_instance(ROUTES_K3)
        res = solve_shortest_path(g)
        blob = emit_result(res, "json")
        assert json.loads(blob) == json.loads(
            emit_result(solve_shortest_path(g), "json")
        )
        data = json.loads(blob)
        assert data["status"] == "ok"
        assert [e["value"] for e in data["entries"]] == [
            [2, 1, 1],
            [2, 2, 0],
            [3, 1, 0],
        ]

    def test_plotdata(self):
        g = parse_instance(ROUTES_K3)
        out = emit_result(solve_shortest_path(g), "plotdata")
        assert out == "2 1 1\n2 2 0\n3 1 0\n"

    def test_determinism(self):
        g = parse_instance(ROUTES_K3)
        first = emit_result(solve_shortest_path(g), "text")
        second = emit_result(solve_shortest_path(g), "text")
        assert first == second

    def test_unknown_format_and_problem(self):
        res = solve_shortest_path(routes_k3())
        with pytest.raises(OrdparetoError, match="unknown format 'xml'"):
            emit_result(res, "xml")
        with pytest.raises(OrdparetoError, match="unknown problem 'tsp'"):
            emit_result(res, problem="tsp")


class TestCli:
    def run(self, capsys, argv, stdin_text=None, monkeypatch=None):
        if stdin_text is not None:
            import io
            import sys

            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_transform(self, capsys, monkeypatch):
        code, out, _ = self.run(
            capsys, ["transform"], "1 0 1\n", monkeypatch
        )
        assert code == 0
        assert out == "2 1 1\n"

    def test_transform_inverse(self, capsys, monkeypatch):
        code, out, _ = self.run(
            capsys, ["transform", "--inverse"], "2 1 1\n", monkeypatch
        )
        assert (code, out) == (0, "1 0 1\n")

    def test_filter(self, capsys, monkeypatch):
        code, out, _ = self.run(
            capsys,
            ["filter", "--cone", "tail"],
            "1 1 1\n1 0 1\n",
            monkeypatch,
        )
        assert code == 0
        assert out == "1 0 1\n"

    def test_solve_sp(self, capsys):
        code, out, _ = self.run(
            capsys, ["solve", "sp", str(INSTANCE_DIR / "routes_k3.graph")]
        )
        assert code == 0
        assert (
            "c=(1,0,1) ctilde=(2,1,1) o=(eta1,eta3) path=e4,e5"
            in out.splitlines()
        )

    def test_solve_all_efficient(self, capsys):
        code, out, _ = self.run(
            capsys,
            [
                "solve",
                "sp",
                str(INSTANCE_DIR / "routes_k3.graph"),
                "--all-efficient",
            ],
        )
        assert code == 0
        assert "path=e1,e3 path=e6,e8" in out

    def test_solve_knapsack(self, capsys):
        code, out, _ = self.run(
            capsys,
            ["solve", "knapsack", str(INSTANCE_DIR / "knapsack_k2.txt")],
        )
        assert code == 0
        assert out == "c=(1,1) chead=(1,2) o=(eta1,eta2) items=i1,i2\n"

    def test_solve_wtop_and_mixed(self, capsys):
        path = str(INSTANCE_DIR / "routes_weighted.graph")
        code, out, _ = self.run(capsys, ["solve", "wtop", path])
        assert code == 0
        assert "ctildew=(10,2)" in out and "path=e1,e2,e3" in out
        code, out, _ = self.run(capsys, ["solve", "mixed", path])
        assert code == 0
        assert "path=e4,e5,e6" in out

    def test_scalarize(self, capsys, monkeypatch):
        code, out, _ = self.run(
            capsys,
            ["scalarize", "--weights", "1/3,1/3,1/3"],
            "2 1 1\n2 2 0\n3 1 0\n",
            monkeypatch,
        )
        assert code == 0
        assert out.splitlines()[0] == "minimum 4/3"

    def test_wsd(self, capsys, monkeypatch):
        code, out, _ = self.run(
            capsys, ["wsd"], "2 1 1\n2 2 0\n3 1 0\n", monkeypatch
        )
        assert code == 0
        assert out.count("value ") == 3
        assert "lambda-vertex 1/3 1/3" in out
        assert "mu-vertex 1/6 1/3 1/2" in out

    def test_oracle_check(self, capsys):
        for name in ("routes_k3.graph", "routes_weighted.graph", "knapsack_k2.txt"):
            code, out, _ = self.run(
                capsys, ["oracle-check", str(INSTANCE_DIR / name)]
            )
            assert code == 0
            assert out.startswith("MATCH")

    def test_oracle_check_without_an_s_t_path_matches_empty(self, capsys, tmp_path):
        # No edge enters the target, so the solver and the oracle find nothing.
        cut = tmp_path / "cut.graph"
        cut.write_text(
            "GRAPH 3 1\nOBJECTIVES real=0 ordinal=2\nEDGE 1 1 2 1\nSOURCE 1\nTARGET 3\n"
        )
        for argv in ([], ["--sampled"]):
            code, out, _ = self.run(capsys, ["oracle-check", str(cut), *argv])
            assert (code, out) == (0, "MATCH []\n")

    def test_oracle_check_sampled(self, capsys):
        code, out, _ = self.run(
            capsys,
            [
                "oracle-check",
                str(INSTANCE_DIR / "routes_k3.graph"),
                "--sampled",
            ],
        )
        assert (code, out.startswith("MATCH")) == (0, True)

    @pytest.mark.parametrize("name", ["routes_k3.graph", "routes_weighted.graph"])
    def test_oracle_check_mismatch_exits_2(self, capsys, monkeypatch, name):
        def lossy(g):  # a solver that drops one frontier value
            res = solve_mixed(g)
            return SolveResult(res.entries[1:])

        monkeypatch.setattr("ordpareto.cli.solve_mixed", lossy)
        code, out, err = self.run(capsys, ["oracle-check", str(INSTANCE_DIR / name)])
        assert (code, err) == (2, "")
        (line,) = out.splitlines()
        assert line.startswith("MISMATCH solver=[") and " oracle=[" in line

    @pytest.mark.parametrize(
        "patch, message",
        [
            ("claims dominance", "certificate claims "),
            ("values everything at 0", "certificate check failed for "),
            ("denies weak dominance", "weak dominance of "),
        ],
    )
    def test_oracle_check_refuted_certificate_is_an_error(
        self, capsys, monkeypatch, patch, message
    ):
        from ordpareto import oracle

        certificate = oracle.dominance_certificate

        def claim(relation):  # a certificate with this relation for every pair
            return lambda u, v: certificate(u, v)._replace(relation=relation)

        if patch == "claims dominance":
            monkeypatch.setattr(oracle, "dominance_certificate", claim(oracle.DOMINATES))
        elif patch == "values everything at 0":
            monkeypatch.setattr(oracle, "numeric_value", lambda nu, c: 0)
        else:
            monkeypatch.setattr(oracle, "dominance_certificate", claim(oracle.NOT_DOMINATED))
            monkeypatch.setattr(oracle, "weakly_tail_dominates", lambda u, v: True)
        code, out, err = self.run(
            capsys,
            ["oracle-check", str(INSTANCE_DIR / "routes_k3.graph"), "--sampled"],
        )
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith("error: " + message)

    def test_packed_field_overflow_is_an_error(self, capsys, monkeypatch):
        from ordpareto import core, solvers

        # Fields of no value bits: the first nonzero step carries into a guard.
        monkeypatch.setattr(solvers, "fields", lambda b: core.fields([0] * len(b)))
        code, out, err = self.run(capsys, ["solve", "sp", str(INSTANCE_DIR / "routes_k3.graph")])
        assert (code, out, err) == (1, "", "error: a path value overflowed its packed field\n")

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("GRAPH nope\n")
        code, _, err = self.run(capsys, ["solve", "sp", str(bad)])
        assert code == 1
        assert "error:" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = self.run(capsys, ["solve", "sp", "/no/such/file"])
        assert code == 1

    def test_long_missing_path_is_one_short_line(self, capsys):
        path = ("/no/such/" + "/".join(["x" * 50] * 6))[:300]  # no part too long
        code, out, err = self.run(capsys, ["solve", "sp", path])
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith("error: ") and line.endswith("No such file or directory")
        assert len(line) <= 200

    def test_json_format(self, capsys):
        code, out, _ = self.run(
            capsys,
            [
                "solve",
                "sp",
                str(INSTANCE_DIR / "routes_k3.graph"),
                "--format",
                "json",
            ],
        )
        assert code == 0
        assert json.loads(out)["status"] == "ok"


GRAPH_HEAD = "GRAPH 3 2\nOBJECTIVES real=1 ordinal=2\n"
GOOD_EDGES = "EDGE 1 1 2 1 1\nEDGE 2 2 3 1 2\n"


class TestErrorContract:
    """Malformed input ends with exit 1 and one ``error: line N:`` line."""

    def solve(self, capsys, tmp_path, text, problem="sp"):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["solve", problem, str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["solve", "x" * 5000, "f"],
            ["filter", "--cone", "x" * 5000],
            ["solve", "sp", "f", "x" * 5000],
            ["solve", "sp", "f", "a\nb"],
            ["solve", "sp", "f", "--all-efficient=" + "x" * 5000],
            ["solve", "sp", "f", "--=" + "x" * 5000],
            ["transform", "--head", "--inverse"],
            ["scalarize"],
        ],
        ids=lambda argv: " ".join(argv)[:30],
    )
    def test_bad_command_line(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) <= 201  # 200 characters and the newline

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ordpareto")

    @pytest.mark.parametrize(
        "terminals, line, record",
        [("SOURCE\nTARGET 3\n", 5, "SOURCE"), ("SOURCE 1\nTARGET\n", 6, "TARGET")],
    )
    def test_terminal_without_operand(
        self, capsys, tmp_path, terminals, line, record
    ):
        text = GRAPH_HEAD + GOOD_EDGES + terminals
        err = self.solve(capsys, tmp_path, text, "mixed")
        assert err.startswith(f"error: line {line}: {record} needs <node>")

    def test_zero_categories(self, capsys, tmp_path):
        text = "GRAPH 2 1\nOBJECTIVES real=0 ordinal=0\nEDGE 1 1 2 1\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 2\n")
        assert err.startswith("error: line 2: need at least one category")

    @pytest.mark.parametrize("ordinal", ["2,,3", "2,3,", ",2"])
    def test_empty_ordinal_entry(self, capsys, tmp_path, ordinal):
        text = f"GRAPH 2 1\nOBJECTIVES real=0 ordinal={ordinal}\nEDGE 1 1 2 1 1\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 2\n", "mixed")
        assert err == "error: line 2: not an integer: ''\n"

    def test_edge_node_out_of_range(self, capsys, tmp_path):
        text = GRAPH_HEAD + "EDGE 1 1 2 1 1\nEDGE 2 2 9 1 2\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 3\n", "mixed")
        assert err.startswith("error: line 4: edge 2 touches node 9")

    def test_negative_edge_weight(self, capsys, tmp_path):
        text = GRAPH_HEAD + "EDGE 1 1 2 -1 1\nEDGE 2 2 3 1 2\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 3\n", "mixed")
        assert err.startswith("error: line 3: edge 1 has a negative weight")

    def test_duplicate_edge_id(self, capsys, tmp_path):
        text = GRAPH_HEAD + "EDGE 1 1 2 1 1\n# comment\nEDGE 1 2 3 1 2\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 3\n", "mixed")
        assert err.startswith("error: line 5: duplicate edge id 1")

    def test_edge_category_out_of_range(self, capsys, tmp_path):
        text = GRAPH_HEAD + "EDGE 1 1 2 1 1\n\nEDGE 2 2 3 1 3\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 3\n", "mixed")
        assert err == "error: line 5: edge 2: category 3 outside 1..2\n"

    def test_bad_terminal_is_reported_before_a_bad_edge(self, capsys, tmp_path):
        text = GRAPH_HEAD + "EDGE 1 1 9 1 1\nEDGE 2 2 3 1 2\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 7\n", "mixed")
        assert err == "error: line 6: terminal node 7 out of range\n"

    def test_terminal_out_of_range(self, capsys, tmp_path):
        text = GRAPH_HEAD + GOOD_EDGES + "SOURCE 1\nTARGET 7\n"
        err = self.solve(capsys, tmp_path, text, "mixed")
        assert err.startswith("error: line 6: terminal node 7 out of range")

    def test_duplicate_item_id(self, capsys, tmp_path):
        text = "KNAPSACK 3 10 2\nITEM 1 2 1\nITEM 2 3 2\nITEM 1 4 1\n"
        err = self.solve(capsys, tmp_path, text, "knapsack")
        assert err.startswith("error: line 4: duplicate item id 1")

    def test_item_category_out_of_range(self, capsys, tmp_path):
        text = "KNAPSACK 2 10 2\nITEM 1 2 1\n# comment\nITEM 2 3 0\n"
        err = self.solve(capsys, tmp_path, text, "knapsack")
        assert err == "error: line 4: item 2: category 0 outside 1..2\n"

    def test_item_weight_not_positive(self, capsys, tmp_path):
        text = "KNAPSACK 2 10 2\nITEM 1 2 1\nITEM 2 0 2\n"
        err = self.solve(capsys, tmp_path, text, "knapsack")
        assert err.startswith("error: line 3: item 2: consumption must be")

    def test_negative_capacity_stays_on_header(self, capsys, tmp_path):
        text = "KNAPSACK 1 -1 2\nITEM 1 2 1\n"
        err = self.solve(capsys, tmp_path, text, "knapsack")
        assert err.startswith("error: line 1: capacity must be nonnegative")

    # The last three have more digits than int() converts from str, which
    # raises the ValueError of a malformed token.
    @pytest.mark.parametrize(
        "weight",
        ["1e5000", "1e-1001", "1e99999999999", "1/" + "7" * 1001, "1" * 1001]
        + ["7" * 4301, "1/" + "7" * 4301, "1e" + "7" * 4301],
    )
    def test_weight_with_too_many_digits(self, capsys, tmp_path, weight):
        text = GRAPH_HEAD + f"EDGE 1 1 2 1 1\nEDGE 2 2 3 {weight} 2\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 3\n", "mixed")
        assert err == (
            f"error: line 4: weight has more than {MAX_WEIGHT_DIGITS} digits\n"
        )

    def test_integer_with_too_many_digits(self, capsys, tmp_path):
        text = GRAPH_HEAD + f"EDGE 1 1 2 1 {'0' * 4300}1\n"
        err = self.solve(capsys, tmp_path, text + "SOURCE 1\nTARGET 2\n", "mixed")
        digits = sys.get_int_max_str_digits()
        assert err == (
            f"error: line 3: integer has more than {digits} digits "
            "(Python's str-to-int limit)\n"
        )

    BIG = "9" * 4000  # an int token within str-to-int's digit limit
    CUT = "9" * 40 + "…"

    @pytest.mark.parametrize(
        "problem, text, expected",
        [
            (
                "mixed",
                f"GRAPH 3 {BIG}\nOBJECTIVES real=1 ordinal=2\n" + GOOD_EDGES
                + "SOURCE 1\nTARGET 3\n",
                f"line 1: header promises {CUT} edges, found 2",
            ),
            (
                "mixed",
                GRAPH_HEAD + GOOD_EDGES + f"SOURCE {BIG}\nTARGET 3\n",
                f"line 5: terminal node {CUT} out of range",
            ),
            (
                "mixed",
                f"GRAPH 3 2\nOBJECTIVES real=1 ordinal=-{BIG}\n",
                f"line 2: need at least one category, got K=-{CUT[1:]}",
            ),
            (
                "mixed",
                GRAPH_HEAD + f"EDGE {BIG} 1 2 1 1\nEDGE {BIG} 2 3 1 2\n"
                + "SOURCE 1\nTARGET 3\n",
                f"line 4: duplicate edge id {CUT}",
            ),
            (
                "mixed",
                GRAPH_HEAD + f"EDGE {BIG} 1 {BIG} 1 1\nEDGE 2 2 3 1 2\n"
                + "SOURCE 1\nTARGET 3\n",
                f"line 3: edge {CUT} touches node {CUT} outside 1..3",
            ),
            (
                "mixed",
                f"GRAPH {BIG} 2\nOBJECTIVES real=1 ordinal=2\n"
                + "EDGE 1 0 2 1 1\nEDGE 2 2 3 1 2\nSOURCE 1\nTARGET 3\n",
                f"line 3: edge 1 touches node 0 outside 1..{CUT}",
            ),
            (
                "mixed",
                GRAPH_HEAD + f"EDGE {BIG} 1 2 -1 1\nEDGE 2 2 3 1 2\n"
                + "SOURCE 1\nTARGET 3\n",
                f"line 3: edge {CUT} has a negative weight",
            ),
            (
                "mixed",
                GRAPH_HEAD + f"EDGE {BIG} 1 2 1 {BIG}\nEDGE 2 2 3 1 2\n"
                + "SOURCE 1\nTARGET 3\n",
                f"line 3: edge {CUT}: category {CUT} outside 1..2",
            ),
            (
                "knapsack",
                f"KNAPSACK 1 -{BIG} 2\nITEM 1 2 1\n",
                f"line 1: capacity must be nonnegative: -{CUT[1:]}",
            ),
            (
                "knapsack",
                f"KNAPSACK {BIG} 10 2\nITEM 1 2 1\n",
                f"line 1: header promises {CUT} items, found 1",
            ),
            (
                "knapsack",
                f"KNAPSACK 1 10 -{BIG}\nITEM 1 2 1\n",
                f"line 1: need at least one category, got K=-{CUT[1:]}",
            ),
            (
                "knapsack",
                f"KNAPSACK 2 10 2\nITEM {BIG} 2 1\nITEM {BIG} 3 2\n",
                f"line 3: duplicate item id {CUT}",
            ),
            (
                "knapsack",
                f"KNAPSACK 1 10 2\nITEM {BIG} 0 1\n",
                f"line 2: item {CUT}: consumption must be positive",
            ),
            (
                "knapsack",
                f"KNAPSACK 1 10 2\nITEM {BIG} 2 {BIG}\n",
                f"line 2: item {CUT}: category {CUT} outside 1..2",
            ),
        ],
        ids=[
            "edge-count", "source", "graph-k", "edge-id", "edge-node", "nodes",
            "edge-weight", "edge-category", "capacity", "item-count",
            "knapsack-k", "item-id", "item-consumption", "item-category",
        ],
    )
    def test_long_int_is_cut(self, capsys, tmp_path, problem, text, expected):
        err = self.solve(capsys, tmp_path, text, problem)
        assert err == f"error: {expected}\n"
        assert len(err) <= 201

    @pytest.mark.parametrize(
        "argv, line, expected",
        [
            (
                ["transform"],
                "1 " * 4999 + "-1",
                "counting vector has a negative entry at index 5000",
            ),
            (
                ["transform", "--head"],
                "-1 " * 5000,
                "counting vector has a negative entry at index 1",
            ),
            (
                ["transform", "--inverse"],
                " ".join(map(str, range(5000))),
                "tail vector not non-increasing at index 1",
            ),
            (
                ["transform", "--inverse"],
                "0 " * 4999 + "-1",
                "negative tail entry at index 5000",
            ),
        ],
        ids=["counts", "head-counts", "tails-order", "tails-sign"],
    )
    def test_long_vector_is_not_echoed(
        self, capsys, monkeypatch, argv, line, expected
    ):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {expected}\n")

    def test_weight_with_most_digits_is_solved(self, capsys, tmp_path):
        path = tmp_path / "long.graph"
        path.write_text(
            "GRAPH 2 1\nOBJECTIVES real=1 ordinal=2\n"
            f"EDGE 1 1 2 1e{MAX_WEIGHT_DIGITS - 1} 1\nSOURCE 1\nTARGET 2\n"
        )
        assert main(["solve", "wtop", str(path)]) == 0
        assert f"w=({10 ** (MAX_WEIGHT_DIGITS - 1)})" in capsys.readouterr().out

    def test_huge_k_is_refused_before_allocation(self):
        # Solving with K-component values exhausts memory here, so the parse
        # runs in a child process under an address-space cap.
        script = textwrap.dedent("""
            import contextlib, io, json, resource, tempfile
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
            from ordpareto.cli import main
            texts = [
                ("knapsack", "KNAPSACK 1 5 300000000\\nITEM 1 1 1\\n"),
                ("sp", "GRAPH 2 0\\nOBJECTIVES real=0 ordinal=300000000\\n"),
                ("mixed", "GRAPH 2 0\\nOBJECTIVES real=300000000 ordinal=2\\n"),
                ("mixed", "# K\\nGRAPH 2 0\\nOBJECTIVES real=1 ordinal=2,999\\n"),
            ]
            out = []
            for problem, text in texts:
                with tempfile.NamedTemporaryFile("w", suffix=".txt") as f:
                    f.write(text + "SOURCE 1\\nTARGET 2\\n")
                    f.flush()
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = main(["solve", problem, f.name])
                out.append((code, err.getvalue()))
            print(json.dumps(out))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(ordpareto.__file__).resolve().parents[1],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        limit = f"more than {MAX_COMPONENTS} value components\n"
        assert json.loads(proc.stdout) == [
            [1, "error: line 1: " + limit],
            [1, "error: line 2: " + limit],
            [1, "error: line 2: " + limit],
            [1, "error: line 3: " + limit],
        ]

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "binary.graph"
        path.write_bytes(b"\xff\xfeGRAPH 2 1\n")
        assert main(["solve", "sp", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8 text" in err

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"1 2\n\xff 3\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["filter"]) == 1
        assert capsys.readouterr() == ("", "error: stdin: not UTF-8 text (invalid start byte)\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["filter"],
            ["filter", "--cone", "tail"],
            ["scalarize", "--weights", "1/2,1/2"],
            ["wsd"],
        ],
    )
    def test_non_integer_stdin(self, capsys, monkeypatch, argv):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n\n3 x\n"))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: not an integer vector")

    def test_long_bad_stdin_line_is_cut(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n" + "x" * 3000 + "\n"))
        assert main(["filter"]) == 1
        assert capsys.readouterr() == (
            "",
            f"error: line 2: not an integer vector: {'x' * 40!r}…\n",
        )

    @pytest.mark.parametrize("argv", [["filter"], ["transform"], ["wsd"]])
    def test_stdin_integer_with_too_many_digits(self, capsys, monkeypatch, argv):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n3 %04301d\n" % 9))
        assert main(argv) == 1
        digits = sys.get_int_max_str_digits()
        assert capsys.readouterr() == (
            "",
            f"error: line 2: integer has more than {digits} digits "
            "(Python's str-to-int limit)\n",
        )

    @pytest.mark.parametrize("weights", ["1/0", "1/2,abc"])
    def test_bad_scalarize_weights(self, capsys, monkeypatch, weights):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n"))
        assert main(["scalarize", "--weights", weights]) == 1
        assert capsys.readouterr().err.startswith("error: not rational weights")

    # Each output below holds a value with more digits than str() converts;
    # each input token has at most 4300. The first line of a transform and
    # the first cells of a wsd are printable, and must not be written either.
    NINES = "9" * 4300
    WIDE = 10**2199 + 7
    P, Q, R = 7**1800, 11**1500, 13**1400  # weights 1/PQ + Y/QR + Z/RP = 1
    Z = -R * pow(Q, -1, P) % P
    Y = (P * Q * R - R - Z * Q) // P

    # The weights are read as instance weights are: "1e999999999" would
    # build 10**999999999, and the denominator of "1e-5000" has more digits
    # than an error message can print; the last weights have up to 3122.
    @pytest.mark.parametrize(
        "weights",
        ["1e999999999,1", "1e-5000,1", f"1/{P * Q},{Y}/{Q * R},{Z}/{R * P}"],
        ids=["huge-exponent", "tiny-exponent", "long-denominators"],
    )
    def test_scalarize_weight_digits(self, capsys, monkeypatch, weights):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n"))
        assert main(["scalarize", "--weights", weights]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: not rational weights: weight has more than "
            f"{MAX_WEIGHT_DIGITS} digits\n"
        )

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["transform"], f"1 2\n{NINES} {NINES}\n"),
            (["transform", "--head"], f"1 2\n{NINES} {NINES}\n"),
            (["wsd"], f"{WIDE} 1 2\n3 {WIDE} 1\n2 3 {WIDE}\n"),
            # minimum NINES - 2/3, whose numerator 3 * NINES - 2 has 4301 digits
            (["scalarize", "--weights", "1/3,2/3"], f"{NINES} {int(NINES) - 1}\n"),
        ],
        ids=["transform", "transform-head", "wsd", "scalarize"],
    )
    def test_unprintable_output_value(self, capsys, monkeypatch, argv, stdin):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: an output value has more than 4300 digits "
            "(Python's int-to-str limit)\n"
        )


class TestParserOrder:
    """An EDGE line reads its id, tail, head, weights and categories in that
    order, so its first bad token is the one named; an integer token is an
    optional ``-`` and ASCII digits."""

    def error(self, text):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        return str(exc.value)

    def test_bad_id_is_named_before_a_bad_category(self):
        text = GRAPH_HEAD + "EDGE x 1 2 1 y\nEDGE 2 2 3 1 2\nSOURCE 1\nTARGET 3\n"
        assert self.error(text) == "line 3: not an integer: 'x'"

    def test_bad_weight_is_named_before_a_bad_category(self):
        text = GRAPH_HEAD + "EDGE 1 1 2 w y\nEDGE 2 2 3 1 2\nSOURCE 1\nTARGET 3\n"
        assert self.error(text) == "line 3: not a rational number: 'w'"

    def test_a_repeated_bad_weight_is_named_at_its_first_line(self):
        edges = "EDGE 1 1 2 1 1\nEDGE 2 2 3 1/0 2\nEDGE 3 1 3 1/0 1\n"
        text = "GRAPH 3 3\nOBJECTIVES real=1 ordinal=2\n" + edges + "SOURCE 1\nTARGET 3\n"
        assert self.error(text) == "line 4: not a rational number: '1/0'"

    @pytest.mark.parametrize("field", ["id", "tail", "head", "categories"])
    @pytest.mark.parametrize(
        "token", ["+3", "0003", "3_0", "٣", "-0", "3.0", "0x3", "_3", "3__0"]
    )
    def test_integer_tokens_follow_the_number_grammar(self, field, token):
        fields = {"id": "1", "tail": "1", "head": "2", "categories": "1"}
        fields[field] = token
        edge = " ".join(fields.values())
        text = f"GRAPH 40 1\nOBJECTIVES real=0 ordinal=40\nEDGE {edge}\nSOURCE 1\nTARGET 2\n"
        if not re.fullmatch("-?[0-9]+", token):  # int() reads +3, 3_0 and ٣ as 3, 30 and 3
            assert self.error(text) == f"line 3: not an integer: {token!r}"
            return
        expected = int(token)
        if expected < 1 and field != "id":  # a node or category 0 is out of range
            assert "outside 1..40" in self.error(text)
            return
        (e,) = parse_instance(text).edges
        value = getattr(e, field)
        assert value == ((expected,) if field == "categories" else expected)


DIGIT_LIMIT = (
    f"integer has more than {sys.get_int_max_str_digits()} digits "
    "(Python's str-to-int limit)"
)


class TestNumberGrammar:
    """An integer token is an optional ``-`` and ASCII digits; a weight
    token is ``a/b`` or a decimal in ASCII, with no ``_`` and no leading
    ``+``. ``int`` and ``Fraction`` also read ``1_0``, ``+5`` and ``٢``: those
    are refused in every field of a file and on stdin, each at its line with
    the reader's message. Every other spelling reads as before, and comments
    are not read."""

    EDGES = "GRAPH 3 1\nOBJECTIVES real=1 ordinal=2\nEDGE 1 1 2 {} 1\nSOURCE 1\nTARGET 2\n"

    @pytest.mark.parametrize("token", ["+1", "+1/2", "1_0", "1/2_0", "1.5_0", "٢", "1/٢", "+.5"])
    def test_weight_outside_the_grammar_is_refused(self, token):
        with pytest.raises(ParseError) as info:
            parse_instance(self.EDGES.format(token))
        assert str(info.value) == f"line 3: not a rational number: {token!r}"

    @pytest.mark.parametrize("token", ["1/2", "-0", "2.5", ".5", "5.", "1e+2", "1E-2", "007/14"])
    def test_weight_in_the_grammar_reads_as_fraction_reads_it(self, token):
        (edge,) = parse_instance(self.EDGES.format(token)).edges
        assert edge.weights == (Fraction(token),)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("GRAPH +3 1\n", "line 1: not an integer: '+3'"),
            ("GRAPH 3 1_0\n", "line 1: not an integer: '1_0'"),
            ("GRAPH 3 0\nOBJECTIVES real=+0 ordinal=2\n", "line 2: not an integer: '+0'"),
            ("GRAPH 3 0\nOBJECTIVES real=0 ordinal=2,٢\n", "line 2: not an integer: '٢'"),
            ("GRAPH 3 0\nOBJECTIVES real=0 ordinal=2\nSOURCE +1\n", "line 3: not an integer: '+1'"),
            ("KNAPSACK 1 5 ٢\n", "line 1: not an integer: '٢'"),
            ("KNAPSACK 1 5 2\nITEM 1 1_0 1\n", "line 2: not an integer: '1_0'"),
            # The first bad token of a header line is named, whatever follows.
            ("GRAPH x +1\n", "line 1: not an integer: 'x'"),
            ("GRAPH 3 0\nOBJECTIVES real=0 ordinal=2,x,+3\n", "line 2: not an integer: 'x'"),
            pytest.param("KNAPSACK 1 %s 2\n" % ("9" * 5000), f"line 1: {DIGIT_LIMIT}",
                         id="5000-digit-capacity"),
        ],
    )
    def test_header_and_item_integers_follow_the_grammar(self, text, error):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == error

    def test_first_token_outside_the_grammar_in_line_order_is_named(self):
        text = ("GRAPH 3 2\nOBJECTIVES real=1 ordinal=2\nEDGE 1 1 2 1 +1\n"
                "EDGE 1_0 2 3 1 1\nSOURCE 1\nTARGET 3\n")
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == "line 3: not an integer: '+1'"

    def test_comments_are_not_read(self):
        text = self.EDGES.format("1/2").replace("\nSOURCE", "  # +1 1_0 ٢\nSOURCE")
        assert parse_instance(text) == parse_instance(self.EDGES.format("1/2"))

    def test_file_refusal_through_main(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        path.write_text("GRAPH 2 1\nOBJECTIVES real=0 ordinal=2\nSOURCE 1\nTARGET 2\nEDGE 1_0 1 2 ٢\n",
                        encoding="utf-8")
        assert main(["solve", "sp", str(path)]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: line 5: not an integer: '1_0'\n")

    @pytest.mark.parametrize("bad", ["1_0", "+5", "٢"])
    @pytest.mark.parametrize("command", [["transform"], ["filter"], ["wsd"]])
    def test_stdin_refusal(self, command, bad, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1 2\n3 {bad}  # +1\n"))
        assert main(command) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: line 2: not an integer vector: '3 {bad}'\n")

    def test_stdin_comments_are_not_read(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("-0 2  # +1 1_0 ٢\n007,1\n"))
        assert main(["transform"]) == 0
        assert capsys.readouterr().out == "2 2\n8 1\n"

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.one_of(st.from_regex(r"[-+]?[0-9_٢]{0,6}", fullmatch=True), st.text(max_size=6)))
    def test_stdin_and_header_readers_take_the_same_tokens(self, token):
        # One token alone on its line: the stdin reader and a header field agree.
        assume(token.split() == [token] and "," not in token and "#" not in token)
        try:
            accepted = fileio._ints([token], 1)
        except ParseError:
            with pytest.raises(ParseError):
                fileio.parse_vectors(token + "\n")
        else:
            assert fileio.parse_vectors(token + "\n") == [accepted] == [(int(token),)]

    def test_scalarize_weights_are_not_instance_tokens(self, capsys, monkeypatch):
        # The grammar is the text format's; --weights reads as Fraction reads.
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
        assert main(["scalarize", "--weights", "+1/2,1/2"]) == 0
        assert capsys.readouterr().out == "minimum 3/2\n1 2\n"


class TestColumnReader:
    """EDGE and ITEM fields convert column by column, and only a failed
    column reads the records one by one. One or two tokens broken at random
    positions of a 100-160-record file, with comment and blank lines between
    records, are named as a line-by-line reader names them: the first in line
    order, then id, tail, head, weights, categories. An unbroken file gives
    the instance built from its records, and none of its EDGE or ITEM lines
    goes through ``_ints``."""

    INT_FAULTS = {
        "x7": "not an integer: 'x7'",
        "9" * 5000: DIGIT_LIMIT,
        "+7": "not an integer: '+7'",
        "7_0": "not an integer: '7_0'",
        "٧": "not an integer: '٧'",
    }
    WEIGHT_FAULTS = {
        "w": "not a rational number: 'w'",
        "1/0": "not a rational number: '1/0'",
        "+1/2": "not a rational number: '+1/2'",
        "1_0": "not a rational number: '1_0'",
        "٢/3": "not a rational number: '٢/3'",
        "7" * 1001: f"weight has more than {MAX_WEIGHT_DIGITS} digits",
    }

    def file(self, rng, seed):
        """The head, record key, records, tail and field kinds of a random
        file, and a function that builds its instance from records: a graph
        with weights and categories, a graph of any shape, or a knapsack."""
        return self.knapsack(rng) if seed % 3 == 2 else self.graph(rng, 1 - seed % 3)

    def graph(self, rng, least):
        nodes, num_real = rng.randint(10, 40), rng.randint(least, 2)
        ks = [rng.randint(1, 5) for _ in range(rng.randint(least, 3))]
        records = [
            [str(eid), str(rng.randint(1, nodes)), str(rng.randint(1, nodes)),
             *(str(Fraction(rng.randint(0, 60), rng.randint(1, 7))) for _ in range(num_real)),
             *(str(rng.randint(1, k)) for k in ks)]
            for eid in rng.sample(range(1, 1000), rng.randint(100, 160))
        ]
        head = [f"GRAPH {nodes} {len(records)}",
                f"OBJECTIVES real={num_real} ordinal={','.join(map(str, ks))}"]
        kinds = ["int"] * 3 + ["weight"] * num_real + ["int"] * len(ks)

        def build(records):
            edges = [Edge(int(f[0]), int(f[1]), int(f[2]), tuple(map(Fraction, f[3 : 3 + num_real])),
                          tuple(map(int, f[3 + num_real :]))) for f in records]
            return GraphInstance(nodes, edges, tuple(map(CategorySpace, ks)), 1, nodes, num_real)

        return head, "EDGE", records, ["SOURCE 1", f"TARGET {nodes}"], kinds, build

    def knapsack(self, rng):
        K, capacity = rng.randint(1, 5), rng.randint(0, 50)
        records = [[str(iid), str(rng.randint(1, 9)), str(rng.randint(1, K))]
                   for iid in rng.sample(range(1, 1000), rng.randint(100, 160))]

        def build(records):
            items = [Item(*map(int, f)) for f in records]
            return KnapsackInstance(items, capacity, CategorySpace(K))

        return [f"KNAPSACK {len(records)} {capacity} {K}"], "ITEM", records, [], ["int"] * 3, build

    def text(self, rng, head, key, records, tail):
        """The file, with comment and blank lines between its records, and
        the line number of each record."""
        lines, numbers = list(head), []
        for fields in records:
            while rng.random() < 0.1:
                lines.append(rng.choice(["", "   ", "# a comment", "\t# EDGE x", "# +1 1_0 ٢"]))
            lines.append(" ".join([key, *fields]))
            numbers.append(len(lines))
        return "\n".join(lines + tail) + "\n", numbers

    @pytest.mark.parametrize("seed", range(90))
    def test_first_broken_token_is_named(self, seed):
        rng = random.Random(f"broken/{seed}")
        head, key, records, tail, kinds, _ = self.file(rng, seed)
        r, f, g = rng.randrange(len(records)), rng.randrange(len(kinds)), rng.randrange(len(kinds))
        other = rng.randrange(len(records)), g
        broken = sorted({(r, f), rng.choice([(r, f), (r, g), (r, g), other])})
        for r, f in broken:
            records[r][f] = rng.choice(list(
                self.WEIGHT_FAULTS if kinds[f] == "weight" else self.INT_FAULTS
            ))
        text, numbers = self.text(rng, head, key, records, tail)
        (r, f) = broken[0]
        reason = {**self.INT_FAULTS, **self.WEIGHT_FAULTS}[records[r][f]]
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == f"line {numbers[r]}: {reason}"

    @pytest.mark.parametrize("seed", range(20))
    def test_unbroken_file_gives_the_instance_of_its_records(self, seed, monkeypatch):
        rng = random.Random(f"unbroken/{seed}")
        head, key, records, tail, _, build = self.file(rng, seed)
        text, numbers = self.text(rng, head, key, records, tail)
        read_lines = []
        ints = fileio._ints
        monkeypatch.setattr(
            fileio, "_ints", lambda tokens, no: read_lines.append(no) or ints(tokens, no)
        )
        assert parse_instance(text) == build(records)
        assert read_lines and not set(read_lines) & set(numbers)

    def test_zero_records(self):
        text = "GRAPH 2 0\nOBJECTIVES real=1 ordinal=3\nSOURCE 1\nTARGET 2\n"
        assert parse_instance(text).edges == ()
        assert parse_instance("KNAPSACK 0 5 2\n").items == ()

    def test_no_real_weights(self):
        text = "GRAPH 3 2\nOBJECTIVES real=0 ordinal=2,3\nEDGE 4 1 2 2 3\nEDGE 7 2 3 1 1\n"
        g = parse_instance(text + "SOURCE 1\nTARGET 3\n")
        assert g.edges == (Edge(4, 1, 2, (), (2, 3)), Edge(7, 2, 3, (), (1, 1)))

    @pytest.mark.parametrize("real, weights", [(0, ()), (2, (Fraction(1, 2), 3))])
    def test_empty_ordinal(self, real, weights):
        fields = " ".join(map(str, weights))
        text = f"GRAPH 2 2\nOBJECTIVES real={real} ordinal=\nEDGE 1 1 2 {fields}\nEDGE 2 2 1 {fields}\n"
        g = parse_instance(text + "SOURCE 1\nTARGET 2\n")
        assert g.edges == (Edge(1, 1, 2, weights, ()), Edge(2, 2, 1, weights, ()))

    @pytest.mark.parametrize(
        "text, error",
        [
            (GRAPH_HEAD + "EDGE 1 1 x 1 1\nEDGE 2 2 3 1 2\nBOGUS\nSOURCE 1\nTARGET 3\n",
             "line 3: not an integer: 'x'"),
            (GRAPH_HEAD + "EDGE 1 1 2 1 1\nEDGE 2 2 3 w 2\nOBJECTIVES real=0 ordinal=2\n",
             "line 4: not a rational number: 'w'"),
            (GRAPH_HEAD + "EDGE 1 1 2 1 1\nEDGE 2 2 3 1 2 3\nEDGE x 1 1 1 1\n",
             "line 4: EDGE needs id, tail, head, 1 weights and 1 categories (5 fields)"),
            (GRAPH_HEAD + "EDGE 1 1 2 1 1\nBOGUS\nEDGE 2 2 3 w 2\n",
             "line 4: unknown record 'BOGUS'"),
            (GRAPH_HEAD + "EDGE 1 1 2 1 x\n", "line 3: not an integer: 'x'"),
            ("KNAPSACK 2 5 2\nITEM 1 1 x\nITEM 2 2 1\nBOGUS\n", "line 2: not an integer: 'x'"),
            ("KNAPSACK 2 5 2\nITEM 1 1 1\nITEM 2 2\nITEM x 1 1\n",
             "line 3: ITEM needs <id> <consumption> <category>"),
        ],
    )
    def test_loop_error_loses_only_to_an_earlier_bad_token(self, text, error):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == error

    def test_instance_error_line_counts_comments_and_blank_lines(self):
        text = (
            "GRAPH 3 3\nOBJECTIVES real=0 ordinal=2\nEDGE 1 1 2 1\n# EDGE 5 1 9 1\n\n"
            "EDGE 2 2 3 1\n   # note\nEDGE 3 2 9 1\nSOURCE 1\nTARGET 3\n"
        )
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == "line 8: edge 3 touches node 9 outside 1..3"


class TestLineEnds:
    """A line ends only at a newline, as ``open()`` reads one: \\n, \\r\\n
    or \\r. Other characters that ``str.splitlines`` breaks at stay on
    their line, and ``str.split`` still separates tokens at them."""

    SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    ONE_EDGE = "GRAPH 2 1\nOBJECTIVES real=0 ordinal=2\nEDGE 1 1 2 1\n"

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_a_comment_runs_to_the_newline(self, sep):
        text = self.ONE_EDGE + f"# old edge:{sep}EDGE 9 1 2 1\nSOURCE 1\nTARGET 2\n"
        assert [e.id for e in parse_instance(text).edges] == [1]

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_error_lines_count_newlines_only(self, sep):
        text = self.ONE_EDGE.replace("2 1\n", f"2 1{sep}\n", 1) + "SOURCE 1\nTARGET 2\nBOGUS\n"
        with pytest.raises(ParseError, match="^line 6: unknown record 'BOGUS'$"):
            parse_instance(text)

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_a_separator_inside_a_record_separates_tokens(self, sep):
        text = self.ONE_EDGE.replace("EDGE 1 1 2 1", f"EDGE{sep}1 1{sep}2 1") + "SOURCE 1\nTARGET 2\n"
        assert parse_instance(text).edges == (Edge(1, 1, 2, (), (1,)),)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_each_newline_ends_a_line(self, capsys, monkeypatch, newline):
        text = self.ONE_EDGE + "SOURCE 1\nTARGET 2\n\nBOGUS\n"
        with pytest.raises(ParseError, match="^line 7: unknown record 'BOGUS'$"):
            parse_instance(text.replace("\n", newline))
        # Stdin vectors end at the same newlines, and so count error lines.
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n2 1\n".replace("\n", newline)))
        assert main(["filter"]) == 0
        assert capsys.readouterr() == ("1 2\n2 1\n", "")
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n\nx\n".replace("\n", newline)))
        assert main(["filter"]) == 1
        assert capsys.readouterr() == ("", "error: line 3: not an integer vector: 'x'\n")

    @pytest.mark.parametrize(
        "stdin, error",
        [
            ("1 2\n1 2 3\n,,\n3 x\n", "line 3: not an integer vector: ',,'"),
            ("1 2\n, ,\n3 4\n", "line 2: not an integer vector: ', ,'"),
            ("1 2\n1 2 3\n3 x\n,,\n", "line 3: not an integer vector: '3 x'"),
            ("1 2\n\n1 2 3\nx %04301d\n3 x\n" % 9, f"line 4: {DIGIT_LIMIT}"),
            ("# none\n\n  \n", "no vectors on stdin"),
            ("1 2\n\f\n3,4\n5 6 7\n", "vectors have differing lengths"),
        ],
    )
    def test_stdin_errors_keep_their_order(self, capsys, monkeypatch, stdin, error):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(["filter"]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_stdin_vectors_by_column(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3 1 # a\n\n1,3\n 2\f2 \n"))
        assert main(["transform"]) == 0
        assert capsys.readouterr().out == "4 1\n4 3\n4 2\n"


class TestValueDigitLimit:
    """A frontier value with more digits than Python converts to a string
    ends in an error line, not a traceback. Each denominator below has 999
    digits and passes the parser's bound; their product does not print."""

    DENOMINATORS = (7**1182, 11**959, 13**896, 17**811, 19**781)

    def chain(self, tmp_path, n):
        lines = [f"GRAPH {n + 1} {n}", "OBJECTIVES real=1 ordinal=2"]
        for i, d in enumerate(self.DENOMINATORS[:n], start=1):
            lines.append(f"EDGE {i} {i} {i + 1} 1/{d} 1")
        path = tmp_path / "chain.graph"
        path.write_text("\n".join(lines + ["SOURCE 1", f"TARGET {n + 1}", ""]))
        return str(path)

    @pytest.mark.parametrize("fmt", ["text", "json", "plotdata"])
    @pytest.mark.parametrize("problem", ["mixed", "wtop"])
    def test_five_edges_are_refused(self, capsys, tmp_path, problem, fmt):
        argv = ["solve", problem, self.chain(tmp_path, 5), "--format", fmt]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: a frontier value has more than 4300 digits "
            "(Python's int-to-str limit)\n"
        )

    def test_oracle_check_is_refused(self, capsys, tmp_path):
        assert main(["oracle-check", self.chain(tmp_path, 5)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: a frontier value has more than 4300 digits "
            "(Python's int-to-str limit)\n"
        )

    def test_the_solver_returns_the_exact_value(self, tmp_path):
        with open(self.chain(tmp_path, 5), encoding="utf-8") as fh:
            res = solve_mixed(parse_instance(fh.read()))
        w = sum(Fraction(1, d) for d in self.DENOMINATORS)
        assert res.values() == ((w, 5, 0),)
        assert type(res.values()[0][0]) is Fraction

    def test_no_limit_prints_every_digit(self, capsys, tmp_path):
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert main(["solve", "mixed", self.chain(tmp_path, 5)]) == 0
            w = str(sum(Fraction(1, d) for d in self.DENOMINATORS))
        finally:
            sys.set_int_max_str_digits(digits)
        assert len(w) > digits
        assert capsys.readouterr().out == (
            f"w=({w}) c=(5,0) ctilde=({w},5,0) o=({','.join(['eta1'] * 5)}) "
            "path=e1,e2,e3,e4,e5\n"
        )

    @pytest.mark.parametrize(
        "problem, value", [("mixed", "ctilde=({w},4,0)"), ("wtop", "ctildew=({w},0)")]
    )
    def test_four_edges_are_printed(self, capsys, tmp_path, problem, value):
        w = sum(Fraction(1, d) for d in self.DENOMINATORS[:4])
        assert main(["solve", problem, self.chain(tmp_path, 4)]) == 0
        assert capsys.readouterr().out == (
            f"w=({w}) c=(4,0) {value.format(w=w)} o=(eta1,eta1,eta1,eta1) "
            "path=e1,e2,e3,e4\n"
        )

    @pytest.mark.parametrize(
        "weight",
        [
            Fraction(10**4300 - 1),
            Fraction(1, 10**4300 - 1),
            Fraction(10**4300),
            Fraction(1, 10**4300),
        ],
    )
    def test_the_bound_is_pythons_own(self, weight):
        edges = (Edge(1, 1, 2, (weight,), (1,)),)
        g = GraphInstance(2, edges, (CategorySpace(2),), 1, 2, 1)
        if max(weight.numerator, weight.denominator) < 10**4300:
            assert str(weight) in emit_result(solve_mixed(g))
        else:
            with pytest.raises(ValueError):
                str(weight)
            with pytest.raises(OrdparetoError, match="more than 4300 digits"):
                emit_result(solve_mixed(g))


class TestWtopValueTypes:
    # One edge of category 1 with K=2: the second tail component gets no
    # weight from the search.
    TEXT = (
        "GRAPH 2 1\nOBJECTIVES real=1 ordinal=2\n"
        "EDGE 1 1 2 2 1\nSOURCE 1\nTARGET 2\n"
    )

    def test_every_component_is_a_fraction(self, capsys, tmp_path):
        path = tmp_path / "one.graph"
        path.write_text(self.TEXT)
        res = solve_weighted_counting(parse_instance(self.TEXT))
        assert res.values() == ((Fraction(2), Fraction(0)),)
        assert all(type(v) is Fraction for v in res.entries[0].value)
        assert main(["solve", "wtop", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"][0]["value"] == ["2", "0"]
        assert main(["solve", "wtop", str(path)]) == 0
        assert "ctildew=(2,0)" in capsys.readouterr().out
