import json
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import ordpareto
from ordpareto.cli import main
from ordpareto.fileio import (
    MAX_COMPONENTS,
    MAX_WEIGHT_DIGITS,
    ParseError,
    emit_instance,
    emit_result,
    parse_instance,
)
from ordpareto.core import CategorySpace, OrdparetoError
from ordpareto.solvers import (
    Edge,
    GraphInstance,
    KnapsackInstance,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)

from conftest import INSTANCE_DIR, routes_k3

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
        text = emit_result(res, "text", parse_instance(ROUTES_K3).spaces)
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
        blob = emit_result(res, "json", g.spaces)
        assert json.loads(blob) == json.loads(
            emit_result(solve_shortest_path(g), "json", g.spaces)
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
        out = emit_result(solve_shortest_path(g), "plotdata", g.spaces)
        assert out == "2 1 1\n2 2 0\n3 1 0\n"

    def test_determinism(self):
        g = parse_instance(ROUTES_K3)
        first = emit_result(solve_shortest_path(g), "text", g.spaces)
        second = emit_result(solve_shortest_path(g), "text", g.spaces)
        assert first == second


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
        for name in ("routes_k3.graph", "knapsack_k2.txt"):
            code, out, _ = self.run(
                capsys, ["oracle-check", str(INSTANCE_DIR / name)]
            )
            assert code == 0
            assert out.startswith("MATCH")

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

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("GRAPH nope\n")
        code, _, err = self.run(capsys, ["solve", "sp", str(bad)])
        assert code == 1
        assert "error:" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = self.run(capsys, ["solve", "sp", "/no/such/file"])
        assert code == 1

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

    def test_weight_with_most_digits_is_solved(self, capsys, tmp_path):
        path = tmp_path / "long.graph"
        path.write_text(
            "GRAPH 2 1\nOBJECTIVES real=1 ordinal=2\n"
            f"EDGE 1 1 2 1e{MAX_WEIGHT_DIGITS - 1} 1\nSOURCE 1\nTARGET 2\n"
        )
        assert main(["solve", "wtop", str(path)]) == 0
        assert f"w=({10 ** (MAX_WEIGHT_DIGITS - 1)})" in capsys.readouterr().out

    def test_huge_k_is_refused_before_allocation(self):
        # Building K category labels exhausts memory here, so the parse runs
        # in a child process under an address-space cap.
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

    @pytest.mark.parametrize("problem", ["mixed", "wtop"])
    def test_five_edges_are_refused(self, capsys, tmp_path, problem):
        assert main(["solve", problem, self.chain(tmp_path, 5)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: a frontier value has more than 4300 digits "
            "(Python's int-to-str limit)\n"
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
                solve_mixed(g)


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
