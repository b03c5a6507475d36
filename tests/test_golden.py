"""Golden CLI output on the sample instances, malformed files and stdin vectors.

Every file in ``instances/`` is run through ``solve`` with each problem,
output format and mode, and through ``oracle-check`` with and without
``--sampled``. Every file in ``golden/malformed/`` (one per validation rule
of the parser and the instances, and two with several faults) is run
through ``solve knapsack`` (``.txt``) or ``solve mixed`` (``.graph``).
The subcommands that read vectors (``filter``, ``transform``, ``scalarize``
and ``wsd``) run on the files in ``golden/stdin/``; such a case ends in
``< FILE``, which the runner feeds to stdin as a shell would. Stdout,
stderr and the exit code must match ``golden/instances.json`` byte for
byte. Refactors must not change them.
After an intended output change, rewrite the expected file with
``PYTHONPATH=src python tests/test_golden.py`` and review its diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ordpareto import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "instances.json"
MALFORMED = Path(__file__).resolve().parent / "golden" / "malformed"


def _cases() -> list[list[str]]:
    cases = []
    for path in sorted((ROOT / "instances").iterdir()):
        instance = f"instances/{path.name}"
        for problem in ("sp", "mixed", "wtop", "knapsack"):
            for fmt in ("text", "json", "plotdata"):
                for mode in ([], ["--all-efficient"]):
                    cases.append(
                        ["solve", problem, instance, "--format", fmt] + mode
                    )
        cases.append(["oracle-check", instance])
        cases.append(["oracle-check", instance, "--sampled"])
    for path in sorted(MALFORMED.iterdir()):
        problem = "knapsack" if path.suffix == ".txt" else "mixed"
        cases.append(["solve", problem, f"tests/golden/malformed/{path.name}"])
    for points in ("points_k3.txt", "points_k4.txt"):
        for cone in ("pareto", "tail", "head"):
            for sense in ("min", "max"):
                cases.append(_stdin(points, "filter", "--cone", cone, "--sense", sense))
    cases.append(_stdin("counts_k4.txt", "transform"))
    cases.append(_stdin("counts_k4.txt", "transform", "--head"))
    cases.append(_stdin("tails_k4.txt", "transform", "--inverse"))
    for weights in ("1/2,1/3,1/6", "1/3,1/3,1/3", "1/3,1/3"):
        cases.append(_stdin("points_k3.txt", "scalarize", "--weights", weights))
    cases.append(_stdin("points_k4.txt", "scalarize", "--weights", "1/10,2/10,3/10,4/10"))
    cases.append(_stdin("wsd_k2.txt", "wsd"))
    cases.append(_stdin("wsd_k3.txt", "wsd"))
    for argv in (["filter"], ["filter", "--cone", "tail"], ["wsd"]):
        cases.append(_stdin("empty_vector.txt", *argv))
    cases.append(_stdin("long_integer.txt", "filter"))
    return cases


def _stdin(name: str, *argv: str) -> list[str]:
    return [*argv, "<", f"tests/golden/stdin/{name}"]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if "<" in argv:
        argv, stdin = argv[: argv.index("<")], argv[-1]
        sys.stdin = io.StringIO(Path(stdin).read_text())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = _cases()


def test_golden_file_covers_every_case():
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert _run(argv) == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {" ".join(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
