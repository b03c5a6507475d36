"""A tiny exact linear program solver over integers.

Solves  max c.x  s.t.  A x <= b,  x >= 0  with a two-phase tableau simplex
using Bland's rule. The tableau is fraction-free (Edmonds 1967, Bareiss
1968): each row is scaled to integers, every entry is a Python int over one
common denominator ``d`` (the basis determinant), and a pivot on ``p``
computes ``(p * v - f * w) // d``, which divides exactly. Only the result
is converted to ``fractions.Fraction``, so it is exact; intended for the
desk-scale feasibility questions in this package (supportedness tests,
weight-cell interiors), not for large programs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"


def _integer_row(values: Sequence) -> list[int]:
    """Ints or fractions times the lcm of their denominators (positive)."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def solve_lp(
    c: Sequence[int | Fraction],
    a_rows: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize c.x subject to A x <= b, x >= 0 (ints or fractions).

    Returns (status, objective, x). ``objective`` and ``x`` are None unless
    status is "optimal".
    """
    n = len(c)
    m = len(a_rows)

    # Tableau columns: n structural + m slack + artificials + 1 rhs. Scaling
    # a row by a positive integer scales its slack the same way, which
    # changes neither a ratio nor the sign of a reduced cost, so the pivots
    # are those of the unscaled tableau. Negative rhs rows are negated and
    # get an artificial basic variable for phase 1.
    tableau = []
    negated = []
    for i in range(m):
        row = _integer_row(list(a_rows[i]) + [b[i]])
        rhs = row.pop()
        row += [0] * m + [rhs]
        row[n + i] = 1
        if rhs < 0:
            row = [-v for v in row]
            negated.append(i)
        tableau.append(row)
    basis = list(range(n, n + m))
    width = n + m + len(negated)
    for k, i in enumerate(negated):
        for j, row in enumerate(tableau):
            row.insert(n + m + k, 1 if j == i else 0)
        basis[i] = n + m + k
    denom = 1  # every tableau entry is its integer over this

    def pivot(row_idx: int, col_idx: int, objective: list[int] | None) -> None:
        nonlocal denom
        prow = tableau[row_idx]
        piv = prow[col_idx]
        if piv < 0:
            piv = -piv
            prow = tableau[row_idx] = [-v for v in prow]
        for r in range(m):
            if r == row_idx:
                continue
            row = tableau[r]
            factor = row[col_idx]
            if factor:
                tableau[r] = [
                    (piv * v - factor * w) // denom for v, w in zip(row, prow)
                ]
            elif piv != denom:
                tableau[r] = [piv * v // denom for v in row]
        if objective is not None:
            factor = objective[col_idx]
            objective[:] = [
                (piv * v - factor * w) // denom
                for v, w in zip(objective, prow)
            ]
        basis[row_idx] = col_idx
        denom = piv

    def run_simplex(obj: Sequence[int]) -> str:
        # Reduced costs, times denom: denom * obj_j - sum_r obj_basis(r) T_rj.
        reduced = [denom * v for v in obj]
        for r in range(m):
            coef = obj[basis[r]]
            if coef:
                reduced = [rc - coef * tv for rc, tv in zip(reduced, tableau[r])]
        while True:
            enter = next((j for j in range(width) if reduced[j] > 0), None)
            if enter is None:
                return OPTIMAL
            # Bland: min ratio rhs / entry, then min basis index.
            leave = None
            for r in range(m):
                entry = tableau[r][enter]
                if entry > 0:
                    rhs = tableau[r][-1]
                    if leave is None:
                        leave, best_rhs, best_entry = r, rhs, entry
                        continue
                    lhs_cmp = rhs * best_entry
                    rhs_cmp = best_rhs * entry
                    if lhs_cmp < rhs_cmp or (
                        lhs_cmp == rhs_cmp and basis[r] < basis[leave]
                    ):
                        leave, best_rhs, best_entry = r, rhs, entry
            if leave is None:
                return UNBOUNDED
            pivot(leave, enter, reduced)

    if negated:
        phase1 = [0] * (n + m) + [-1] * len(negated) + [0]
        run_simplex(phase1)
        if any(tableau[r][-1] for r in range(m) if basis[r] >= n + m):
            return INFEASIBLE, None, None
        # Drive the artificial variables still basic (at zero) out of the
        # basis. The slack columns make the rows independent, so every row
        # has a nonzero entry outside the artificial columns.
        for r in range(m):
            if basis[r] >= n + m:
                pivot(r, next(j for j in range(n + m) if tableau[r][j]), None)
        # No artificial is basic now: drop their columns.
        width = n + m
        for r in range(m):
            tableau[r] = tableau[r][:width] + tableau[r][-1:]

    phase2 = _integer_row(list(c) + [0] * (width - n + 1))
    status = run_simplex(phase2)
    if status != OPTIMAL:
        return status, None, None

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tableau[r][-1], denom)
    objective = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return OPTIMAL, objective, x
