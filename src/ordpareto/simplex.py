"""A tiny exact linear program solver over integers.

Solves  max c.x  s.t.  A x <= b,  x >= 0  for b >= 0, with a tableau simplex
using Bland's rule. With b >= 0 the origin is feasible, so the slack basis
starts the one phase and no artificial variable is needed. The tableau is
fraction-free (Edmonds 1967, Bareiss 1968): each row is scaled to integers,
every entry is a Python int over one common denominator ``d`` (the basis
determinant), and a pivot on ``p`` computes ``(p * v - f * w) // d``, which
divides exactly. Only the result is converted to ``fractions.Fraction``, so
it is exact; intended for the desk-scale questions in this package
(supportedness tests), not for large programs.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ordpareto.core import OrdparetoError, scale_to_ints

UNBOUNDED = "unbounded"
OPTIMAL = "optimal"


def solve_lp(
    c: Sequence[int | Fraction],
    a_rows: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize c.x subject to A x <= b, x >= 0 (ints or fractions, b >= 0).

    Returns (status, objective, x). ``objective`` and ``x`` are None unless
    status is "optimal".
    """
    if any(v < 0 for v in b):
        raise OrdparetoError("solve_lp needs b >= 0, so that x = 0 is feasible")
    n, m = len(c), len(a_rows)

    # Tableau columns: n structural + m slack + 1 rhs. Scaling a row by a
    # positive integer scales its slack the same way, which changes neither
    # a ratio nor the sign of a reduced cost, so the pivots are those of the
    # unscaled tableau.
    tableau = []
    for i in range(m):
        row = scale_to_ints([*a_rows[i], b[i]], f"LP row {i + 1}")[1]
        tableau.append(row[:n] + [int(j == i) for j in range(m)] + row[n:])
    # The last row holds the reduced costs; the slack basis costs nothing.
    tableau.append(scale_to_ints(list(c) + [0] * (m + 1), "LP objective")[1])
    basis = list(range(n, n + m))
    denom = 1  # every tableau entry is its integer over this

    while True:
        enter = next((j for j in range(n + m) if tableau[m][j] > 0), None)
        if enter is None:
            break
        # Bland: min ratio rhs / entry, then min basis index; any row beats 1 / 0.
        leave, best_rhs, best_entry = -1, 1, 0
        for r in range(m):
            entry = tableau[r][enter]
            if entry > 0:
                rhs = tableau[r][-1]
                if (rhs * best_entry, basis[r]) < (best_rhs * entry, basis[leave]):
                    leave, best_rhs, best_entry = r, rhs, entry
        if leave < 0:
            return UNBOUNDED, None, None
        prow = tableau[leave]
        piv = prow[enter]
        for r in range(m + 1):
            if r == leave:
                continue
            row = tableau[r]
            factor = row[enter]
            if factor:
                tableau[r] = [
                    (piv * v - factor * w) // denom for v, w in zip(row, prow)
                ]
            elif piv != denom:
                tableau[r] = [piv * v // denom for v in row]
        basis[leave] = enter
        denom = piv

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tableau[r][-1], denom)
    objective = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return OPTIMAL, objective, x
