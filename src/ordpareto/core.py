"""Category spaces, counting vectors, dominance predicates and cone algebra.

Conventions used throughout the package:

* categories are 1-based indices ``1..K``, index 1 is the best category;
* a counting vector has one nonnegative integer per category (multiplicity);
* a tail-count vector holds, per category, the number of elements in that
  category *or worse*; it is the counting vector multiplied by the
  upper-triangular all-ones matrix;
* all arithmetic is exact (machine integers / fractions), no floats.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import ge, le, sub


class OrdparetoError(ValueError):
    """Base class for input validation errors."""


class InvalidCategoryError(OrdparetoError):
    """A category index is outside 1..K."""


class DimensionMismatchError(OrdparetoError):
    """Two vectors that must share a length do not."""


class InvalidTailVectorError(OrdparetoError):
    """A tail-count vector is not non-increasing or not nonnegative."""


class CategorySpace(namedtuple("CategorySpace", "K")):
    """The K ordered categories ``eta1 .. etaK`` of one ordinal objective;
    ``eta1`` is the most preferred."""

    __slots__ = ()

    def __new__(cls, K: int):
        if K < 1:
            raise OrdparetoError(f"need at least one category, got K={excerpt(K)}")
        return super().__new__(cls, K)


def _check_same_length(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"vector lengths differ: {len(u)} vs {len(v)}"
        )


def counting_vector(cats: Iterable[int], space: CategorySpace) -> tuple[int, ...]:
    """Count the elements of a solution per category.

    ``cats`` is the multiset of 1-based category indices of the solution's
    elements; the result has length ``space.K``.
    """
    counts = [0] * space.K
    for c in cats:
        if not 1 <= c <= space.K:
            raise InvalidCategoryError(
                f"category index {excerpt(c)} outside 1..{excerpt(space.K)}"
            )
        counts[c - 1] += 1
    return tuple(counts)


def ordinal_vector(counts: Sequence[int]) -> tuple[int, ...]:
    """Expand a counting vector into the sorted sequence of category indices.

    The result lists every element's category, best first; it is the exact
    inverse of :func:`counting_vector`.
    """
    _check_counts(counts)
    out: list[int] = []
    for i, c in enumerate(counts, start=1):
        out.extend([i] * c)
    return tuple(out)


def _check_counts(counts: Sequence[int]) -> None:
    for j, c in enumerate(counts, start=1):
        if c < 0:
            raise OrdparetoError(f"counting vector has a negative entry at index {j}")


def tail_transform(counts: Sequence[int]) -> tuple[int, ...]:
    """Suffix sums of a counting vector: entry j counts category j or worse."""
    _check_counts(counts)
    return ConeMatrix(len(counts), A_TAIL).apply(counts) if counts else ()


def inverse_transform(tails: Sequence[int]) -> tuple[int, ...]:
    """Recover a counting vector from its tail-count vector.

    Raises :class:`InvalidTailVectorError` if ``tails`` is not
    non-increasing and nonnegative.
    """
    K = len(tails)
    if K and tails[-1] < 0:
        raise InvalidTailVectorError(f"negative tail entry at index {K}")
    for j in range(K - 1):
        if tails[j] < tails[j + 1]:
            raise InvalidTailVectorError(
                f"tail vector not non-increasing at index {j + 1}"
            )
    return ConeMatrix(K, B_TAIL).apply(tails) if K else ()


def head_transform(counts: Sequence[int]) -> tuple[int, ...]:
    """Prefix sums of a counting vector: entry j counts category j or better."""
    _check_counts(counts)
    return ConeMatrix(len(counts), A_HEAD).apply(counts) if counts else ()


def weakly_tail_dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff every suffix sum of u is <= the matching suffix sum of v."""
    _check_same_length(u, v)
    return all(tu <= tv for tu, tv in zip(tail_transform(u), tail_transform(v)))


def tail_dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """Strict tail-dominance: weak tail-dominance plus u != v."""
    return tuple(u) != tuple(v) and weakly_tail_dominates(u, v)


def head_dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """Strict head-dominance: prefix sums of u >= those of v, and u != v."""
    _check_same_length(u, v)
    return tuple(u) != tuple(v) and all(map(ge, head_transform(u), head_transform(v)))


def pareto_dominates(u: Sequence, v: Sequence) -> bool:
    """Componentwise <= with u != v."""
    _check_same_length(u, v)
    return tuple(u) != tuple(v) and all(map(le, u, v))


def check_sense(sense: str) -> None:
    if sense not in ("min", "max"):
        raise OrdparetoError(f"sense must be 'min' or 'max': {sense!r}")


def pareto_front(values: Sequence[Sequence], sense: str = "min") -> list[int]:
    """Indices of the equal-length values without a strict Pareto dominator
    (componentwise <= for ``"min"``, >= for ``"max"``), in lexicographic
    order of their values (descending for ``"max"``).

    One sorted sweep (Kung, Luccio & Preparata 1975): dominators sort first,
    so each value is tested against the distinct values kept before it. A
    value equal to the last kept one is kept untested: equal values share one
    fate, and the weak test against the other kept values is strict.
    """
    check_sense(sense)
    weakly = le if sense == "min" else ge
    order = sorted(range(len(values)), key=values.__getitem__, reverse=sense == "max")
    keep: list[int] = []
    front: list[Sequence] = []
    for i in order:
        v = values[i]
        if front and v == front[-1]:
            keep.append(i)
        elif not any(all(map(weakly, u, v)) for u in front):
            front.append(v)
            keep.append(i)
    return keep


def scale_to_ints(values: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators of ints or Fractions, and each value
    times it, as an int."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def unprintable(what: str) -> OrdparetoError:
    """The error for ``what`` when ``str`` refuses one of its ints, whose
    digits exceed ``sys.get_int_max_str_digits()``."""
    return OrdparetoError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits "
        "(Python's int-to-str limit)"
    )


def too_many_digits(token: str) -> str:
    """A short reason if ``token`` has more digits than ``int`` converts
    from str, else "". ``int`` and ``Fraction`` raise for such a token the
    ``ValueError`` of a malformed one, and echoing it would print them all."""
    digits = sys.get_int_max_str_digits()
    if digits and sum(map(str.isdecimal, token)) > digits:
        return f"integer has more than {digits} digits (Python's str-to-int limit)"
    return ""


def excerpt(token: str | int) -> str:
    """A str token's ``repr`` or an int's digits for an error line, cut
    after 40 characters; an int too long for ``str`` is named by its size."""
    try:
        text = str(token)
    except ValueError:  # beyond Python's int-to-str digit limit
        return f"an int of more than {sys.get_int_max_str_digits()} digits"
    show = repr if isinstance(token, str) else str
    return show(text) if len(text) <= 40 else f"{show(text[:40])}…"


class NumericalRepresentation(namedtuple("NumericalRepresentation", "values")):
    """Strictly increasing nonnegative integer values, one per category."""

    __slots__ = ()

    def __new__(cls, values: Sequence[int]):
        values = tuple(values)
        if not values:
            raise OrdparetoError("numerical representation must be nonempty")
        if values[0] < 0:
            raise OrdparetoError("negative value at index 1")
        for j in range(len(values) - 1):
            if values[j] >= values[j + 1]:
                raise OrdparetoError(f"values not strictly increasing at index {j + 1}")
        return super().__new__(cls, values)

    @property
    def K(self) -> int:
        return len(self.values)


def numeric_value(nu: NumericalRepresentation, counts: Sequence[int]) -> int:
    """Total value of a solution under one numerical representation.

    Equals the sum, over the solution's elements, of the value of each
    element's category.
    """
    _check_same_length(nu.values, counts)
    _check_counts(counts)
    return sum(n * c for n, c in zip(nu.values, counts))


def numeric_value_per_element(
    nu: NumericalRepresentation, cats: Sequence[int]
) -> int:
    """Same total as :func:`numeric_value`, summed element by element."""
    return sum(nu.values[c - 1] for c in cats)


def numeric_value_tail_form(
    nu: NumericalRepresentation, tails: Sequence[int]
) -> int:
    """Same total as :func:`numeric_value`, evaluated on the tail vector.

    Uses value(1) * tails[0] plus the value increments times the remaining
    tail entries.
    """
    _check_same_length(nu.values, tails)
    v = nu.values
    total = v[0] * tails[0]
    for i in range(1, len(v)):
        total += (v[i] - v[i - 1]) * tails[i]
    return total


# --- dominance certificates ------------------------------------------------

EQUAL = "equal"
DOMINATES = "dominates"
NOT_DOMINATED = "not-dominated"


class DominanceCertificate(
    namedtuple("DominanceCertificate", "relation nu value_u value_v", defaults=(None, None))
):
    """Witness for the outcome of an ordinal-dominance comparison of u vs v.

    ``relation`` is one of:

    * ``"equal"``          -- u == v, no witness needed (``nu is None``);
    * ``"dominates"``      -- u strictly tail-dominates v; ``nu`` satisfies
      value(u) < value(v);
    * ``"not-dominated"``  -- u does not weakly tail-dominate v; ``nu``
      satisfies value(u) > value(v), so u cannot be weakly preferred under
      every representation.

    ``value_u`` and ``value_v`` are the two values under ``nu``, or None.
    """

    __slots__ = ()


def _expensive_tail_representation(j_star: int, scale: int, K: int) -> NumericalRepresentation:
    # Categories below j_star get value i, categories j_star..K get i + scale,
    # making an element of a bad category impossible to offset by good ones.
    return NumericalRepresentation(
        tuple(i if i < j_star else i + scale for i in range(1, K + 1))
    )


def dominance_certificate(
    u: Sequence[int], v: Sequence[int]
) -> DominanceCertificate:
    """Compare u and v and return a checkable witness.

    If u fails to weakly tail-dominate v, the witness is a representation
    built by pricing the categories from a violated tail index upward so
    high that value(u) > value(v). If u strictly tail-dominates v, the
    analogous construction (roles swapped, anchored at the largest
    differing category) yields value(u) < value(v).
    """
    _check_same_length(u, v)
    _check_counts(u)
    _check_counts(v)
    u = tuple(u)
    v = tuple(v)
    K = len(u)
    if u == v:
        return DominanceCertificate(EQUAL, None)

    tails_u = tail_transform(u)
    tails_v = tail_transform(v)
    violated = [j for j in range(1, K + 1) if tails_u[j - 1] > tails_v[j - 1]]
    if violated:
        # u is not weakly preferred: price categories from the deepest
        # violated tail index upward.
        j_star = violated[-1]
        nu = _expensive_tail_representation(j_star, 2 * sum(v) * K, K)
        val_u = numeric_value(nu, u)
        val_v = numeric_value(nu, v)
        if not val_u > val_v:
            raise OrdparetoError(f"certificate check failed for {u} vs {v}")
        return DominanceCertificate(NOT_DOMINATED, nu, val_u, val_v)

    # u weakly tail-dominates v and u != v, hence strictly. Anchor at the
    # largest differing category, where the tail of u is strictly smaller.
    j_star = max(j for j in range(1, K + 1) if u[j - 1] != v[j - 1])
    nu = _expensive_tail_representation(j_star, 2 * sum(u) * K, K)
    val_u = numeric_value(nu, u)
    val_v = numeric_value(nu, v)
    if not val_u < val_v:
        raise OrdparetoError(f"certificate check failed for {u} vs {v}")
    return DominanceCertificate(DOMINATES, nu, val_u, val_v)


# --- cone matrices ----------------------------------------------------------

A_TAIL = "A_tail"
B_TAIL = "B_tail"
A_HEAD = "A_head"
B_HEAD = "B_head"

_KINDS = (A_TAIL, B_TAIL, A_HEAD, B_HEAD)


class ConeMatrix(namedtuple("ConeMatrix", "K kind")):
    """One of the four K x K transformation matrices.

    * ``A_tail``: upper-triangular all-ones; rows are the halfspace normals
      of the closure of the ordinal (tail) cone, and A_tail @ c is the tail
      transform.
    * ``B_tail``: unit diagonal with -1 superdiagonal; inverse of A_tail,
      columns are the cone's extreme rays.
    * ``A_head`` / ``B_head``: the transposes, describing the head cone.
    """

    __slots__ = ()

    def __new__(cls, K: int, kind: str = A_TAIL):
        if K < 1:
            raise OrdparetoError(f"matrix dimension must be positive: {excerpt(K)}")
        if kind not in _KINDS:
            raise OrdparetoError(f"unknown cone matrix kind: {excerpt(kind)}")
        return super().__new__(cls, K, kind)

    def entry(self, i: int, j: int) -> int:
        """Matrix entry at 1-based (row, column)."""
        if self.kind == A_TAIL:
            return 1 if i <= j else 0
        if self.kind == A_HEAD:
            return 1 if j <= i else 0
        if self.kind == B_TAIL:
            return 1 if i == j else (-1 if i == j - 1 else 0)
        return 1 if i == j else (-1 if j == i - 1 else 0)  # B_head

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.entry(i, j) for j in range(1, self.K + 1))
            for i in range(1, self.K + 1)
        )

    def apply(self, d: Sequence) -> tuple:
        """Matrix-vector product (exact; accepts ints or fractions), in O(K)
        as suffix sums, prefix sums or first differences."""
        if len(d) != self.K:
            raise DimensionMismatchError(
                f"vector length {len(d)} != matrix dimension {self.K}"
            )
        if self.kind == A_TAIL:
            return tuple(accumulate(reversed(d)))[::-1]
        if self.kind == A_HEAD:
            return tuple(accumulate(d))
        if self.kind == B_TAIL:
            return tuple(map(sub, d, d[1:])) + (d[-1],)
        return (d[0],) + tuple(map(sub, d[1:], d))  # B_head


def cone_member(
    d: Sequence[int | Fraction], cone: ConeMatrix, strict: bool = False
) -> bool:
    """Membership of d in the polyhedral cone {y : A y >= 0}.

    With ``strict=True`` the origin is excluded (the open ordinal cone).
    """
    image = cone.apply(d)
    if any(component < 0 for component in image):
        return False
    return not strict or any(component != 0 for component in d)
