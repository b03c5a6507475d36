"""Category spaces, counting vectors, their transforms and cone algebra.

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
from functools import partial, reduce
from itertools import accumulate, repeat
from math import lcm
from operator import add, lshift, sub


class OrdparetoError(ValueError):
    """Base class for input validation errors."""


class CategorySpace(namedtuple("CategorySpace", "K")):
    """The K ordered categories ``eta1 .. etaK`` of one ordinal objective;
    ``eta1`` is the most preferred."""

    __slots__ = ()

    def __new__(cls, K: int):
        if not isinstance(K, int):
            raise OrdparetoError(f"the number of categories must be an int, got K={excerpt(K)}")
        if K < 1:
            raise OrdparetoError(f"need at least one category, got K={excerpt(K)}")
        return super().__new__(cls, K)


def counting_vector(cats: Iterable[int], space: CategorySpace) -> tuple[int, ...]:
    """Count the elements of a solution per category.

    ``cats`` is the multiset of 1-based category indices of the solution's
    elements; the result has length ``space.K``.
    """
    counts = [0] * space.K
    for c in cats:
        if not 1 <= c <= space.K:
            raise OrdparetoError(f"category index {excerpt(c)} outside 1..{excerpt(space.K)}")
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

    Raises :class:`OrdparetoError` if ``tails`` is not
    non-increasing and nonnegative.
    """
    K = len(tails)
    if K and tails[-1] < 0:
        raise OrdparetoError(f"negative tail entry at index {K}")
    for j in range(K - 1):
        if tails[j] < tails[j + 1]:
            raise OrdparetoError(f"tail vector not non-increasing at index {j + 1}")
    return ConeMatrix(K, B_TAIL).apply(tails) if K else ()


def head_transform(counts: Sequence[int]) -> tuple[int, ...]:
    """Prefix sums of a counting vector: entry j counts category j or better."""
    _check_counts(counts)
    return ConeMatrix(len(counts), A_HEAD).apply(counts) if counts else ()


def check_sense(sense: str) -> None:
    if sense not in ("min", "max"):
        raise OrdparetoError(f"sense must be 'min' or 'max': {sense!r}")


def fields(bounds: Sequence[int]) -> tuple[list[int], list[int], int]:
    """How vectors with ``0 <= v[j] <= bounds[j]`` pack into one int: each
    component's shift and value mask, and the mask ``G`` of all guard bits.
    Field 0 is the most significant, so int order is lexicographic order;
    field j has ``bounds[j].bit_length()`` value bits under a guard bit, so
    ``+`` adds componentwise while no field overflows, and a field of
    ``(b | G) - a`` keeps its guard bit iff ``a_j <= b_j``."""
    shifts, masks, top = [], [], 0
    for bound in reversed(bounds):
        shifts.insert(0, top)
        masks.insert(0, (1 << bound.bit_length()) - 1)
        top += bound.bit_length() + 1
    return shifts, masks, sum(m + 1 << s for s, m in zip(shifts, masks))


def unpack(value: int, shifts: Sequence[int], masks: Sequence[int]) -> tuple[int, ...]:
    return tuple(value >> s & m for s, m in zip(shifts, masks))


def pareto_front(values: Sequence[Sequence], sense: str = "min") -> list[int]:
    """Indices of the equal-length values without a strict Pareto dominator
    (componentwise <= for ``"min"``, >= for ``"max"``), in lexicographic
    order of their values (descending for ``"max"``).

    One sorted sweep (Kung, Luccio & Preparata 1975): dominators sort first,
    so each value is tested against the distinct values kept before it. A
    value equal to the last kept one is kept untested: equal values share one
    fate, and the weak test against the other kept values is strict.

    The kept values sit in ``front``, one per slot of ``width =
    guards.bit_length() + 1`` bits: a packed value under its guard bits and
    one spare top bit (SWAR, Lamport 1975). With 1 per slot in ``ones``,
    slot i of ``(v | guards) * ones - front`` is ``(v | guards) - u_i``. It
    borrows nothing from its neighbour, as ``v | guards`` holds the top
    guard bit and ``u_i`` does not, and it keeps every guard bit iff ``u_i
    <= v``. Adding ``fill = carry - guards`` to its kept guard bits
    carries into the spare bit ``carry`` exactly then, so one multiply, one subtraction and two masks test
    ``v`` against every kept value. The multiply grows with the square of
    ``width``, and no test stops at the first dominator: from K = 32 on,
    one guarded subtraction per kept value was faster.
    """
    check_sense(sense)
    if len(set(map(len, values))) > 1:
        raise OrdparetoError("values have differing lengths")
    columns = list(zip(*values))
    # Each component becomes its rank among the column's distinct values, best
    # first, so a field holds at most n ranks however wide or negative values are.
    step = 1 if sense == "min" else -1
    ranks = [{x: r for r, x in enumerate(sorted(set(col))[::step])} for col in columns]
    shifts, _, guards = fields([len(r) - 1 for r in ranks])
    parts = [map(lshift, map(r.__getitem__, col), repeat(s))
             for col, r, s in zip(columns, ranks, shifts)]
    packed = list(reduce(partial(map, add), parts, [0] * len(values)))  # parts summed per value
    width = guards.bit_length() + 1
    carry = 1 << width - 1
    fill = carry - guards
    front = ones = guard_slots = fill_slots = carry_slots = slot = 0  # one slot per kept value
    last = None
    keep: list[int] = []
    for i in sorted(range(len(values)), key=packed.__getitem__):
        v = packed[i]
        if v == last:
            keep.append(i)
        elif not ((v | guards) * ones - front & guard_slots) + fill_slots & carry_slots:
            keep.append(i)
            last = v
            front |= v << slot
            ones |= 1 << slot
            guard_slots |= guards << slot
            fill_slots |= fill << slot
            carry_slots |= carry << slot
            slot += width
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


def plain_numbers(tokens: Iterable[str]) -> bool:
    """Whether no token has a non-ASCII character, an ``_`` or a leading
    ``+``: the spellings ``int`` and ``Fraction`` accept (``1_0``, ``+5``,
    ``٢``) that the number grammar does not. The tokens hold no whitespace."""
    text = " " + " ".join(tokens)
    return text.isascii() and "_" not in text and " +" not in text


def plain_text(text: str) -> bool:
    """Whether ``text`` is ASCII with no ``_`` or ``+``, so that none of its
    tokens can fail :func:`plain_numbers`: one fast test of a whole input,
    after which only an input that fails it has its tokens checked."""
    return text.isascii() and "_" not in text and "+" not in text


def excerpt(token: str | int) -> str:
    """A str token's ``repr`` or an int's digits for an error line, cut
    after 40 characters; an int too long for ``str`` is named by its size."""
    try:
        text = str(token)
    except ValueError:  # beyond Python's int-to-str digit limit
        return f"an int of more than {sys.get_int_max_str_digits()} digits"
    show = repr if isinstance(token, str) else str
    return show(text) if len(text) <= 40 else f"{show(text[:40])}…"


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

    def apply(self, d: Sequence) -> tuple:
        """Matrix-vector product (exact; accepts ints or fractions), in O(K)
        as suffix sums, prefix sums or first differences."""
        if len(d) != self.K:
            raise OrdparetoError(f"vector length {len(d)} != matrix dimension {self.K}")
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
