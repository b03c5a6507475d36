"""The record classes keep the semantics of frozen value records.

Each record is built by keyword and by position, with and without its
defaults; equal fields give equal records with equal hashes, a changed field
an unequal one; no field can be assigned; the repr names every field; and
a pickled or copied record equals the original.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ordpareto.core import (
    A_HEAD,
    A_TAIL,
    CategorySpace,
    ConeMatrix,
)
from ordpareto.nondominance import PointSet
from ordpareto.oracle import (
    DominanceCertificate,
    EnumeratedSolution,
    NumericalRepresentation,
)
from ordpareto.scalarization import WeightCell
from ordpareto.solvers import (
    Edge,
    GraphInstance,
    Item,
    KnapsackInstance,
    ResultEntry,
    SolveResult,
)

ENTRY = ResultEntry((2, 1), ((1, 1),), (), ((1, 2),))

# Per class: every field in declaration order, the trailing fields that have
# defaults (with those defaults), and one field to change with its new value.
RECORDS = [
    (CategorySpace, {"K": 3}, {}, ("K", 4)),
    (NumericalRepresentation, {"values": (1, 2, 5)}, {}, ("values", (1, 2, 6))),
    (
        DominanceCertificate,
        {"relation": "dominates", "nu": NumericalRepresentation((1, 3)), "value_u": 4,
         "value_v": 6},
        {"value_u": None, "value_v": None},
        ("value_v", 7),
    ),
    (ConeMatrix, {"K": 3, "kind": A_HEAD}, {"kind": A_TAIL}, ("K", 4)),
    (
        Edge,
        {"id": 1, "tail": 1, "head": 2, "weights": (Fraction(1, 2),), "categories": (2,)},
        {"weights": (), "categories": ()},
        ("head", 1),
    ),
    (
        GraphInstance,
        {"nodes": 2, "edges": (Edge(1, 1, 2, (), (1,)),), "spaces": (CategorySpace(2),),
         "source": 1, "target": 2, "num_real": 0},
        {"num_real": 0},
        ("target", 1),
    ),
    (Item, {"id": 1, "weight": 3, "category": 2}, {}, ("weight", 4)),
    (
        KnapsackInstance,
        {"items": (Item(1, 3, 2),), "capacity": 5, "space": CategorySpace(2)},
        {},
        ("capacity", 6),
    ),
    (
        ResultEntry,
        {"value": (2, 1), "countings": ((1, 1),), "weights": (), "solutions": ((1, 2),)},
        {},
        ("solutions", ((1, 2), (3,))),
    ),
    (SolveResult, {"entries": (ENTRY,)}, {"entries": ()}, ("entries", ())),
    (PointSet, {"points": ((1, 2), (2, 1))}, {}, ("points", ((1, 2),))),
    (
        WeightCell,
        {"value": (1, 2), "normals": ((-1, 1),), "vertices": ((Fraction(1, 2),),),
         "mu_vertices": ((Fraction(1, 3), Fraction(2, 3)),)},
        {"vertices": (), "mu_vertices": ()},
        ("normals", ()),
    ),
    (
        EnumeratedSolution,
        {"elements": (1, 2), "countings": ((1, 1),), "weights": (Fraction(3),)},
        {},
        ("elements", (2, 1)),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, change", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(cls, fields, defaults, change):
    record = cls(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())

    same = cls(*fields.values())
    assert same == record and hash(same) == hash(record)
    required = [value for name, value in fields.items() if name not in defaults]
    with_defaults = cls(*required)
    assert with_defaults == cls(**{**fields, **defaults})
    assert all(getattr(with_defaults, name) == value for name, value in defaults.items())

    name, value = change
    assert cls(**{**fields, name: value}) != record

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == same  # nothing changed

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"

    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_results_keep_only_what_the_search_found():
    # The ordinal images and the status follow from the countings and the entries.
    assert ResultEntry._fields == ("value", "countings", "weights", "solutions")
    assert SolveResult.__slots__ == ("entries",)
    assert ENTRY.ordinals == ((1, 2),)
    assert (SolveResult((ENTRY,)).status, SolveResult().status) == ("ok", "unreachable")


def test_solve_result_does_not_equal_a_tuple_of_its_fields():
    # __eq__ answers NotImplemented, so == falls back to identity.
    assert SolveResult().__eq__(((),)) is NotImplemented
    assert (SolveResult() == ((),)) is False


def test_records_normalize_sequences_to_tuples():
    space = CategorySpace(2)
    graph = GraphInstance(2, [Edge(1, 1, 2, (), (1,))], [space], 1, 2)
    assert graph.edges == (Edge(1, 1, 2, (), (1,)),) and graph.spaces == (space,)
    assert KnapsackInstance([Item(1, 3, 2)], 5, space).items == (Item(1, 3, 2),)
    assert PointSet([[1, 2], (2, 1)]).points == ((1, 2), (2, 1))
    assert NumericalRepresentation([1, 2]).values == (1, 2)
