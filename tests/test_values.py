"""Immutable values: copying, pickling, equality and the mutation guard."""

import copy
import pickle
import random
from dataclasses import fields
from fractions import Fraction as Fr

import pytest

from finitary import (
    STANDARD_CIRCLE_ARCS,
    STANDARD_CIRCLE_EXTRA_POINTS,
    BasicIdeal,
    Covering,
    FiniteSpace,
    Form,
    GaussianRational,
    Manifold,
    Relation,
    SimplicialComplex,
    circle_covering,
    generated_space,
    hasse,
    members,
    sampled_substitute,
    trace_substitute,
    verify_correspondence,
)
from finitary.coarse import _draws
from finitary.complexes import vertex_mask
from finitary.errors import Value
from finitary.io import VertexTable

from conftest import random_antisymmetric_relation, random_manifold, table_space


def _triangle():
    return Manifold.from_relation(Relation(3, [(0, 1), (1, 2), (2, 0)]))


def _ideal_manifold():
    # a finite one whose cached dimension and word listing are filled in
    m = Manifold.from_ideal(BasicIdeal(3, [(1, 0), (2, 0), (2, 1)]), labels=("a", "b", "c"))
    m.words()
    return m


def _lazy_sampled():
    return sampled_substitute(_triangle().to_simplicial(), per_cell=2, seed=5)


VALUES = {
    "GaussianRational": lambda: GaussianRational(Fr(1, 2), -3),
    "BasicIdeal": lambda: BasicIdeal(3, [(0, 1), (1, 0), (2, 0, 1)]),
    "Relation": lambda: Relation(3, [(0, 1), (1, 2), (2, 0)]),
    "Manifold-relation": _triangle,
    "Manifold-ideal": _ideal_manifold,
    "Manifold-infinite": lambda: Manifold.from_ideal(BasicIdeal(3, [(0, 1)])),
    "SimplicialComplex": lambda: _triangle().to_simplicial(),
    "FiniteSpace": lambda: generated_space(_triangle()),
    # still unread: its table is built from its recipe by the round trips
    "FiniteSpace-lazy": _lazy_sampled,
    "Covering": lambda: circle_covering(
        STANDARD_CIRCLE_ARCS, samples=8, extra_points=STANDARD_CIRCLE_EXTRA_POINTS
    ),
    "VertexTable": lambda: VertexTable(["a", "b", "c"]),
    "Form": lambda: Form([((0, 1), GaussianRational(Fr(1, 3), 1)), ((1, 0, 2), -2)]),
    "CorrespondenceReport": lambda: verify_correspondence(_triangle(), per_cell=1, seed=3),
}


@pytest.fixture(params=sorted(VALUES))
def value(request):
    return VALUES[request.param]()


def _round_trips(v):
    yield copy.copy(v)
    yield copy.deepcopy(v)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(v, protocol))


def test_copy_deepcopy_and_pickle_give_an_equal_value(value):
    for twin in _round_trips(value):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)


def test_unpickled_value_keeps_working(value):
    twin = pickle.loads(pickle.dumps(value))
    if type(value).__repr__ is not object.__repr__:
        assert repr(twin) == repr(value)
    if isinstance(value, Manifold):
        assert twin.dimension() == value.dimension()
        assert list(twin.words(max_grade=3)) == list(value.words(max_grade=3))
    if isinstance(value, SimplicialComplex):  # equality ignores the cell labels
        assert twin.cell_labels == value.cell_labels


def _fields(v):
    if isinstance(v, Value):
        return type(v).__slots__
    return tuple(f.name for f in fields(v))


def test_every_field_refuses_assignment_and_deletion(value):
    before = copy.deepcopy(value)
    for name in _fields(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == before


def test_the_value_types_share_one_base():
    kinds = (
        GaussianRational, BasicIdeal, Relation, Manifold, SimplicialComplex,
        FiniteSpace, Covering, VertexTable, Form,
    )
    assert all(issubclass(k, Value) for k in kinds)


def test_an_unpickled_space_keeps_its_recipe(table_builds):
    # its Hasse diagram is read off the recipe, as the original's is
    s = generated_space(_triangle())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(s, protocol))
        assert hasse(twin) == hasse(s)
    assert table_builds == {"generated": 0, "trace": 0}


def test_mutation_message_names_the_type():
    with pytest.raises(AttributeError, match="^Relation is immutable$"):
        Relation(1).n = 2
    with pytest.raises(AttributeError, match="^FiniteSpace is immutable$"):
        del generated_space(_triangle()).labels


def test_an_ideal_is_the_same_value_after_its_first_membership_test():
    # contains compiles its matcher into a cache slot on the first call;
    # equality, hash, copies and pickles never see it
    ideal, fresh = VALUES["BasicIdeal"](), VALUES["BasicIdeal"]()
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickles = [pickle.dumps(ideal, p) for p in protocols]
    before = hash(ideal)
    assert ideal.contains((2, 0, 1)) and not ideal.contains((2, 1))
    assert ideal == fresh and hash(ideal) == hash(fresh) == before
    assert copy.copy(ideal) is ideal and copy.deepcopy(ideal) is ideal
    assert [pickle.dumps(ideal, p) for p in protocols] == pickles
    assert pickle.dumps(ideal) == pickle.dumps(fresh)
    twin = pickle.loads(pickles[-1])
    assert twin == ideal and twin.contains((0, 1)) and not twin.contains((2, 1))


class TestValueEquality:
    def test_equal_construction_gives_equal_values(self):
        for make in VALUES.values():
            a, b = make(), make()
            assert a is not b
            assert a == b and hash(a) == hash(b)

    def test_covering_and_vertex_table_compare_by_value(self):
        assert VertexTable(["a", "b"]) == VertexTable(("a", "b"))
        assert VertexTable(["a", "b"]) != VertexTable(["b", "a"])
        c = Covering(("A", "B"), ("p", "q"), [0b01, 0b11])
        assert c == Covering(["A", "B"], ["p", "q"], (1, 3))
        assert c != Covering(("A", "B"), ("p", "q"), [0b01, 0b10])

    def test_only_the_same_type_compares_equal(self):
        assert Relation(2) != (2, Relation(2).after)
        assert Relation(2).__eq__(BasicIdeal(2)) is NotImplemented
        assert len({Relation(2), Relation(2), BasicIdeal(2)}) == 2

    def test_spaces_compare_by_labels_and_table_not_recipe(self):
        # the trace quotient of the table's covering: other masks, the
        # same labels and table
        lazy, twin = _lazy_sampled(), _lazy_sampled()
        other = table_space(twin.labels, twin.min_open)
        assert other._recipe != lazy._recipe
        assert lazy == other and hash(lazy) == hash(other)
        assert other == _lazy_sampled()

    def test_simplicial_complex_ignores_display_labels(self):
        p = _triangle().to_simplicial()
        bare = SimplicialComplex(3, p.simplices)
        assert p == bare and hash(p) == hash(bare)

    def test_scalars_still_compare_with_numbers(self):
        assert GaussianRational(3) == 3 and hash(GaussianRational(3)) == hash(3)
        half = pickle.loads(pickle.dumps(GaussianRational(Fr(1, 2))))
        assert half == Fr(1, 2) and hash(half) == hash(Fr(1, 2))


class TestAssembledValues:
    """The values the library assembles slot by slot (errors._restore) from
    parts it has checked equal, slot for slot, the ones its public
    constructors validate: a reordering of the slots shows here."""

    @staticmethod
    def _relation_manifolds():
        rng = random.Random(17)
        for n in range(1, 8):
            for _ in range(20):
                labels = [f"v{i}" for i in range(n)] if rng.random() < 0.5 else None
                yield Manifold.from_relation(random_antisymmetric_relation(rng, n), labels)

    @classmethod
    def _manifolds(cls):
        rng = random.Random(2024)
        yield from (random_manifold(rng) for _ in range(200))
        yield from cls._relation_manifolds()

    def test_a_relation_manifold(self):
        # the twin's report is its scans' result, the one m keeps unscanned
        for m in self._relation_manifolds():
            assert all(type(w) is tuple for w in m.words())
            twin = Manifold(m.labels, words=list(m.words()))
            twin.check_structure()
            assert Value._key(m) == Value._key(twin)

    def test_a_manifold_complex(self):
        for m in self._manifolds():
            masks = [vertex_mask(w) for w in m.words()]
            public = SimplicialComplex(m.n, masks, m.labels)
            by_mask = {vertex_mask(w): m.word_label(w) for w in m.words()}
            word_labels = tuple(by_mask[s] for s in public.simplices)
            assert Value._key(m.to_simplicial()) == (
                public.vertex_count, public.labels, public.simplices, word_labels
            )

    def test_a_sampled_covering(self):
        for seed, m in enumerate(self._manifolds()):
            p = m.to_simplicial()
            labels, traces = [], []
            for cell, label, draws in zip(p.simplices, p.cell_labels, _draws(p, 2, seed)):
                for j, numerators in enumerate(draws):
                    labels.append(f"{label}#{j}")
                    support = [v for v, a in zip(members(cell), numerators) if a > 0]
                    traces.append(vertex_mask(support))
            public = trace_substitute(Covering(p.labels, labels, traces))[0]
            assert sampled_substitute(p, 2, seed) == public
