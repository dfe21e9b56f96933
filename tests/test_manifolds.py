"""Manifold construction, dimension, structure checks, complex extraction."""

import itertools
import math
import random

import pytest

from finitary import (
    INFINITE,
    BasicIdeal,
    InfiniteDimensional,
    Manifold,
    NotAntisymmetric,
    Relation,
    StructureViolation,
    Word,
    basis_words,
    fully_ordered_sequences,
)

from conftest import random_antisymmetric_relation


def W(*letters):
    return Word(letters)


TRIANGLE_REL = Relation(3, [(0, 1), (1, 2), (2, 0)])
TOTAL_ORDER_3 = Relation(3, [(0, 1), (0, 2), (1, 2)])


class TestFromRelation:
    def test_triangle_words(self):
        m = Manifold.from_relation(TRIANGLE_REL)
        assert set(m.words()) == {W(0), W(1), W(2), W(0, 1), W(1, 2), W(2, 0)}
        assert [m.word_label(w) for w in m.words(max_grade=1) if w.grade == 1] == [
            "12",
            "23",
            "31",
        ]
        assert m.dimension() == 1

    def test_two_cycle_is_rejected_with_witness(self):
        with pytest.raises(NotAntisymmetric) as err:
            Manifold.from_relation(Relation(2, [(0, 1), (1, 0)]))
        assert err.value.pair == (0, 1)

    def test_total_order_gives_full_simplex(self):
        m = Manifold.from_relation(TOTAL_ORDER_3)
        assert W(0, 1, 2) in set(m.words())
        assert m.dimension() == 2
        assert len(list(m.words())) == 7


class TestRelationOf:
    def test_triangle_round_trip(self):
        m = Manifold.from_relation(TRIANGLE_REL)
        assert m.relation() == TRIANGLE_REL

    def test_singletons_only_gives_identity(self):
        m = Manifold(("1", "2", "3"), words=[W(0), W(1), W(2)])
        assert m.relation() == Relation(3)
        assert m.dimension() == 0

    def test_total_order_is_upper_triangular(self):
        m = Manifold.from_relation(TOTAL_ORDER_3)
        assert m.relation().strict_pairs() == ((0, 1), (0, 2), (1, 2))

    def test_round_trip_exhaustive_small(self):
        # every antisymmetric reflexive relation on up to 4 vertices
        for n in (1, 2, 3, 4):
            cells = list(itertools.combinations(range(n), 2))
            for assignment in itertools.product((0, 1, 2), repeat=len(cells)):
                pairs = []
                for (i, j), kind in zip(cells, assignment):
                    if kind == 1:
                        pairs.append((i, j))
                    elif kind == 2:
                        pairs.append((j, i))
                rel = Relation(n, pairs)
                assert Manifold.from_relation(rel).relation() == rel

    def test_round_trip_random_five_vertices(self):
        rng = random.Random(29)
        for _ in range(200):
            rel = random_antisymmetric_relation(rng, 5)
            assert Manifold.from_relation(rel).relation() == rel


class TestDimension:
    def test_ideal_complement_no_generators_is_infinite(self):
        m = Manifold.from_ideal(BasicIdeal(2))
        assert math.isinf(m.dimension())
        assert m.dimension() == INFINITE

    def test_ideal_complement_finite(self):
        m = Manifold.from_ideal(BasicIdeal(2, [W(0, 1)]))
        assert m.dimension() == 1
        assert set(m.words()) == {W(0), W(1), W(1, 0)}

    def test_infinite_enumeration_needs_truncation(self):
        m = Manifold.from_ideal(BasicIdeal(2))
        with pytest.raises(InfiniteDimensional):
            list(m.words())
        truncated = list(m.words(max_grade=2))
        assert truncated == [
            W(0), W(1), W(0, 1), W(1, 0), W(0, 1, 0), W(1, 0, 1),
        ]

    def test_automaton_agrees_with_filtered_enumeration(self):
        # oracle: every basis word up to the grade, minus the ideal's words
        rng = random.Random(31)
        for k in range(48):
            n = 3 + k % 3
            pool = [w for r in (1, 2) for w in basis_words(n, r)]
            gens = rng.sample(pool, rng.randint(1, 4))
            if k % 2:
                # forbidding the unrelated pairs of an antisymmetric relation
                # bounds the dimension
                rel = random_antisymmetric_relation(rng, n)
                gens += [(i, j) for i in range(n) for j in range(n) if not rel.holds(i, j)]
            ideal = BasicIdeal(n, gens)
            m = Manifold.from_ideal(ideal)
            dim = m.dimension()
            top = 6 if math.isinf(dim) else dim
            oracle = [
                w for g in range(top + 1) for w in basis_words(n, g) if not ideal.contains(w)
            ]
            words = list(m.words(max_grade=6) if math.isinf(dim) else m.words())
            assert words == oracle
            assert max(w.grade for w in words) == top


class TestLemmaEquivalence:
    def test_network_rejection_iff_infinite_dimension(self):
        # all 64 reflexive relations on three vertices
        off_diagonal = [(i, j) for i in range(3) for j in range(3) if i != j]
        for mask in itertools.product((0, 1), repeat=6):
            pairs = [p for p, keep in zip(off_diagonal, mask) if keep]
            rel = Relation(3, pairs)
            gens = [p for p in off_diagonal if not rel.holds(*p)]
            ideal_m = Manifold.from_ideal(BasicIdeal(3, gens))
            try:
                Manifold.from_relation(rel)
                rejected = False
            except NotAntisymmetric:
                rejected = True
            assert rejected == math.isinf(ideal_m.dimension())


class TestIsNetwork:
    def test_triangle_is_network(self):
        assert Manifold.from_relation(TRIANGLE_REL).is_network()

    def test_removing_a_top_word_breaks_network(self):
        m = Manifold.from_relation(TOTAL_ORDER_3)
        words = [w for w in m.words() if w != W(0, 1, 2)]
        pruned = Manifold(m.labels, words=words)
        assert not pruned.is_network()

    def test_singletons_with_identity_relation_is_network(self):
        m = Manifold(("1", "2"), words=[W(0), W(1)])
        assert m.is_network()

    def test_two_orderings_is_not_network(self):
        m = Manifold(("1", "2"), words=[W(0), W(1), W(0, 1), W(1, 0)])
        assert not m.is_network()


class TestCheckStructure:
    def test_triangle_passes_all_checks(self):
        report = Manifold.from_relation(TRIANGLE_REL).check_structure()
        assert report.ok
        assert "ok" in str(report)

    def test_two_orderings_fail_uniqueness(self):
        m = Manifold(("1", "2"), words=[W(0), W(1), W(0, 1), W(1, 0)])
        report = m.check_structure()
        assert not report.ok
        assert any(f.check == "uniqueness" for f in report.failures)

    def test_missing_face_fails_hereditarity(self):
        m = Manifold(
            ("1", "2", "3"),
            words=[W(0), W(1), W(2), W(0, 1, 2), W(0, 2), W(1, 2)],
        )
        report = m.check_structure()
        witnesses = {
            (f.witness[0], f.witness[1])
            for f in report.failures
            if f.check == "hereditarity"
        }
        assert (W(0, 1, 2), W(0, 1)) in witnesses

    def test_missing_singleton_reported(self):
        m = Manifold(("1", "2"), words=[W(0)])
        report = m.check_structure()
        assert any(f.check == "singletons" for f in report.failures)

    def test_unrelated_pair_fails_fully_ordered(self):
        # word (0,1,2) present but the 1-form (0,2) missing: pair unrelated
        m = Manifold(
            ("1", "2", "3"),
            words=[W(0), W(1), W(2), W(0, 1), W(1, 2), W(0, 1, 2)],
        )
        report = m.check_structure()
        assert any(f.check == "fully-ordered" for f in report.failures)


class TestWordFamilies:
    def test_explicit_words_fully_ordered_and_distinct(self):
        rng = random.Random(37)
        for _ in range(50):
            rel = random_antisymmetric_relation(rng, rng.randint(1, 5))
            m = Manifold.from_relation(rel)
            for w in m.words():
                assert len(set(w)) == len(w)
                for s in range(len(w)):
                    for t in range(s + 1, len(w)):
                        assert rel.holds(w[s], w[t])

    def test_chain_enumeration_matches_subset_filter(self):
        rng = random.Random(41)
        for _ in range(30):
            rel = random_antisymmetric_relation(rng, 4)
            chains = set(fully_ordered_sequences(rel))
            # oracle: pick each subset, try every arrangement
            expected = set()
            for size in range(1, 5):
                for subset in itertools.combinations(range(4), size):
                    for perm in itertools.permutations(subset):
                        if all(
                            rel.holds(perm[s], perm[t])
                            for s in range(size)
                            for t in range(s + 1, size)
                        ):
                            expected.add(Word(perm))
            assert chains == expected


class TestToSimplicial:
    def test_triangle_complex(self):
        p = Manifold.from_relation(TRIANGLE_REL).to_simplicial()
        assert p.simplices == {
            frozenset(s) for s in [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}]
        }
        assert p.simplex_label(frozenset({0, 2})) == "31"

    def test_singletons_only(self):
        m = Manifold(("1", "2"), words=[W(0), W(1)])
        assert m.to_simplicial().dim == 0

    def test_total_order_full_simplex(self):
        p = Manifold.from_relation(TOTAL_ORDER_3).to_simplicial()
        assert len(p.simplices) == 7
        assert frozenset({0, 1, 2}) in p.simplices

    def test_structure_violation_raises(self):
        m = Manifold(("1", "2"), words=[W(0), W(1), W(0, 1), W(1, 0)])
        with pytest.raises(StructureViolation):
            m.to_simplicial()
