"""Manifold construction, dimension, structure checks, complex extraction."""

import itertools
import math
import random

import pytest

from finitary import (
    BasicIdeal,
    InfiniteDimensional,
    Manifold,
    NotAntisymmetric,
    Relation,
    StructureViolation,
    basis_words,
    generated_space,
    manifolds,
)
from finitary.complexes import simplex_key, vertex_mask
from finitary.envelope import deletions, word_key
from finitary.errors import members
from finitary.manifolds import StructureFailure

from conftest import random_antisymmetric_relation


TRIANGLE_REL = Relation(3, [(0, 1), (1, 2), (2, 0)])
TOTAL_ORDER_3 = Relation(3, [(0, 1), (0, 2), (1, 2)])


class TestFromRelation:
    def test_triangle_words(self):
        m = Manifold.from_relation(TRIANGLE_REL)
        assert set(m.words()) == {(0,), (1,), (2,), (0, 1), (1, 2), (2, 0)}
        assert [m.word_label(w) for w in m.words(max_grade=1) if len(w) == 2] == [
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
        assert (0, 1, 2) in set(m.words())
        assert m.dimension() == 2
        assert len(list(m.words())) == 7

    def test_no_vertices_is_refused(self):
        with pytest.raises(ValueError, match="explicit manifold needs at least one word"):
            Manifold.from_relation(Relation(0))

    @pytest.mark.parametrize("labels", [("a", "b"), ("a", "b", "c", "d")], ids=["short", "long"])
    def test_label_table_must_match_the_vertex_count(self, labels):
        for rel in (TRIANGLE_REL, Relation(3, [(0, 1), (1, 0)])):
            with pytest.raises(ValueError, match="label count does not match vertex count"):
                Manifold.from_relation(rel, labels=labels)


class TestRelationOf:
    def test_triangle_round_trip(self):
        m = Manifold.from_relation(TRIANGLE_REL)
        assert m.relation() == TRIANGLE_REL

    def test_singletons_only_gives_identity(self):
        m = Manifold(("1", "2", "3"), words=[(0,), (1,), (2,)])
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


class TestRelationMasks:
    """The successor masks against a frozenset-of-pairs reference."""

    @staticmethod
    def _reference_sequences(n, ref):
        out = []

        def extend(seq):
            out.append(seq)
            for k in range(n):
                if k not in seq and all((x, k) in ref for x in seq):
                    extend(seq + (k,))

        for i in range(n):
            extend((i,))
        return out

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_pair_set_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        ref = frozenset(pairs) | {(i, i) for i in range(n)}
        rel = Relation(n, pairs)
        assert all(type(a) is int for a in rel.after) and len(rel.after) == n
        for i in range(-1, n + 1):
            for j in range(-1, n + 1):
                assert rel.holds(i, j) == ((i, j) in ref)
        assert rel.strict_pairs() == tuple(sorted(p for p in ref if p[0] != p[1]))
        witness = next((p for p in sorted(ref) if p[0] < p[1] and p[::-1] in ref), None)
        assert rel.antisymmetry_witness() == witness
        if witness:
            with pytest.raises(NotAntisymmetric):
                Manifold.from_relation(rel)
            return
        chains = [tuple(w) for w in Manifold.from_relation(rel).words()]
        assert chains == sorted(self._reference_sequences(n, ref), key=word_key)

    def test_large_sparse_relation_agrees_with_pair_set_reference(self):
        # a few thousand vertices, few pairs and one two-way pair near the end
        n = 3000
        pairs = [(2990, 2995), (7, 2999), (2995, 2990), (0, 1), (2998, 3)]
        rel = Relation(n, pairs)
        assert rel.strict_pairs() == tuple(sorted(pairs))
        assert rel.antisymmetry_witness() == (2990, 2995)
        assert Relation(n, pairs[:2]).antisymmetry_witness() is None

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            Relation(2, [(0, 2)])


class TestDimension:
    def test_ideal_complement_no_generators_is_infinite(self):
        m = Manifold.from_ideal(BasicIdeal(2))
        assert math.isinf(m.dimension())
        assert m.dimension() == math.inf

    def test_ideal_complement_finite(self):
        m = Manifold.from_ideal(BasicIdeal(2, [(0, 1)]))
        assert m.dimension() == 1
        assert set(m.words()) == {(0,), (1,), (1, 0)}

    def test_infinite_enumeration_needs_truncation(self):
        m = Manifold.from_ideal(BasicIdeal(2))
        with pytest.raises(InfiniteDimensional):
            list(m.words())
        truncated = list(m.words(max_grade=2))
        assert truncated == [
            (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1),
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
            assert max(len(w) - 1 for w in words) == top

    def test_generated_space_walks_the_automaton_once(self, monkeypatch):
        calls = []
        for name in ("avoiding_words", "longest_avoiding_word"):
            original = getattr(manifolds, name)
            monkeypatch.setattr(
                manifolds, name, lambda *a, f=original, name=name: calls.append(name) or f(*a)
            )
        # the total order on 4 vertices as an ideal complement
        m = Manifold.from_ideal(BasicIdeal(4, [(j, i) for i in range(4) for j in range(i + 1, 4)]))
        assert generated_space(m).n == 15
        assert m.dimension() == 3
        assert calls == ["avoiding_words"]

    def test_truncated_listing_of_an_unlisted_ideal(self):
        for ideal in (BasicIdeal(3), BasicIdeal(3, [(0, 1), (1, 0)])):
            m = Manifold.from_ideal(ideal)
            assert list(m.words(max_grade=0)) == [(0,), (1,), (2,)]

    def test_zero_vertices_list_no_words(self):
        m = Manifold.from_ideal(BasicIdeal(0))
        assert m.dimension() == -1
        assert list(m.words()) == []
        assert m.dimension() == -1


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

    def test_infinite_ideal_is_refused(self):
        with pytest.raises(InfiniteDimensional, match="network test needs a finite word family"):
            Manifold.from_ideal(BasicIdeal(2)).is_network()

    def test_removing_a_top_word_breaks_network(self):
        m = Manifold.from_relation(TOTAL_ORDER_3)
        words = [w for w in m.words() if w != (0, 1, 2)]
        pruned = Manifold(m.labels, words=words)
        assert not pruned.is_network()

    def test_singletons_with_identity_relation_is_network(self):
        m = Manifold(("1", "2"), words=[(0,), (1,)])
        assert m.is_network()

    def test_two_orderings_is_not_network(self):
        m = Manifold(("1", "2"), words=[(0,), (1,), (0, 1), (1, 0)])
        assert not m.is_network()


class TestCheckStructure:
    def test_triangle_passes_all_checks(self):
        report = Manifold.from_relation(TRIANGLE_REL).check_structure()
        assert report.ok
        assert "ok" in str(report)

    def test_two_orderings_fail_uniqueness(self):
        m = Manifold(("1", "2"), words=[(0,), (1,), (0, 1), (1, 0)])
        report = m.check_structure()
        assert not report.ok
        assert any(f.check == "uniqueness" for f in report.failures)

    def test_missing_face_fails_hereditarity(self):
        m = Manifold(
            ("1", "2", "3"),
            words=[(0,), (1,), (2,), (0, 1, 2), (0, 2), (1, 2)],
        )
        report = m.check_structure()
        witnesses = {
            (f.witness[0], f.witness[1])
            for f in report.failures
            if f.check == "hereditarity"
        }
        assert ((0, 1, 2), (0, 1)) in witnesses

    def test_missing_singleton_reported(self):
        m = Manifold(("1", "2"), words=[(0,)])
        report = m.check_structure()
        assert any(f.check == "singletons" for f in report.failures)

    def test_a_missing_singleton_alone_builds_no_relation(self, monkeypatch):
        # hereditarity and uniqueness hold, so the pair scan cannot fail
        def relation(self):
            raise AssertionError("relation built")

        monkeypatch.setattr(Manifold, "relation", relation)
        m = Manifold(("1", "2", "3"), words=[(0,), (1,), (0, 1)])
        assert [f.check for f in m.check_structure().failures] == ["singletons"]

    def test_unrelated_pair_fails_fully_ordered(self):
        # word (0,1,2) present but the 1-form (0,2) missing: pair unrelated
        m = Manifold(
            ("1", "2", "3"),
            words=[(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)],
        )
        report = m.check_structure()
        assert any(f.check == "fully-ordered" for f in report.failures)

    def test_report_equals_all_four_scans(self):
        # the pair scan runs only when another check fails; the report must
        # be the one the four unconditional scans give, failing or not
        rng = random.Random(89)
        passing = 0
        for _ in range(2000):
            m = random_word_family(rng, rng.randint(1, 5))
            expected = all_four_scans(m)
            assert m.check_structure().failures == expected
            passing += not expected
        assert 300 < passing < 1700

    def test_report_of_every_failure_kind_is_pinned(self):
        words = [(0,), (1,), (0, 1), (1, 0), (0, 2), (0, 1, 0), (0, 1, 2)]
        report = Manifold(("1", "2", "3"), words=words).check_structure()
        assert str(report).splitlines() == [
            "hereditarity: FAIL - 13 present but its face 3 is missing",
            "hereditarity: FAIL - 123 present but its face 23 is missing",
            "fully-ordered: FAIL - 12: pair (1,2) is related both ways",
            "fully-ordered: FAIL - 21: pair (2,1) is related both ways",
            "fully-ordered: FAIL - 121 repeats a letter",
            "fully-ordered: FAIL - 123: pair (1,2) is related both ways",
            "fully-ordered: FAIL - 123: pair (2,3) is unrelated",
            "uniqueness: FAIL - vertex set {12} carries several orderings: 12, 21, 121",
            "singletons: FAIL - singleton 3 is missing",
        ]
        assert [f.witness for f in report.failures] == [
            ((0, 2), (2,)),
            ((0, 1, 2), (1, 2)),
            ((0, 1), (0, 1)),
            ((1, 0), (1, 0)),
            ((0, 1, 0),),
            ((0, 1, 2), (0, 1)),
            ((0, 1, 2), (1, 2)),
            ((0, 1), (1, 0), (0, 1, 0)),
            (2,),
        ]


def all_four_scans(m):
    """The structure failures of m, every check scanned unconditionally."""
    words = list(m.words())
    word_set = set(words)
    rel = m.relation()
    failures = []
    for w in words:
        for sub in deletions(w):
            if sub not in word_set:
                failures.append(
                    StructureFailure(
                        "hereditarity",
                        (w, sub),
                        f"{m.word_label(w)} present but its face {m.word_label(sub)} is missing",
                    )
                )
    for w in words:
        if len(set(w)) != len(w):
            message = f"{m.word_label(w)} repeats a letter"
            failures.append(StructureFailure("fully-ordered", (w,), message))
            continue
        for s in range(len(w)):
            for t in range(s + 1, len(w)):
                a, b = w[s], w[t]
                if rel.holds(a, b) and not rel.holds(b, a):
                    continue
                how = "is related both ways" if rel.holds(a, b) else "is unrelated"
                failures.append(
                    StructureFailure(
                        "fully-ordered",
                        (w, (a, b)),
                        f"{m.word_label(w)}: pair ({m.labels[a]},{m.labels[b]}) {how}",
                    )
                )
    by_set = {}
    for w in words:
        by_set.setdefault(vertex_mask(w), []).append(w)
    for vset, group in sorted(by_set.items(), key=lambda kv: simplex_key(kv[0])):
        if len(group) > 1:
            names = ", ".join(map(m.word_label, group))
            vertices = m.word_label(members(vset))
            message = f"vertex set {{{vertices}}} carries several orderings: {names}"
            failures.append(StructureFailure("uniqueness", tuple(group), message))
    for i in range(m.n):
        if (i,) not in word_set:
            message = f"singleton {m.labels[i]} is missing"
            failures.append(StructureFailure("singletons", (i,), message))
    return tuple(failures)


def random_word_family(rng, n):
    """A closed family (network words, maybe truncated) with up to three
    random edits: a word dropped (a missing face or singleton), a second
    ordering of a word's vertex set, a repeated letter, or any word."""
    words = set(Manifold.from_relation(random_antisymmetric_relation(rng, n)).words())
    top = rng.randint(0, n - 1)
    words = {w for w in words if len(w) - 1 <= top}
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        w = rng.choice(sorted(words))
        edit = rng.randrange(4)
        if edit == 0 and len(words) > 1:
            words.discard(w)
        elif edit == 1 and len(w) > 1:
            words.add(w[::-1])
        elif edit == 2 and len(w) > 1 and w[-1] != w[0]:
            words.add((*w, w[0]))
        elif edit == 3:
            letters = [rng.randrange(n)]
            for _ in range(rng.randrange(4) if n > 1 else 0):
                letters.append(rng.choice([v for v in range(n) if v != letters[-1]]))
            words.add(tuple(letters))
    return Manifold(tuple(str(i + 1) for i in range(n)), words=words)


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
            chains = set(Manifold.from_relation(rel).words())
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
                            expected.add(perm)
            assert chains == expected


def test_a_manifold_needs_one_word_family():
    with pytest.raises(ValueError, match="explicit manifold needs at least one word"):
        Manifold(("1", "2"), words=[])


def test_the_constructor_takes_words_only():
    # an ideal complement has one spelling, Manifold.from_ideal
    with pytest.raises(TypeError):
        Manifold(("1", "2"), ideal=BasicIdeal(2))
    with pytest.raises(TypeError):
        Manifold(("1", "2"))


def test_duplicate_vertex_labels_are_refused():
    with pytest.raises(ValueError, match="vertex labels must be unique"):
        Manifold(("a", "a"), words=[(0,), (1,)])
    with pytest.raises(ValueError, match="vertex labels must be unique"):
        Manifold.from_ideal(BasicIdeal(2), labels=("a", "a"))


def test_an_empty_label_table_is_not_the_default():
    with pytest.raises(ValueError, match="label count does not match vertex count"):
        Manifold.from_relation(Relation(3, [(0, 1)]), labels=[])
    with pytest.raises(ValueError, match="ideal vertex count does not match label count"):
        Manifold.from_ideal(BasicIdeal(3, [(0, 1)]), labels=())


def test_vertex_labels_holding_the_separator_are_refused():
    # the word (0, 1) would be labelled "a,b", the label of vertex 2
    labels = ("a", "b", "a,b")
    with pytest.raises(ValueError, match="vertex labels must not contain ','"):
        Manifold(labels, words=[(0,), (1,), (2,), (0, 1)])
    with pytest.raises(ValueError, match="vertex labels must not contain ','"):
        Manifold.from_relation(Relation(3, [(0, 1)]), labels=labels)


class TestToSimplicial:
    def test_triangle_complex(self):
        p = Manifold.from_relation(TRIANGLE_REL).to_simplicial()
        assert p.simplices == (0b001, 0b010, 0b100, 0b011, 0b101, 0b110)
        assert p.cell_labels[p.simplices.index(0b101)] == "31"

    def test_singletons_only(self):
        m = Manifold(("1", "2"), words=[(0,), (1,)])
        assert m.to_simplicial().simplices == (0b01, 0b10)

    def test_total_order_full_simplex(self):
        p = Manifold.from_relation(TOTAL_ORDER_3).to_simplicial()
        assert len(p.simplices) == 7
        assert p.simplices[-1] == 0b111

    def test_structure_violation_raises(self):
        m = Manifold(("1", "2"), words=[(0,), (1,), (0, 1), (1, 0)])
        with pytest.raises(StructureViolation):
            m.to_simplicial()
