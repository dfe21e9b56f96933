"""Finite spaces: generated spaces, T0, quotients, Hasse, open sets,
isomorphism."""

import itertools
import random

import pytest

from finitary import (
    STANDARD_CIRCLE_ARCS,
    STANDARD_CIRCLE_EXTRA_POINTS,
    Covering,
    FiniteSpace,
    InfiniteDimensional,
    Manifold,
    Relation,
    SimplicialComplex,
    TooLarge,
    BasicIdeal,
    basis_words,
    circle_covering,
    generated_space,
    hasse,
    is_subsequence,
    is_t0,
    manifolds,
    members,
    open_sets,
    poset_isomorphic,
    sampled_substitute,
    simplicial_substitute,
    trace_substitute,
)
from finitary.automata import is_finite
from finitary.envelope import deletions
from finitary.topology import _face_edges

from conftest import random_antisymmetric_relation, random_manifold


def mask(points):
    """The bitmask of a set of point indices."""
    return sum(1 << x for x in set(points))


def space(labels, opens):
    """A FiniteSpace from min_open sets given as point-index sets."""
    return FiniteSpace(labels, [mask(u) for u in opens])


def pairwise_masks(words):
    """min_open of each word by the definition: its superwords."""
    return [mask(j for j, b in enumerate(words) if is_subsequence(a, b)) for a in words]


TRIANGLE = Manifold.from_relation(Relation(3, [(0, 1), (1, 2), (2, 0)]))
CHAIN2 = space(("a", "b"), [{0}, {0, 1}])
ANTICHAIN2 = space(("a", "b"), [{0}, {1}])
INDISCRETE2 = space(("a", "b"), [{0, 1}, {0, 1}])


def down_set_space(n, strict_pairs, labels=None):
    """Build a space from a strict order: min_open(y) = everything below y."""
    closure = set(strict_pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(closure), repeat=2):
            if b == c and (a, d) not in closure:
                closure.add((a, d))
                changed = True
    opens = [{y} | {x for x, z in closure if z == y} for y in range(n)]
    return space(labels or tuple(f"p{i}" for i in range(n)), opens)


def random_preorder(rng, n):
    """A space on n points whose min_opens are reachability sets of a
    random relation, so it is T0 only when the relation has no cycle."""
    succ = {x: {y for y in range(n) if rng.random() < 0.4} for x in range(n)}
    opens = []
    for x in range(n):
        seen = {x}
        stack = [x]
        while stack:
            for y in succ[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        opens.append(seen)
    return space(tuple(f"p{i}" for i in range(n)), opens)


class TestFiniteSpaceValidation:
    def test_point_must_be_in_its_min_open(self):
        with pytest.raises(ValueError):
            space(("a", "b"), [{1}, {1}])

    def test_nesting_coherence_enforced(self):
        # b's min_open contains a, but min_open(a) is not inside it
        with pytest.raises(ValueError):
            space(("a", "b", "c"), [{0, 2}, {0, 1}, {2}])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            space(("a", "a"), [{0}, {1}])

    def test_masks_must_stay_inside_the_space(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a",), [0b11])

    def test_masks_must_be_ints(self):
        with pytest.raises(TypeError):
            FiniteSpace(("a",), [{0}])

    def test_one_mask_per_point(self):
        with pytest.raises(ValueError, match="one min_open mask per point required"):
            FiniteSpace(("a", "b"), [1])


class TestGeneratedSpace:
    def test_triangle_min_opens(self):
        s = generated_space(TRIANGLE)
        assert s.labels == ("1", "2", "3", "12", "23", "31")
        by = {s.labels[x]: {s.labels[y] for y in members(s.min_open[x])} for x in range(s.n)}
        assert by["1"] == {"1", "12", "31"}
        assert by["12"] == {"12"}

    def test_singleton_manifold(self):
        m = Manifold(("1",), words=[(0,)])
        s = generated_space(m)
        assert s.n == 1 and s.min_open == (0b1,)

    def test_full_simplex_min_opens(self):
        m = Manifold.from_relation(Relation(3, [(0, 1), (0, 2), (1, 2)]))
        s = generated_space(m)
        assert s.n == 7
        top = s.labels.index("123")
        assert s.min_open[top] == mask({top})
        assert s.min_open[s.labels.index("1")].bit_count() == 4

    def test_membership_is_the_subword_relation(self):
        rng = random.Random(43)
        for _ in range(25):
            m = random_manifold(rng, max_vertices=4)
            words = list(m.words())
            s = generated_space(m)
            for x, a in enumerate(words):
                for y, b in enumerate(words):
                    assert s.le(y, x) == is_subsequence(a, b)

    def test_deletion_closure_equals_pairwise_subsequence_test(self):
        # ideal complements whose generators repeat letters: words like
        # 1,2,1 where deleting the middle letter is not a valid word
        rng = random.Random(44)
        checked = repeats = 0
        while checked < 800:
            n = rng.randint(2, 3)
            pool = [w for g in range(1, 5) for w in basis_words(n, g)]
            m = Manifold.from_ideal(BasicIdeal(n, rng.sample(pool, rng.randint(1, 4))))
            if m.dimension() > 6:  # words up to length 7
                continue
            words = list(m.words())
            assert _face_edges(words, deletions) is not None  # hereditary
            assert generated_space(m).min_open == tuple(pairwise_masks(words))
            checked += 1
            repeats += any(len(set(w)) < len(w) for w in words)
        assert repeats > 200

    def test_explicit_families_with_and_without_every_deletion(self):
        rng = random.Random(45)
        fallbacks = 0
        for _ in range(500):
            n = rng.randint(2, 3)
            pool = [w for g in range(0, 4) for w in basis_words(n, g)]
            words = rng.sample(pool, rng.randint(1, min(12, len(pool))))
            m = Manifold(tuple("abc"[:n]), words=words)
            ordered = list(m.words())
            fallbacks += _face_edges(ordered, deletions) is None
            assert generated_space(m).min_open == tuple(pairwise_masks(ordered))
        assert 100 < fallbacks < 500  # random families are rarely hereditary

    def test_infinite_dimensional_rejected(self):
        with pytest.raises(InfiniteDimensional, match="generated space needs a finite"):
            generated_space(Manifold.from_ideal(BasicIdeal(2)))

    def test_an_ideal_is_tested_for_finiteness_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            manifolds, "is_finite", lambda *args: calls.append(args) or is_finite(*args)
        )
        generated_space(Manifold.from_ideal(BasicIdeal(3, [(1, 0), (2, 0), (2, 1)])))
        with pytest.raises(InfiniteDimensional):
            generated_space(Manifold.from_ideal(BasicIdeal(2)))
        assert len(calls) == 2


class TestT0:
    def test_generated_spaces_are_t0(self):
        rng = random.Random(47)
        for _ in range(40):
            assert is_t0(generated_space(random_manifold(rng, max_vertices=5)))

    def test_indiscrete_pair_is_not_t0(self):
        assert not is_t0(INDISCRETE2)

    def test_one_point_space(self):
        assert is_t0(space(("x",), [{0}]))

    def test_trace_quotient_merges_equal_traces(self):
        traces = [mask(t) for t in ({0}, {0, 1}, {0}, {1})]
        q, class_of = trace_substitute(Covering(("A", "B"), ("p", "q", "r", "s"), traces))
        assert class_of == (0, 1, 0, 2)
        assert q.labels == ("p", "q", "s")
        assert q.min_open == (mask({0, 1}), mask({1}), mask({1, 2}))


class TestOrderAndHasse:
    def test_triangle_hasse_edges(self):
        s = generated_space(TRIANGLE)
        h = hasse(s)
        assert set(h.edge_labels()) == {
            ("12", "1"),
            ("12", "2"),
            ("23", "2"),
            ("23", "3"),
            ("31", "3"),
            ("31", "1"),
        }

    def test_antichain_has_no_edges(self):
        assert hasse(ANTICHAIN2).edges == ()

    def test_chain(self):
        assert hasse(CHAIN2).edges == ((0, 1),)
        order = {(x, y) for y in range(2) for x in members(CHAIN2.min_open[y])}
        assert order == {(0, 0), (0, 1), (1, 1)}

    def test_transitive_closure_of_hasse_is_the_order(self):
        rng = random.Random(59)
        for _ in range(20):
            m = random_manifold(rng, max_vertices=4)
            s = generated_space(m)
            h = hasse(s)
            closure = {(x, x) for x in range(s.n)} | set(h.edges)
            changed = True
            while changed:
                changed = False
                for (a, b), (c, d) in itertools.product(list(closure), repeat=2):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
            assert closure == {(x, y) for y in range(s.n) for x in members(s.min_open[y])}
            # and nothing smaller generates it: no edge passes through a point
            for x, y in h.edges:
                assert not any(s.le(x, z) and s.le(z, y) for z in range(s.n) if z not in (x, y))
            assert hasse(s) == h  # stable under recomputation

    def test_recipe_covers_equal_the_reduction_of_the_table(self, table_builds):
        # every library-built kind of space, beside its table-only twin; a
        # face-closed recipe gives the covers without a table, any other
        # space builds its table once
        rng = random.Random(60)
        spaces = []
        for _ in range(60):
            m = Manifold.from_relation(random_antisymmetric_relation(rng, rng.randint(1, 5)))
            complex_ = m.to_simplicial()
            spaces += [
                generated_space(m),
                simplicial_substitute(complex_),
                sampled_substitute(complex_, rng.randint(1, 3), rng.randrange(100)),
            ]
        for _ in range(150):  # every pair blocked, so the family is finite
            n = rng.randint(2, 4)
            pairs = [w for w in basis_words(n, 1) if w[0] < w[1] or rng.random() < 0.5]
            pairs += [w[::-1] for w in pairs if w[0] < w[1] and rng.random() < 0.3]
            triples = list(basis_words(n, 2))
            triples = rng.sample(triples, rng.randint(0, min(4, len(triples))))
            spaces.append(generated_space(Manifold.from_ideal(BasicIdeal(n, pairs + triples))))
        for _ in range(150):
            n = rng.randint(2, 3)
            pool = [w for g in range(0, 4) for w in basis_words(n, g)]
            words = rng.sample(pool, rng.randint(1, min(12, len(pool))))
            spaces.append(generated_space(Manifold(tuple("abc"[:n]), words=words)))
        for samples in (1, 2, 3, 5, 8, 64):
            covering = circle_covering(
                STANDARD_CIRCLE_ARCS, samples, STANDARD_CIRCLE_EXTRA_POINTS[: samples % 3]
            )
            spaces.append(trace_substitute(covering)[0])
        closed = 0
        for s in spaces:
            face_closed = _face_edges(*s._recipe[:2]) is not None
            before = sum(table_builds.values())
            h = hasse(s)
            assert sum(table_builds.values()) - before == (not face_closed)
            assert h == hasse(FiniteSpace(s.labels, s.min_open))
            closed += face_closed
        assert 200 < closed < len(spaces) - 100

    def test_heights_are_the_longest_chains_of_the_order(self):
        # up the covers and down them, against the longest chains of the
        # table's strict order, found by relaxation
        def longest(s, down):
            height, changed = [0] * s.n, True
            while changed:
                changed = False
                for y, u in enumerate(s.min_open):
                    for x in members(u & ~(1 << y)):
                        lo, up = (y, x) if down else (x, y)
                        if height[up] < height[lo] + 1:
                            height[up], changed = height[lo] + 1, True
            return height

        rng = random.Random(61)
        for _ in range(40):
            m = Manifold.from_relation(random_antisymmetric_relation(rng, rng.randint(1, 5)))
            for s in (generated_space(m), simplicial_substitute(m.to_simplicial())):
                h = hasse(s)
                assert h.heights() == longest(s, down=False)
                assert h.heights(down=True) == longest(s, down=True)

    def test_hasse_requires_t0(self):
        with pytest.raises(ValueError):
            hasse(INDISCRETE2)


class TestOpenSets:
    def test_antichain_powerset(self):
        opens = open_sets(space(("a", "b", "c"), [{0}, {1}, {2}]))
        assert len(opens) == 8

    def test_antichain_of_twelve_points_in_size_then_members_order(self):
        n = 12
        opens = open_sets(space(tuple(map(str, range(n))), [{i} for i in range(n)]))
        assert opens == tuple(
            sorted(range(1 << n), key=lambda u: (u.bit_count(), members(u)))
        )

    def test_chain_has_linear_lattice(self):
        opens = open_sets(CHAIN2)
        assert opens == (0, mask({0}), mask({0, 1}))

    def test_closure_under_union_and_intersection(self):
        rng = random.Random(61)
        for _ in range(15):
            s = generated_space(random_manifold(rng, max_vertices=4))
            if s.n > 12:
                continue
            opens = set(open_sets(s))
            assert 0 in opens
            assert mask(range(s.n)) in opens
            for u, v in itertools.combinations(opens, 2):
                assert u | v in opens
                assert u & v in opens

    def test_opens_are_the_masks_holding_each_members_min_open(self):
        # the definition: U is open iff min_open(x) lies in U for every x in U
        rng = random.Random(53)
        non_t0 = 0
        for _ in range(80):
            s = random_preorder(rng, rng.randint(1, 7))
            expected = [
                u
                for u in range(1 << s.n)
                if all(s.min_open[x] & ~u == 0 for x in members(u))
            ]
            expected.sort(key=lambda u: (u.bit_count(), members(u)))
            assert open_sets(s) == tuple(expected)
            non_t0 += not is_t0(s)
        assert 20 < non_t0 < 80

    def test_non_t0_opens_contain_whole_classes(self):
        opens = open_sets(INDISCRETE2)
        assert opens == (0, mask({0, 1}))

    def test_guard(self):
        n = 21
        with pytest.raises(TooLarge):
            open_sets(space(tuple(map(str, range(n))), [{i} for i in range(n)]))


def iso_oracle(a: FiniteSpace, b: FiniteSpace):
    if a.n != b.n:
        return None
    for perm in itertools.permutations(range(b.n)):
        if all(
            a.le(x, y) == b.le(perm[x], perm[y])
            for x in range(a.n)
            for y in range(a.n)
        ):
            return perm
    return None


class TestIsomorphism:
    def test_identity_found_first_on_equal_spaces(self):
        s = generated_space(TRIANGLE)
        assert poset_isomorphic(s, s) == tuple(range(s.n))

    def test_chain_vs_antichain(self):
        assert poset_isomorphic(CHAIN2, ANTICHAIN2) is None

    def test_point_counts_differ(self):
        assert poset_isomorphic(CHAIN2, space(("a",), [{0}])) is None

    def test_identity_on_1023_points_does_not_recurse(self):
        # the face poset of the 9-simplex; one stack frame per point would
        # exceed the interpreter's recursion limit
        nine_simplex = SimplicialComplex.closed(10, [(1 << 10) - 1])[0]
        s = simplicial_substitute(nine_simplex)
        assert s.n == 1023
        assert poset_isomorphic(s, s) == tuple(range(s.n))

    def test_permuted_copy_is_isomorphic(self):
        rng = random.Random(67)
        for _ in range(20):
            s = generated_space(random_manifold(rng, max_vertices=5))
            perm = list(range(s.n))
            rng.shuffle(perm)
            labels = tuple(s.labels[perm.index(i)] for i in range(s.n))
            opens = [None] * s.n
            for x in range(s.n):
                opens[perm[x]] = {perm[y] for y in members(s.min_open[x])}
            t = space(labels, opens)
            mapping = poset_isomorphic(s, t)
            assert mapping is not None
            for x in range(s.n):
                for y in range(s.n):
                    assert s.le(x, y) == t.le(mapping[x], mapping[y])

    def test_agreement_with_brute_force(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = down_set_space(
                n, {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
            )
            b = down_set_space(
                n, {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
            )
            mine = poset_isomorphic(a, b)
            brute = iso_oracle(a, b)
            assert (mine is None) == (brute is None)
            if mine is not None:
                for x in range(n):
                    for y in range(n):
                        assert a.le(x, y) == b.le(mine[x], mine[y])

    def test_existence_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")

        def graph(s):
            g = nx.DiGraph()
            g.add_nodes_from(range(s.n))
            g.add_edges_from((x, y) for y in range(s.n) for x in members(s.min_open[y]) if x != y)
            return g

        rng = random.Random(83)
        found = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(1, 7)
            pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35}
            perm = list(range(n))
            rng.shuffle(perm)
            moved = {(perm[i], perm[j]) for i, j in pairs}
            if n > 1 and rng.random() < 0.5:  # add or drop one relation
                i, j = sorted(rng.sample(range(n), 2))
                moved ^= {(perm[i], perm[j])}
            # both relations only go up in the order perm, so both are acyclic
            a, b = down_set_space(n, pairs), down_set_space(n, moved)
            mine = poset_isomorphic(a, b)
            theirs = nx.algorithms.isomorphism.DiGraphMatcher(graph(a), graph(b)).is_isomorphic()
            assert (mine is not None) == theirs
            found[theirs] += 1
            if mine is not None:
                for x in range(n):
                    for y in range(n):
                        assert a.le(x, y) == b.le(mine[x], mine[y])
        assert min(found.values()) > 50
