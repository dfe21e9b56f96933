import random
from itertools import combinations

import pytest

from finitary import NotASimplex, SimplicialComplex, TooLarge, members, simplicial_substitute
from finitary.complexes import MAX_CELLS

from conftest import random_manifold


def mask(*verts):
    return sum(1 << v for v in verts)


BOUNDARY_TRIANGLE = SimplicialComplex(
    3, [mask(0), mask(1), mask(2), mask(0, 1), mask(1, 2), mask(0, 2)]
)
FULL_TRIANGLE = SimplicialComplex(
    3, [mask(0), mask(1), mask(2), mask(0, 1), mask(1, 2), mask(0, 2), mask(0, 1, 2)]
)


class TestValidation:
    def test_an_empty_label_table_is_not_the_default(self):
        with pytest.raises(ValueError, match="label count does not match vertex count"):
            SimplicialComplex(3, [1, 2, 4], labels=())
        assert SimplicialComplex(0, [], labels=()).labels == ()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="vertex labels must be unique"):
            SimplicialComplex(2, [1, 2, 3], labels=("a", "a"))

    def test_labels_holding_the_separator_rejected(self):
        # the edge {1, 2} would be labelled "a,b", the label of vertex 0
        with pytest.raises(ValueError, match="vertex labels must not contain ','"):
            SimplicialComplex(3, [1, 2, 4, 3], labels=("a,b", "a", "b"))

    def test_empty_simplex_rejected(self):
        with pytest.raises(NotASimplex):
            SimplicialComplex(1, [mask(0), 0])
        with pytest.raises(NotASimplex):
            SimplicialComplex(1, [0])

    @pytest.mark.parametrize("bad", [-1, -2, 0b1000, 1 << 64])
    def test_negative_or_outside_mask_rejected(self, bad):
        with pytest.raises(NotASimplex):
            SimplicialComplex(3, [mask(0), mask(1), mask(2), bad])
        # every mask is checked before faces are listed: a negative mask
        # has infinitely many submasks
        with pytest.raises(NotASimplex):
            SimplicialComplex(3, [mask(0, 1), bad])

    @pytest.mark.parametrize("bad", [frozenset({0}), (0,), True, 1.0, "1"])
    def test_non_int_simplex_rejected(self, bad):
        with pytest.raises(TypeError):
            SimplicialComplex(3, [mask(0), mask(1), mask(2), bad])

    def test_closed_adds_faces_and_singletons(self):
        complex_ = SimplicialComplex(3, [0b111])
        assert len(complex_) == 7
        assert complex_ == FULL_TRIANGLE
        # the singletons of vertices no mask names are added too
        assert SimplicialComplex(3, [mask(0, 1)]).simplices == (
            mask(0), mask(1), mask(2), mask(0, 1)
        )

    def test_closed_is_noop_on_a_complex(self):
        assert SimplicialComplex(3, BOUNDARY_TRIANGLE.simplices) == BOUNDARY_TRIANGLE

    def test_closure_is_capped_at_max_cells(self):
        # a 12-simplex and one more vertex: exactly MAX_CELLS cells
        complex_ = SimplicialComplex(13, [(1 << 12) - 1])
        assert len(complex_) == MAX_CELLS == 4096
        with pytest.raises(TooLarge):
            SimplicialComplex(13, [(1 << 13) - 1])
        with pytest.raises(TooLarge):  # the singletons count too
            SimplicialComplex(MAX_CELLS + 1, [])


def star_labels(p, simplex):
    """Labels of the star of a simplex: the minimal open set of its point in
    the symbolic substitute."""
    space = simplicial_substitute(p)
    x = space.labels.index(p.cell_labels[p.simplices.index(simplex)])
    return {space.labels[y] for y in members(space.min_open[x])}


class TestStars:
    def test_vertex_star_on_the_boundary(self):
        assert star_labels(BOUNDARY_TRIANGLE, mask(0)) == {"1", "12", "13"}

    def test_edge_star_is_itself(self):
        assert star_labels(BOUNDARY_TRIANGLE, mask(0, 1)) == {"12"}

    def test_vertex_star_in_the_full_simplex(self):
        assert star_labels(FULL_TRIANGLE, mask(0)) == {"1", "12", "13", "123"}

    def test_star_of_a_non_simplex(self):
        # a non-simplex has no cell, so no label and no point in the substitute
        with pytest.raises(ValueError):
            star_labels(BOUNDARY_TRIANGLE, mask(0, 1, 2))


class TestCellsAndLabels:
    def test_default_label_joins_sorted_vertices(self):
        assert BOUNDARY_TRIANGLE.cell_labels == ("1", "2", "3", "12", "13", "23")

    def test_multichar_labels_join_with_commas(self):
        p = SimplicialComplex(2, [mask(0), mask(1), mask(0, 1)], labels=("v1", "v2"))
        assert p.cell_labels == ("v1", "v2", "v1,v2")
        # one long label in the table puts commas between the short ones too
        p = SimplicialComplex(3, [mask(0), mask(1), mask(2), mask(0, 1)], labels=("a", "b", "ab"))
        assert p.cell_labels == ("a", "b", "ab", "a,b")

    def test_each_cell_joins_its_sorted_vertex_labels_once(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 8)
            pool, sep = rng.choice((("abcdefgh", ""), (["v" + c for c in "abcdefgh"], ",")))
            table = rng.sample(pool, n)
            given = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
            p = SimplicialComplex(n, [g for g in given if g], labels=table)
            for s, label in zip(p.simplices, p.cell_labels, strict=True):
                assert label == sep.join(table[v] for v in members(s))
            assert len(set(p.cell_labels)) == len(p)
            assert simplicial_substitute(p).labels is p.cell_labels

    def test_ordered_is_size_major(self):
        assert FULL_TRIANGLE.simplices == (
            mask(0), mask(1), mask(2), mask(0, 1), mask(0, 2), mask(1, 2), mask(0, 1, 2)
        )


def random_complexes(seed, count=40):
    rng = random.Random(seed)
    return [random_manifold(rng).to_simplicial() for _ in range(count)]


class TestMasks:
    def test_the_constructor_matches_a_combinations_reference(self):
        rng = random.Random(89)
        for p in random_complexes(89):
            n = p.vertex_count
            given = rng.sample(p.simplices, rng.randint(0, len(p)))
            closure = {frozenset((v,)) for v in range(n)}
            for s in given:
                verts = members(s)
                for size in range(1, len(verts) + 1):
                    closure.update(map(frozenset, combinations(verts, size)))
            expected = sorted(closure, key=lambda c: (len(c), sorted(c)))
            complex_ = SimplicialComplex(n, given)
            assert complex_.simplices == tuple(mask(*c) for c in expected)

    def test_members_matches_a_bin_reference_on_wide_masks(self):
        # masks of up to 80 random bits, shifted as high as bit 20 000, so
        # both the narrow path and the wide one that skips the low zeros run
        rng = random.Random(97)
        masks = [0, 1, 1 << 64, 1 << 19999, (1 << 200) - 1]
        shifts = (0, 1, 63, 64, 65, 5000, 19999)
        for _ in range(300):
            masks.append(rng.getrandbits(rng.randint(1, 80)) << rng.choice(shifts))
        for m in masks:
            assert members(m) == [i for i, bit in enumerate(reversed(bin(m)[2:])) if bit == "1"]
