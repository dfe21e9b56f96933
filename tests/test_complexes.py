import pytest

from finitary import NotASimplex, SimplicialComplex


def fs(*verts):
    return frozenset(verts)


BOUNDARY_TRIANGLE = SimplicialComplex(
    3, [fs(0), fs(1), fs(2), fs(0, 1), fs(1, 2), fs(0, 2)]
)
FULL_TRIANGLE = SimplicialComplex(
    3, [fs(0), fs(1), fs(2), fs(0, 1), fs(1, 2), fs(0, 2), fs(0, 1, 2)]
)


class TestValidation:
    def test_missing_face_rejected(self):
        with pytest.raises(NotASimplex):
            SimplicialComplex(3, [fs(0), fs(1), fs(2), fs(0, 1, 2)])

    def test_missing_singleton_rejected(self):
        with pytest.raises(NotASimplex):
            SimplicialComplex(3, [fs(0), fs(1)])

    def test_empty_simplex_rejected(self):
        with pytest.raises(NotASimplex):
            SimplicialComplex(1, [fs(0), frozenset()])

    def test_closed_adds_faces_and_singletons(self):
        complex_, added = SimplicialComplex.closed(3, [fs(0, 1, 2)])
        assert len(complex_) == 7
        assert len(added) == 6
        assert complex_ == FULL_TRIANGLE

    def test_closed_is_noop_on_a_complex(self):
        complex_, added = SimplicialComplex.closed(
            3, BOUNDARY_TRIANGLE.simplices
        )
        assert added == []
        assert complex_ == BOUNDARY_TRIANGLE


class TestStars:
    def test_vertex_star_on_the_boundary(self):
        assert BOUNDARY_TRIANGLE.star(fs(0)) == {fs(0), fs(0, 1), fs(0, 2)}

    def test_edge_star_is_itself(self):
        assert BOUNDARY_TRIANGLE.star(fs(0, 1)) == {fs(0, 1)}

    def test_vertex_star_in_the_full_simplex(self):
        assert len(FULL_TRIANGLE.star(fs(0))) == 4

    def test_star_of_a_non_simplex(self):
        with pytest.raises(NotASimplex):
            BOUNDARY_TRIANGLE.star(fs(0, 1, 2))


class TestCellsAndLabels:
    def test_default_label_joins_sorted_vertices(self):
        assert BOUNDARY_TRIANGLE.simplex_label(fs(2, 0)) == "13"

    def test_label_override(self):
        p = SimplicialComplex(
            2,
            [fs(0), fs(1), fs(0, 1)],
            simplex_labels={fs(0, 1): "21"},
        )
        assert p.simplex_label(fs(0, 1)) == "21"

    def test_multichar_labels_join_with_commas(self):
        p = SimplicialComplex(2, [fs(0), fs(1), fs(0, 1)], labels=("v1", "v2"))
        assert p.simplex_label(fs(0, 1)) == "v1,v2"
        # one long label in the table puts commas between the short ones too
        p = SimplicialComplex(3, [fs(0), fs(1), fs(2), fs(0, 1)], labels=("a", "b", "ab"))
        assert p.simplex_label(fs(0, 1)) == "a,b"

    def test_ordered_is_size_major(self):
        sizes = [len(s) for s in FULL_TRIANGLE.ordered()]
        assert sizes == sorted(sizes)
        assert FULL_TRIANGLE.dim == 2
