"""Format round trips and parse errors."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference

from finitary import (
    BasicIdeal,
    Covering,
    Form,
    Manifold,
    Relation,
    SimplicialComplex,
    Word,
    basis_words,
    generated_space,
    hasse,
)
from finitary.io import (
    ParseError,
    VertexTable,
    _coeff_prefix,
    hasse_dot,
    parse_complex,
    parse_covering,
    parse_form,
    parse_ideal,
    parse_manifold,
    parse_relation,
    print_form,
    space_json,
)
from finitary.scalars import GaussianRational

TABLE = VertexTable(("1", "2", "3"))
TRIANGLE_TEXT = """\
vertices: 1, 2, 3
relation:
1 <= 2
2 <= 3
3 <= 1
"""


class TestForms:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", Form()),
            ("e[1]", Form.word((0,))),
            ("-e[1,2]", Form.word((0, 1), -1)),
            ("3/2*e[1]", Form.word((0,), Fr(3, 2))),
            ("i*e[1]", Form.word((0,), GaussianRational(0, 1))),
            ("(1+2i)*e[1,2]", Form.word((0, 1), GaussianRational(1, 2))),
            (
                "e[1,2] - e[2,1]",
                Form([(Word((0, 1)), 1), (Word((1, 0)), -1)]),
            ),
            ("e[1,2]-e[2,1]", Form([(Word((0, 1)), 1), (Word((1, 0)), -1)])),
            ("e[1] + e[1]", Form.word((0,), 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_form(text, TABLE) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "e[]", "e[1,1]", "e[4]", "2*", "e[1] +", "x*e[1]", "(1+2i*e[1]"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_form(text, TABLE)

    def test_print_canonical_order_and_signs(self):
        f = Form(
            [
                (Word((1, 0)), 1),
                (Word((0, 1)), Fr(-3, 2)),
                (Word((0,)), GaussianRational(1, -2)),
            ]
        )
        assert print_form(f, TABLE) == "(1-2i)*e[1] - 3/2*e[1,2] + e[2,1]"

    def test_zero_prints_as_zero(self):
        assert print_form(Form(), TABLE) == "0"

    coeffs = st.builds(
        GaussianRational,
        st.fractions(min_value=-9, max_value=9, max_denominator=8),
        st.fractions(min_value=-9, max_value=9, max_denominator=8),
    )
    words = st.sampled_from([w for r in range(3) for w in basis_words(3, r)])

    @given(st.lists(st.tuples(words, coeffs), max_size=6))
    def test_round_trip_random_forms(self, terms):
        f = Form(terms)
        assert parse_form(print_form(f, TABLE), TABLE) == f

    # parts from 0 and +-1 up to 5000 digits, so that the magnitude of
    # each part crosses the digit limit of str()
    parts = st.builds(
        Fr,
        st.one_of(st.integers(-2, 2), st.integers(-(10**5000), 10**5000)),
        st.one_of(st.integers(1, 3), st.integers(1, 10**5000)),
    )

    @settings(max_examples=300)
    @given(st.builds(GaussianRational, parts, parts))
    def test_coefficient_prefix_matches_the_reference(self, c):
        assert _coeff_prefix(c) == scalar_reference.coeff_prefix(c)


class TestRelations:
    def test_parse(self):
        rel = parse_relation("n 2\n1 <= 2\n")
        assert rel == Relation(2, [(0, 1)])

    def test_round_trip(self):
        rel = Relation(3, [(0, 1), (1, 2), (2, 0)])
        assert parse_relation("n 3\n1 <= 2\n2 <= 3\n3 <= 1\n") == rel

    @pytest.mark.parametrize("text", ["", "m 3", "n x", "n ²", "n ١٢", "n 2\n1 < 2", "n 2\n1 <= 9"])
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_relation(text)

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_relation("n 2\n# fine\n1 <= 9", source="rel.txt")
        assert err.value.source == "rel.txt" and err.value.line == 3


class TestManifolds:
    def test_parse_relation_block(self):
        m = parse_manifold(TRIANGLE_TEXT)
        assert m.dimension() == 1
        assert [m.word_label(w) for w in m.words() if w.grade == 1] == ["12", "23", "31"]

    def test_parse_words_block(self):
        text = "vertices: a, b\nwords:\na\nb\na, b\n"
        m = parse_manifold(text)
        assert m.word_label(Word((0, 1))) == "ab"

    def test_parse_ideal_block(self):
        text = "vertices: 1, 2\nideal:\n1, 2\n"
        m = parse_manifold(text)
        assert not m.is_explicit
        assert m.dimension() == 1

    def test_round_trip_explicit(self):
        m = parse_manifold(TRIANGLE_TEXT)
        text = "vertices: 1, 2, 3\nwords:\n1\n2\n3\n1, 2\n2, 3\n3, 1\n"
        assert parse_manifold(text) == m

    def test_round_trip_ideal(self):
        m = Manifold.from_ideal(BasicIdeal(2, [Word((0, 1))]))
        assert parse_manifold("vertices: 1, 2\nideal:\n1, 2\n") == m

    def test_relation_file_is_its_network_manifold(self):
        text = "n 3\n1 <= 2\n2 <= 3\n3 <= 1\n"
        assert parse_manifold(text) == parse_manifold(TRIANGLE_TEXT)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "words:\n1\n",
            "vertices: 1, 2\n",
            "vertices: 1, 2\nstuff:\n",
            "vertices: 1, 1\nwords:\n1\n",
            "vertices: 1, 2\nwords:\n",
            "vertices: 1, 2\nrelation:\n1 <= 3\n",
            "vertices: 1, 2\nideal:\n1\n",
        ],
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_manifold(text)


class TestIdeals:
    def test_parse_reports_originals(self):
        ideal, table, given = parse_ideal("vertices: 1, 2, 3\n1, 2\n3, 1, 2\n")
        assert ideal.generators == (Word((0, 1)),)
        assert Word((2, 0, 1)) in given

    def test_vertex_table_inferred_when_missing(self):
        ideal, table, _ = parse_ideal("1, 2\n2, 1\n")
        assert table.labels == ("1", "2")
        assert len(ideal.generators) == 2

    def test_round_trip(self):
        ideal = BasicIdeal(3, [Word((0, 1)), Word((1, 0))])
        parsed, parsed_table, _ = parse_ideal("vertices: 1, 2, 3\n1, 2\n2, 1\n")
        assert parsed == ideal and parsed_table.labels == ("1", "2", "3")

    def test_grade_zero_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_ideal("vertices: 1, 2\n1\n")


class TestComplexes:
    def test_parse_applies_closure_with_notes(self):
        complex_, notes = parse_complex("vertices: 1, 2, 3\n1, 2, 3\n")
        assert len(complex_) == 7
        assert len(notes) == 6
        assert any("12" in note for note in notes)

    def test_round_trip(self):
        text = "vertices: 1, 2, 3\n1\n2\n3\n1, 2\n2, 3\n"
        complex_, notes = parse_complex(text)
        expected = SimplicialComplex(3, [0b001, 0b010, 0b100, 0b011, 0b110])
        assert complex_ == expected and notes == []

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ParseError):
            parse_complex("vertices: 1, 2\n1, 1\n")


class TestCoverings:
    def test_parse(self):
        c = parse_covering("covers: A, B\np: A\nq: A, B\n")
        assert c.traces == (0b01, 0b11)

    def test_round_trip(self):
        c = Covering(("A", "B"), ("p", "q"), [0b01, 0b11])
        parsed = parse_covering("covers: A, B\np: A\nq: A, B\n")
        assert (parsed.cover_labels, parsed.point_labels, parsed.traces) == (
            c.cover_labels,
            c.point_labels,
            c.traces,
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "p: A\n",
            "covers: A\np\n",
            "covers: A\np: B\n",
            "covers: A, A\np: A\n",
            "covers: A\np:\n",
        ],
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_covering(text)

    def test_a_covers_line_needs_a_cover_set(self):
        with pytest.raises(ParseError, match="covers: line lists no cover sets"):
            parse_covering("covers: ,\np: A\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("covers: A\np: A\nq:\n", "point q lies in no cover set"),
            ("covers: A, B\np: A\np: B\n", "point labels must be unique"),
        ],
    )
    def test_point_errors_name_the_point_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_covering(text, source="unc.covering")
        assert err.value.line == 3
        assert str(err.value) == f"unc.covering:3: {message}"


TRIANGLE_DOT = """\
digraph hasse {
  rankdir=BT;
  { rank=same; "12"; "23"; "31"; }
  { rank=same; "1"; "2"; "3"; }
  "12" -> "1";
  "12" -> "2";
  "23" -> "2";
  "23" -> "3";
  "31" -> "1";
  "31" -> "3";
}
"""


class TestSpaceOutput:
    def test_triangle_dot_golden(self):
        space = generated_space(parse_manifold(TRIANGLE_TEXT))
        assert hasse_dot(hasse(space)) == TRIANGLE_DOT

    def test_json_shape(self):
        space = generated_space(parse_manifold(TRIANGLE_TEXT))
        import json

        payload = json.loads(space_json(space))
        assert payload["points"] == ["1", "2", "3", "12", "23", "31"]
        assert payload["min_open"]["1"] == ["1", "12", "31"]
        assert payload["min_open"]["12"] == ["12"]
