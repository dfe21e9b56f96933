"""Format round trips and parse errors."""

from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

import form_reference
import scalar_reference

from finitary import (
    BasicIdeal,
    Covering,
    Form,
    Manifold,
    Relation,
    SimplicialComplex,
    TooLarge,
    basis_words,
    envelope,
    generated_space,
    hasse,
    scalars,
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
                Form([((0, 1), 1), ((1, 0), -1)]),
            ),
            ("e[1,2]-e[2,1]", Form([((0, 1), 1), ((1, 0), -1)])),
            ("e[1] + e[1]", Form.word((0,), 2)),
            # a sign run's parity is the sign; spaces may precede a '*'
            ("--e[1]", Form.word((0,))),
            ("+-e[1]", Form.word((0,), -1)),
            ("e[1]--e[2]", Form([((0,), 1), ((1,), 1)])),
            ("2 *e[1]", Form.word((0,), 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_form(text, TABLE) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "", "e[]", "e[1,1]", "e[4]", "2*", "e[1] +", "x*e[1]", "(1+2i*e[1]",
            # no space inside a sign run, between '*' and 'e[' or before '['
            "e[1] - -e[2]", "2* e[1]", "e [1]", "e[1]e[2]",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_form(text, TABLE)

    @pytest.mark.parametrize(
        "text,col,message",
        [
            ("e[1] - x*e[2]", 7, "bad coefficient 'x'"),
            ("e[1] -- (1/0)*e[2]", 8, "bad coefficient '(1/0)'"),
            ("-e[]", 2, "word with no letters"),
            ("e[1] + e[4]", 7, "unknown vertex label '4'"),
            ("e[1]e[2]", 5, "cannot parse the form from 'e[2]'"),
            ("e[1] +", 6, "cannot parse the form from '+'"),
            ("2* e[1]", 1, "cannot parse the form from '2* e[1]'"),
            ("e[1] - *e[2]", 6, "cannot parse the form from '- *e[2]'"),
        ],
    )
    def test_errors_name_their_column(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse_form(text, TABLE, source="f")
        assert err.value.col == col and str(err.value) == f"f:1:{col}: {message}"

    def test_a_syntax_error_quotes_the_next_30_characters(self):
        with pytest.raises(ParseError) as err:
            parse_form("e[1]e[2]" + " + e[3]" * 40, TABLE, source="f")
        assert str(err.value) == "f:1:5: cannot parse the form from 'e[2] + e[3] + e[3] + e[3] + e['..."

    # token strings over two vertex tables, one with labels holding a sign
    # and a dot; the reference reader cuts the text at top-level signs first
    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from([TABLE, VertexTable(("1", "a-b", "d.e"))]),
        st.lists(
            st.sampled_from(
                ["e[", "]", ",", "1", "2", "3", "a-b", "d.e", "e[1]", "e[a-b]", "e[1,2]",
                 "+", "-", " ", "\t", "*", "(", ")", "[", "3/2", "i", "1+2i", ".", "0", "x",
                 "(1+2i)*", "3/2*", " - ", " + ", "--"]
            ),
            max_size=10,
        ).map("".join),
    )
    @example(TABLE, "e[1]--e[2]")
    @example(TABLE, "([)*e[1]+e[2]")
    def test_token_strings_read_as_the_reference_reads_them(self, table, text):
        def outcome(parse):
            try:
                return parse(text, table)
            except ParseError as exc:
                return exc

        ours, theirs = outcome(parse_form), outcome(form_reference.parse_form)
        assert isinstance(ours, Form) == isinstance(theirs, Form), (ours, theirs)
        if isinstance(theirs, Form):
            assert ours == theirs
        elif not any(m in str(theirs) for m in form_reference.SYNTAX_ERRORS):
            assert str(ours) == str(theirs)

    spaces = st.sampled_from(["", "", " ", "\t", "  "])
    labels = st.lists(
        st.tuples(spaces, st.sampled_from(TABLE.labels), spaces).map("".join),
        min_size=1,
        max_size=3,
    )
    literals = st.sampled_from(
        ["2", "3/2", "1.5", ".5", "5.", "i", "-i", "3/2i", "0", "1+2i", "-1/2-i", "2.-.5i"]
    )
    terms = st.builds(
        "{}{}{}{}e[{}]{}".format,
        st.text(alphabet="+-", max_size=3),
        spaces,
        st.one_of(
            st.just(""),
            st.builds("{}{}*".format, literals, spaces),
            st.builds("({})*".format, literals),
        ),
        spaces,
        labels.map(",".join),
        spaces,
    )

    # forms from the term grammar: sign runs (sometimes missing), spaces
    # and tabs where they are allowed and where they are not
    @settings(max_examples=500, deadline=None)
    @given(st.lists(terms, min_size=1, max_size=4).map("".join))
    def test_grammar_forms_read_as_the_reference_reads_them(self, text):
        try:
            expected = form_reference.parse_form(text, TABLE)
        except ParseError:
            with pytest.raises(ParseError):
                parse_form(text, TABLE)
        else:
            assert parse_form(text, TABLE) == expected

    def test_the_reader_builds_no_scalar_and_no_checked_word(self, monkeypatch):
        # every literal shape, bare and in parentheses, and a repeated word
        text = (
            "1.5*e[1,2] + .5*e[2,3] - 5.*e[3,1] + i*e[1,3] - i*e[2,1] --(+2i)*e[3,2]"
            " + (1/2-3/4i)*e[1,2,3] + 3/2*e[2] + (-.5i)*e[1] + 2i*e[3,1,2]"
            " + (2.-.5i)*e[2,1] + e[2,3,1] - (1+i)*e[2,3,1] + 7*e[1,2]"
        )
        expected = form_reference.parse_form(text, TABLE)

        def refuse(*args, **kwargs):
            raise AssertionError("the reader built a scalar or checked a word at the boundary")

        monkeypatch.setattr(GaussianRational, "__init__", refuse)
        monkeypatch.setattr(scalars, "_exact", refuse)
        monkeypatch.setattr(envelope, "_checked_word", refuse)
        assert parse_form(text, TABLE) == expected

    def test_print_canonical_order_and_signs(self):
        f = Form(
            [
                ((1, 0), 1),
                ((0, 1), Fr(-3, 2)),
                ((0,), GaussianRational(1, -2)),
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

    def test_header_count_reads_past_leading_zeros(self):
        # int() counts leading zeros against its 4300-digit limit
        assert parse_relation("n 0002\n1 <= 2\n") == Relation(2, [(0, 1)])
        assert parse_relation("n " + "0" * 5000 + "2\n1 <= 2\n") == Relation(2, [(0, 1)])
        with pytest.raises(ParseError, match="vertex count must be at least 1"):
            parse_relation("n " + "0" * 5000 + "\n")

    @pytest.mark.parametrize(
        "count",
        ["1000001", "9" * 5000, "0" * 5000 + "1" * 7],
        ids=["seven-digits", "5000-nines", "zeros-then-seven-digits"],
    )
    def test_header_count_past_the_cap_is_too_large(self, count):
        # refused before int(), which refuses more than 4300 digits
        with pytest.raises(TooLarge):
            parse_relation(f"n {count}\n")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_relation("n 2\n# fine\n1 <= 9", source="rel.txt")
        assert err.value.source == "rel.txt" and err.value.line == 3


class TestManifolds:
    def test_parse_relation_block(self):
        m = parse_manifold(TRIANGLE_TEXT)
        assert m.dimension() == 1
        assert [m.word_label(w) for w in m.words() if len(w) == 2] == ["12", "23", "31"]

    def test_parse_words_block(self):
        text = "vertices: a, b\nwords:\na\nb\na, b\n"
        m = parse_manifold(text)
        assert m.word_label((0, 1)) == "ab"

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
        m = Manifold.from_ideal(BasicIdeal(2, [(0, 1)]))
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
        assert ideal.generators == ((0, 1),)
        assert (2, 0, 1) in given

    def test_vertex_table_inferred_when_missing(self):
        ideal, table, _ = parse_ideal("1, 2\n2, 1\n")
        assert table.labels == ("1", "2")
        assert len(ideal.generators) == 2

    def test_round_trip(self):
        ideal = BasicIdeal(3, [(0, 1), (1, 0)])
        parsed, parsed_table, _ = parse_ideal("vertices: 1, 2, 3\n1, 2\n2, 1\n")
        assert parsed == ideal and parsed_table.labels == ("1", "2", "3")

    def test_grade_zero_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_ideal("vertices: 1, 2\n1\n")

    def test_word_lines_build_no_checked_word(self, monkeypatch):
        # the words of a file pass no boundary check, in an ideal file or a
        # manifold's words: or ideal: block, and equal neighbours are still
        # refused with the message the boundary check gives them
        def refuse(*args, **kwargs):
            raise AssertionError("the reader checked a word at the boundary")

        monkeypatch.setattr(envelope, "_checked_word", refuse)
        ideal, _, given = parse_ideal("vertices: 1, 2, 3\n1, 2, 1\n3, 1\n")
        assert given == [(0, 1, 0), (2, 0)] and {type(w) for w in given} == {tuple}
        assert ideal.generators == ((2, 0), (0, 1, 0))
        m = parse_manifold("vertices: a, b\nwords:\nb\na, b\na\nb\n")
        assert list(m.words()) == [(0,), (1,), (0, 1)]
        m = parse_manifold("vertices: 1, 2\nideal:\n1, 2\n")
        assert m.ideal.generators == ((0, 1),)
        message = r"^<ideal>:3: equal adjacent letters at positions 1,2 in \(2, 0, 0\)$"
        with pytest.raises(ParseError, match=message):
            parse_ideal("vertices: 1, 2, 3\n1, 2, 1\n3, 1, 1\n")

    @pytest.mark.parametrize("text", ["", "\n", "# only a comment\n\n"])
    def test_a_file_with_no_content_lines_is_refused(self, text):
        # every file reader, each naming its own kind of file
        for parse, what in (
            (parse_relation, "relation"),
            (parse_manifold, "manifold"),
            (parse_ideal, "ideal"),
            (parse_complex, "complex"),
            (parse_covering, "covering"),
        ):
            with pytest.raises(ParseError, match=rf"^<{what}>:1: empty {what} file$"):
                parse(text)

    def test_a_vertex_table_with_no_generators_is_the_zero_ideal(self):
        ideal, table, given = parse_ideal("vertices: 1, 2\n")
        assert (ideal.generators, table.labels, given) == ((), ("1", "2"), [])


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
