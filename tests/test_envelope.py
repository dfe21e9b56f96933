"""Core algebra: words, products, differential, scalar product.

Vertex indices here are 0-based; the worked values below were expanded by
hand from the defining rules (all-gaps insertion with alternating signs,
overlap product, orthonormal basis).
"""

import itertools
import random
from fractions import Fraction

import pytest

from finitary import (
    EmptyWord,
    EqualAdjacentLetters,
    Form,
    IndexOutOfRange,
    basis_words,
    differential,
    form_product,
    inner,
    unit,
    word_validate,
)
from finitary.scalars import GaussianRational


def F(*words):
    return Form((w, 1) for w in words)


class TestWordValidate:
    def test_alternating_word_is_valid(self):
        w = word_validate((0, 1, 0), 2)
        assert w == (0, 1, 0) and type(w) is tuple

    def test_singleton(self):
        assert word_validate((0,), 3) == (0,)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            word_validate((0, 2), 2)

    @pytest.mark.parametrize(
        "letters, error",
        [
            ((), EmptyWord),
            ((True,), IndexOutOfRange),
            ((-1,), IndexOutOfRange),
            ((1.0,), IndexOutOfRange),
            (("0",), IndexOutOfRange),
            ((0, 0), EqualAdjacentLetters),
        ],
    )
    @pytest.mark.parametrize(
        "boundary",
        [
            lambda w: Form.word(w),
            lambda w: Form([(w, 1)]),
            lambda w: word_validate(w, 3),
        ],
        ids=["Form.word", "Form", "word_validate"],
    )
    def test_every_boundary_refuses_a_letter_sequence_that_is_no_word(
        self, boundary, letters, error
    ):
        with pytest.raises(error):
            boundary(letters)


class TestEnumerateBasis:
    def test_grade_one_over_three_vertices(self):
        words = list(basis_words(3, 1))
        assert words == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_single_vertex_has_no_one_forms(self):
        assert list(basis_words(1, 1)) == []

    def test_two_vertices_grade_three(self):
        assert list(basis_words(2, 3)) == [(0, 1, 0, 1), (1, 0, 1, 0)]

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("r", range(5))
    def test_count_is_n_times_nminus1_to_r(self, n, r):
        assert sum(1 for _ in basis_words(n, r)) == n * (n - 1) ** r

    @pytest.mark.parametrize(
        "n, r, message",
        [(0, 1, "vertex_count must be at least 1"), (2, -1, "grade must be non-negative")],
    )
    def test_bad_arguments_refused(self, n, r, message):
        with pytest.raises(ValueError, match=message):
            next(basis_words(n, r))

    @pytest.mark.parametrize("n, r", [(0, 1), (2, -1)])
    def test_bad_arguments_refused_at_the_call(self, n, r):
        with pytest.raises(ValueError):
            basis_words(n, r)

    @pytest.mark.parametrize("n,r", [(3, 2), (4, 3)])
    def test_words_unique_and_sorted(self, n, r):
        words = list(basis_words(n, r))
        assert len(set(words)) == len(words)
        assert words == sorted(words)


class TestBimoduleAction:
    def test_matching_ends(self):
        assert Form.word((0,)) * Form.word((0, 1)) * Form.word((1,)) == F((0, 1))

    def test_mismatched_first_letter(self):
        assert not Form.word((1,)) * Form.word((0, 1)) * Form.word((1,))

    def test_grade_zero(self):
        assert Form.word((0,)) * Form.word((0,)) * Form.word((0,)) == F((0,))


class TestProducts:
    def test_overlap_concatenation(self):
        assert Form.word((0, 1)) * Form.word((1, 2)) == F((0, 1, 2))

    def test_mismatch_gives_zero(self):
        assert not Form.word((0, 1)) * Form.word((0, 2))

    def test_idempotent(self):
        assert Form.word((0,)) * Form.word((0,)) == F((0,))

    def test_bilinear_expansion(self):
        f = F((0, 1)) - F((0, 2))
        assert form_product(f, F((1, 2))) == F((0, 1, 2))

    def test_zero_absorbs(self):
        assert not form_product(F((0, 1)), Form())

    def test_orthogonal_idempotents(self):
        f = F((0,)) + F((1,))
        assert form_product(f, f) == f

    def test_associativity_small_grades(self):
        # all triples over 3 vertices with total grade <= 4
        pool = [w for r in range(5) for w in basis_words(3, r)]
        for a, b, c in itertools.product(pool, repeat=3):
            if len(a) + len(b) + len(c) - 3 > 4:
                continue
            fa, fb, fc = F(a), F(b), F(c)
            assert form_product(form_product(fa, fb), fc) == form_product(
                fa, form_product(fb, fc)
            )

    def test_idempotent_partition(self):
        for i in range(3):
            for j in range(3):
                expected = F((i,)) if i == j else Form()
                assert Form.word((i,)) * Form.word((j,)) == expected

    def test_unit_is_two_sided_identity(self):
        for n in (1, 2, 3):
            one = unit(n)
            for r in range(4):
                for w in basis_words(n, r):
                    assert form_product(one, F(w)) == F(w)
                    assert form_product(F(w), one) == F(w)

    def test_distributes_over_addition(self):
        import random

        rng = random.Random(83)
        pool = [w for r in range(3) for w in basis_words(3, r)]

        def rand_form():
            return Form((rng.choice(pool), rng.randint(-3, 3)) for _ in range(4))

        for _ in range(50):
            f, g, h = rand_form(), rand_form(), rand_form()
            assert form_product(f + g, h) == form_product(f, h) + form_product(g, h)
            assert form_product(h, f + g) == form_product(h, f) + form_product(h, g)

    def test_grading(self):
        for a in basis_words(3, 1):
            for b in basis_words(3, 2):
                prod = Form.word(a) * Form.word(b)
                assert all(len(w) - 1 == 3 for w, _ in prod.items())


class TestDifferential:
    def test_d_vertex_two_points(self):
        assert differential(Form.word((0,)), 2) == F((1, 0)) - F((0, 1))

    def test_d_edge_two_points(self):
        assert differential(Form.word((0, 1)), 2) == F((1, 0, 1)) + F((0, 1, 0))

    def test_d_vertex_three_points(self):
        expected = F((1, 0)) + F((2, 0)) - F((0, 1)) - F((0, 2))
        assert differential(Form.word((0,)), 3) == expected

    def test_d_raises_grade_by_one(self):
        for n in (2, 3):
            for r in range(3):
                for w in basis_words(n, r):
                    img = differential(Form.word(w), n)
                    assert all(len(v) - 1 == r + 1 for v, _ in img.items())
                    assert all(len(v) == len(w) + 1 for v, _ in img.items())

    def test_every_term_is_a_one_letter_superword(self):
        for w in basis_words(3, 2):
            for v, _ in differential(Form.word(w), 3).items():
                assert any(
                    v[:s] + v[s + 1 :] == tuple(w) for s in range(len(v))
                )

    def test_d_squared_zero_small(self):
        for n in (2, 3):
            for r in range(3):
                for w in basis_words(n, r):
                    assert not differential(differential(Form.word(w), n), n)

    def test_linearity(self):
        d1 = differential(Form.word((0,), 2), 2)
        assert d1 == (F((1, 0)) - F((0, 1))) * 2
        assert not differential(Form(), 2)

    def test_graded_leibniz_small(self):
        pool = [w for r in range(4) for w in basis_words(3, r)]
        for a, b in itertools.product(pool, repeat=2):
            if len(a) + len(b) - 2 > 3:
                continue
            lhs = differential(Form.word(a) * Form.word(b), 3)
            sign = -1 if (len(a) - 1) % 2 else 1
            rhs = form_product(differential(Form.word(a), 3), F(b)) + form_product(
                F(a), differential(Form.word(b), 3)
            ) * sign
            assert lhs == rhs


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(F((0, 1)), F((0, 1))) == GaussianRational(1)
        assert inner(F((0, 1)), F((1, 0))) == GaussianRational(0)

    def test_expansion(self):
        assert inner(F((0, 1)) + F((1, 2)), F((1, 2))) == GaussianRational(1)

    def test_pairwise_delta(self):
        words = [w for r in range(3) for w in basis_words(3, r)]
        for a in words:
            for b in words:
                expected = 1 if a == b else 0
                assert inner(F(a), F(b)) == GaussianRational(expected)

    def test_conjugate_linear_in_first_argument(self):
        i = GaussianRational(0, 1)
        f, g = F((0, 1)), F((0, 1))
        assert inner(f * i, g) == GaussianRational(0, -1)
        assert inner(f, g * i) == GaussianRational(0, 1)


class TestFormRepresentation:
    def test_zero_coefficients_never_stored(self):
        f = F((0, 1)) - F((0, 1))
        assert len(f) == 0 and not f

    def test_repeated_words_accumulate(self):
        f = Form([((0, 1), 1), ((0, 1), 2)])
        assert f.items() == [((0, 1), GaussianRational(3))]

    def test_items_canonical_order(self):
        f = F((1, 0)) + F((0,)) + F((0, 1))
        assert [w for w, _ in f.items()] == [(0,), (0, 1), (1, 0)]

    def test_operators(self):
        f = Form([((0, 1), 2), ((1,), Fraction(-1, 3))])
        g = F((1, 0))
        assert -f == Form([((0, 1), -2), ((1,), Fraction(1, 3))])
        assert f * g == form_product(f, g)
        assert (f == 1) is False
        for op in (lambda: f + 1, lambda: f - 1, lambda: f * "x"):
            with pytest.raises(TypeError):
                op()
        assert repr(Form()) == "Form(0)"
        assert repr(f) == "Form(-1/3*e(1) + 2*e(0,1))"
        # a coefficient with both parts is parenthesised, as io prints it
        g = Form([((2, 0, 1), GaussianRational(1, -2)), ((0,), GaussianRational(0, -1))])
        assert repr(g) == "Form(-i*e(0) + (1-2i)*e(2,0,1))"


class TestAccumulators:
    """`differential` and `form_product` build their result in one dict;
    they must equal the term-by-term sums that define them."""

    @staticmethod
    def random_forms(seed, count=40):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(3, 5)
            pool = [w for r in range(4) for w in basis_words(n, r)]

            def scalar():
                return GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                )

            def form():
                return Form((rng.choice(pool), scalar()) for _ in range(rng.randint(0, 8)))

            yield n, form(), form()

    def test_differential_is_the_sum_over_terms(self):
        for n, f, g in self.random_forms(11):
            expected = Form()
            for w, c in f.items():
                expected = expected + differential(Form.word(w), n) * c
            assert differential(f, n) == expected
            # d(d(f + g)) cancels every coefficient, and none may be kept
            assert differential(differential(f + g, n), n) == Form()

    def test_product_is_the_sum_over_term_pairs(self):
        for _, f, g in self.random_forms(12):
            expected = Form()
            for wa, ca in f.items():
                for wb, cb in g.items():
                    expected = expected + Form.word(wa) * Form.word(wb) * ca * cb
            assert form_product(f, g) == expected

    def test_product_terms_that_meet_cancel(self):
        # e(0,1) e(1,2,3) and e(0,1,2) e(2,3) both give e(0,1,2,3)
        c = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
        f = Form([((0, 1), c), ((0, 1, 2), c)])
        g = F((1, 2, 3)) - F((2, 3))
        assert form_product(f, g) == Form()
