"""Basic ideals: antichain normalization, membership, quotient calculus."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from finitary import (
    BasicIdeal,
    Form,
    GradeZeroGenerator,
    Word,
    basis_words,
    differential,
    form_product,
    inner,
    is_subsequence,
)
from finitary.envelope import word_key
from finitary.scalars import GaussianRational


def W(*letters):
    return Word(letters)


def F(*words):
    return Form((W(*w), 1) for w in words)


def subseq_oracle(a, b):
    """Independent subsequence test: try every index combination."""
    a, b = tuple(a), tuple(b)
    return any(
        tuple(b[i] for i in pos) == a
        for pos in itertools.combinations(range(len(b)), len(a))
    )


def all_words(n, max_grade):
    return [w for r in range(max_grade + 1) for w in basis_words(n, r)]


def random_ideal(rng, n=3, max_generators=3):
    pool = [w for r in range(1, 4) for w in basis_words(n, r)]
    gens = rng.sample(pool, rng.randint(1, max_generators))
    return BasicIdeal(n, gens)


def test_greedy_scan_agrees_with_combination_oracle():
    words = all_words(3, 3)
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.choice(words), rng.choice(words)
        assert is_subsequence(a, b) == subseq_oracle(a, b)
    # BasicIdeal.contains runs the automaton's masks; it must agree with the same test
    for _ in range(200):
        ideal = random_ideal(rng)
        w = rng.choice(words)
        assert ideal.contains(w) == any(is_subsequence(g, w) for g in ideal.generators)


class TestNormalization:
    def test_superword_generator_is_redundant(self):
        ideal = BasicIdeal(3, [W(0, 1), W(2, 0, 1)])
        assert ideal.generators == (W(0, 1),)

    def test_incomparable_generators_are_kept(self):
        ideal = BasicIdeal(2, [W(0, 1), W(1, 0)])
        assert ideal.generators == (W(0, 1), W(1, 0))

    def test_grade_zero_generator_rejected(self):
        with pytest.raises(GradeZeroGenerator):
            BasicIdeal(2, [W(0)])

    def test_idempotent_and_order_insensitive(self):
        rng = random.Random(3)
        pool = [w for r in range(1, 4) for w in basis_words(3, r)]
        for _ in range(30):
            gens = rng.sample(pool, rng.randint(1, 5))
            ideal = BasicIdeal(3, gens)
            assert BasicIdeal(3, ideal.generators) == ideal
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert BasicIdeal(3, shuffled) == ideal


_POOLS = {n: [w for r in range(1, 4) for w in basis_words(n, r)] for n in (2, 3, 4)}
_INPUTS = st.sampled_from(sorted(_POOLS)).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(_POOLS[n]), max_size=10))
)


@settings(max_examples=200, deadline=None)
@given(_INPUTS, st.randoms(use_true_random=False))
def test_generators_are_the_minimal_input_words(case, rng):
    # the definition: the input words with no other input word inside them
    n, words = case
    minimal = {w for w in words if not any(v != w and subseq_oracle(v, w) for v in words)}
    ideal = BasicIdeal(n, words)
    assert ideal.generators == tuple(sorted(minimal, key=word_key))
    repeated = words * 2
    rng.shuffle(repeated)
    assert BasicIdeal(n, repeated).generators == ideal.generators


class TestMembership:
    def test_superword_contained(self):
        assert BasicIdeal(3, [W(0, 1)]).contains(W(2, 0, 1))

    def test_reversed_word_not_contained(self):
        assert not BasicIdeal(2, [W(0, 1)]).contains(W(1, 0))

    def test_generator_contains_itself(self):
        assert BasicIdeal(2, [W(0, 1)]).contains(W(0, 1))

    def test_a_letter_outside_the_table_matches_nothing(self):
        ideal = BasicIdeal(2, [W(0, 1)])
        assert ideal.contains(W(0, 5, 1))
        assert not ideal.contains(W(5))
        assert not ideal.contains(W(1, 7, 0))

    def test_superword_closure_exhaustive(self):
        rng = random.Random(11)
        words = all_words(3, 4)
        for _ in range(10):
            ideal = random_ideal(rng)
            for g in ideal.generators:
                for w in words:
                    if subseq_oracle(g, w):
                        assert ideal.contains(w)

    def test_corollary_downward(self):
        # words outside the ideal have all their subwords outside too
        rng = random.Random(13)
        words = all_words(3, 4)
        for _ in range(10):
            ideal = random_ideal(rng)
            for b in words:
                if ideal.contains(b):
                    continue
                for a in words:
                    if subseq_oracle(a, b):
                        assert not ideal.contains(a)


class TestReduce:
    def test_projects_out_contained_terms(self):
        ideal = BasicIdeal(2, [W(0, 1)])
        d_vertex = F((1, 0)) - F((0, 1))
        assert ideal.reduce(d_vertex) == F((1, 0))

    def test_zero(self):
        assert not BasicIdeal(2, [W(0, 1)]).reduce(Form())

    def test_generator_vanishes(self):
        assert not BasicIdeal(2, [W(0, 1)]).reduce(F((0, 1)))

    def test_idempotent_orthogonal_projection(self):
        rng = random.Random(17)
        words = all_words(3, 3)
        for _ in range(20):
            ideal = random_ideal(rng)
            f = Form(
                (rng.choice(words), GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)))
                for _ in range(4)
            )
            reduced = ideal.reduce(f)
            assert ideal.reduce(reduced) == reduced
            inside = Form(
                (w, 1) for w in rng.sample(words, 5) if ideal.contains(w)
            )
            assert inner(reduced, inside) == GaussianRational(0)


class TestQuotientCalculus:
    def test_differential_can_vanish_entirely(self):
        ideal = BasicIdeal(2, [W(0, 1, 0), W(1, 0, 1)])
        assert not ideal.quotient_differential(F((0, 1)))

    def test_product_falls_into_ideal(self):
        ideal = BasicIdeal(2, [W(0, 1)])
        # (1,0)*(0,1) = (1,0,1) which contains (0,1) as a subsequence
        assert not ideal.quotient_product(F((1, 0)), F((0, 1)))

    def test_differential_of_zero(self):
        assert not BasicIdeal(2, [W(0, 1)]).quotient_differential(Form())

    def test_differential_closure(self):
        rng = random.Random(19)
        for _ in range(10):
            ideal = random_ideal(rng)
            for w in all_words(3, 3):
                if not ideal.contains(w):
                    continue
                for v, _ in differential(Form.word(w), 3).items():
                    assert ideal.contains(v)

    def test_two_sided_product_closure(self):
        rng = random.Random(23)
        for _ in range(6):
            ideal = random_ideal(rng)
            contained = [w for w in all_words(3, 3) if ideal.contains(w)]
            others = all_words(3, 3)
            for w in contained:
                for a in others:
                    for b in others:
                        if a.grade + w.grade + b.grade > 4:
                            continue
                        prod = form_product(form_product(F(a), F(w)), F(b))
                        for v, _ in prod.items():
                            assert ideal.contains(v)
