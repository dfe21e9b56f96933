"""The calculus kernels against the per-contribution reference, and the
scalars they build: a Form holds reduced integer triples, so the kernels
and the quotient operations build none, and items() one per term."""

import random
from fractions import Fraction
from itertools import accumulate, combinations, groupby
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import calculus_reference as ref
from finitary import (
    BasicIdeal,
    Form,
    basis_words,
    differential,
    form_product,
    inner,
    is_subsequence,
)
from finitary import envelope, scalars
from finitary.automata import (
    _NO_BLOCK,
    _backward,
    _compile,
    _forward,
    _insertion_windows,
)
from finitary.scalars import GaussianRational

# coprime and mixed denominators; small numerators and the units 1, -1, i, -i
# drawn often, so that contributions cancel to zero
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13)
coefficients = st.one_of(
    st.sampled_from([GaussianRational(*unit) for unit in ((1, 0), (-1, 0), (0, 1), (0, -1))]),
    st.builds(
        lambda a, p, b, q: GaussianRational(Fraction(a, p), Fraction(b, q)),
        st.integers(-3, 3),
        st.sampled_from(DENOMINATORS),
        st.integers(-3, 3),
        st.sampled_from(DENOMINATORS),
    ),
)


def _merged_runs(letters):
    """The word of letters with each run of equal letters written once."""
    return tuple(k for k, _ in groupby(letters))


@st.composite
def calculi(draw, min_vertices=1):
    """A vertex count n and two forms whose words use the letters 0..n+1,
    so some lie at or above n."""
    n = draw(st.integers(min_vertices, 4))
    words = st.lists(st.integers(0, n + 1), min_size=1, max_size=4).map(_merged_runs)
    forms = st.lists(st.tuples(words, coefficients), max_size=8).map(Form)
    return n, draw(forms), draw(forms)


@st.composite
def quotients(draw):
    """A BasicIdeal on n >= 2 vertices, of at most three generators of two
    to four letters (none: the zero ideal), and two forms as in calculi,
    each with up to three further terms whose words lie in the ideal: a
    generator with a letter or none put on either end."""
    n, f, g = draw(calculi(min_vertices=2))
    letters = st.integers(0, n - 1)
    # a first letter and one to three steps, each to a different letter
    steps = st.lists(st.integers(1, n - 1), min_size=1, max_size=3)
    generator = st.builds(
        lambda first, moves: tuple(accumulate(moves, lambda k, m: (k + m) % n, initial=first)),
        letters, steps,
    )
    gens = [draw(generator) for _ in range(draw(st.integers(0, 3)))]
    if gens:
        end = st.lists(letters, max_size=1)
        inside = st.builds(
            lambda head, gen, tail: _merged_runs(head + list(gen) + tail),
            end, st.sampled_from(gens), end,
        )
        terms = st.lists(st.tuples(inside, coefficients), max_size=3).map(Form)
        f, g = f + draw(terms), g + draw(terms)
    return BasicIdeal(n, gens), f, g


@settings(max_examples=300, deadline=None)
@given(calculi())
def test_kernels_match_the_reference(case):
    n, f, g = case
    assert differential(f, n) == ref.differential(f, n)
    ddf = differential(differential(f, n), n)
    assert ddf == ref.differential(ref.differential(f, n), n) == Form()
    assert form_product(f, g) == ref.form_product(f, g)
    assert form_product(differential(f, n), g) == ref.form_product(ref.differential(f, n), g)
    assert inner(f, g) == ref.inner(f, g)
    assert inner(f, f + g) == ref.inner(f, ref.add(f, g))
    assert f + g == ref.add(f, g)
    assert f - g == ref.sub(f, g)
    assert f - f == Form()
    for w, _ in f.items():
        assert differential(Form.word(w), n) == ref.differential_word(w, n)


@settings(max_examples=300, deadline=None)
@given(quotients())
def test_quotient_operations_match_the_reference(case):
    ideal, f, g = case
    n, gens = ideal.vertex_count, ideal.generators
    assert ideal.reduce(f) == ref.reduce(gens, f)
    assert ideal.quotient_differential(f) == ref.reduce(gens, ref.differential(f, n))
    assert ideal.quotient_product(f, g) == ref.reduce(gens, ref.form_product(f, g))
    for w, _ in f.items():
        assert ideal.contains(w) == any(ref.is_subsequence(x, w) for x in gens)


def _generator_sets():
    """(n, generators), words of two to four letters: each single one on
    two and three vertices, each pair on two, and seeded draws of two or
    three on three and four vertices, so that blocks sit side by side."""
    rng = random.Random(37)
    for n in (2, 3, 4):
        pool = [w for grade in (1, 2, 3) for w in basis_words(n, grade)]
        if n < 4:
            yield from ((n, [gen]) for gen in pool)
        if n == 2:
            yield from ((n, list(pair)) for pair in combinations(pool, 2))
        if n > 2:
            yield from ((n, rng.sample(pool, rng.randint(2, 3))) for _ in range(25))


def test_one_and_decides_every_insertion_and_every_pair():
    """Against is_subsequence, on every word of grade at most 3: a word in
    the ideal has no windows and no forward state; an outside word's
    window W_s meets M[k] iff inserting k at gap s gives a word of the
    ideal; B(wb[1:]) & (F(wa) - START) is non-zero iff wa * wb is."""
    for n, gens in _generator_sets():
        matcher = _compile(n, gens)
        start, masks, _ = matcher
        words = [w for grade in range(4) for w in basis_words(n, grade)]
        inside = {w: any(is_subsequence(gen, w) for gen in gens) for w in words}
        outside = [w for w in words if not inside[w]]
        for w in words:
            assert (_insertion_windows(w, matcher) is None) == inside[w], (gens, w)
            assert (_forward(w, matcher) is None) == inside[w], (gens, w)
        for w in outside:
            for s, window in enumerate(_insertion_windows(w, matcher)):
                for k in range(n):
                    if k not in w[max(s - 1, 0) : s + 1]:
                        v = w[:s] + (k,) + w[s:]
                        embeds = any(is_subsequence(gen, v) for gen in gens)
                        assert bool(window & masks[k]) == embeds, (gens, w, s, k)
        for wa in outside:
            reach = _forward(wa, matcher) - start
            for wb in outside:
                if wb[0] == wa[-1]:
                    v = wa + wb[1:]
                    embeds = any(is_subsequence(gen, v) for gen in gens)
                    assert bool(_backward(wb[1:], matcher) & reach) == embeds, (gens, wa, wb)


def test_the_quotient_kernels_hold_no_word_of_the_ideal():
    """The fused kernels' accumulators hold exactly the free kernels'
    words outside the ideal, on the sum of every word of grade at most 2
    (inside the ideal or not), with its differential, a product factor."""
    for n, gens in _generator_sets():
        ideal = BasicIdeal(n, gens)
        matcher = ideal._compiled()
        f = Form((w, 1) for grade in range(3) for w in basis_words(n, grade))
        df = differential(f, n)
        for kernel, args in [
            (envelope._differential_triples, (f, n)),
            (envelope._product_triples, (f, f)),
            (envelope._product_triples, (df, f)),
            (envelope._product_triples, (f, df)),
        ]:
            fused = kernel(*args, matcher)
            free = kernel(*args, _NO_BLOCK)
            assert not any(ideal.contains(w) for w in fused), (gens, kernel)
            assert set(fused) == {w for w in free if not ideal.contains(w)}, (gens, kernel)


def _form(terms):
    """The form of (word, (a, p, b, q)) terms, coefficient a/p + (b/q)i."""
    return Form(
        (w, GaussianRational(Fraction(a, p), Fraction(b, q))) for w, (a, p, b, q) in terms
    )


# on 4 vertices, with mixed and coprime denominators; e(5,0) has a letter
# outside the table, and d(d(F)) cancels to zero
F = _form(
    [
        ((0, 1), (1, 2, 1, 3)),
        ((1, 2), (-2, 5, 0, 1)),
        ((2, 0), (3, 7, -1, 2)),
        ((0, 2), (1, 1, 1, 1)),
        ((3, 1), (5, 6, 0, 1)),
        ((1, 0, 1), (-1, 4, 2, 9)),
        ((5, 0), (1, 11, 1, 13)),
    ],
)
G = _form(
    [
        ((1, 3), (1, 3, 0, 1)),
        ((2, 1), (2, 5, -1, 7)),
        ((0, 3), (-1, 1, 1, 6)),
        ((1,), (1, 2, 0, 1)),
    ]
)


IDEAL = BasicIdeal(4, [(0, 2), (1, 3, 1)])
DF = differential(F, 4)
F_AND_G = F + G + _form([((0, 1), (1, 1, 0, 1))])


def _assert_reduced(form):
    """Every stored coefficient is a reduced non-zero integer triple."""
    for w, t in form._terms.items():
        assert isinstance(w, tuple) and w
        assert type(t) is tuple and len(t) == 3 and all(type(x) is int for x in t)
        re, im, den = t
        assert den > 0 and gcd(re, im, den) == 1 and (re or im)


@settings(max_examples=300, deadline=None)
@given(quotients(), st.one_of(coefficients, st.sampled_from([0, 2, Fraction(-3, 4)])))
def test_every_result_holds_reduced_triples(case, c):
    ideal, f, g = case
    n, gens = ideal.vertex_count, ideal.generators
    scaled = Form((w, x * c) for w, x in f.items())
    results = [
        (Form(f.items() + g.items()), ref.add(f, g)),
        (f + g, ref.add(f, g)),
        (f - g, ref.sub(f, g)),
        (-f, ref.sub(Form(), f)),
        (f * c, scaled),
        (c * f, scaled),
        (form_product(f, g), ref.form_product(f, g)),
        (differential(f, n), ref.differential(f, n)),
        (ideal.reduce(f), ref.reduce(gens, f)),
        (ideal.quotient_differential(f), ref.reduce(gens, ref.differential(f, n))),
        (ideal.quotient_product(f, g), ref.reduce(gens, ref.form_product(f, g))),
    ]
    for out, expected in results:
        _assert_reduced(out)
        assert out == expected


@pytest.fixture
def scalars_counted(monkeypatch):
    """Every GaussianRational the library builds: by the constructor, by
    scalars._exact (arithmetic and parsing) and by envelope._exact (the
    one Form.items() and inner call)."""
    counts = {"constructor": 0, "arithmetic": 0, "envelope": 0}

    def counted(name, build):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(envelope, "_exact", counted("envelope", envelope._exact))
    monkeypatch.setattr(scalars, "_exact", counted("arithmetic", scalars._exact))
    monkeypatch.setattr(
        GaussianRational, "__init__", counted("constructor", GaussianRational.__init__)
    )
    return counts


F1 = Form((w, c) for w, c in F.items() if len(w) == 2 and max(w) < 4)


def _leibniz_sides():
    """Both sides of the graded Leibniz rule for F1, of grade 1."""
    qd, qp = IDEAL.quotient_differential, IDEAL.quotient_product
    lhs, rhs = qd(qp(F1, G)), qp(qd(F1), G) - qp(F1, qd(G))
    assert lhs == rhs
    return lhs


@pytest.mark.parametrize(
    "quotient",
    [
        lambda: IDEAL.quotient_differential(F),
        lambda: IDEAL.quotient_product(F, G),
        lambda: IDEAL.quotient_product(DF, G),
        _leibniz_sides,
        lambda: differential(F, 4),
        lambda: differential(Form.word((0, 1, 2)), 4),
        lambda: form_product(F, G),
        lambda: form_product(G, DF),
    ],
)
def test_quotient_operations_build_no_scalar_and_items_one_per_term(quotient, scalars_counted):
    out = quotient()
    assert out and scalars_counted == {"constructor": 0, "arithmetic": 0, "envelope": 0}
    terms = out.items()
    assert scalars_counted == {"constructor": 0, "arithmetic": 0, "envelope": len(out)}
    assert all(type(w) is tuple and type(c) is GaussianRational for w, c in terms)


@pytest.mark.parametrize(
    "quotient, unreduced",
    [
        (lambda: IDEAL.quotient_differential(F), lambda: differential(F, 4)),
        (lambda: IDEAL.quotient_product(F, G), lambda: form_product(F, G)),
        (lambda: IDEAL.quotient_product(DF, G), lambda: form_product(DF, G)),
    ],
)
def test_quotient_operations_build_one_scalar_per_surviving_term(
    quotient, unreduced, scalars_counted
):
    reduced = IDEAL.reduce(unreduced())
    dropped = len(unreduced()) - len(reduced)
    scalars_counted.update(constructor=0, arithmetic=0, envelope=0)
    out = quotient()
    out.items()
    assert dropped and out == reduced
    assert scalars_counted == {"constructor": 0, "arithmetic": 0, "envelope": len(out)}


def test_inner_builds_one_scalar(scalars_counted):
    product = inner(F, F_AND_G)
    assert scalars_counted == {"constructor": 0, "arithmetic": 0, "envelope": 1}
    assert product == ref.inner(F, F_AND_G)
