from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finitary.scalars import GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_arithmetic_is_exact():
    a = gr(Fraction(1, 3), Fraction(1, 2))
    b = gr(Fraction(2, 3), Fraction(-1, 2))
    assert a + b == gr(1, 0)
    assert a - a == gr(0)
    assert gr(0, 1) * gr(0, 1) == gr(-1)


def test_conjugate_and_division():
    z = gr(1, 2)
    assert z.conjugate() == gr(1, -2)
    assert z / z == gr(1)
    with pytest.raises(ZeroDivisionError):
        z / gr(0)


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_division_inverts_multiplication(a, b, c, d):
    x, y = gr(a, b), gr(c, d)
    if y:
        assert (x * y) / y == x
        assert x / y * y == x
    assert gr(1, 2) / gr(3, -1) == gr(Fraction(1, 10), Fraction(7, 10))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        GaussianRational.of(0.5)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", gr(3)),
        ("-3/2", gr(Fraction(-3, 2))),
        ("i", gr(0, 1)),
        ("-i", gr(0, -1)),
        ("2i", gr(0, 2)),
        ("3/2i", gr(0, Fraction(3, 2))),
        ("1+2i", gr(1, 2)),
        ("1-i", gr(1, -1)),
        ("-1/2+3i", gr(Fraction(-1, 2), 3)),
    ],
)
def test_parse_literals(text, expected):
    assert GaussianRational.parse(text) == expected


def test_parse_rejects_junk():
    for bad in ("", "x", "1+", "i2", "1++2i"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(fractions, fractions)
def test_str_parse_round_trip(re, im):
    z = GaussianRational(re, im)
    assert GaussianRational.parse(str(z)) == z


@given(fractions, fractions, fractions, fractions)
def test_ring_laws(a, b, c, d):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
