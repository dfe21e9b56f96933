import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_reference
from finitary import Form
from finitary.scalars import GaussianRational, _plus


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


def test_mixed_operations():
    z = gr(Fraction(1, 2), 3)
    assert z + 1 == gr(Fraction(3, 2), 3)
    assert z - 1 == gr(Fraction(-1, 2), 3)
    assert 1 - z == gr(Fraction(1, 2), -3)
    assert (z == "x") is False


def test_reflected_operators_take_exact_scalars_only():
    z = gr(Fraction(1, 2), 3)
    assert 1 / z == gr(1) / z == gr(Fraction(2, 37), Fraction(-12, 37))
    assert Fraction(1, 2) / z == gr(Fraction(1, 2)) / z
    assert 2 * z == z * 2 == z + z and Fraction(1, 2) - z == gr(0, -3)
    for refused in (lambda: z + "x", lambda: "x" - z, lambda: z * 0.5, lambda: 1.0 / z):
        with pytest.raises(TypeError):
            refused()

    class Operand:
        """Not an exact scalar: its reflected methods answer."""

        def __radd__(self, other):
            return "radd"

        def __rtruediv__(self, other):
            return "rtruediv"

    assert z + Operand() == "radd" and z / Operand() == "rtruediv"


def test_floats_are_refused():
    for build in (lambda: GaussianRational(0.5), lambda: Form([((0, 1), 0.5)])):
        with pytest.raises(TypeError, match="cannot use float as an exact scalar"):
            build()


def test_the_constructor_takes_ints_and_fractions_only():
    for args in [(0.5,), ("3/2",), (1, 0.5), (Fraction(1, 2), "i")]:
        with pytest.raises(TypeError, match="as an exact scalar"):
            GaussianRational(*args)
    assert GaussianRational(True, Fraction(1, 2)) == gr(1, Fraction(1, 2))


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
        ("1.5-.25i", gr(Fraction(3, 2), Fraction(-1, 4))),
        ("2.+ 3/6i", gr(2, Fraction(1, 2))),
        (".5", gr(Fraction(1, 2))),
        ("5.", gr(5)),
        ("+i", gr(0, 1)),
        ("-.5i", gr(0, Fraction(-1, 2))),
    ],
)
def test_parse_literals(text, expected):
    assert GaussianRational.parse(text) == expected


def test_parse_rejects_junk():
    # ASCII digits only, no digit separators, no whitespace but spaces
    for bad in ("", "x", "1+", "i2", "1++2i", "１２", "3/２", "١٢", "1_000", "1\t+2i"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_parse_rejects_exponent_notation():
    # the grammar has no exponent: 1e1000000000 would be a billion-digit int
    for bad in ("1e3", "2E-1", "1e1000000000", "1+1e3i", "1e2i"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_parse_refuses_a_zero_denominator():
    for bad in ("1/0", "1+0/0i", "1/2-3/0i"):
        with pytest.raises(ZeroDivisionError):
            GaussianRational.parse(bad)


def _parsed(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=500)
@given(st.text(alphabet="0123456789+-/.i ", max_size=14))
@example("0.0.i")
@example("1.-2i")
@example("-.5+i")
def test_parse_matches_the_reference(text):
    assert _parsed(GaussianRational.parse, text) == _parsed(scalar_reference.parse, text)


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


# -- the integer representation against a (Fraction, Fraction) reference -------

# denominators up to 50, with 0, 1 and -1 drawn often so that 0, ±1 and ±i occur
parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-60, max_value=60, max_denominator=50),
)


def ref_str(re, im):
    """The string form defined on the real and imaginary Fractions."""
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return imag
    mag = abs(im)
    return f"{re}{'+' if im > 0 else '-'}{'i' if mag == 1 else f'{mag}i'}"


def ref_mul(a, b, c, d):
    return a * c - b * d, a * d + b * c


@given(parts, parts, parts, parts)
@example(Fraction(0), Fraction(1), Fraction(0), Fraction(-1))  # i and -i
@example(Fraction(1), Fraction(0), Fraction(-1), Fraction(0))  # 1 and -1
@example(Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1, 3))  # 0
def test_integer_scalar_matches_fraction_pair_reference(a, b, c, d):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    assert (x.re, x.im) == (a, b)
    for z, pair in [
        (x + y, (a + c, b + d)),
        (x - y, (a - c, b - d)),
        (x * y, ref_mul(a, b, c, d)),
        (-x, (-a, -b)),
        (x.conjugate(), (a, -b)),
    ]:
        assert (z.re, z.im) == pair
        assert z == GaussianRational(*pair)
    if c or d:
        norm = c * c + d * d
        assert ((x / y).re, (x / y).im) == ref_mul(a, b, c / norm, -d / norm)
    # equality and hashing against int and Fraction, as the real parts do
    for q in (a, c, a.numerator, 0, 1, -1):
        assert (x == q) == (not b and a == q)
        assert (x != q) == bool(b or a != q)
    real = GaussianRational(a)
    assert real == a and hash(real) == hash(a)
    if not b:
        assert hash(x) == hash(a)
    assert (x == y) == ((a, b) == (c, d))
    if x == y:
        assert hash(x) == hash(y)
    assert bool(x) == bool(a or b)
    assert str(x) == ref_str(a, b)
    assert GaussianRational.parse(str(x)) == x
    assert repr(x) == f"GaussianRational({a!r}, {b!r})"


numerators = st.integers(min_value=-60, max_value=60)
denominators = st.integers(min_value=1, max_value=12)


@given(numerators, numerators, denominators, numerators, numerators, denominators, st.booleans())
@example(3, -4, 6, 5, 0, 6, False)  # equal denominators, drawn apart
def test_plus_adds_triples_as_fraction_pairs(x, y, d, re, im, den, same):
    """_plus, the one rule adding exact triples: it adds numerators over an
    equal denominator, cross-multiplies otherwise, and reduces nothing."""
    if same:
        den = d
    sx, sy, sd = _plus((x, y, d), re, im, den)
    assert sd == (d if d == den else d * den)
    assert Fraction(sx, sd) == Fraction(x, d) + Fraction(re, den)
    assert Fraction(sy, sd) == Fraction(y, d) + Fraction(im, den)
    a, b = (Fraction(x, d), Fraction(y, d)), (Fraction(re, den), Fraction(im, den))
    u, v = GaussianRational(*a), GaussianRational(*b)
    assert ((u + v).re, (u + v).im) == (a[0] + b[0], a[1] + b[1])
    assert ((u - v).re, (u - v).im) == (a[0] - b[0], a[1] - b[1])
    assert u + v == GaussianRational(a[0] + b[0], a[1] + b[1])


def _from_digits(digits: str) -> int:
    """int(digits) for any length, parsed 1000 digits at a time, under the
    interpreter's limit on parsing."""
    n = 0
    for at in range(0, len(digits), 1000):
        chunk = digits[at : at + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_str_is_exact_past_the_int_digit_limit():
    # str(int) refuses more than 4300 digits; a computed value prints in full
    z = gr(Fraction(1, 10**4400), Fraction(-(10**5000) - 7, 3))
    assert str(z) == "1/1" + "0" * 4400 + "-1" + "0" * 4999 + "7/3i"
    assert str(-z.conjugate()) == "-1/1" + "0" * 4400 + "-1" + "0" * 4999 + "7/3i"
    assert str(gr(0, 10**4400)) == "1" + "0" * 4400 + "i"
    big = "1" + "0" * 4400
    expected = f"GaussianRational(Fraction(1, {big}), Fraction(0, 1))"
    assert repr(gr(Fraction(1, 10**4400))) == expected
    rng = random.Random(5)
    for length in (600, 603, 4299, 4300, 4301, 9000, 20000):
        for _ in range(5):
            # runs of zeros meet the splits at powers of ten
            pieces = ("0" * rng.randint(1, 700), "9", "1234567")
            body = "".join(rng.choice(pieces) for _ in range(length))
            digits = ("7" + body)[:length]
            n = _from_digits(digits)
            assert str(gr(n)) == digits and str(gr(-n)) == "-" + digits
            assert str(gr(Fraction(1, n))) == "1/" + digits
