"""Exact Gaussian-rational scalars.

Every structural constant of the calculus is -1, 0 or 1, so working over
exact complex rationals keeps all algebraic identities decidable.  Floats
are deliberately rejected everywhere: the constructor and ``of`` take int
and Fraction parts only, and ``parse`` matches text against one ASCII
grammar, _LITERAL, and builds the integer triple from its digits.

Two exact values are added by one rule, _plus, on unnormalized integer
triples (re, im, den), and reduced by one rule, division by the gcd of
all three.  _reduced applies it to a triple: the envelope Forms keep
their coefficients as reduced triples, and its kernels reduce each sum
once, at the end (the envelope docstring says why inner alone sums over a
least common denominator).  _normalized applies it when building a
scalar, written inline: calling _reduced from it made scalar +, -, *
and / 12-13% slower.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import Value


class GaussianRational(Value):
    """A complex number (re_num + im_num*i) / den held as three integers.

    The triple is normalized: den > 0 and gcd(re_num, im_num, den) == 1, so
    equal values have equal triples.  Arithmetic stays on integers, and a
    product skips the gcd when both denominators are 1; the real and
    imaginary parts are read as Fractions through ``re`` and ``im``.
    """

    __slots__ = ("_re_num", "_im_num", "_den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            den = 1
        else:
            for part in (re, im):
                if not isinstance(part, (int, Fraction)):
                    raise TypeError(f"cannot use {type(part).__name__} as an exact scalar")
            # over the lcm of the two denominators the triple is already coprime
            den = lcm(re.denominator, im.denominator)
            re = re.numerator * (den // re.denominator)
            im = im.numerator * (den // im.denominator)
        _set_re(self, re)
        _set_im(self, im)
        _set_den(self, den)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re_num, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im_num, self._den)

    @classmethod
    def of(cls, value) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational; floats are refused."""
        return value if isinstance(value, GaussianRational) else cls(value)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        t = self._re_num, self._im_num, self._den
        return _normalized(*_plus(t, other._re_num, other._im_num, other._den))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        t = self._re_num, self._im_num, self._den
        return _normalized(*_plus(t, -other._re_num, -other._im_num, other._den))

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, d = self._re_num, self._im_num, self._den
        c, f, e = other._re_num, other._im_num, other._den
        re, im = a * c - b * f, a * f + b * c
        if d == 1 and e == 1:
            return _exact(re, im, 1)
        return _normalized(re, im, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        c, f, e = other._re_num, other._im_num, other._den
        norm = c * c + f * f
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        # (a + bi)/d * e/(c + fi) = (a + bi)(c - fi) e / (d (c^2 + f^2))
        a, b = self._re_num, self._im_num
        return _normalized((a * c + b * f) * e, (b * c - a * f) * e, self._den * norm)

    def __neg__(self):
        return _exact(-self._re_num, -self._im_num, self._den)

    def conjugate(self) -> "GaussianRational":
        return _exact(self._re_num, -self._im_num, self._den)

    def __bool__(self):
        return bool(self._re_num) or bool(self._im_num)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (
                self._re_num == other._re_num
                and self._im_num == other._im_num
                and self._den == other._den
            )
        if isinstance(other, int):
            return not self._im_num and self._den == 1 and self._re_num == other
        if isinstance(other, Fraction):
            return (
                not self._im_num
                and self._re_num == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if not self._im_num:
            return hash(self._re_num) if self._den == 1 else hash(self.re)
        return hash((self._re_num, self._im_num, self._den))

    def __repr__(self):
        re, im = (
            f"Fraction({_decimal(q.numerator)}, {_decimal(q.denominator)})"
            for q in (self.re, self.im)
        )
        return f"GaussianRational({re}, {im})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return _fraction_text(re)
        body = "i" if abs(im) == 1 else f"{_fraction_text(abs(im))}i"
        sign = "-" if im < 0 else "+" if re else ""
        return f"{_fraction_text(re) if re else ''}{sign}{body}"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse literals like ``3``, ``-3/2``, ``.5``, ``i``, ``2i``, ``1+2i``,
        ``1/2-i``: one _LITERAL match, spaces ignored."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        match = _LITERAL.fullmatch(s)
        if match is None:
            raise ValueError(f"not a scalar literal: {text!r}")
        real, sign, imag = match.groups()
        a, b = _ratio(real or "0")
        c, d = _ratio("0" if sign is None else sign + (imag or "1"))
        if not b or not d:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return _normalized(a * d, c * b, b * d)


_set_re = GaussianRational._re_num.__set__
_set_im = GaussianRational._im_num.__set__
_set_den = GaussianRational._den.__set__
_new = object.__new__


def _exact(re_num: int, im_num: int, den: int) -> GaussianRational:
    """A scalar from a triple that is already normalized."""
    z = _new(GaussianRational)
    _set_re(z, re_num)
    _set_im(z, im_num)
    _set_den(z, den)
    return z


def _normalized(re_num: int, im_num: int, den: int) -> GaussianRational:
    """A scalar from a triple with den > 0, divided by its common gcd."""
    g = gcd(re_num, im_num, den)
    if g == 1:
        return _exact(re_num, im_num, den)
    return _exact(re_num // g, im_num // g, den // g)


def _plus(t: tuple[int, int, int], re: int, im: int, den: int) -> tuple[int, int, int]:
    """The triple t = (x, y, d) plus (re + im*i)/den, both with positive
    denominators, not reduced: numerators add over an equal denominator,
    other fractions cross-multiply."""
    x, y, d = t
    if d == den:
        return x + re, y + im, d
    return x * den + re * d, y * den + im * d, d * den


def _reduced(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """The triple t = (re, im, den), den > 0, divided by its common gcd:
    t itself when that is 1."""
    g = gcd(*t)
    if g == 1:
        return t
    re, im, den = t
    return re // g, im // g, den // g


#: A rational part: p, p/q or a decimal (w.f, .f or w.), ASCII digits only.
_RATIONAL = r"\d+(?:/\d+)?|\d*\.\d+|\d+\."
#: A literal: a signed real part, which a sign or the end must follow (so
#: that ``0.0.i`` is not ``0. + 0.i``), then an optional ``[+-][q]i``; the
#: groups are the real token, the sign ('' without one, None without an
#: imaginary part) and the imaginary magnitude (None for a bare ``i``).
_LITERAL = re.compile(rf"([+-]?(?:{_RATIONAL})(?=[+-]|$))?(?:([+-]?)({_RATIONAL})?i)?", re.ASCII)


def _ratio(token: str) -> tuple[int, int]:
    """Numerator and denominator (possibly 0) of a signed _RATIONAL token."""
    whole, dot, digits = token.partition(".")
    if dot:
        return int(whole + digits), 10 ** len(digits)
    num, _, den = token.partition("/")
    return int(num), int(den or 1)


#: ints up to this width go through str(): about 600 digits, below the
#: least int-to-str digit limit the interpreter can be set to (640)
_DIRECT_BITS = 2000


def _decimal(n: int) -> str:
    """str(n) at any size.  str() refuses an int past the interpreter's
    digit limit (4300 by default), a guard for parsing input; a computed
    value is printed in full by splitting it at a power of ten, about
    half its digits, and printing both halves."""
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 3 // 20  # log10(2) > 3/10
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _fraction_text(q: Fraction) -> str:
    """str(q) at any size."""
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"
