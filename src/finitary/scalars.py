"""Exact Gaussian-rational scalars.

Every structural constant of the calculus is -1, 0 or 1, so working over
exact complex rationals keeps all algebraic identities decidable.

An exact scalar has one spelling: the reduced integer triple (re, im, den)
of (re + im*i)/den, with den > 0 and gcd(re, im, den) == 1, so equal
values have equal triples.  A GaussianRational holds that triple, the one
an envelope Form stores for each coefficient, and _exact wraps a reduced
triple unchecked, so a Form hands its triples over as they are.

One coercion rule, _triple, admits an operand: it gives the triple of a
GaussianRational, an int or a Fraction and None for anything else, so
every operator returns NotImplemented for any other operand, and Python
then tries that operand's reflected method (a Form's, say).  Floats are
refused everywhere: the constructor takes int and Fraction parts only,
and ``parse`` matches text against one ASCII grammar, _LITERAL, and
builds the triple from its digits.

Triples are added by one rule, _plus, without reducing, multiplied by
_times and divided by _over, and reduced by one rule, _reduced, division
by the gcd of all three.  The envelope kernels reduce each sum once, at
the end (the envelope docstring says why inner alone sums over a least
common denominator); an operator reduces its one result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import Value

_Triple = tuple[int, int, int]  # (re, im, den), den > 0; reduced when a scalar holds it


def _triple(value) -> _Triple | None:
    """The reduced triple of a GaussianRational, an int or a Fraction; None
    for anything else."""
    if isinstance(value, GaussianRational):
        return value._t
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    return None


def _plus(t: _Triple, re: int, im: int, den: int) -> _Triple:
    """The triple t = (x, y, d) plus (re + im*i)/den, both with positive
    denominators, not reduced: numerators add over an equal denominator,
    other fractions cross-multiply."""
    x, y, d = t
    if d == den:
        return x + re, y + im, d
    return x * den + re * d, y * den + im * d, d * den


def _minus(t: _Triple, u: _Triple) -> _Triple:
    """t - u, not reduced."""
    re, im, den = u
    return _plus(t, -re, -im, den)


def _times(t: _Triple, u: _Triple) -> _Triple:
    """t * u, not reduced."""
    a, b, d = t
    c, f, e = u
    return a * c - b * f, a * f + b * c, d * e


def _over(t: _Triple, u: _Triple) -> _Triple:
    """t / u, not reduced; ZeroDivisionError when u is zero."""
    a, b, d = t
    c, f, e = u
    norm = c * c + f * f
    if norm == 0:
        raise ZeroDivisionError("division by zero scalar")
    # (a + bi)/d * e/(c + fi) = (a + bi)(c - fi) e / (d (c^2 + f^2))
    return (a * c + b * f) * e, (b * c - a * f) * e, d * norm


def _reduced(t: _Triple) -> _Triple:
    """The triple t = (re, im, den), den > 0, divided by its common gcd:
    t itself when that is 1."""
    g = gcd(*t)
    if g == 1:
        return t
    re, im, den = t
    return re // g, im // g, den // g


def _operator(rule, reflected=False):
    """The operator z op other: other coerced by _triple (NotImplemented
    when it is not an exact scalar), then rule(z, other) on the two
    triples, or rule(other, z) when reflected, reduced."""

    def op(self, other):
        u = _triple(other)
        if u is None:
            return NotImplemented
        return _exact(_reduced(rule(u, self._t) if reflected else rule(self._t, u)))

    return op


class GaussianRational(Value):
    """A complex number (re + im*i) / den held as one reduced integer
    triple, _t = (re, im, den): den > 0 and gcd(re, im, den) == 1.

    Arithmetic stays on integers; the real and imaginary parts are read as
    Fractions through ``re`` and ``im``.  Every operator, reflected ones
    included, takes another GaussianRational, an int or a Fraction.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot use {type(part).__name__} as an exact scalar")
        # over the lcm of the two denominators the triple is already coprime
        den = lcm(re.denominator, im.denominator)
        re, im = (q.numerator * (den // q.denominator) for q in (re, im))
        _set(self, (re, im, den))

    @property
    def re(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    __add__ = __radd__ = _operator(lambda t, u: _plus(t, *u))
    __sub__ = _operator(_minus)
    __rsub__ = _operator(_minus, reflected=True)
    __mul__ = __rmul__ = _operator(_times)
    __truediv__ = _operator(_over)
    __rtruediv__ = _operator(_over, reflected=True)

    def __neg__(self):
        re, im, den = self._t
        return _exact((-re, -im, den))

    def conjugate(self) -> "GaussianRational":
        re, im, den = self._t
        return _exact((re, -im, den))

    def __bool__(self):
        return bool(self._t[0] or self._t[1])

    def __eq__(self, other):
        u = _triple(other)
        return NotImplemented if u is None else self._t == u

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        return hash(self._t) if self._t[1] else hash(self.re)

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
        return _exact(_reduced((a * d, c * b, b * d)))


_set = GaussianRational._t.__set__
_new = object.__new__


def _exact(t: _Triple) -> GaussianRational:
    """The scalar holding t, a reduced triple, unchecked."""
    z = _new(GaussianRational)
    _set(z, t)
    return z


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
