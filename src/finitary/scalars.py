"""Exact Gaussian-rational scalars.

Every structural constant of the calculus is -1, 0 or 1, so working over
exact complex rationals keeps all algebraic identities decidable.  Floats
are deliberately rejected everywhere.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """A complex number re + im*i with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def of(cls, value) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational; floats are refused."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = GaussianRational.of(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        body = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{body}"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse literals like ``3``, ``-3/2``, ``i``, ``2i``, ``1+2i``, ``1/2-i``."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        if not s.endswith("i"):
            return GaussianRational(Fraction(s))
        body = s[:-1]
        # find a top-level +/- separating the real part from the imaginary one
        split = -1
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                split = pos
                break
        if split > 0:
            re_tok, im_tok = body[:split], body[split:]
        else:
            re_tok, im_tok = "", body
        if im_tok in ("", "+"):
            im = Fraction(1)
        elif im_tok == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_tok)
        re = Fraction(re_tok) if re_tok else Fraction(0)
        return GaussianRational(re, im)

