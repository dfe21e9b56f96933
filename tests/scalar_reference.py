"""Reference scalar parser and coefficient printer.

parse splits the text at its last top-level sign by hand and reads each
part by Fraction.  The library's parse matches one ASCII grammar and
builds the integer triple directly; tests compare the two on ASCII input.
Fraction also reads non-ASCII digits, underscores and other whitespace,
which the library refuses.

coeff_prefix derives the sign and magnitude text of a form coefficient
part by part; the library's io._coeff_prefix prints the magnitude through
str of the scalar itself.
"""

from fractions import Fraction

from finitary.scalars import GaussianRational, _fraction_text


def parse(text: str) -> GaussianRational:
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    if "e" in s or "E" in s:  # Fraction would expand 1e30000000 digit by digit
        raise ValueError("exponent notation is not a scalar literal")
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


def coeff_prefix(c: GaussianRational) -> tuple[int, str]:
    """Sign and printable multiplier prefix ('' means coefficient 1)."""
    if not c.im:
        sign = -1 if c.re < 0 else 1
        mag = abs(c.re)
        return sign, "" if mag == 1 else f"{_fraction_text(mag)}*"
    if not c.re:
        sign = -1 if c.im < 0 else 1
        mag = abs(c.im)
        return sign, "i*" if mag == 1 else f"{_fraction_text(mag)}i*"
    return 1, f"({c})*"
