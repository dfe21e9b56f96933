"""Reference form reader: the text is first cut at top-level signs by a
bracket-depth splitter, then each piece is matched whole by a term regex.

The library reads a form in one left-to-right scan with one term regex;
tests check that both accept the same language and give the same forms.
Syntax errors are worded differently by the two readers; every other
error carries the same message and column.
"""

import re

from finitary import Form, FinitaryError, word_validate
from finitary.io import ParseError
from finitary.scalars import GaussianRational


def split_terms(text: str):
    """Split on top-level +/-; yields (sign, term, start_column) triples."""
    terms = []
    depth = 0
    sign = 1
    start = 0
    for pos, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch in "+-" and depth == 0 and pos > start:
            terms.append((sign, text[start:pos].strip(), start + 1))
            sign = 1 if ch == "+" else -1
            start = pos + 1
        elif ch in "+-" and depth == 0 and pos == start:
            sign = sign * (1 if ch == "+" else -1)
            start = pos + 1
    terms.append((sign, text[start:].strip(), start + 1))
    return terms


TERM = re.compile(r"^(?:(?P<coef>\([^()]*\)|[^*\[\]()]+)\*)?e\[(?P<letters>[^\]]*)\]$")

# the messages of the errors that concern the text's shape, not its values
SYNTAX_ERRORS = ("empty term in form expression", "cannot parse term ")


def parse_form(text: str, table, source: str = "<form>", line: int = 1) -> Form:
    body = text.strip()
    if not body:
        raise ParseError(source, line, "empty form expression")
    if body == "0":
        return Form()
    terms = []
    for sign, term, col in split_terms(body):
        if not term:
            raise ParseError(source, line, "empty term in form expression", col)
        match = TERM.match(term)
        if not match:
            raise ParseError(source, line, f"cannot parse term {term!r}", col)
        coef_tok = match.group("coef")
        if coef_tok is None:
            coeff = GaussianRational(1)
        else:
            tok = coef_tok.strip()
            if tok.startswith("(") and tok.endswith(")"):
                tok = tok[1:-1]
            try:
                coeff = GaussianRational.parse(tok)
            except (ValueError, ZeroDivisionError):
                raise ParseError(source, line, f"bad coefficient {coef_tok!r}", col) from None
        letter_toks = [t.strip() for t in match.group("letters").split(",")]
        if letter_toks == [""]:
            raise ParseError(source, line, "word with no letters", col)
        try:
            letters = [table.index(t) for t in letter_toks]
            word = word_validate(letters, table.n)
        except (ValueError, FinitaryError) as exc:
            raise ParseError(source, line, str(exc), col) from None
        terms.append((word, coeff if sign > 0 else -coeff))
    return Form(terms)
