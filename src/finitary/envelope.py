"""Universal graded differential algebra over the functions on a finite set.

Vertices are 0-based integer indices into a vertex table held elsewhere.
A basis word is a nonempty vertex sequence with no equal adjacent entries;
its grade is the sequence length minus one.  The grade-r component of the
algebra is spanned by the grade-r words, so a form is a finitely supported
map from words to exact scalars.

The differential of a word inserts every vertex into every one of the
grade+2 gaps, with sign (-1)^gap, discarding insertions that would create
equal adjacent letters.  Together with the overlap product

    e_a * e_b  =  concatenation sharing the junction letter, else 0

this makes d a degree-one square-zero derivation (checked exhaustively in
the test suite).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import FinitaryError
from .scalars import GaussianRational


class WordError(FinitaryError):
    """A letter sequence that does not denote a basis word."""


class EmptyWord(WordError):
    pass


class IndexOutOfRange(WordError):
    pass


class EqualAdjacentLetters(WordError):
    """Signals a zero/undefined monomial; filtering callers catch this."""


class Word(tuple):
    """Basis monomial: a tuple of vertex indices, no two adjacent equal."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[int]):
        letters = tuple(letters)
        if not letters:
            raise EmptyWord("a basis word needs at least one letter")
        prev = None
        for pos, letter in enumerate(letters):
            if not isinstance(letter, int) or isinstance(letter, bool) or letter < 0:
                raise IndexOutOfRange(f"letter {letter!r} is not a vertex index")
            if letter == prev:
                raise EqualAdjacentLetters(
                    f"equal adjacent letters at positions {pos - 1},{pos} in {letters}"
                )
            prev = letter
        return super().__new__(cls, letters)

    @property
    def grade(self) -> int:
        return len(self) - 1

    def __repr__(self):
        return "e(" + ",".join(str(i) for i in self) + ")"


def word_key(w: Word):
    """Canonical sort key: grade-major, then lexicographic."""
    return (len(w), tuple(w))


def word_validate(letters: Iterable[int], vertex_count: int) -> Word:
    """Boundary validation of a letter sequence against a vertex table size."""
    letters = tuple(letters)
    if not letters:
        raise EmptyWord("a basis word needs at least one letter")
    for letter in letters:
        if not isinstance(letter, int) or isinstance(letter, bool):
            raise IndexOutOfRange(f"letter {letter!r} is not a vertex index")
        if not 0 <= letter < vertex_count:
            raise IndexOutOfRange(
                f"letter {letter} outside vertex table of size {vertex_count}"
            )
    return Word(letters)


def is_subsequence(inner: Iterable[int], outer: Iterable[int]) -> bool:
    """Greedy left-to-right test that `inner` embeds into `outer` in order."""
    it = iter(outer)
    return all(letter in it for letter in inner)


def basis_words(vertex_count: int, grade: int) -> Iterator[Word]:
    """All grade-r basis words over the vertex table, in lexicographic order.

    There are exactly n*(n-1)^r of them.
    """
    if vertex_count < 1:
        raise ValueError("vertex_count must be at least 1")
    if grade < 0:
        raise ValueError("grade must be non-negative")

    def extend(prefix: tuple[int, ...]) -> Iterator[Word]:
        if len(prefix) == grade + 1:
            yield Word(prefix)
            return
        for k in range(vertex_count):
            if prefix and prefix[-1] == k:
                continue
            yield from extend(prefix + (k,))

    yield from extend(())


class Form:
    """Finitely supported exact linear combination of basis words.

    Canonical sparse representation: zero coefficients are never stored, so
    equality of forms is literal term-map equality.  Instances are immutable
    and safe to share between threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[Word, GaussianRational] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for w, c in items:
            if not isinstance(w, Word):
                w = Word(w)
            c = GaussianRational.of(c)
            if w in acc:
                c = acc[w] + c
            if c:
                acc[w] = c
            else:
                acc.pop(w, None)
        self._terms = acc

    @classmethod
    def word(cls, letters, coeff=1) -> "Form":
        return cls(((Word(letters), coeff),))

    def coeff(self, letters) -> GaussianRational:
        w = letters if isinstance(letters, Word) else Word(letters)
        return self._terms.get(w, GaussianRational(0))

    def items(self) -> list[tuple[Word, GaussianRational]]:
        """Terms in canonical order (grade-major, then lexicographic)."""
        return sorted(self._terms.items(), key=lambda kv: word_key(kv[0]))

    def support(self) -> set[Word]:
        return set(self._terms)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Form):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        merged = dict(self._terms)
        for w, c in other._terms.items():
            s = merged.get(w, GaussianRational(0)) + c
            if s:
                merged[w] = s
            else:
                merged.pop(w, None)
        out = Form()
        out._terms = merged
        return out

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = Form()
        out._terms = {w: -c for w, c in self._terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, Form):
            return form_product(self, other)
        try:
            c = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return Form((w, c0 * c) for w, c0 in self._terms.items())

    def __rmul__(self, other):
        try:
            c = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return Form((w, c * c0) for w, c0 in self._terms.items())

    def __repr__(self):
        if not self._terms:
            return "Form(0)"
        bits = []
        for w, c in self.items():
            bits.append(f"{c}*{w!r}" if c != 1 else repr(w))
        return "Form(" + " + ".join(bits) + ")"


ZERO_FORM = Form()


def unit(vertex_count: int) -> Form:
    """Sum of all grade-0 idempotents; the two-sided identity."""
    return Form((Word((i,)), 1) for i in range(vertex_count))


def bimodule_action(left: int, w: Word, right: int) -> Form:
    """Left/right module action of grade-0 idempotents on a word.

    Nonzero exactly when `left` matches the first letter and `right` the
    last one.
    """
    if w[0] == left and w[-1] == right:
        return Form(((w, 1),))
    return ZERO_FORM


def word_product(a: Word, b: Word) -> Form:
    """Overlap product of two words: concatenate when last(a) = first(b)."""
    if a[-1] != b[0]:
        return ZERO_FORM
    return Form(((Word(tuple(a) + tuple(b)[1:]), 1),))


def form_product(f: Form, g: Form) -> Form:
    """Bilinear extension of the overlap product; associative."""
    acc: list[tuple[Word, GaussianRational]] = []
    for wa, ca in f._terms.items():
        for wb, cb in g._terms.items():
            if wa[-1] != wb[0]:
                continue
            acc.append((Word(tuple(wa) + tuple(wb)[1:]), ca * cb))
    return Form(acc)


def differential_word(w: Word, vertex_count: int) -> Form:
    """Differential of a single word: one letter inserted into every gap.

    Gap s (0-based, before the s-th letter) carries sign (-1)^s; insertions
    that would repeat a neighbouring letter contribute nothing.
    """
    acc: list[tuple[Word, int]] = []
    r1 = len(w)
    for s in range(r1 + 1):
        sign = -1 if s % 2 else 1
        for k in range(vertex_count):
            if s > 0 and w[s - 1] == k:
                continue
            if s < r1 and w[s] == k:
                continue
            acc.append((Word(w[:s] + (k,) + w[s:]), sign))
    return Form(acc)


def differential(f: Form, vertex_count: int) -> Form:
    """Linear extension of the word differential; raises the grade by one."""
    out = ZERO_FORM
    for w, c in f._terms.items():
        out = out + differential_word(w, vertex_count) * c
    return out


def inner(f: Form, g: Form) -> GaussianRational:
    """Scalar product making the basis words orthonormal.

    Conjugate-linear in the first argument.
    """
    total = GaussianRational(0)
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    for w in small._terms:
        if w in big._terms:
            total = total + f._terms[w].conjugate() * g._terms[w]
    return total
