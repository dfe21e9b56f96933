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

from .errors import FinitaryError, Value
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


def _word(letters: tuple[int, ...]) -> Word:
    """A Word from letters that are valid by construction, unchecked."""
    return tuple.__new__(Word, letters)


def word_key(w: Word):
    """Canonical sort key: grade-major, then lexicographic."""
    return (len(w), tuple(w))


def word_validate(letters: Iterable[int], vertex_count: int) -> Word:
    """Boundary validation of a letter sequence against a vertex table size:
    the Word it spells (a Word is taken as is, already checked), with every
    letter below vertex_count."""
    word = letters if type(letters) is Word else Word(letters)
    for letter in word:
        if letter >= vertex_count:
            raise IndexOutOfRange(
                f"letter {letter} outside vertex table of size {vertex_count}"
            )
    return word


def is_subsequence(inner: Iterable[int], outer: Iterable[int]) -> bool:
    """Greedy left-to-right test that `inner` embeds into `outer` in order."""
    it = iter(outer)
    return all(letter in it for letter in inner)


def deletions(w: Word) -> Iterator[tuple[int, ...]]:
    """The one-letter deletions of w that are again words, by position:
    none of a one-letter word, none leaving equal letters side by side."""
    last = len(w) - 1
    for pos in range(len(w)) if last else ():
        if 0 < pos < last and w[pos - 1] == w[pos + 1]:
            continue
        yield w[:pos] + w[pos + 1 :]


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


class Form(Value):
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
        _set_terms(self, acc)

    @classmethod
    def word(cls, letters, coeff=1) -> "Form":
        return cls(((Word(letters), coeff),))

    def items(self) -> list[tuple[Word, GaussianRational]]:
        """Terms in canonical order (grade-major, then lexicographic)."""
        return sorted(self._terms.items(), key=lambda kv: word_key(kv[0]))

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
            old = merged.get(w)
            if old is None:
                merged[w] = c
            elif s := old + c:
                merged[w] = s
            else:
                del merged[w]
        return _form(merged)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _form({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Form):
            return form_product(self, other)
        try:
            c = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        # a product of two nonzero scalars is nonzero
        return _form({w: c0 * c for w, c0 in self._terms.items()} if c else {})

    __rmul__ = __mul__

    def __repr__(self):
        if not self._terms:
            return "Form(0)"
        bits = []
        for w, c in self.items():
            bits.append(f"{c}*{w!r}" if c != 1 else repr(w))
        return "Form(" + " + ".join(bits) + ")"


_new = object.__new__
_set_terms = Form._terms.__set__
ZERO_FORM = Form()


def _form(terms: dict[Word, GaussianRational]) -> Form:
    """A Form over a term dict with Word keys and no zero coefficient."""
    out = _new(Form)
    _set_terms(out, terms)
    return out


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
    return _form({_word(a + b[1:]): GaussianRational(1)})


def form_product(f: Form, g: Form) -> Form:
    """Bilinear extension of the overlap product; associative."""
    tails: dict[int, list[tuple[tuple[int, ...], GaussianRational]]] = {}
    for wb, cb in g._terms.items():
        tails.setdefault(wb[0], []).append((wb[1:], cb))
    acc: dict[Word, GaussianRational] = {}
    for wa, ca in f._terms.items():
        for tail, cb in tails.get(wa[-1], ()):
            _accumulate(acc, _word(wa + tail), ca * cb)
    return _form({w: c for w, c in acc.items() if c})


def _accumulate(acc: dict, w: Word, c: GaussianRational) -> None:
    """Add c to the coefficient of w; the caller drops the zeros."""
    old = acc.get(w)
    acc[w] = c if old is None else old + c


def _insert_letters(acc: dict, w: Word, c: GaussianRational, vertex_count: int) -> None:
    """Add c * d(w) into acc: every vertex inserted into every gap of w.

    Gap s (0-based, before the s-th letter) carries sign (-1)^s; insertions
    that would repeat a neighbouring letter contribute nothing.
    """
    signed = (c, -c)
    last = len(w)
    for s in range(last + 1):
        coeff = signed[s & 1]
        head, tail = w[:s], w[s:]
        left = w[s - 1] if s else -1
        right = w[s] if s < last else -1
        for k in range(vertex_count):
            if k != left and k != right:
                _accumulate(acc, _word(head + (k,) + tail), coeff)


def differential_word(w: Word, vertex_count: int) -> Form:
    """Differential of a single word: one letter inserted into every gap.

    Distinct insertions give distinct words, so no coefficient cancels.
    """
    acc: dict[Word, GaussianRational] = {}
    _insert_letters(acc, w, GaussianRational(1), vertex_count)
    return _form(acc)


def differential(f: Form, vertex_count: int) -> Form:
    """Linear extension of the word differential; raises the grade by one."""
    acc: dict[Word, GaussianRational] = {}
    for w, c in f._terms.items():
        _insert_letters(acc, w, c, vertex_count)
    return _form({w: c for w, c in acc.items() if c})


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
