"""Universal graded differential algebra over the functions on a finite set.

Vertices are 0-based integer indices into a vertex table held elsewhere.
A basis word is a nonempty vertex sequence with no equal adjacent entries;
its grade is the sequence length minus one.  The grade-r component of the
algebra is spanned by the grade-r words, so a form is a finitely supported
map from words to exact scalars.

A word is the plain tuple of its letters.  It enters the calculus as the
form Form.word(w), and every operation acts on forms.  The overlap
product of two words concatenates them when the last letter of the first
equals the first letter of the second, writing that junction letter
once, and is 0 otherwise:

    e_a * e_b  =  e_(a + b[1:]) if a[-1] == b[0], else 0

So a grade-0 idempotent e_i keeps, on the left, the words that start
with i, and on the right the words that end with i; their sum unit(n) is
the two-sided identity.  The differential of a word inserts every vertex
into every one of the grade+2 gaps, with sign (-1)^gap, discarding
insertions that would create equal adjacent letters.  Together with the
overlap product this makes d a degree-one square-zero derivation (checked
exhaustively in the test suite).

A Form holds each coefficient as a reduced integer triple (re, im, den),
den > 0 and gcd 1: the triple a GaussianRational holds.  So the calculus
adds, multiplies and compares integers from start to end.  items(), repr
and inner alone build the GaussianRationals a caller reads, each scalar
wrapping a triple as it is (scalars._exact); Form(...) and scalar * read
a scalar's triple through scalars._triple, the coercion rule of every
scalar operator.  Form(...) checks each word by _checked_word and then
ends in _summed, which adds the triples of equal words by scalars._plus
and reduces each sum once; the form reader (io.parse_form) hands _summed
the letter tuples and literal triples it reads, so a form read from text
builds no scalar and skips _checked_word, keeping the one check it
needs, _distinct_neighbours.
differential and form_product keep, for each output word, one
unnormalized triple of the sum so far: the first contribution is stored
as it comes, and each further one is added by scalars._plus, the
library's one rule for adding exact triples (numerators add over an equal
denominator, other fractions cross-multiply); + and - add the terms two
forms share by the same rule.
The triple is a tuple, replaced on each addition: a tuple of ints leaves
the cycle collector's tracking, where a list would be traversed again by
every collection while a large accumulator is alive.
Distinct insertions give distinct words, so an output word gets at most
one contribution per letter (a deletion of it, or a split of it into two
overlapping factors), and its denominator stays a product of a few input
denominators.  Each non-zero sum is reduced once, at the end.
Each kernel takes an ideal's matcher (automata) and builds no word of the
ideal: an input word in the ideal is skipped whole, and one AND of
automaton states decides an insertion (against the gap's window) or a
pair of factors.  differential and form_product pass the zero ideal's
matcher, which has no block, and skip the state walks; BasicIdeal's
quotient operations pass their own.  So each operation has one kernel.
inner has one output fed by every shared word, whose denominator _plus
would grow by a factor per word, so it alone sums over the least common
denominator instead, and builds one scalar; a kernel's output word gets a
few contributions, and cross-multiplying them costs no gcd.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator

from .automata import _NO_BLOCK, _backward, _forward, _insertion_windows
from .errors import FinitaryError, Value
from .scalars import GaussianRational, _Triple, _exact, _plus, _reduced, _times, _triple


class WordError(FinitaryError):
    """A letter sequence that does not denote a basis word."""


class EmptyWord(WordError):
    pass


class IndexOutOfRange(WordError):
    pass


class EqualAdjacentLetters(WordError):
    """Signals a zero/undefined monomial; filtering callers catch this."""


def _checked_word(letters: Iterable[int]) -> tuple[int, ...]:
    """The basis word the letters spell: a nonempty tuple of vertex indices
    (non-bool ints >= 0), no two neighbours equal, else a WordError."""
    letters = tuple(letters)
    if not letters:
        raise EmptyWord("a basis word needs at least one letter")
    for letter in letters:
        if not isinstance(letter, int) or isinstance(letter, bool) or letter < 0:
            raise IndexOutOfRange(f"letter {letter!r} is not a vertex index")
    return _distinct_neighbours(letters)


def _distinct_neighbours(letters: Iterable[int]) -> tuple[int, ...]:
    """The tuple of the letters, refused (EqualAdjacentLetters) when two
    neighbours are equal: the one check a letter sequence read from text
    needs, since a vertex table gives only vertex indices."""
    letters = tuple(letters)
    for pos in range(1, len(letters)):
        if letters[pos] == letters[pos - 1]:
            raise EqualAdjacentLetters(
                f"equal adjacent letters at positions {pos - 1},{pos} in {letters}"
            )
    return letters


def _monomial(w: tuple[int, ...]) -> str:
    """A word as reprs and messages write it: e(0,1)."""
    return "e(" + ",".join(map(str, w)) + ")"


def word_key(w: tuple[int, ...]):
    """Canonical sort key: grade-major, then lexicographic."""
    return (len(w), w)


def word_validate(letters: Iterable[int], vertex_count: int) -> tuple[int, ...]:
    """Boundary validation of a letter sequence against a vertex table size:
    the word it spells, with every letter below vertex_count."""
    word = _checked_word(letters)
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


def deletions(w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The one-letter deletions of w that are again words, by position:
    none of a one-letter word, none leaving equal letters side by side."""
    last = len(w) - 1
    for pos in range(len(w)) if last else ():
        if 0 < pos < last and w[pos - 1] == w[pos + 1]:
            continue
        yield w[:pos] + w[pos + 1 :]


def basis_words(vertex_count: int, grade: int) -> Iterator[tuple[int, ...]]:
    """All grade-r basis words over the vertex table, in lexicographic order.

    There are exactly n*(n-1)^r of them.  The arguments are checked at the
    call, before the walk is returned.
    """
    if vertex_count < 1:
        raise ValueError("vertex_count must be at least 1")
    if grade < 0:
        raise ValueError("grade must be non-negative")

    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == grade + 1:
            yield prefix
            return
        for k in range(vertex_count):
            if prefix and prefix[-1] == k:
                continue
            yield from extend(prefix + (k,))

    return extend(())


class Form(Value):
    """Finitely supported exact linear combination of basis words.

    Canonical sparse representation: each word's letter tuple maps to its
    coefficient as a reduced integer triple (re, im, den), den > 0 and
    gcd 1, and zero coefficients are never stored, so equality of forms is
    literal term-map equality.  items() and repr build the GaussianRationals
    a caller reads; the words are the keys themselves.  Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        # what _triple does not admit, the constructor refuses (TypeError)
        pairs = (
            (_checked_word(w), _triple(c) or GaussianRational(c)._t)
            for w, c in items
        )
        _set_terms(self, _summed(pairs)._terms)

    @classmethod
    def word(cls, letters, coeff=1) -> "Form":
        return cls(((letters, coeff),))

    def items(self) -> list[tuple[tuple[int, ...], GaussianRational]]:
        """Terms in canonical order (grade-major, then lexicographic)."""
        ordered = sorted(self._terms.items(), key=lambda kv: word_key(kv[0]))
        return [(w, _exact(t)) for w, t in ordered]

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
        return _merged(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return _merged(self, other, -1)

    def __neg__(self):
        return _form({w: (-re, -im, den) for w, (re, im, den) in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Form):
            return form_product(self, other)
        u = _triple(other)
        if u is None:
            return NotImplemented
        if not (u[0] or u[1]):
            return ZERO_FORM
        # a product of two nonzero scalars is nonzero
        return _form({w: _reduced(_times(t, u)) for w, t in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if not self._terms:
            return "Form(0)"
        bits = []
        for w, c in self.items():
            coeff = f"({c})*" if c.re and c.im else "" if c == 1 else f"{c}*"
            bits.append(coeff + _monomial(w))
        return "Form(" + " + ".join(bits) + ")"


_new = object.__new__
_set_terms = Form._terms.__set__


def _form(terms: dict[tuple[int, ...], _Triple]) -> Form:
    """A Form over a term dict of letter tuples and reduced non-zero
    triples."""
    out = _new(Form)
    _set_terms(out, terms)
    return out


def _merged(f: Form, g: Form, sign: int) -> Form:
    """f + sign*g term by term, sign 1 or -1."""
    merged = dict(f._terms)
    for w, (re, im, den) in g._terms.items():
        re, im = sign * re, sign * im
        old = merged.get(w)
        if old is None:
            merged[w] = re, im, den
        elif (s := _plus(old, re, im, den))[0] or s[1]:
            merged[w] = _reduced(s)
        else:
            del merged[w]
    return _form(merged)


def _built(triples: Iterable[tuple[tuple[int, ...], _Triple]]) -> Form:
    """The Form of (letters, (re, im, den)) pairs, den > 0, not reduced:
    each non-zero triple reduced, the zero sums dropped."""
    return _form({w: _reduced(t) for w, t in triples if t[0] or t[1]})


def _summed(pairs: Iterable[tuple[tuple[int, ...], _Triple]]) -> Form:
    """The Form of (letters, (re, im, den)) pairs, den > 0, reduced or not:
    the triples of equal letters added by _plus, each sum reduced once by
    _built."""
    acc: dict[tuple[int, ...], _Triple] = {}
    for w, u in pairs:
        t = acc.get(w)
        acc[w] = u if t is None else _plus(t, *u)
    return _built(acc.items())


ZERO_FORM = Form()


def unit(vertex_count: int) -> Form:
    """Sum of all grade-0 idempotents; the two-sided identity."""
    return Form(((i,), 1) for i in range(vertex_count))


def _product_triples(f: Form, g: Form, matcher) -> dict:
    """The overlap product of f and g as one unnormalized triple per word
    outside the matcher's ideal.

    A factor in the ideal is skipped whole; the tails of wb, grouped by
    junction letter, are filtered once per forward state of wa, a pair
    dying iff B(wb[1:]) & (F(wa) - START) (automata)."""
    start, masks, _ = matcher
    tails: dict[int, list[tuple]] = {}
    backs: dict[int, list[int]] = {}
    for wb, (c, e, den) in g._terms.items():
        tail = wb[1:]
        if start:
            # B(wb[1:]), and wb's first letter read on: no start bit reached
            back = _backward(tail, matcher)
            if back is None or back & start & masks.get(wb[0], 0):
                continue
            backs.setdefault(wb[0], []).append(back)
        tails.setdefault(wb[0], []).append((tail, c, e, den))
    survivors: dict[tuple[int, int], list[tuple]] = {}
    acc: dict[tuple[int, ...], _Triple] = {}
    for wa, (a, b, d) in f._terms.items():
        group = tails.get(wa[-1], ())
        if start:
            state = _forward(wa, matcher)
            if state is None:
                continue
            if state != start:
                key = wa[-1], state
                kept = survivors.get(key)
                if kept is None:
                    reach = state - start
                    pairs = zip(group, backs.get(wa[-1], ()))
                    kept = survivors[key] = [t for t, back in pairs if not back & reach]
                group = kept
        for tail, c, e, den in group:
            w, re, im = wa + tail, a * c - b * e, a * e + b * c
            t = acc.get(w)
            acc[w] = (re, im, d * den) if t is None else _plus(t, re, im, d * den)
    return acc


def form_product(f: Form, g: Form) -> Form:
    """Bilinear extension of the overlap product; associative.

    Two words multiply by concatenation when last(a) = first(b), the
    junction letter written once, and to 0 otherwise.
    """
    return _built(_product_triples(f, g, _NO_BLOCK).items())


def _differential_triples(f: Form, vertex_count: int, matcher) -> dict:
    """The differential of f as one unnormalized triple per word outside
    the matcher's ideal: every vertex inserted into every gap of every
    word.

    Gap s (0-based, before the s-th letter) carries sign (-1)^s; insertions
    that would repeat a neighbouring letter contribute nothing.  A word in
    the ideal is skipped whole, and letter k at gap s is skipped iff its
    window meets M[k] (automata); the letters each window lets through
    are listed once per call.
    """
    start, masks, _ = matcher
    letters = range(vertex_count)
    allowed: dict[int, list[int]] = {}
    acc: dict[tuple[int, ...], _Triple] = {}
    for w, (re, im, den) in f._terms.items():
        last = len(w)
        windows = _insertion_windows(w, matcher) if start else [0] * (last + 1)
        if windows is None:
            continue
        signed = ((re, im), (-re, -im))
        for s, window in enumerate(windows):
            ks = letters
            if window:
                ks = allowed.get(window)
                if ks is None:
                    ks = allowed[window] = [k for k in letters if not window & masks[k]]
            a, b = signed[s & 1]
            head, tail = w[:s], w[s:]
            left = w[s - 1] if s else -1
            right = w[s] if s < last else -1
            for k in ks:
                if k != left and k != right:
                    v = head + (k,) + tail
                    t = acc.get(v)
                    acc[v] = (a, b, den) if t is None else _plus(t, a, b, den)
    return acc


def differential(f: Form, vertex_count: int) -> Form:
    """Linear extension of the differential of a word (every vertex
    inserted into every gap); raises the grade by one."""
    return _built(_differential_triples(f, vertex_count, _NO_BLOCK).items())


def inner(f: Form, g: Form) -> GaussianRational:
    """Scalar product making the basis words orthonormal.

    Conjugate-linear in the first argument.  The products are summed over
    the least common denominator of those seen so far, so a denominator
    that many words share is multiplied in once; one scalar is built, at
    the end.  This is the one sum not made by scalars._plus: every shared
    word feeds the same output, whose denominator would otherwise grow by
    a factor per word.
    """
    re, im, den = 0, 0, 1
    ft, gt = f._terms, g._terms
    small, big = (ft, gt) if len(ft) <= len(gt) else (gt, ft)
    for w in small:
        if w in big:
            (a, b, x), (c, e, y) = ft[w], gt[w]
            d = x * y
            h = gcd(den, d)
            re = re * (d // h) + (a * c + b * e) * (den // h)
            im = im * (d // h) + (a * e - b * c) * (den // h)
            den = den // h * d
    return _exact(_reduced((re, im, den)))
