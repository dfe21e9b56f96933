"""Differential ideals spanned by basis words.

Such an ideal is the span of all superwords (in the subsequence order) of
its generators, so it is stored as the antichain of subsequence-minimal
generator words; the full word set is infinite in general.  The ideal's
matcher, the avoidance automaton's shift-and masks (automata), is
compiled on the first test into a slot that equality, hash and pickle
leave out.  contains and reduce run each word through its forward walk.
The quotient differential and product hand the matcher to the envelope
kernels, which drop each word of the ideal before building it, by one
AND per insertion or per pair of factors: the accumulators hold only
the surviving words, one unnormalized integer triple each, and no scalar
is built.

Generators of grade 0 are rejected: a nontrivial grade-0 component would
collapse the underlying function algebra rather than a calculus on it.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

from .automata import _compile, _forward
from .errors import FinitaryError, Value, _restore
from .envelope import (
    Form,
    _built,
    _differential_triples,
    _form,
    _monomial,
    _product_triples,
    is_subsequence,
    word_validate,
)


class GradeZeroGenerator(FinitaryError):
    pass


def _antichain(words: Iterable) -> tuple[tuple[int, ...], ...]:
    """The generators an ideal keeps of its checked words, in canonical
    order; a grade-0 word is refused."""
    words = sorted(set(words))
    words.sort(key=len)
    if words and len(words[0]) == 1:
        raise GradeZeroGenerator(
            f"generator {_monomial(words[0])} has grade 0; ideals must vanish in grade 0"
        )
    # a distinct word can embed into w only if it is strictly shorter, and
    # subsequence is transitive, so each length is tested against the
    # words kept from shorter ones (the list is read before += extends it)
    kept: list[tuple[int, ...]] = []
    for _, group in groupby(words, len):
        kept += [w for w in group if not any(is_subsequence(g, w) for g in kept)]
    return tuple(kept)


class BasicIdeal(Value):
    """Superword-closed span given by an antichain of generator words.

    The constructor normalizes: any input word that has another distinct
    input word as a subsequence is redundant and dropped.  The generators
    are sorted grade-major, then lexicographic, for reproducible output:
    sorted() orders the distinct words as tuples, and a stable sort by
    length makes the order grade-major.  The antichain filter keeps that
    order, so the retained generators need no further sort.
    """

    __slots__ = ("vertex_count", "generators", "_matcher")

    def __init__(self, vertex_count: int, generators: Iterable = ()):
        kept = _antichain(word_validate(g, vertex_count) for g in generators)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "generators", kept)
        object.__setattr__(self, "_matcher", None)  # filled by the first test

    @classmethod
    def _of_words(cls, vertex_count: int, words: Iterable) -> "BasicIdeal":
        """The ideal of words already checked, each letter below
        vertex_count (as a file reader reads them), assembled unchecked."""
        return _restore(cls, (vertex_count, _antichain(words), None))

    def _key(self):
        return self.vertex_count, self.generators

    def __reduce__(self):
        # the slots vertex_count, generators, _matcher: the twin compiles its own
        return _restore, (type(self), (*self._key(), None))

    def __repr__(self):
        gens = ", ".join(map(_monomial, self.generators))
        return f"BasicIdeal(n={self.vertex_count}, [{gens}])"

    def _compiled(self):
        if self._matcher is None:
            object.__setattr__(self, "_matcher", _compile(self.vertex_count, self.generators))
        return self._matcher

    def contains(self, word: tuple[int, ...]) -> bool:
        """True iff some generator embeds into the word as a subsequence."""
        return _forward(word, self._compiled()) is None

    def reduce(self, f: Form) -> Form:
        """Orthogonal projection onto the complement of the ideal.

        Drops every term whose word lies in the ideal and keeps the rest
        verbatim; this realizes the quotient map onto the calculus the
        ideal defines.
        """
        matcher = self._compiled()
        return _form({w: t for w, t in f._terms.items() if _forward(w, matcher) is not None})

    def quotient_differential(self, f: Form) -> Form:
        """Differential of the quotient calculus: the kernel builds no word
        of the ideal, and no coefficient is reduced before the end."""
        return _built(_differential_triples(f, self.vertex_count, self._compiled()).items())

    def quotient_product(self, f: Form, g: Form) -> Form:
        """Product of the quotient calculus: the kernel builds no word of
        the ideal, and no coefficient is reduced before the end."""
        return _built(_product_triples(f, g, self._compiled()).items())
