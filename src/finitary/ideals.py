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
    Word,
    _built,
    _differential_triples,
    _form,
    _product_triples,
    is_subsequence,
    word_key,
    word_validate,
)


class GradeZeroGenerator(FinitaryError):
    pass


class BasicIdeal(Value):
    """Superword-closed span given by an antichain of generator words.

    The constructor normalizes: any input word that has another distinct
    input word as a subsequence is redundant and dropped.  The retained
    generators are sorted grade-major for reproducible output.
    """

    __slots__ = ("vertex_count", "generators", "_matcher")

    def __init__(self, vertex_count: int, generators: Iterable = ()):
        words = {word_validate(g, vertex_count) for g in generators}
        for w in words:
            if w.grade == 0:
                raise GradeZeroGenerator(
                    f"generator {w!r} has grade 0; ideals must vanish in grade 0"
                )
        # a distinct word can embed into w only if it is strictly shorter, and
        # subsequence is transitive, so each length is tested against the
        # words kept from shorter ones (the list is read before += extends it)
        kept: list[Word] = []
        for _, group in groupby(sorted(words, key=len), len):
            kept += [w for w in group if not any(is_subsequence(g, w) for g in kept)]
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "generators", tuple(sorted(kept, key=word_key)))
        object.__setattr__(self, "_matcher", None)  # filled by the first test

    def _key(self):
        return self.vertex_count, self.generators

    def __reduce__(self):
        # the slots vertex_count, generators, _matcher: the twin compiles its own
        return _restore, (type(self), (*self._key(), None))

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators)
        return f"BasicIdeal(n={self.vertex_count}, [{gens}])"

    def _compiled(self):
        if self._matcher is None:
            object.__setattr__(self, "_matcher", _compile(self.vertex_count, self.generators))
        return self._matcher

    def contains(self, word: Word) -> bool:
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
