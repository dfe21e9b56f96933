"""Differential ideals spanned by basis words.

Such an ideal is the span of all superwords (in the subsequence order) of
its generators, so it is stored as the antichain of subsequence-minimal
generator words; the full word set is infinite in general.  Membership
runs the word through the avoidance automaton's shift-and masks, compiled
on the first test into a slot that equality, hash and pickle leave out.
One loop (_outside) tests words this way for contains, reduce and the
quotient operations.  The quotient differential and product take the
envelope kernels' accumulators, one unnormalized integer triple per word,
and drop the words of the ideal before any sum is reduced: only the
surviving terms are reduced, and no scalar is built.

Generators of grade 0 are rejected: a nontrivial grade-0 component would
collapse the underlying function algebra rather than a calculus on it.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

from .automata import _compile
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

    def contains(self, word: Word) -> bool:
        """True iff some generator embeds into the word as a subsequence."""
        return not self._outside(((word, None),))

    def _outside(self, items: Iterable[tuple]) -> list[tuple]:
        """The (word, value) pairs of items whose word is not in the ideal:
        no generator's match progress passes its last letter
        (automata._compile) as the word's letters advance it; a letter
        outside the table matches nothing."""
        if self._matcher is None:
            start, masks, last = _compile(self.vertex_count, self.generators)
            object.__setattr__(self, "_matcher", (start[1], dict(enumerate(masks)), last))
        start, masks, last = self._matcher
        get = masks.get
        kept = []
        for item in items:
            s = start
            for letter in item[0]:
                adv = s & get(letter, 0)
                if adv & last:
                    break
                s += adv
            else:
                kept.append(item)
        return kept

    def reduce(self, f: Form) -> Form:
        """Orthogonal projection onto the complement of the ideal.

        Drops every term whose word lies in the ideal and keeps the rest
        verbatim; this realizes the quotient map onto the calculus the
        ideal defines.
        """
        return _form(dict(self._outside(f._terms.items())))

    def quotient_differential(self, f: Form) -> Form:
        """Differential of the quotient calculus: differentiate, then drop
        the ideal's words before any coefficient is reduced."""
        return _built(self._outside(_differential_triples(f, self.vertex_count).items()))

    def quotient_product(self, f: Form, g: Form) -> Form:
        """Product of the quotient calculus: multiply, then drop the
        ideal's words before any coefficient is reduced."""
        return _built(self._outside(_product_triples(f, g).items()))
