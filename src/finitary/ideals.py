"""Differential ideals spanned by basis words.

Such an ideal is the span of all superwords (in the subsequence order) of
its generators, so it is stored as the antichain of subsequence-minimal
generator words; the full word set is infinite in general.  Membership
runs the word through the avoidance automaton's shift-and masks, compiled
on the first test into a slot that equality, hash and pickle leave out.

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
    _form,
    differential,
    form_product,
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
        object.__setattr__(self, "_matcher", None)  # filled by the first contains

    def _key(self):
        return self.vertex_count, self.generators

    def __reduce__(self):
        # the slots vertex_count, generators, _matcher: the twin compiles its own
        return _restore, (type(self), (*self._key(), None))

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators)
        return f"BasicIdeal(n={self.vertex_count}, [{gens}])"

    def contains(self, word: Word) -> bool:
        """True iff some generator embeds into the word as a subsequence: the
        word's letters advance it past its last (automata._compile); a letter
        outside the table matches nothing."""
        if self._matcher is None:
            start, masks, last = _compile(self.vertex_count, self.generators)
            object.__setattr__(self, "_matcher", (start[1], dict(enumerate(masks)), last))
        s, masks, last = self._matcher
        for letter in word:
            adv = s & masks.get(letter, 0)
            if adv & last:
                return True
            s += adv
        return False

    def reduce(self, f: Form) -> Form:
        """Orthogonal projection onto the complement of the ideal.

        Drops every term whose word lies in the ideal and keeps the rest
        verbatim; this realizes the quotient map onto the calculus the
        ideal defines.
        """
        contains = self.contains
        return _form({w: c for w, c in f._terms.items() if not contains(w)})

    def quotient_differential(self, f: Form) -> Form:
        """Differential of the quotient calculus: differentiate, then reduce."""
        return self.reduce(differential(f, self.vertex_count))

    def quotient_product(self, f: Form, g: Form) -> Form:
        """Product of the quotient calculus: multiply, then reduce."""
        return self.reduce(form_product(f, g))
