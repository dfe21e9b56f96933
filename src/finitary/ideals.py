"""Differential ideals spanned by basis words.

Such an ideal is the span of all superwords (in the subsequence order) of
its generators, so it is stored as the antichain of subsequence-minimal
generator words; the full word set is infinite in general.  Membership is
a greedy subsequence scan per generator.

Generators of grade 0 are rejected: a nontrivial grade-0 component would
collapse the underlying function algebra rather than a calculus on it.
"""

from __future__ import annotations

from typing import Iterable

from .errors import FinitaryError
from .envelope import (
    Form,
    Word,
    differential,
    form_product,
    is_subsequence,
    word_key,
    word_validate,
)


class GradeZeroGenerator(FinitaryError):
    pass


class BasicIdeal:
    """Superword-closed span given by an antichain of generator words.

    The constructor normalizes: any input word that has another distinct
    input word as a subsequence is redundant and dropped.  The retained
    generators are sorted grade-major for reproducible output.
    """

    __slots__ = ("vertex_count", "generators")

    def __init__(self, vertex_count: int, generators: Iterable = ()):
        words = {word_validate(g, vertex_count) for g in generators}
        for w in words:
            if w.grade == 0:
                raise GradeZeroGenerator(
                    f"generator {w!r} has grade 0; ideals must vanish in grade 0"
                )
        # a distinct word can embed into w only if it is strictly shorter
        kept = [
            w
            for w in words
            if not any(len(g) < len(w) and is_subsequence(g, w) for g in words)
        ]
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "generators", tuple(sorted(kept, key=word_key)))

    def __setattr__(self, name, value):
        raise AttributeError("BasicIdeal is immutable")

    def __eq__(self, other):
        if isinstance(other, BasicIdeal):
            return (
                self.vertex_count == other.vertex_count
                and self.generators == other.generators
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex_count, self.generators))

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators)
        return f"BasicIdeal(n={self.vertex_count}, [{gens}])"

    def contains(self, word: Word) -> bool:
        """True iff some generator embeds into the word as a subsequence."""
        return any(is_subsequence(g, word) for g in self.generators)

    def reduce(self, f: Form) -> Form:
        """Orthogonal projection onto the complement of the ideal.

        Drops every term whose word lies in the ideal and keeps the rest
        verbatim; this realizes the quotient map onto the calculus the
        ideal defines.
        """
        return Form((w, c) for w, c in f.items() if not self.contains(w))

    def quotient_differential(self, f: Form) -> Form:
        """Differential of the quotient calculus: differentiate, then reduce."""
        return self.reduce(differential(f, self.vertex_count))

    def quotient_product(self, f: Form, g: Form) -> Form:
        """Product of the quotient calculus: multiply, then reduce."""
        return self.reduce(form_product(f, g))
