"""Discrete differential manifolds: a finite vertex set plus the family of
nonvanishing basis words of a calculus on it.

Two representations are supported.  An explicit manifold stores the finite
word family directly, as one tuple in canonical order (grade-major, then
lexicographic).  An ideal-complement manifold stores a BasicIdeal and
treats every word outside the ideal as nonvanishing; that family may be
infinite, so only dimension detection and grade-truncated enumeration are
offered for it.  Whether it is finite is read off the ideal's generators
(automata.is_finite); when it is, its first full listing is kept in the
same tuple.

A manifold built from a reflexive relation r ("network" construction)
takes as words exactly the sequences (i_0, ..., i_k) with i_s r i_t for
all s <= t.  For antisymmetric r these are the subsets of the vertex set
on which r restricts to a total order, each in its unique admissible
arrangement; for non-antisymmetric r the family is unbounded, which is
reported as an error rather than materialized.  A Relation holds one int
mask of strict successors per vertex, the mask format of the rest of the
library; the chains are listed by the level walk that lists an ideal
complement's words, a chain's state being the AND of those masks.  A
manifold keeps its first structure report; a relation's, passing, is
proved by construction: subchains are chains, and each vertex is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile, zip_longest
from typing import Iterable, Iterator

from .automata import _START, MAX_WORDS, _walk, avoiding_words, is_finite, longest_avoiding_word
from .complexes import (
    SimplicialComplex, default_labels, label_separator, simplex_key, vertex_mask
)
# basis_words is unused here but stays bound: the traced benchmark op in
# bench/workloads.py replaces manifolds.basis_words to count words examined.
from .envelope import Word, _word, basis_words, deletions, word_key, word_validate  # noqa: F401
from .errors import FinitaryError, Value, _restore, members
from .ideals import BasicIdeal


class NotAntisymmetric(FinitaryError):
    def __init__(self, i: int, j: int, labels=None):
        self.pair = (i, j)
        a, b = (labels[i], labels[j]) if labels else (i, j)
        super().__init__(f"relation is not antisymmetric: {a} <= {b} and {b} <= {a}")


class InfiniteDimensional(FinitaryError):
    pass


class StructureViolation(FinitaryError):
    def __init__(self, report: "StructureReport"):
        self.report = report
        super().__init__("manifold structure checks failed:\n" + str(report))


class Relation(Value):
    """Reflexive binary relation on {0..n-1}, stored as one strict-successor
    mask per vertex: bit j of after[i] is set iff i <= j and i != j.  The
    diagonal is implicit."""

    __slots__ = ("n", "after")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        after = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) outside vertex table of size {n}")
            if i != j:
                after[i] |= 1 << j
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "after", tuple(after))

    def holds(self, i: int, j: int) -> bool:
        """i <= j; False when i or j is not a vertex."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            return False
        return i == j or bool(self.after[i] >> j & 1)

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        """Off-diagonal pairs in sorted order."""
        return tuple((i, j) for i, a in enumerate(self.after) for j in members(a))

    def antisymmetry_witness(self) -> tuple[int, int] | None:
        """Smallest pair i < j related both ways, or None."""
        for i, a in enumerate(self.after):
            for j in members(a >> i + 1 << i + 1):  # the successors above i
                if self.after[j] >> i & 1:
                    return (i, j)
        return None

    def __repr__(self):
        return f"Relation(n={self.n}, {list(self.strict_pairs())})"


def _chains(rel: Relation) -> Iterator[Word]:
    """The arrangements of distinct vertices, each related to every later
    one, by the level walk.  A chain's state masks the common strict
    successors of its vertices; vertex k extends it to admissible & after[k].
    Chains sharing an admissible mask share one list of successor states."""
    after = rel.after
    successors = {0: ()}  # admissible mask -> its states one vertex on

    def extend(state):
        admissible = state[1]
        nxt = successors.get(admissible)
        if nxt is None:
            nxt = successors[admissible] = [(k, admissible & after[k]) for k in members(admissible)]
        return nxt

    # a chain has at most n letters; distinct letters make valid words
    walk = _walk((_START, (1 << rel.n) - 1), extend, rel.n - 1, "relation path enumeration")
    return map(_word, walk)


@dataclass(frozen=True)
class StructureFailure:
    check: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class StructureReport:
    failures: tuple[StructureFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        lines = []
        for check in _CHECKS:
            bad = [f for f in self.failures if f.check == check]
            if not bad:
                lines.append(f"{check}: ok")
            else:
                for f in bad:
                    lines.append(f"{check}: FAIL - {f.message}")
        return "\n".join(lines)

    def render(self) -> str:
        """The check lines and the verdict, as `manifold check` prints them."""
        return f"{self}\nstructure: {'ok' if self.ok else 'FAILED'}"


_CHECKS = ("hereditarity", "fully-ordered", "uniqueness", "singletons")


class Manifold(Value):
    """A vertex table plus the family of nonvanishing words (explicit or as
    the complement of a basic ideal)."""

    __slots__ = ("labels", "_words", "ideal", "_separator", "_report", "_word_labels")

    def __init__(self, labels: tuple[str, ...], words=None, ideal: BasicIdeal | None = None):
        if (words is None) == (ideal is None):
            raise ValueError("provide exactly one of words= or ideal=")
        labels = tuple(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_separator", label_separator(labels))
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "_words", None)
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_word_labels", None)
        if words is not None:
            validated = {word_validate(w, len(labels)) for w in words}
            if not validated:
                raise ValueError("explicit manifold needs at least one word")
            object.__setattr__(self, "_words", tuple(sorted(validated, key=word_key)))
        elif ideal.vertex_count != len(labels):
            raise ValueError("ideal vertex count does not match label count")

    # -- construction -------------------------------------------------

    @classmethod
    def from_relation(cls, rel: Relation, labels=None) -> "Manifold":
        """Network construction: words are all fully ordered arrangements.

        Raises NotAntisymmetric when the relation admits i <= j <= i with
        i != j; the word family would then be unbounded (the manifold is
        infinite dimensional).  The walk lists valid, distinct, structured
        words in canonical order, assembled unchecked; labels match rel.n.
        """
        labels = default_labels(rel.n) if labels is None else tuple(labels)
        if len(labels) != rel.n:
            raise ValueError("label count does not match vertex count")
        if not rel.n:
            raise ValueError("explicit manifold needs at least one word")
        witness = rel.antisymmetry_witness()
        if witness:
            raise NotAntisymmetric(*witness, labels=labels)
        words = tuple(_chains(rel))
        state = (labels, words, None, label_separator(labels), StructureReport(()), None)
        return _restore(cls, state)

    @classmethod
    def from_ideal(cls, ideal: BasicIdeal, labels=None) -> "Manifold":
        labels = default_labels(ideal.vertex_count) if labels is None else tuple(labels)
        return cls(labels, ideal=ideal)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_explicit(self) -> bool:
        return self.ideal is None

    def word_label(self, w: Iterable[int]) -> str:
        """Label of a word, or of any sequence of vertex indices."""
        return self._separator.join(self.labels[i] for i in w)

    def word_labels(self) -> tuple[str, ...]:
        """The label of each word, in the order of words(); joined once,
        on the first call, and kept."""
        if self._word_labels is None:
            object.__setattr__(self, "_word_labels", tuple(map(self.word_label, self.words())))
        return self._word_labels

    def dimension(self) -> int | float:
        """Largest grade carrying a nonvanishing word; math.inf if unbounded.

        Read off the kept listing (-1 when it is empty, on zero vertices);
        an unlisted ideal complement walks its automaton for the longest
        word instead, without listing the words.
        """
        if self._words is None:
            return longest_avoiding_word(self.n, self.ideal.generators) - 1
        return self._words[-1].grade if self._words else -1

    def words(self, max_grade=None) -> Iterator[Word]:
        """Nonvanishing words, grade-major then lexicographic.

        Ideal-complement manifolds of infinite dimension require max_grade;
        their enumeration raises TooLarge past automata.MAX_WORDS words.
        The first full listing of a finite one is kept; before it, a
        truncated listing walks the automaton to max_grade and keeps
        nothing.
        """
        if self._words is None:
            n, gens = self.n, self.ideal.generators
            # the automaton never places equal letters side by side
            if max_grade is not None:
                return map(_word, avoiding_words(n, gens, max_grade))
            if not is_finite(n, gens):
                raise InfiniteDimensional("infinite family of words; pass max_grade to truncate")
            # MAX_WORDS words cannot reach grade MAX_WORDS: the cap stops first
            walk = avoiding_words(n, gens, MAX_WORDS)
            object.__setattr__(self, "_words", tuple(map(_word, walk)))
        if max_grade is None:
            return iter(self._words)
        return takewhile(lambda w: w.grade <= max_grade, self._words)

    # -- structure -----------------------------------------------------

    def relation(self) -> Relation:
        """The binary relation read off the 1-forms: i <= j iff the word
        (i, j) is nonvanishing (plus the diagonal)."""
        return Relation(self.n, (w for w in self.words(max_grade=1) if w.grade == 1))

    def is_network(self) -> bool:
        """True iff the word family equals all fully ordered arrangements of
        its own 1-form relation.  Both are listed in canonical order, so they
        are compared pair by pair, up to the first difference: a large
        relation behind a small family is not listed.  The family is listed,
        and kept, before the relation is read off it."""
        if not self.is_explicit and not is_finite(self.n, self.ideal.generators):
            raise InfiniteDimensional("network test needs a finite word family")
        words, rel = self.words(), self.relation()  # the family first: it is kept
        return not rel.antisymmetry_witness() and all(
            a == b for a, b in zip_longest(_chains(rel), words)
        )

    def check_structure(self) -> StructureReport:
        """Verify the combinatorial shape of a finite word family:

        (a) hereditarity under single-letter deletion (where the deletion
            leaves a valid word),
        (b) every word fully ordered by the 1-form relation, in sequence
            order,
        (c) no vertex subset carrying two distinct nonvanishing orderings,
        (d) all singletons present.

        (b) follows from (a) and (c), so its pair scan runs, and the
        relation is built, only when (a) or (c) fails; (d) plays no part.
        No word repeats a letter: deleting the first letter that occurs
        twice would leave, by (a), a second word on the same vertex set,
        unless its neighbours were equal, an earlier repeat.  So each
        ordered pair (a, b) of a word is reached by deletions, a grade-1
        word by (a), and (b, a), a second ordering of {a, b}, is not one
        by (c).  The first report is kept.
        """
        if self._report is not None:
            return self._report
        if not self.is_explicit and not is_finite(self.n, self.ideal.generators):
            raise InfiniteDimensional("structure checks need a finite word family")
        words = list(self.words())
        word_set = set(words)
        failures: list[StructureFailure] = []

        for w in words:
            for sub in deletions(w):
                if sub not in word_set:  # a Word hashes and compares as its tuple
                    subword = _word(sub)
                    failures.append(
                        StructureFailure(
                            "hereditarity",
                            (w, subword),
                            f"{self.word_label(w)} present but its face "
                            f"{self.word_label(subword)} is missing",
                        )
                    )

        by_set: dict[int, list[Word]] = {}  # each group in canonical word order
        for w in words:
            by_set.setdefault(vertex_mask(w), []).append(w)
        if failures or len(by_set) < len(words):  # (a) or (c) fails
            rel = self.relation()
            for w in words:
                if len(set(w)) != len(w):
                    failures.append(
                        StructureFailure(
                            "fully-ordered",
                            (w,),
                            f"{self.word_label(w)} repeats a letter",
                        )
                    )
                    continue
                for s in range(len(w)):
                    for t in range(s + 1, len(w)):
                        a, b = w[s], w[t]
                        if rel.holds(a, b) and not rel.holds(b, a):
                            continue
                        how = "is related both ways" if rel.holds(a, b) else "is unrelated"
                        pair = f"({self.labels[a]},{self.labels[b]})"
                        failures.append(
                            StructureFailure(
                                "fully-ordered",
                                (w, (a, b)),
                                f"{self.word_label(w)}: pair {pair} {how}",
                            )
                        )

        shared = [kv for kv in by_set.items() if len(kv[1]) > 1]
        for vset, group in sorted(shared, key=lambda kv: simplex_key(kv[0])):
            names = ", ".join(map(self.word_label, group))
            failures.append(
                StructureFailure(
                    "uniqueness",
                    tuple(group),
                    f"vertex set {{{self.word_label(members(vset))}}} "
                    f"carries several orderings: {names}",
                )
            )

        for i in range(self.n):
            if (i,) not in word_set:
                failures.append(
                    StructureFailure(
                        "singletons",
                        (i,),
                        f"singleton {self.labels[i]} is missing",
                    )
                )

        object.__setattr__(self, "_report", StructureReport(tuple(failures)))
        return self._report

    def to_simplicial(self) -> SimplicialComplex:
        """Forget word order: valid because a finite-dimensional manifold
        carries at most one nonvanishing ordering per vertex subset.  Past
        check_structure, the words sorted by size and then letters give the
        simplices in canonical order and, from word_labels, their labels,
        assembled unchecked."""
        report = self.check_structure()
        if not report.ok:
            raise StructureViolation(report)
        labels, words = self.word_labels(), self._words  # listed by word_labels
        order = sorted(range(len(words)), key=lambda i: (len(words[i]), sorted(words[i])))
        masks = tuple(vertex_mask(words[i]) for i in order)
        cells = tuple(labels[i] for i in order)
        return _restore(SimplicialComplex, (self.n, self.labels, masks, cells))

    def _key(self):
        return (self.labels, self._words if self.is_explicit else self.ideal)

    def __repr__(self):
        kind = "explicit" if self.is_explicit else "ideal-complement"
        return f"Manifold(n={self.n}, {kind})"
