"""Discrete differential manifolds: a finite vertex set plus the family of
nonvanishing basis words of a calculus on it.

Two representations are supported.  An explicit manifold stores the finite
word family directly (grade-bucketed, lexicographically sorted).  An
ideal-complement manifold stores a BasicIdeal and treats every word outside
the ideal as nonvanishing; that family may be infinite, so only dimension
detection and grade-truncated enumeration are offered for it.

A manifold built from a reflexive relation r ("network" construction)
takes as words exactly the sequences (i_0, ..., i_k) with i_s r i_t for
all s <= t.  For antisymmetric r these are the subsets of the vertex set
on which r restricts to a total order, each in its unique admissible
arrangement; for non-antisymmetric r the family is unbounded, which is
reported as an error rather than materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .automata import avoiding_words, longest_avoiding_word
from .complexes import SimplicialComplex, default_labels, join_labels
# basis_words is unused here but stays bound: the traced benchmark op in
# bench/workloads.py replaces manifolds.basis_words to count words examined.
from .envelope import Word, basis_words, word_key, word_validate  # noqa: F401
from .errors import FinitaryError
from .ideals import BasicIdeal

INFINITE = math.inf


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


class Relation:
    """Reflexive binary relation on {0..n-1}; the diagonal is implicit."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        all_pairs = {(i, i) for i in range(n)}
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) outside vertex table of size {n}")
            all_pairs.add((i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", frozenset(all_pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    def holds(self, i: int, j: int) -> bool:
        return (i, j) in self.pairs

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        """Off-diagonal pairs in sorted order."""
        return tuple(sorted(p for p in self.pairs if p[0] != p[1]))

    def antisymmetry_witness(self) -> tuple[int, int] | None:
        """Smallest pair i < j related both ways, or None."""
        for i, j in sorted(self.pairs):
            if i < j and (j, i) in self.pairs:
                return (i, j)
        return None

    def __eq__(self, other):
        if isinstance(other, Relation):
            return self.n == other.n and self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"Relation(n={self.n}, {sorted(self.strict_pairs())})"


def fully_ordered_sequences(rel: Relation) -> Iterator[Word]:
    """Depth-first extension of chains: all arrangements (i_0, ..., i_k) of
    distinct vertices with every earlier element related to every later one.

    For an antisymmetric relation these are exactly the subsets totally
    ordered by it, each in its unique admissible arrangement.
    """

    def extend(seq: tuple[int, ...]) -> Iterator[Word]:
        yield Word(seq)
        for k in range(rel.n):
            if k in seq:
                continue
            if all(rel.holds(s, k) for s in seq):
                yield from extend(seq + (k,))

    for i in range(rel.n):
        yield from extend((i,))


@dataclass(frozen=True)
class StructureFailure:
    check: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[str, ...]
    failures: tuple[StructureFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        lines = []
        for check in self.checks:
            bad = [f for f in self.failures if f.check == check]
            if not bad:
                lines.append(f"{check}: ok")
            else:
                for f in bad:
                    lines.append(f"{check}: FAIL - {f.message}")
        return "\n".join(lines)


_CHECKS = ("hereditarity", "fully-ordered", "uniqueness", "singletons")


class Manifold:
    """A vertex table plus the family of nonvanishing words (explicit or as
    the complement of a basic ideal)."""

    __slots__ = ("labels", "_by_grade", "_word_set", "ideal", "_dim")

    def __init__(self, labels: tuple[str, ...], words=None, ideal: BasicIdeal | None = None):
        if (words is None) == (ideal is None):
            raise ValueError("provide exactly one of words= or ideal=")
        labels = tuple(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "_dim", None)
        if words is not None:
            validated = {word_validate(w, len(labels)) for w in words}
            if not validated:
                raise ValueError("explicit manifold needs at least one word")
            by_grade: dict[int, list[Word]] = {}
            for w in validated:
                by_grade.setdefault(w.grade, []).append(w)
            object.__setattr__(
                self,
                "_by_grade",
                {g: tuple(sorted(ws)) for g, ws in sorted(by_grade.items())},
            )
            object.__setattr__(self, "_word_set", frozenset(validated))
        else:
            if ideal.vertex_count != len(labels):
                raise ValueError("ideal vertex count does not match label count")
            object.__setattr__(self, "_by_grade", None)
            object.__setattr__(self, "_word_set", None)

    def __setattr__(self, name, value):
        raise AttributeError("Manifold is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_relation(cls, rel: Relation, labels=None) -> "Manifold":
        """Network construction: words are all fully ordered arrangements.

        Raises NotAntisymmetric when the relation admits i <= j <= i with
        i != j; the word family would then be unbounded (the manifold is
        infinite dimensional).
        """
        labels = tuple(labels) if labels else default_labels(rel.n)
        witness = rel.antisymmetry_witness()
        if witness:
            raise NotAntisymmetric(*witness, labels=labels)
        return cls(labels, words=fully_ordered_sequences(rel))

    @classmethod
    def from_ideal(cls, ideal: BasicIdeal, labels=None) -> "Manifold":
        labels = tuple(labels) if labels else default_labels(ideal.vertex_count)
        return cls(labels, ideal=ideal)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_explicit(self) -> bool:
        return self.ideal is None

    def word_label(self, w: Word) -> str:
        return join_labels(self.labels, w)

    def has_word(self, w) -> bool:
        w = word_validate(w, self.n)
        if self.is_explicit:
            return w in self._word_set
        return not self.ideal.contains(w)

    def dimension(self) -> int | float:
        """Largest grade carrying a nonvanishing word; math.inf if unbounded."""
        if self._dim is None:
            if self.is_explicit:
                dim = max(self._by_grade)
            else:
                dim = longest_avoiding_word(self.n, self.ideal.generators) - 1
            object.__setattr__(self, "_dim", dim)
        return self._dim

    def words(self, max_grade=None) -> Iterator[Word]:
        """Nonvanishing words, grade-major then lexicographic.

        Ideal-complement manifolds of infinite dimension require max_grade;
        their enumeration raises TooLarge past automata.MAX_WORDS words.
        """
        if self.is_explicit:
            for g in sorted(self._by_grade):
                if max_grade is not None and g > max_grade:
                    break
                yield from self._by_grade[g]
            return
        dim = self.dimension()
        if max_grade is None:
            if math.isinf(dim):
                raise InfiniteDimensional(
                    "infinite family of words; pass max_grade to truncate"
                )
            max_grade = dim
        else:
            max_grade = min(max_grade, dim)
        for letters in avoiding_words(self.n, self.ideal.generators, int(max_grade)):
            # the automaton never places equal letters side by side
            yield tuple.__new__(Word, letters)

    # -- structure -----------------------------------------------------

    def relation(self) -> Relation:
        """The binary relation read off the 1-forms: i <= j iff the word
        (i, j) is nonvanishing (plus the diagonal)."""
        pairs = [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if i != j and self.has_word((i, j))
        ]
        return Relation(self.n, pairs)

    def is_network(self) -> bool:
        """True iff the word family equals all fully ordered arrangements of
        its own 1-form relation."""
        if math.isinf(self.dimension()):
            raise InfiniteDimensional("network test needs a finite word family")
        rel = self.relation()
        if rel.antisymmetry_witness():
            return False
        return set(fully_ordered_sequences(rel)) == set(self.words())

    def check_structure(self) -> StructureReport:
        """Verify the combinatorial shape of a finite word family:

        (a) hereditarity under single-letter deletion (where the deletion
            leaves a valid word),
        (b) every word fully ordered by the 1-form relation, in sequence
            order,
        (c) no vertex subset carrying two distinct nonvanishing orderings,
        (d) all singletons present.
        """
        if not self.is_explicit and math.isinf(self.dimension()):
            raise InfiniteDimensional("structure checks need a finite word family")
        words = list(self.words())
        word_set = set(words)
        rel = self.relation()
        failures: list[StructureFailure] = []

        for w in words:
            if w.grade == 0:
                continue
            for pos in range(len(w)):
                sub = w[:pos] + w[pos + 1 :]
                if pos > 0 and pos < len(w) - 1 and w[pos - 1] == w[pos + 1]:
                    continue  # deletion would create equal adjacent letters
                subword = Word(sub)
                if subword not in word_set:
                    failures.append(
                        StructureFailure(
                            "hereditarity",
                            (w, subword),
                            f"{self.word_label(w)} present but its face "
                            f"{self.word_label(subword)} is missing",
                        )
                    )

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
                    if not rel.holds(w[s], w[t]):
                        failures.append(
                            StructureFailure(
                                "fully-ordered",
                                (w, (w[s], w[t])),
                                f"{self.word_label(w)}: pair "
                                f"({self.labels[w[s]]},{self.labels[w[t]]}) is unrelated",
                            )
                        )
                    elif rel.holds(w[t], w[s]):
                        failures.append(
                            StructureFailure(
                                "fully-ordered",
                                (w, (w[s], w[t])),
                                f"{self.word_label(w)}: pair "
                                f"({self.labels[w[s]]},{self.labels[w[t]]}) is related both ways",
                            )
                        )

        by_set: dict[frozenset, list[Word]] = {}
        for w in words:
            by_set.setdefault(frozenset(w), []).append(w)
        for vset, group in sorted(by_set.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            if len(group) > 1:
                names = ", ".join(self.word_label(w) for w in sorted(group, key=word_key))
                failures.append(
                    StructureFailure(
                        "uniqueness",
                        tuple(sorted(group, key=word_key)),
                        f"vertex set {{{join_labels(self.labels, sorted(vset))}}} "
                        f"carries several orderings: {names}",
                    )
                )

        for i in range(self.n):
            if Word((i,)) not in word_set:
                failures.append(
                    StructureFailure(
                        "singletons",
                        (i,),
                        f"singleton {self.labels[i]} is missing",
                    )
                )

        return StructureReport(_CHECKS, tuple(failures))

    def to_simplicial(self) -> SimplicialComplex:
        """Forget word order: valid because a finite-dimensional manifold
        carries at most one nonvanishing ordering per vertex subset."""
        report = self.check_structure()
        if not report.ok:
            raise StructureViolation(report)
        simplex_labels = {frozenset(w): self.word_label(w) for w in self.words()}
        return SimplicialComplex(
            self.n,
            (frozenset(w) for w in self.words()),
            labels=self.labels,
            simplex_labels=simplex_labels,
        )

    def __eq__(self, other):
        if isinstance(other, Manifold):
            return (
                self.labels == other.labels
                and self._word_set == other._word_set
                and self.ideal == other.ideal
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.labels, self._word_set, self.ideal))

    def __repr__(self):
        kind = "explicit" if self.is_explicit else "ideal-complement"
        return f"Manifold(n={self.n}, {kind})"
