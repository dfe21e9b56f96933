"""Abstract simplicial complexes over an indexed vertex set.

A complex is a hereditary family of nonempty vertex subsets containing
every singleton.  Simplices are frozensets of vertex indices; the display
label of a simplex can be overridden (a manifold labels its simplices by
the unique nonvanishing word ordering).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import FinitaryError


class NotASimplex(FinitaryError):
    pass


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def join_labels(table: Sequence[str], indices: Iterable[int]) -> str:
    """Label of a word or simplex from its vertex indices.

    The separator is decided by the whole vertex table, not by the labels
    joined: only when every table label is one character is it omitted, so
    a joined label can never equal a vertex label (as "12" would on a
    12-vertex table).
    """
    sep = "" if all(len(lbl) == 1 for lbl in table) else ","
    return sep.join(table[i] for i in indices)


class SimplicialComplex:
    __slots__ = ("vertex_count", "labels", "simplices", "_simplex_labels", "_ordered")

    def __init__(
        self,
        vertex_count: int,
        simplices: Iterable,
        labels: tuple[str, ...] | None = None,
        simplex_labels: Mapping | None = None,
    ):
        simps = {frozenset(s) for s in simplices}
        for s in simps:
            if not s:
                raise NotASimplex("the empty set is not a simplex")
            if not all(isinstance(v, int) and 0 <= v < vertex_count for v in s):
                raise NotASimplex(f"simplex {set(s)} has vertices outside the table")
        for i in range(vertex_count):
            if frozenset((i,)) not in simps:
                raise NotASimplex(f"missing singleton {{{i}}}")
        for s in simps:
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if frozenset(face) not in simps:
                        raise NotASimplex(
                            f"family is not hereditary: {set(s)} lacks face {set(face)}"
                        )
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "labels", tuple(labels) if labels else default_labels(vertex_count))
        if len(self.labels) != vertex_count:
            raise ValueError("label count does not match vertex count")
        object.__setattr__(self, "simplices", frozenset(simps))
        object.__setattr__(self, "_simplex_labels", dict(simplex_labels) if simplex_labels else {})
        object.__setattr__(
            self,
            "_ordered",
            tuple(sorted(simps, key=lambda s: (len(s), tuple(sorted(s))))),
        )

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def closed(cls, vertex_count: int, simplices: Iterable, labels=None):
        """Build from arbitrary nonempty subsets, adding all missing faces
        and singletons.  Returns (complex, added) with the added faces in
        canonical order."""
        given = {frozenset(s) for s in simplices if s}
        closure = set(given)
        for s in given:
            for size in range(1, len(s)):
                closure.update(frozenset(c) for c in combinations(sorted(s), size))
        closure.update(frozenset((i,)) for i in range(vertex_count))
        added = sorted(closure - given, key=lambda s: (len(s), tuple(sorted(s))))
        return cls(vertex_count, closure, labels=labels), added

    def __contains__(self, simplex) -> bool:
        return frozenset(simplex) in self.simplices

    def __len__(self):
        return len(self.simplices)

    def __eq__(self, other):
        if isinstance(other, SimplicialComplex):
            return (
                self.vertex_count == other.vertex_count
                and self.simplices == other.simplices
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex_count, self.simplices))

    def __repr__(self):
        return f"SimplicialComplex(n={self.vertex_count}, {len(self.simplices)} simplices)"

    @property
    def dim(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def ordered(self) -> tuple[frozenset, ...]:
        """Simplices in canonical order: size-major, then sorted vertices."""
        return self._ordered

    def simplex_label(self, simplex) -> str:
        s = frozenset(simplex)
        if s in self._simplex_labels:
            return self._simplex_labels[s]
        return join_labels(self.labels, sorted(s))

    def star(self, simplex) -> set[frozenset]:
        """All simplices having the given one as a face."""
        s = frozenset(simplex)
        if s not in self.simplices:
            raise NotASimplex(f"{set(simplex)} is not a simplex of the complex")
        return {t for t in self.simplices if s <= t}
