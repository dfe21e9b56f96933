"""Abstract simplicial complexes over an indexed vertex set.

A complex is a hereditary family of nonempty vertex subsets containing
every singleton; SimplicialComplex builds it as the closure of any
nonempty vertex masks, adding their missing faces and the singletons.  A
simplex is an int vertex mask (bit v for vertex v), the index-set format
of the rest of the library.  Each cell has one label: its vertex labels
joined in order, or in the complex of a manifold (Manifold.to_simplicial)
the label of its one nonvanishing word.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import FinitaryError, TooLarge, Value, members

#: Cap on the cells of a SimplicialComplex closure: a 12-vertex simplex
#: (4095 cells) passes, a 13-vertex one is refused.
MAX_CELLS = 4096


class NotASimplex(FinitaryError):
    pass


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def label_separator(table: Sequence[str]) -> str:
    """Separator of word and simplex labels joined over a vertex table.

    It is decided by the whole table, not by the labels joined: only when
    every table label is one character is it omitted, so a joined label can
    never equal a vertex label (as "12" would on a 12-vertex table).  The
    value holding the table decides it once; its labels must be unique and
    hold no ",", which would let "a,b" name a vertex and a joined pair.
    """
    if len(set(table)) != len(table):
        raise ValueError("vertex labels must be unique")
    if any("," in lbl for lbl in table):
        raise ValueError("vertex labels must not contain ','")
    return "" if all(len(lbl) == 1 for lbl in table) else ","


def vertex_mask(indices: Iterable[int]) -> int:
    """The mask of a vertex collection: bit v set for each vertex v in it."""
    mask = 0
    for v in indices:
        mask |= 1 << v
    return mask


def facets(simplex: int) -> Iterator[int]:
    """The facets of a simplex mask, each missing one vertex, lowest vertex
    first; a vertex has none (the empty set is not a simplex)."""
    rest = simplex if simplex & (simplex - 1) else 0
    while rest:
        low = rest & -rest
        yield simplex ^ low
        rest ^= low


def simplex_key(simplex: int) -> tuple[int, list[int]]:
    """Canonical sort key of a vertex mask: size, then sorted vertices."""
    return simplex.bit_count(), members(simplex)


def _check(simplex, vertex_count: int) -> int:
    if type(simplex) is not int:
        raise TypeError("simplices must be int vertex masks")
    if not simplex:
        raise NotASimplex("the empty set is not a simplex")
    if simplex >> vertex_count:  # also every negative mask
        raise NotASimplex(f"simplex mask {simplex} has vertices outside the table")
    return simplex


class SimplicialComplex(Value):
    """The closure of the given nonempty vertex masks: they, their faces and
    every singleton.  Raises TooLarge as soon as it grows past MAX_CELLS
    cells.  Stored are the simplices, as vertex masks in canonical order
    (size first, then sorted vertices), and cell_labels, one label per
    simplex in that order.  A mask is also the trace of its open cell in
    the covering by open vertex stars, so the face order is mask
    inclusion.  _key ignores the labels."""

    __slots__ = ("vertex_count", "labels", "simplices", "cell_labels")

    def __init__(self, vertex_count: int, simplices: Iterable[int], labels=None):
        given = {_check(s, vertex_count) for s in simplices}
        closure = set()
        for s in [*given, *(1 << v for v in range(vertex_count))]:
            face = s
            while face:  # every nonempty submask of s
                closure.add(face)
                if len(closure) > MAX_CELLS:
                    raise TooLarge(f"complex closure is capped at {MAX_CELLS} cells")
                face = (face - 1) & s
        ordered = sorted(closure, key=simplex_key)
        labels = default_labels(vertex_count) if labels is None else tuple(labels)
        if len(labels) != vertex_count:
            raise ValueError("label count does not match vertex count")
        sep = label_separator(labels)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "simplices", tuple(ordered))
        cells = (sep.join(labels[v] for v in members(s)) for s in ordered)
        object.__setattr__(self, "cell_labels", tuple(cells))

    def __len__(self):
        return len(self.simplices)

    def _key(self):
        return (self.vertex_count, self.simplices)

    def __repr__(self):
        return f"SimplicialComplex(n={self.vertex_count}, {len(self.simplices)} simplices)"
