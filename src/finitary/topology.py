"""Finite topological spaces as preorders.

A finite space is stored as its minimal-open-set map: min_open(x) is the
smallest open set containing x (the intersection of all opens through x).
That map determines the topology, and the specialization preorder is read
off as x <= y iff x in min_open(y).  The space is T0 exactly when min_open
is injective, i.e. when the preorder is a partial order.

For spaces generated by a manifold the points are the nonvanishing words
and min_open(a) collects every word having a as a subsequence; under the
orientation above, larger words sit *below* their faces, matching the
usual picture where an edge lies under its endpoints in the Hasse graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .envelope import is_subsequence
from .errors import TooLarge
from .manifolds import InfiniteDimensional, Manifold


class FiniteSpace:
    """Points with display labels plus the minimal-open-set map.

    Construction checks x in min_open(x) and the nesting coherence
    y in min_open(x) => min_open(y) subset of min_open(x); together these
    make min_open the basis of an actual topology.
    """

    __slots__ = ("labels", "min_open")

    def __init__(self, labels: Sequence[str], min_open: Iterable):
        labels = tuple(labels)
        opens = tuple(frozenset(s) for s in min_open)
        if len(labels) != len(opens):
            raise ValueError("one min_open set per point required")
        if len(set(labels)) != len(labels):
            raise ValueError("point labels must be unique")
        for x, u in enumerate(opens):
            if x not in u:
                raise ValueError(f"point {labels[x]} missing from its own min_open")
            if not all(0 <= y < len(opens) for y in u):
                raise ValueError(f"min_open of {labels[x]} mentions unknown points")
            for y in u:
                if not opens[y] <= u:
                    raise ValueError(
                        f"min_open({labels[y]}) not nested inside min_open({labels[x]})"
                    )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "min_open", opens)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSpace is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def le(self, x: int, y: int) -> bool:
        """Specialization preorder: x <= y iff x belongs to min_open(y)."""
        return x in self.min_open[y]

    def __eq__(self, other):
        if isinstance(other, FiniteSpace):
            return self.labels == other.labels and self.min_open == other.min_open
        return NotImplemented

    def __hash__(self):
        return hash((self.labels, self.min_open))

    def __repr__(self):
        return f"FiniteSpace({self.n} points)"


@dataclass(frozen=True)
class HasseDiagram:
    """Covering pairs (lower, upper) of a finite T0 space, by point index."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.labels[a], self.labels[b]) for a, b in self.edges)


def generated_space(m: Manifold) -> FiniteSpace:
    """The finite space on the nonvanishing words of a manifold.

    min_open(a) = all words containing a as a subsequence.  Only finite
    dimensional manifolds have a finite point set.
    """
    if not m.is_explicit and math.isinf(m.dimension()):
        raise InfiniteDimensional("generated space needs a finite word family")
    words = list(m.words())
    opens = [
        frozenset(j for j, b in enumerate(words) if is_subsequence(a, b))
        for a in words
    ]
    return FiniteSpace([m.word_label(w) for w in words], opens)


def is_t0(s: FiniteSpace) -> bool:
    """T0 iff distinct points have distinct minimal open sets."""
    return len(set(s.min_open)) == s.n


def trace_quotient(
    labels: Sequence[str], traces: Sequence[frozenset]
) -> tuple[FiniteSpace, tuple[int, ...]]:
    """Quotient of labelled points by equality of traces.

    A trace is any set (of cover sets, say) attached to a point; points
    with equal traces merge.  Returns the quotient space and the class map
    (point index -> class index).  Classes are ordered by first occurrence
    and labelled by their first member; min_open(class T) = {classes S :
    T subset of S}, so the quotient is always T0.
    """
    class_index: dict[frozenset, int] = {}
    class_traces: list[frozenset] = []
    class_labels: list[str] = []
    class_of = []
    for label, t in zip(labels, traces):
        if t not in class_index:
            class_index[t] = len(class_traces)
            class_traces.append(t)
            class_labels.append(label)
        class_of.append(class_index[t])
    opens = [
        frozenset(j for j, s in enumerate(class_traces) if t <= s)
        for t in class_traces
    ]
    return FiniteSpace(class_labels, opens), tuple(class_of)


def _up_sets(s: FiniteSpace) -> list[frozenset]:
    """up(x) = {y : x in min_open(y)}, the minimal open sets through x."""
    return [
        frozenset(y for y in range(s.n) if x in s.min_open[y]) for x in range(s.n)
    ]


def t0_quotient(s: FiniteSpace) -> tuple[FiniteSpace, tuple[int, ...]]:
    """Collapse points with identical minimal open sets.

    This is the trace quotient for the covering by minimal open sets: two
    points lie in the same minimal opens exactly when their own minimal
    opens coincide.  Returns the quotient space and the class map.
    """
    return trace_quotient(s.labels, _up_sets(s))


def hasse(s: FiniteSpace) -> HasseDiagram:
    """Transitive reduction of the specialization order of a T0 space."""
    if not is_t0(s):
        raise ValueError("Hasse diagram requires a T0 space")
    edges = []
    for y in range(s.n):
        below = s.min_open[y] - {y}
        for x in below:
            if not any(x in s.min_open[z] for z in below if z != x):
                edges.append((x, y))
    return HasseDiagram(s.labels, tuple(sorted(edges)))


def open_sets(s: FiniteSpace) -> tuple[frozenset, ...]:
    """Every open set: all unions of minimal open sets.

    Guarded to at most 20 points; an antichain already has 2^n opens.
    (Word enumeration of an ideal complement has its own cap,
    automata.MAX_WORDS = 100 000 words.)
    """
    if s.n > 20:
        raise TooLarge(f"{s.n} points; open-set enumeration is capped at 20")
    q, class_of = t0_quotient(s)
    order = sorted(range(q.n), key=lambda x: len(q.min_open[x]))
    downs: list[frozenset] = []

    def build(i: int, current: frozenset):
        if i == len(order):
            downs.append(current)
            return
        p = order[i]
        build(i + 1, current)
        if q.min_open[p] - {p} <= current:
            build(i + 1, current | {p})

    build(0, frozenset())
    expanded = [
        frozenset(x for x in range(s.n) if class_of[x] in d) for d in downs
    ]
    return tuple(sorted(expanded, key=lambda u: (len(u), sorted(u))))


def _refine_colors(s: FiniteSpace) -> tuple[int, ...]:
    """Iterated invariant refinement over the specialization preorder."""
    down = s.min_open
    up = _up_sets(s)
    colors = [(len(down[x]), len(up[x])) for x in range(s.n)]
    while True:
        sigs = [
            (
                colors[x],
                tuple(sorted(colors[y] for y in down[x])),
                tuple(sorted(colors[y] for y in up[x])),
            )
            for x in range(s.n)
        ]
        palette = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if len(set(new)) == len(set(colors)):
            return tuple(new)
        colors = new


def poset_isomorphic(a: FiniteSpace, b: FiniteSpace) -> tuple[int, ...] | None:
    """Search for an order isomorphism between two T0 spaces.

    Returns a tuple mapping each point index of `a` to its image in `b`,
    or None.  Candidates are pruned by iterated degree/level invariants and
    tried in index order, so the result is deterministic and the identity
    is found first whenever it works.
    """
    if a.n != b.n:
        return None
    ca, cb = _refine_colors(a), _refine_colors(b)
    if sorted(ca) != sorted(cb):
        return None

    da, db = a.min_open, b.min_open
    image: list[int] = []
    used = [False] * b.n
    start = [0] * a.n  # next candidate to try for each point

    def compatible(x: int, y: int) -> bool:
        return all(
            (u in da[x]) == (v in db[y]) and (x in da[u]) == (y in db[v])
            for u, v in enumerate(image)
        )

    # Depth-first search without recursion: image holds the images of
    # points 0 .. len(image) - 1, and candidates go in index order.
    while len(image) < a.n:
        x = len(image)
        for y in range(start[x], b.n):
            if not used[y] and cb[y] == ca[x] and compatible(x, y):
                image.append(y)
                used[y] = True
                start[x] = y + 1
                break
        else:
            if not image:
                return None
            start[x] = 0
            used[image.pop()] = False
    return tuple(image)
