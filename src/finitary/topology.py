"""Finite topological spaces as preorders, stored as bitmasks.

A finite space is stored as its minimal-open-set map: min_open(x) is the
smallest open set containing x (the intersection of all opens through x).
Each min_open(x) is one int bitmask over the point indices: bit y is set
when y belongs to it, so union, intersection and inclusion are |, & and
u & ~v == 0, and members() lists the points of a mask.  The map determines
the topology, and the specialization preorder is read off as x <= y iff bit
x of min_open(y) is set.

For spaces generated by a manifold the points are the nonvanishing words
and min_open(a) collects every word having a as a subsequence; under the
orientation above, larger words sit *below* their faces, matching the
usual picture where an edge lies under its endpoints in the Hasse graph.

A space is the recipe its table comes from (the words of the manifold,
or the masks of a substitute) and builds min_open on its first read.
Words take the subsequence closure, and masks (cells of a complex, class
traces) the one trace-quotient rule: min_open(T) holds every mask
containing T.  Distinct items have distinct min_open sets under either
rule, so every space is T0: its preorder is a partial order.  When the
recipe is face-closed, every face of every item again an item, its face
relation is the cover relation (Stong), so the Hasse diagram is read off
the recipe and builds no table; any other space takes the transitive
reduction of its table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Callable, Iterable, Sequence

from .envelope import deletions, is_subsequence
from .errors import TooLarge, Value, _restore, members
from .manifolds import InfiniteDimensional, Manifold


def _transpose(rows: Sequence[Iterable[int]], size: int) -> list[int]:
    """The `size` masks t with bit y of t[x] set iff x is in rows[y]."""
    columns = [bytearray((len(rows) + 7) >> 3) for _ in range(size)]
    for y, row in enumerate(rows):
        byte, bit = y >> 3, 1 << (y & 7)
        for x in row:
            columns[x][byte] |= bit
    return [int.from_bytes(column, "little") for column in columns]


def _holder_opens(traces: Sequence[int]) -> list[int]:
    """min_open of each mask T among `traces` (class traces, or the cells
    of a complex): the AND over the members i of T of the mask of the
    traces holding i, so the masks containing T."""
    # each trace's members are listed once, compactly, for both passes
    rows = [array("I", members(t)) for t in traces]
    holders = _transpose(rows, max((row[-1] for row in rows), default=-1) + 1)
    return [reduce(and_, map(holders.__getitem__, row)) for row in rows]


class FiniteSpace(Value):
    """Points with display labels plus the minimal-open-set map, one int
    bitmask per point (bit y of min_open[x] set iff y lies in it).

    A space is its recipe: its distinct items in point order (words, cell
    masks or class traces) and the function listing an item's faces
    (one-letter deletions, or facets of a mask).  The faces decide the
    table rule: words take the subsequence closure (_subsequence_opens),
    masks the trace-quotient rule (_holder_opens).  That table is nested
    and T0, and the labels are unique by construction (word and cell
    labels are joined under a separator, a class takes the label of its
    first point, a sample's label is its cell's plus #j), so there is
    nothing to check: generated_space and the substitutes in coarse build
    every space through _lazy, and there is no public constructor.  A T0
    table of one's own is the trace quotient of its minimal-open-set
    covering, trace_substitute(Covering(labels, labels, traces))[0], the
    trace of x holding every y whose min_open holds x.

    The table is built on the first read of min_open: a space whose table
    nothing reads never holds its n masks of up to n bits.  The recipe
    also gives the Hasse diagram (hasse) and certifies maps between spaces
    (coarse.verify_correspondence) without any table.  Equality and hash
    compare (labels, min_open), never the recipe; a pickle carries the
    recipe, so an unpickled space still reads its covers off it.
    """

    __slots__ = ("labels", "_min_open", "_recipe")

    @classmethod
    def _lazy(cls, labels: Iterable[str], items: tuple, faces: Callable):
        """The space whose table its recipe (items, faces) makes on its
        first read, assembled unchecked."""
        return _restore(cls, (tuple(labels), None, (items, faces)))

    @property
    def min_open(self) -> tuple[int, ...]:
        if self._min_open is None:
            items, faces = self._recipe
            build = _subsequence_opens if faces is deletions else _holder_opens
            object.__setattr__(self, "_min_open", tuple(build(items)))
        return self._min_open

    def _key(self):
        return self.labels, self.min_open

    @property
    def n(self) -> int:
        return len(self.labels)

    def le(self, x: int, y: int) -> bool:
        """Specialization preorder: x <= y iff x belongs to min_open(y)."""
        return bool(self.min_open[y] >> x & 1)

    def __repr__(self):
        return f"FiniteSpace({self.n} points)"


@dataclass(frozen=True)
class HasseDiagram:
    """Covering pairs (lower, upper) of a finite T0 space, by point index."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.labels[a], self.labels[b]) for a, b in self.edges)

    def heights(self, down: bool = False) -> list[int]:
        """The length of the longest chain of covers ending at each point,
        climbing them up (from the minimal points) or, with down, down (from
        the maximal points): a point is taken once every point before it has
        been (Kahn's order), and passes its height + 1 on."""
        nexts, waiting = [[] for _ in self.labels], [0] * len(self.labels)
        for lo, up in self.edges:
            a, b = (up, lo) if down else (lo, up)
            nexts[a].append(b)
            waiting[b] += 1
        height = [0] * len(waiting)
        ready = [x for x, w in enumerate(waiting) if not w]
        for x in ready:  # grows while it is read
            for b in nexts[x]:
                height[b], waiting[b] = max(height[b], height[x] + 1), waiting[b] - 1
                if not waiting[b]:
                    ready.append(b)
        return height


def generated_space(m: Manifold) -> FiniteSpace:
    """The finite space on the nonvanishing words of a manifold.

    min_open(a) = all words containing a as a subsequence.  Only finite
    dimensional manifolds have a finite point set.  The words are the
    space's recipe; its table is built on first read (_subsequence_opens).
    """
    try:
        words = tuple(m.words())
    except InfiniteDimensional:
        raise InfiniteDimensional("generated space needs a finite word family") from None
    return FiniteSpace._lazy(m.word_labels(), words, deletions)


def _subsequence_opens(words: Sequence) -> list[int]:
    """min_open of each word: the words containing it as a subsequence.

    When every valid one-letter deletion of a word is again a word (a
    hereditary family, as every ideal complement and network manifold is),
    a is a subsequence of b exactly when a chain of such deletions leads
    from b to a: delete, from the leftmost embedding of a in b, the last
    letter of a run of unused letters, or an unused end letter.  So one
    pass over the deletion edges (_face_edges) from the last to the first,
    OR-ing the mask of each word into the masks of its deletions, builds
    every min_open: every deletion of a word precedes it, so its mask is
    complete before it is OR-ed on.  A family missing some deletion falls
    back to testing all pairs.
    """
    edges = _face_edges(words, deletions)
    if edges is None:
        return [sum(1 << j for j, v in enumerate(words) if is_subsequence(u, v)) for u in words]
    opens = [1 << i for i in range(len(words))]
    for b, a in reversed(edges):
        opens[a] |= opens[b]
    return opens


def _face_edges(items: Sequence, faces: Callable) -> list[tuple[int, int]] | None:
    """The pairs (b, a), b ascending, with items[a] one of faces(items[b]),
    the one-element deletions of an item: one-letter deletions of words,
    or the facets of masks.  None when some face is not an item."""
    index = {x: i for i, x in enumerate(items)}
    edges = []
    for b, item in enumerate(items):
        for sub in faces(item):
            a = index.get(sub)
            if a is None:
                return None
            edges.append((b, a))
    return edges


def hasse(s: FiniteSpace) -> HasseDiagram:
    """The covering pairs of the specialization order of a space.

    A space whose recipe is face-closed (every face of every item is again
    an item) reads them off the recipe: its order is the
    reflexive-transitive closure of the face relation (Stong, Trans. AMS
    123 (1966) 325), a face drops one letter or one vertex, so no face is
    reached by a longer chain, and the covers are exactly the faces; no
    table is built.  Any other space (a trace quotient, or a word family
    missing a face) takes the transitive reduction of its table: the
    covers of y are below(y) minus everything below a point of below(y).
    """
    edges = _face_edges(*s._recipe)
    if edges is not None:
        return HasseDiagram(s.labels, tuple(sorted(edges)))
    below = [u & ~(1 << y) for y, u in enumerate(s.min_open)]
    edges = []
    for y, b in enumerate(below):
        deeper = 0
        for z in members(b):
            deeper |= below[z]
        edges.extend((x, y) for x in members(b & ~deeper))
    return HasseDiagram(s.labels, tuple(sorted(edges)))


_FLIP = str.maketrans("01", "10")


def open_sets(s: FiniteSpace) -> tuple[int, ...]:
    """Every open set, as a mask: all unions of minimal open sets, by size
    and then by members.  The empty set is closed under union with each
    minimal open set in turn.

    Guarded to at most 20 points; an antichain already has 2^n opens.
    (Listing the words of an ideal complement has its own cap,
    automata.MAX_WORDS = 100 000 words.)
    """
    if s.n > 20:
        raise TooLarge(f"{s.n} points; open-set enumeration is capped at 20")
    opens = {0}
    for u in s.min_open:
        opens |= {v | u for v in opens}
    # among masks of one size, the lowest point in just one of them decides
    # the members order: read the bits from the lowest, a 1 before a 0
    return tuple(sorted(opens, key=lambda u: (u.bit_count(), bin(u)[:1:-1].translate(_FLIP))))


def _invariants(s: FiniteSpace) -> tuple[list[int], tuple[int, ...]]:
    """The up-set mask of each point (the y with x in min_open(y)) and its
    color from iterated invariant refinement over the specialization
    preorder."""
    down = list(map(members, s.min_open))
    up = _transpose(down, s.n)
    above = list(map(members, up))
    colors = [(len(down[x]), len(above[x])) for x in range(s.n)]
    while True:
        sigs = [
            (
                colors[x],
                tuple(sorted(colors[y] for y in down[x])),
                tuple(sorted(colors[y] for y in above[x])),
            )
            for x in range(s.n)
        ]
        palette = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if len(set(new)) == len(set(colors)):
            return up, tuple(new)
        colors = new


def poset_isomorphic(a: FiniteSpace, b: FiniteSpace) -> tuple[int, ...] | None:
    """Search for an order isomorphism between two T0 spaces.

    Returns a tuple mapping each point index of `a` to its image in `b`,
    or None.  Candidates are pruned by iterated degree/level invariants and
    tried in index order, so the result is the lexicographically first
    isomorphism, and the identity whenever it works.
    """
    if a.n != b.n:
        return None
    (ua, ca), (ub, cb) = _invariants(a), _invariants(b)
    if sorted(ca) != sorted(cb):
        return None

    da, db = a.min_open, b.min_open
    image: list[int] = []
    used = 0  # mask of the points of b already in the image
    start = [0] * a.n  # next candidate to try for each point

    def mapped(mask: int) -> int:
        return sum(1 << image[u] for u in members(mask))

    # Depth-first search without recursion: image holds the images of
    # points 0 .. len(image) - 1, and candidates go in index order.  y can
    # stand for x when it relates to the image exactly as x relates to the
    # points already mapped, in both directions.
    while len(image) < a.n:
        x = len(image)
        done = (1 << x) - 1
        want_down, want_up = mapped(da[x] & done), mapped(ua[x] & done)
        for y in range(start[x], b.n):
            if (
                not used >> y & 1
                and cb[y] == ca[x]
                and db[y] & used == want_down
                and ub[y] & used == want_up
            ):
                image.append(y)
                used |= 1 << y
                start[x] = y + 1
                break
        else:
            if not image:
                return None
            start[x] = 0
            used &= ~(1 << image.pop())
    return tuple(image)
