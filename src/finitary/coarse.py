"""Finitary substitutes: trace quotients of covered point collections.

Given a finite covering of any point collection, each point gets a trace,
the int mask of the cover sets containing it (bit i for cover set i), and
points with equal traces merge (trace_substitute, the library's one
trace quotient).  The quotient carries the T0 topology with
min_open(class T) = all classes whose trace contains T.  Traces here use
the same mask format as FiniteSpace.min_open and the simplices of a
complex.

A polyhedron realized from a simplicial complex is coarse grained by the
covering of open vertex stars: a point lies in the star of v exactly when
its barycentric weight at v is positive, so its trace is its support, a
vertex mask.  Traces are constant on the open-cell partition (one cell
per simplex, the points whose support is exactly that simplex), the trace
of a cell being its simplex.  Distinct cells have distinct vertex sets,
and the trace of t contains the trace of s exactly when s is a face of t,
so min_open(cell s) is the set of cofaces of s.  That gives two routes to
the same substitute:

  * symbolic - one point per cell, its trace its simplex, and its
    min_open by the trace-quotient rule of every mask space (FiniteSpace):
    the cells whose simplex contains its own;
  * sampled  - finitely many strictly interior points per cell, each
    drawn as positive integer weight numerators over the cell's vertices
    (a weight is its numerator over their sum; one seeded generator draws
    the cells in turn) and carrying its support as its trace: the
    vertex-star covering of the sample points, merged by
    trace_substitute.

The drawn numerators are positive, so every sample's support equals its
carrier simplex: the sampled route is a cross-check of the supports
against the cells, not an independent oracle, at one comparison per draw
(any other draw's support is read vertex by vertex).  Both must agree
with the space generated by the manifold the complex came from;
verify_correspondence checks all three for a given manifold, on covers
and traces: every space here keeps its words or masks as the recipe of
its table (FiniteSpace), and a map is certified from those, the tables
being built only when they do not match.  Both the circle probe and the
sampled route refuse with TooLarge past MAX_SAMPLES sample points.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .complexes import SimplicialComplex, facets, vertex_mask
from .errors import FinitaryError, TooLarge, Value, _restore, members
from .manifolds import Manifold
from .topology import FiniteSpace, generated_space, hasse

MAX_SAMPLES = 100_000


class UncoveredPoint(FinitaryError):
    pass


class NotACover(FinitaryError):
    pass


class Covering(Value):
    """An indexed family of cover sets over an indexed point collection,
    stored as one trace per point: an int mask with bit i set iff the
    point lies in cover set i."""

    __slots__ = ("cover_labels", "point_labels", "traces")

    def __init__(
        self,
        cover_labels: Sequence[str],
        point_labels: Sequence[str],
        traces: Iterable[int],
    ):
        cover_labels = tuple(cover_labels)
        point_labels = tuple(point_labels)
        traces = tuple(traces)
        if len(point_labels) != len(traces):
            raise ValueError("one trace per point required")
        if len(set(point_labels)) != len(point_labels):
            raise ValueError("point labels must be unique")
        if len(set(cover_labels)) != len(cover_labels):
            raise ValueError("cover labels must be unique")
        for label, t in zip(point_labels, traces):
            if type(t) is not int:
                raise TypeError("traces must be int masks")
            if not t:
                raise UncoveredPoint(f"point {label} lies in no cover set")
            if t >> len(cover_labels):  # also every negative mask
                raise ValueError(f"trace of {label} mentions unknown cover sets")
        object.__setattr__(self, "cover_labels", cover_labels)
        object.__setattr__(self, "point_labels", point_labels)
        object.__setattr__(self, "traces", traces)

    def __repr__(self):
        return (
            f"Covering({len(self.cover_labels)} sets, "
            f"{len(self.point_labels)} points)"
        )


def trace_substitute(c: Covering) -> tuple[FiniteSpace, tuple[int, ...]]:
    """Quotient of the covered points by equality of traces.

    Returns the quotient space and the class map (point index -> class
    index).  Classes are ordered by first occurrence and labelled by their
    first point; min_open(class T) = {classes S : T subset of S}, so the
    quotient is always T0.  The class traces are the space's recipe, its
    table is built on first read by the trace-quotient rule (FiniteSpace).
    """
    index: dict[int, int] = {}  # trace -> class, classes in first occurrence
    labels: list[str] = []  # the first point label of each class
    class_of = []
    last = k = None
    for label, t in zip(c.point_labels, c.traces):
        if t is not last:  # a run of one trace object is hashed once
            last, k = t, index.setdefault(t, len(labels))
            if k == len(labels):
                labels.append(label)
        class_of.append(k)
    return FiniteSpace._lazy(labels, tuple(index), facets), tuple(class_of)


def simplicial_substitute(p: SimplicialComplex) -> FiniteSpace:
    """Substitute of the vertex-star covering, computed cell-wise.

    One symbolic point per open cell, whose trace is its simplex.  The
    resulting space has one point per simplex with min_open equal to its
    star, the cells having it as a face.  The simplices are the space's
    recipe, and its table is built on first read by the trace-quotient
    rule, as for any mask space (FiniteSpace): it is the trace quotient of
    the simplices, which sampled_substitute computes from sampled supports.
    """
    return FiniteSpace._lazy(p.cell_labels, p.simplices, facets)


def _draws(p: SimplicialComplex, per_cell: int, seed: int) -> Iterator[list[tuple[int, ...]]]:
    """Deterministic strictly interior samples of every open cell of p.

    Yields one list per simplex of p, in canonical cell order, of per_cell
    tuples of positive integer numerators, one per vertex of the cell in
    vertex order: a vertex's barycentric weight is its numerator over the
    tuple's sum, so the weights sum exactly to 1.  One generator, seeded
    from a string built from `seed`, draws the cells in order, each cell's
    numerators as the 10-bit fields of one getrandbits call plus 1 (so
    from 1 to 1024).  A cell's draws thus depend on its position in p:
    independent and reproducible for a given (p, per_cell, seed).  A list
    is drawn as it is read, so a caller that reads each cell once holds no
    more than one cell's draws.
    """
    if per_cell < 1:
        raise ValueError("per_cell must be at least 1")
    rng = random.Random(f"sample:{seed}")
    for cell in p.simplices:
        k = cell.bit_count()
        bits = rng.getrandbits(10 * k * per_cell)
        fields = [(bits >> s & 1023) + 1 for s in range(0, 10 * k * per_cell, 10)]
        yield list(zip(*[iter(fields)] * k))  # k fields a tuple


def sampled_substitute(
    p: SimplicialComplex, per_cell: int, seed: int
) -> FiniteSpace:
    """Numerical enactment of the star coarse graining.

    Draws per_cell interior points in every open cell (the draws of _draws, read
    a cell at a time; one generator for the whole complex); a point's trace
    is its support, the vertices of positive weight, which are the vertex
    stars holding it: the cell when the draw has one positive numerator per
    vertex (one comparison), else read vertex by vertex.  The sample points
    under this vertex-star Covering, assembled without its constructor's
    checks, are quotiented by trace equality (trace_substitute); a draw with
    no positive numerator lies in no star and raises UncoveredPoint, as the
    public Covering would.  The drawn numerators are positive, so each
    support equals the carrier cell and the result is
    simplicial_substitute(p) up to labels by construction: a cross-check of
    the supports against the cells, not an independent oracle.  Raises
    TooLarge when the cell count times per_cell exceeds MAX_SAMPLES.
    """
    if len(p) * per_cell > MAX_SAMPLES:
        raise TooLarge(f"sampling is capped at {MAX_SAMPLES} points")
    suffixes = [f"#{j}" for j in range(per_cell)]
    point_labels = [label + suffix for label in p.cell_labels for suffix in suffixes]
    point_traces = []
    for draws, cell in zip(_draws(p, per_cell, seed), p.simplices):
        k = cell.bit_count()
        for d in draws:
            # the cell when it has one numerator per vertex, all positive
            if len(d) == k and min(d) > 0:
                point_traces.append(cell)
                continue
            support = vertex_mask(v for v, a in zip(members(cell), d) if a > 0)
            if not support:  # the labels run parallel to the traces
                raise UncoveredPoint(f"point {point_labels[len(point_traces)]} lies in no cover set")
            point_traces.append(support)
    covering = _restore(Covering, (p.labels, tuple(point_labels), tuple(point_traces)))
    return trace_substitute(covering)[0]


def _normalize_angle(num: int, den: int) -> int:
    """Wrap the angle num/den (in units of pi) into (-1, 1]; same den."""
    return den - (den - num) % (2 * den)


def _arc_contains(lo: int, hi: int, phi: int) -> bool:
    if lo == hi:  # the whole circle minus the single point lo
        return phi != lo
    if lo < hi:
        return lo < phi < hi
    return phi > lo or phi < hi  # arc passing through pi


def circle_covering(
    arcs: Sequence[tuple[Fraction, Fraction]],
    samples: int,
    extra_points: Iterable[Fraction] = (),
) -> Covering:
    """Open-arc covering of the unit circle, probed on exact sample angles.

    Angles are rational multiples of pi, normalized into (-1, 1].  An arc
    (lo, hi) with hi wrapped below lo passes through pi; an arc with
    lo == hi is the complement of the single point lo.  The cover sets are
    labeled A, B, C, ... in arc order.  The sample set is
    `samples` uniform angles plus `extra_points`; an uncovered sample
    raises NotACover naming the angle, and more than MAX_SAMPLES samples
    raise TooLarge.  Angles are compared as integer numerators over one
    common denominator.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > MAX_SAMPLES:
        raise TooLarge(f"sampling is capped at {MAX_SAMPLES} points")
    arcs = [(Fraction(lo), Fraction(hi)) for lo, hi in arcs]
    extra_points = [Fraction(p) for p in extra_points]
    den = lcm(
        samples,
        *(q.denominator for arc in arcs for q in arc),
        *(p.denominator for p in extra_points),
    )

    def numerator(phi: Fraction) -> int:
        return _normalize_angle(phi.numerator * (den // phi.denominator), den)

    norm_arcs = [(numerator(lo), numerator(hi)) for lo, hi in arcs]
    # the uniform angles 2k/samples - 1, k = 1..samples, already lie in (-1, 1]
    step = 2 * (den // samples)
    ordered = sorted({*range(step - den, den + 1, step), *map(numerator, extra_points)})
    traces = []
    for phi in ordered:
        trace = sum(1 << i for i, (lo, hi) in enumerate(norm_arcs) if _arc_contains(lo, hi, phi))
        if not trace:
            raise NotACover(f"sampled angle {_angle_label(phi, den)}*pi lies in no arc")
        traces.append(trace)
    labels = [chr(ord("A") + i) for i in range(len(arcs))]
    return Covering(labels, [_angle_label(phi, den) for phi in ordered], traces)


def _angle_label(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


#: The corrected three-arc covering of the circle whose trace quotient is
#: the boundary-triangle space (endpoints in units of pi).
STANDARD_CIRCLE_ARCS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(-1, 2), Fraction(1)),
    (Fraction(1, 2), Fraction(5, 4)),
    (Fraction(-1), Fraction(1, 4)),
)

#: Boundary angles injected on top of the uniform samples: the two
#: singleton trace classes of the standard covering.
STANDARD_CIRCLE_EXTRA_POINTS: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-1, 2),
)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of checking that the generated space of a manifold agrees
    with both substitutes of its polyhedral realization."""

    generated: FiniteSpace
    symbolic: FiniteSpace
    sampled: FiniteSpace
    per_cell: int
    seed: int
    gen_to_sym: tuple[int, ...] | None
    sym_to_sam: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.gen_to_sym is not None and self.sym_to_sam is not None

    def render(self) -> str:
        gen, sym, sam = self.generated, self.symbolic, self.sampled
        lines = [
            f"generated space: {gen.n} points",
            f"symbolic substitute: {sym.n} points",
            *_pair_lines(
                gen, "generated", sym, "symbolic", self.gen_to_sym,
                _label_map, "matching labels",
            ),
            f"sampled substitute (per_cell={self.per_cell}): {sam.n} points",
            *_pair_lines(
                sym, "symbolic", sam, "sampled", self.sym_to_sam,
                _identity, "the identity",
            ),
            f"correspondence: {'VERIFIED' if self.ok else 'FAILED'}",
        ]
        return "\n".join(lines)

    def payload(self) -> dict:
        """The verdict and the point count of each space, as --json prints it."""
        return {
            "ok": self.ok,
            "generated_points": self.generated.n,
            "symbolic_points": self.symbolic.n,
            "sampled_points": self.sampled.n,
        }


def _pair_lines(a, a_name, b, b_name, mapping, certify, how) -> list[str]:
    """The bijection, or NOT ISOMORPHIC and why the certificate certify(a, b)
    fails: the first pair whose order it does not carry over, and the number
    of points per grade on both sides.  The certificate is built only then."""
    if mapping is not None:
        return [f"{a_name} ~ {b_name}:"] + [
            f"  {a.labels[x]} -> {b.labels[y]}" for x, y in enumerate(mapping)
        ]
    lines = [f"{a_name} ~ {b_name}: NOT ISOMORPHIC"]
    certificate = certify(a, b)
    pair = None if certificate is None else _unpreserved(a, b, certificate)
    if pair is not None:
        x, y = pair
        fx, fy = certificate[x], certificate[y]
        a_not, b_not = ("", "not ") if a.le(x, y) else ("not ", "")
        lines.append(
            f"  order not preserved by {how}: "
            f"{a_not}{a.labels[x]} <= {a.labels[y]} in {a_name}, "
            f"{b_not}{b.labels[fx]} <= {b.labels[fy]} in {b_name}"
        )
    lines.append(
        f"  points per grade: {a_name} {_grade_counts(a)}; {b_name} {_grade_counts(b)}"
    )
    return lines


def _label_map(a: FiniteSpace, b: FiniteSpace) -> tuple[int, ...] | None:
    """Each point of a to the point of b with the same label, when that is
    a bijection."""
    index = {label: y for y, label in enumerate(b.labels)}
    phi = tuple(index.get(label, -1) for label in a.labels)
    return phi if a.n == b.n and -1 not in phi else None


def _identity(a: FiniteSpace, b: FiniteSpace) -> tuple[int, ...] | None:
    return tuple(range(a.n)) if a.n == b.n else None


def _unpreserved(a: FiniteSpace, b: FiniteSpace, phi) -> tuple[int, int] | None:
    """The first pair (x, y), by y and then x, whose order the bijection
    phi does not carry over (x <= y holds in exactly one of a and b after
    mapping); None when phi is an order isomorphism."""
    identity = phi == tuple(range(a.n))
    for y, u in enumerate(a.min_open):
        image = u if identity else sum(1 << phi[x] for x in members(u))
        diff = image ^ b.min_open[phi[y]]
        if diff:
            inverse = {v: x for x, v in enumerate(phi)}
            return min(inverse[v] for v in members(diff)), y
    return None


def _recipes_match(a: FiniteSpace, b: FiniteSpace, phi) -> bool:
    """True when the recipes of a and b prove the bijection phi an order
    isomorphism, without their tables; False when they do not (phi may
    still be one).

    A finite order is the reflexive-transitive closure of its covers
    (Stong, Trans. AMS 123 (1966) 325).  When every face of every item is
    again an item, the table of a recipe space is that closure of its
    face relation: a hereditary word family is ordered by chains of
    one-letter deletions (_subsequence_opens ORs down exactly these), and
    the inclusion order of a facet-closed family of masks is reached by
    facets.  So phi is an isomorphism when it maps the faces of each point
    exactly onto the facets of its image mask m: each face lands on m with
    one of m's own vertices cleared, and there are as many faces as m has
    facets.  That count settles it because the faces of a point are
    distinct (a word's one-letter deletions, a mask's facets) and phi, a
    bijection, keeps them so.  This is the one path: a target whose faces
    are not facets is left to the tables.  Between two spaces ordered by
    mask inclusion (a complex's cells, always facet-closed, or class
    traces), the identity is one when both list the same masks.
    """
    (xs, a_faces), (ys, b_faces) = a._recipe, b._recipe
    if b_faces is not facets:
        return False
    if a_faces is facets and phi == tuple(range(a.n)):
        return xs == ys
    image = dict(zip(xs, map(ys.__getitem__, phi)))
    for x, m in image.items():
        count = 0
        for f in a_faces(x):
            d = m ^ image.get(f, m)  # one vertex of m; 0 for a face not in a
            if not d & m or d & (d - 1):
                return False
            count += 1
        if count != (m.bit_count() if m & (m - 1) else 0):
            return False
    return True


def _certified(a: FiniteSpace, b: FiniteSpace, phi) -> tuple[int, ...] | None:
    """phi when it is an order isomorphism, else None: proved from the
    recipes when they match, else decided on the tables."""
    if phi is not None and (_recipes_match(a, b, phi) or _unpreserved(a, b, phi) is None):
        return phi
    return None


def _grade_counts(s: FiniteSpace) -> str:
    """Points per grade, grade 0 first; the grade of x is the length of the
    longest chain x < y_1 < ... < y_g (a word's grade, a simplex's
    dimension), read down the covers of the Hasse diagram."""
    counts = Counter(hasse(s).heights(down=True))
    return ", ".join(str(counts[g]) for g in range(max(counts, default=0) + 1))


def verify_correspondence(
    m: Manifold, per_cell: int = 3, seed: int = 0
) -> CorrespondenceReport:
    """Check the three routes to the finite space of a manifold:

    A  the generated space on its nonvanishing words,
    B  the symbolic substitute of its simplicial complex,
    C  the sampled substitute of the same complex.

    Reports explicit bijections A ~ B ~ C, or the failing pair.  The
    bijections are certificates, checked on covers and traces: A -> B
    maps the one-letter deletions of each word onto the facets of its
    image, and B -> C holds when the class traces are the cells
    (_recipes_match).  Only when that does not match are they checked
    against the min_open tables, which the failure report reads too; a
    passing check builds no table.  to_simplicial has checked, or the
    relation's construction has proved, the structure of m, under which a
    word is a subsequence of another exactly when its letter set is a face
    of the other's: so word -> its letter set (the simplex carrying the
    word's label) is an order isomorphism A -> B, and B -> C is the
    identity, the sampled classes coming in cell order.  These are the
    lexicographically first isomorphisms, which poset_isomorphic returns:
    every space lists the singletons first, in vertex order, and any other
    isomorphism of face posets moves a vertex to a later index.  So a
    certificate fails only when the routes disagree, and a failed one is the
    verdict: no other bijection is searched for.
    """
    complex_ = m.to_simplicial()
    gen = generated_space(m)
    sym = simplicial_substitute(complex_)
    sam = sampled_substitute(complex_, per_cell, seed)
    return CorrespondenceReport(
        generated=gen,
        symbolic=sym,
        sampled=sam,
        per_cell=per_cell,
        seed=seed,
        gen_to_sym=_certified(gen, sym, _label_map(gen, sym)),
        sym_to_sam=_certified(sym, sam, _identity(sym, sam)),
    )
