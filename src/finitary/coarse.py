"""Finitary substitutes: trace quotients of covered point collections.

Given a finite covering of any point collection, each point gets a trace
(the set of cover sets containing it) and points with equal traces merge
(topology.trace_quotient).  The quotient carries the T0 topology with
min_open(class T) = all classes whose trace contains T.

A polyhedron realized from a simplicial complex is coarse grained by the
covering of open stars.  The star interiors are constant on the open-cell
partition (one cell per simplex, the points whose barycentric support is
exactly that simplex), so each cell has one star trace: the cells s with
s included in it.  That gives two routes to the same substitute:

  * symbolic - one representative per cell, carrying the cell's trace;
  * sampled  - finitely many strictly interior barycentric points per
    cell, each carrying the trace of the cell its support names.

Sample weights are strictly positive, so every sample's support equals its
carrier simplex: the sampled route is a consistency check of the trace
quotient, not an independent oracle.  Both must agree with the space
generated by the manifold the complex came from; verify_correspondence
checks all three for a given manifold.  Both the circle probe and the
sampled route refuse with TooLarge past MAX_SAMPLES sample points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .complexes import SimplicialComplex
from .errors import FinitaryError, TooLarge
from .manifolds import Manifold
from .topology import FiniteSpace, generated_space, poset_isomorphic, trace_quotient

MAX_SAMPLES = 100_000


class UncoveredPoint(FinitaryError):
    pass


class NotACover(FinitaryError):
    pass


class Covering:
    """An indexed family of cover sets over an indexed point collection,
    stored as one trace (set of cover indices) per point."""

    __slots__ = ("cover_labels", "point_labels", "traces")

    def __init__(
        self,
        cover_labels: Sequence[str],
        point_labels: Sequence[str],
        traces: Iterable,
    ):
        cover_labels = tuple(cover_labels)
        point_labels = tuple(point_labels)
        traces = tuple(frozenset(t) for t in traces)
        if len(point_labels) != len(traces):
            raise ValueError("one trace per point required")
        if len(set(point_labels)) != len(point_labels):
            raise ValueError("point labels must be unique")
        if len(set(cover_labels)) != len(cover_labels):
            raise ValueError("cover labels must be unique")
        for label, t in zip(point_labels, traces):
            if not t:
                raise UncoveredPoint(f"point {label} lies in no cover set")
            if not all(0 <= i < len(cover_labels) for i in t):
                raise ValueError(f"trace of {label} mentions unknown cover sets")
        object.__setattr__(self, "cover_labels", cover_labels)
        object.__setattr__(self, "point_labels", point_labels)
        object.__setattr__(self, "traces", traces)

    def __setattr__(self, name, value):
        raise AttributeError("Covering is immutable")

    @property
    def point_count(self) -> int:
        return len(self.point_labels)

    def __repr__(self):
        return (
            f"Covering({len(self.cover_labels)} sets, "
            f"{len(self.point_labels)} points)"
        )


def trace_substitute(c: Covering) -> tuple[FiniteSpace, tuple[int, ...]]:
    """Quotient of the covered points by equality of traces (see
    topology.trace_quotient); returns the space and the class map."""
    return trace_quotient(c.point_labels, c.traces)


def simplicial_substitute(p: SimplicialComplex) -> FiniteSpace:
    """Substitute of the star covering, computed cell-wise.

    One symbolic point per open cell; the cell of t lies in the interior
    of the star of s exactly when s is a face of t.  The resulting space
    has one point per simplex with min_open equal to the star.
    """
    traces = _cell_traces(p)
    return trace_quotient([p.simplex_label(t) for t in traces], traces.values())[0]


def _cell_traces(p: SimplicialComplex) -> dict[frozenset, frozenset]:
    """Star trace of each open cell t, in canonical cell order: the indices
    of the cells s with s included in t."""
    cells = p.ordered()
    return {t: frozenset(i for i, s in enumerate(cells) if s <= t) for t in cells}


@dataclass(frozen=True)
class SamplePoint:
    """A strictly interior point of one open cell, in exact barycentric
    coordinates over its carrier simplex."""

    carrier: frozenset
    weights: tuple[tuple[int, Fraction], ...]  # (vertex, weight), sorted

    def __post_init__(self):
        total = Fraction(0)
        for v, w in self.weights:
            if w <= 0:
                raise ValueError("cell-interior weights must be positive")
            total += w
        if total != 1:
            raise ValueError("barycentric weights must sum to 1")
        if frozenset(v for v, _ in self.weights) != self.carrier:
            raise ValueError("weights must cover exactly the carrier")

    def support(self) -> frozenset:
        return frozenset(v for v, w in self.weights if w > 0)


def sample(
    p: SimplicialComplex, sigma, seed: int, count: int
) -> list[SamplePoint]:
    """Deterministic strictly interior samples of one cell.

    Weights are random positive rationals normalized to sum exactly 1;
    the generator is seeded from `seed` and the simplex, so different
    cells get independent but reproducible draws.
    """
    sigma = frozenset(sigma)
    if sigma not in p.simplices:
        raise ValueError(f"{set(sigma)} is not a simplex of the complex")
    if count < 1:
        raise ValueError("count must be at least 1")
    verts = sorted(sigma)
    rng = random.Random(f"{seed}:{','.join(map(str, verts))}")
    out = []
    for _ in range(count):
        raw = [rng.randint(1, 997) for _ in verts]
        total = sum(raw)
        weights = tuple((v, Fraction(a, total)) for v, a in zip(verts, raw))
        out.append(SamplePoint(sigma, weights))
    return out


def sampled_substitute(
    p: SimplicialComplex, per_cell: int, seed: int
) -> FiniteSpace:
    """Numerical enactment of the star coarse graining.

    Draws per_cell interior points in every open cell; a point's trace is
    the star trace of the cell its barycentric support names, and points
    are quotiented by trace equality.  The weights are strictly positive,
    so each support equals the carrier cell and the result is isomorphic
    to simplicial_substitute(p) by construction: a consistency check of
    the trace quotient, not an independent oracle.  Raises TooLarge when
    the cell count times per_cell exceeds MAX_SAMPLES.
    """
    if per_cell < 1:
        raise ValueError("per_cell must be at least 1")
    if len(p) * per_cell > MAX_SAMPLES:
        raise TooLarge(f"sampling is capped at {MAX_SAMPLES} points")
    cell_traces = _cell_traces(p)
    point_labels = []
    traces = []
    for cell in cell_traces:
        for j, pt in enumerate(sample(p, cell, seed, per_cell)):
            point_labels.append(f"{p.simplex_label(cell)}#{j}")
            traces.append(cell_traces[pt.support()])
    return trace_quotient(point_labels, traces)[0]


def _normalize_angle(phi: Fraction) -> Fraction:
    """Wrap an angle (in units of pi) into (-1, 1]."""
    return 1 - ((1 - phi) % 2)


def _arc_contains(lo: Fraction, hi: Fraction, phi: Fraction) -> bool:
    if lo == hi:  # the whole circle minus the single point lo
        return phi != lo
    if lo < hi:
        return lo < phi < hi
    return phi > lo or phi < hi  # arc passing through pi


def circle_covering(
    arcs: Sequence[tuple[Fraction, Fraction]],
    samples: int,
    extra_points: Iterable[Fraction] = (),
    labels: Sequence[str] | None = None,
) -> Covering:
    """Open-arc covering of the unit circle, probed on exact sample angles.

    Angles are rational multiples of pi, normalized into (-1, 1].  An arc
    (lo, hi) with hi wrapped below lo passes through pi; an arc with
    lo == hi is the complement of the single point lo.  The sample set is
    `samples` uniform angles plus `extra_points`; an uncovered sample
    raises NotACover naming the angle, and more than MAX_SAMPLES samples
    raise TooLarge.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > MAX_SAMPLES:
        raise TooLarge(f"sampling is capped at {MAX_SAMPLES} points")
    norm_arcs = [
        (_normalize_angle(Fraction(lo)), _normalize_angle(Fraction(hi)))
        for lo, hi in arcs
    ]
    if labels is None:
        labels = tuple(chr(ord("A") + i) for i in range(len(norm_arcs)))
    angles = {_normalize_angle(Fraction(2 * k, samples) - 1) for k in range(1, samples + 1)}
    angles.update(_normalize_angle(Fraction(p)) for p in extra_points)
    ordered = sorted(angles)
    traces = []
    for phi in ordered:
        t = frozenset(
            i for i, (lo, hi) in enumerate(norm_arcs) if _arc_contains(lo, hi, phi)
        )
        if not t:
            raise NotACover(f"sampled angle {phi}*pi lies in no arc")
        traces.append(t)
    return Covering(labels, [str(phi) for phi in ordered], traces)


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

    def _bijection_lines(self, a: FiniteSpace, b: FiniteSpace, mapping) -> list[str]:
        return [
            f"  {a.labels[x]} -> {b.labels[y]}" for x, y in enumerate(mapping)
        ]

    def render_symbolic(self) -> str:
        lines = [
            f"generated space: {self.generated.n} points",
            f"symbolic substitute: {self.symbolic.n} points",
        ]
        if self.gen_to_sym is None:
            lines.append("generated ~ symbolic: NOT ISOMORPHIC")
        else:
            lines.append("generated ~ symbolic:")
            lines += self._bijection_lines(self.generated, self.symbolic, self.gen_to_sym)
        return "\n".join(lines)

    def render_sampled(self) -> str:
        lines = [
            f"sampled substitute (per_cell={self.per_cell}): {self.sampled.n} points",
        ]
        if self.sym_to_sam is None:
            lines.append("symbolic ~ sampled: NOT ISOMORPHIC")
        else:
            lines.append("symbolic ~ sampled:")
            lines += self._bijection_lines(self.symbolic, self.sampled, self.sym_to_sam)
        return "\n".join(lines)

    def render(self) -> str:
        verdict = "VERIFIED" if self.ok else "FAILED"
        return "\n".join(
            [self.render_symbolic(), self.render_sampled(), f"correspondence: {verdict}"]
        )


def verify_correspondence(
    m: Manifold, per_cell: int = 3, seed: int = 0
) -> CorrespondenceReport:
    """Check the three routes to the finite space of a manifold:

    A  the generated space on its nonvanishing words,
    B  the symbolic substitute of its simplicial complex,
    C  the sampled substitute of the same complex.

    Reports explicit bijections A ~ B ~ C, or the failing pair.
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
        gen_to_sym=poset_isomorphic(gen, sym),
        sym_to_sam=poset_isomorphic(sym, sam),
    )
