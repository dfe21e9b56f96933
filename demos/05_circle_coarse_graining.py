#!/usr/bin/env python3
# Coarse graining a circle by three open arcs.  Points with equal traces
# (the set of arcs containing them, an int mask with bit i for arc i)
# merge; the quotient is a finite T0 space, here the same hexagon poset as
# the triangle manifold produces.

from finitary import (
    Manifold,
    Relation,
    circle_covering,
    generated_space,
    hasse,
    members,
    trace_substitute,
)
from finitary.coarse import STANDARD_CIRCLE_ARCS, STANDARD_CIRCLE_EXTRA_POINTS

print("arcs (in units of pi):")
for label, (lo, hi) in zip("ABC", STANDARD_CIRCLE_ARCS):
    print(f"  {label} = ({lo}, {hi})")

# 4096 exact rational sample angles plus the two boundary angles that form
# singleton classes
covering = circle_covering(
    STANDARD_CIRCLE_ARCS, samples=4096, extra_points=STANDARD_CIRCLE_EXTRA_POINTS
)
print("sampled angles:", len(covering.point_labels))

space, class_of = trace_substitute(covering)
print("trace classes:", space.n)

traces_seen = {}
for label, trace in zip(covering.point_labels, covering.traces):
    traces_seen.setdefault(trace, label)
for trace, representative in sorted(traces_seen.items(), key=lambda kv: members(kv[0])):
    arcs = ",".join(covering.cover_labels[i] for i in members(trace))
    print(f"  trace {{{arcs}}}   first sample at {representative}*pi")

# the quotient poset is the boundary-triangle space: arcs C, B, A go to
# vertices 1, 2, 3, and the class with trace t to the word whose letter set
# is the image of t
triangle_manifold = Manifold.from_relation(Relation(3, [(0, 1), (1, 2), (2, 0)]))
triangle = generated_space(triangle_manifold)
point_of = {frozenset(w): y for y, w in enumerate(triangle_manifold.words())}
mapping = [point_of[frozenset(2 - arc for arc in members(t))] for t in traces_seen]
# a bijection that preserves and reflects the order
isomorphic = sorted(mapping) == list(range(triangle.n)) and all(
    space.le(x, z) == triangle.le(mapping[x], mapping[z])
    for x in range(space.n)
    for z in range(space.n)
)
print()
print("isomorphic to the triangle space:", isomorphic)
assert isomorphic
for x, y in enumerate(mapping):
    print(f"  {space.labels[x]}*pi  ->  {triangle.labels[y]}")

print()
print("covering pairs of the quotient:",
      ", ".join(f"{a} < {b}" for a, b in hasse(space).edge_labels()))
