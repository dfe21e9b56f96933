#!/usr/bin/env python3
# The worked three-vertex example, end to end: a cyclic relation
# 1 <= 2 <= 3 <= 1 (deliberately not transitive) induces a one-dimensional
# manifold whose generated space is a hexagon poset.

from finitary import Manifold, Relation, generated_space, hasse, members, open_sets
from finitary.io import hasse_dot

rel = Relation(3, [(0, 1), (1, 2), (2, 0)])
m = Manifold.from_relation(rel)

print("vertices:", ", ".join(m.labels))
print("dimension:", m.dimension())
print("network manifold:", m.is_network())
print("words:", ", ".join(m.word_label(w) for w in m.words()))

report = m.check_structure()
print()
print(report)

# the generated space: points are the words, the smallest open set of a
# word collects its superwords (one bitmask per point; members lists it),
# so edges sit below their endpoints
space = generated_space(m)
print()
for x in range(space.n):
    points = ", ".join(space.labels[y] for y in members(space.min_open[x]))
    print(f"min_open({space.labels[x]}) = {{{points}}}")

diagram = hasse(space)
print()
print("covering pairs:", ", ".join(f"{a} < {b}" for a, b in diagram.edge_labels()))
print(f"open sets: {len(open_sets(space))}")

print()
print(hasse_dot(diagram))
