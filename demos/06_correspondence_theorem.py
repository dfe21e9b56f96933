#!/usr/bin/env python3
# Three routes to one finite space.  For a finite-dimensional manifold:
#   A  the generated space on its nonvanishing words,
#   B  the substitute of the star covering of its simplicial complex,
#   C  the same substitute computed from sampled interior points.
# All three are isomorphic; this script checks it on the triangle and on a
# batch of random manifolds.

import random

from finitary import Manifold, Relation, verify_correspondence

# conftest-style generator, inlined: random network manifold, truncated to
# dimension <= 3, with a random subset of its top-grade words removed
def random_manifold(rng, max_vertices=6, max_dim=3):
    n = rng.randint(1, max_vertices)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < 1 / 3:
                pairs.append((i, j))
            elif roll < 2 / 3:
                pairs.append((j, i))
    m = Manifold.from_relation(Relation(n, pairs))
    words = [w for w in m.words() if len(w) - 1 <= max_dim]
    top = max(len(w) - 1 for w in words)
    if top >= 1 and rng.random() < 0.5:
        removed = {w for w in words if len(w) - 1 == top and rng.random() < 0.5}
        words = [w for w in words if w not in removed]
    return Manifold(m.labels, words=words)


triangle = Manifold.from_relation(Relation(3, [(0, 1), (1, 2), (2, 0)]))
report = verify_correspondence(triangle, per_cell=3, seed=1)
print(report.render())

print()
rng = random.Random(99)
checked = 0
for _ in range(60):
    m = random_manifold(rng)
    result = verify_correspondence(m, per_cell=3, seed=1)
    assert result.ok, f"correspondence failed for {m!r}"
    checked += 1
print(f"checked {checked} random manifolds: all three spaces isomorphic")
