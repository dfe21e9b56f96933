import random
from pathlib import Path

import pytest

from finitary import Covering, FiniteSpace, Manifold, Relation, topology, trace_substitute

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def table_builds(monkeypatch) -> dict[str, int]:
    """Calls of the two min_open rules a library-built space runs on its
    first table read: the subsequence closure of a generated space, and
    the trace-quotient rule of every mask space (both substitutes)."""
    counts = {"generated": 0, "trace": 0}

    def counted(name, build):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        topology, "_subsequence_opens", counted("generated", topology._subsequence_opens)
    )
    monkeypatch.setattr(topology, "_holder_opens", counted("trace", topology._holder_opens))
    return counts


def table_space(labels, min_open) -> FiniteSpace:
    """The space with these labels and this T0 min_open table: the trace
    quotient of its minimal-open-set covering, point x's trace every y
    whose min_open holds x.  Distinct points have distinct traces, and
    min_open(x) holds y exactly when the trace of y holds that of x, so
    the quotient keeps the labels and the table."""
    traces = [sum(1 << y for y, u in enumerate(min_open) if u >> x & 1) for x in range(len(labels))]
    return trace_substitute(Covering(labels, labels, traces))[0]


@pytest.fixture
def triangle() -> Manifold:
    """The worked three-vertex example: 1 <= 2 <= 3 <= 1, not transitive."""
    return Manifold.from_relation(Relation(3, [(0, 1), (1, 2), (2, 0)]))


def random_antisymmetric_relation(rng: random.Random, n: int) -> Relation:
    """Each unordered pair is unrelated, related one way, or the other."""
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < 1 / 3:
                pairs.append((i, j))
            elif roll < 2 / 3:
                pairs.append((j, i))
    return Relation(n, pairs)


def random_manifold(rng: random.Random, max_vertices: int = 6, max_dim: int = 3) -> Manifold:
    """Random finite-dimensional manifold: a network manifold truncated to
    max_dim, with an optional random subset of its top-grade words removed
    (any subset of the top grade is up-closed, so hereditarity survives).
    Produces a mix of network and non-network manifolds."""
    n = rng.randint(1, max_vertices)
    m = Manifold.from_relation(random_antisymmetric_relation(rng, n))
    words = [w for w in m.words() if len(w) - 1 <= max_dim]
    top = max(len(w) - 1 for w in words)
    if top >= 1 and rng.random() < 0.5:
        removed = {w for w in words if len(w) - 1 == top and rng.random() < 0.5}
        words = [w for w in words if w not in removed]
    return Manifold(m.labels, words=words)
