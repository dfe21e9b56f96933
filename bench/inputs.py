"""Seeded input files for the three workloads.

Each workload draws all of its inputs from one size class, so that a run's
median and tail describe one kind of input rather than a mix of tiny and
huge ones.  The same workload and seed always give byte-identical files.
Generation uses the library only to apply the size-class rule and to
compute the answer each op is checked against; it is not timed.

Size-class rules:

correspondence    A relation on 9 vertices; each unordered pair is
                  unrelated, i <= j or j <= i with probability 1/3 each
                  (the rule of tests/conftest.py).  Redrawn until the
                  network manifold has dimension 3 and at most 70 words
                  (dimension 3 alone gives about 35 to 100 words; the
                  rare large ones made the tail latency depend on the
                  seed).  One file per input, in the ``n <count>``
                  relation format.
ideal_complement  A relation on 7 vertices drawn by the same rule; the
                  file's ``ideal:`` block lists its unrelated ordered
                  pairs.  Redrawn until the avoidance automaton gives
                  dimension exactly 3.  The expected point count is the
                  word count of Manifold.from_relation on the relation.
calculus          On 5 vertices: an ideal of 3 random grade-1 or grade-2
                  generator words, and two grade-1 forms f and g, each
                  written as 25 random terms (equal words merge when
                  parsed) with Gaussian-rational coefficients whose real
                  and imaginary parts are p/q, |p| <= 9, 1 <= q <= 9.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

CORRESPONDENCE_VERTICES = 9
IDEAL_COMPLEMENT_VERTICES = 7
TARGET_DIMENSION = 3
CORRESPONDENCE_MAX_WORDS = 70
CALCULUS_VERTICES = 5
CALCULUS_TERMS = 25
CALCULUS_GENERATORS = 3

# A run cycles through the inputs several times, so that each input's mean
# latency averages over the host's speed across the run.  Correspondence
# costs vary most from input to input, so it gets the most inputs.
INPUT_COUNT = {"correspondence": 300, "ideal_complement": 200, "calculus": 200}


@dataclass(frozen=True)
class Input:
    """One generated input: its files and the answer it is checked against."""

    index: int
    paths: tuple[Path, ...]
    expected_points: int | None = None


def _antisymmetric_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < 1 / 3:
                pairs.append((i, j))
            elif roll < 2 / 3:
                pairs.append((j, i))
    return pairs


def _labels(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def _correspondence(lib, rng: random.Random, index: int, out: Path) -> Input:
    n = CORRESPONDENCE_VERTICES
    while True:
        pairs = _antisymmetric_pairs(rng, n)
        m = lib.Manifold.from_relation(lib.Relation(n, pairs))
        words = sum(1 for _ in m.words())
        if m.dimension() == TARGET_DIMENSION and words <= CORRESPONDENCE_MAX_WORDS:
            break
    lines = [f"n {n}"] + [f"{i + 1} <= {j + 1}" for i, j in sorted(pairs)]
    path = out / f"{index:04d}.relation"
    path.write_text("\n".join(lines) + "\n")
    return Input(index, (path,), words)


def _ideal_complement(lib, rng: random.Random, index: int, out: Path) -> Input:
    n = IDEAL_COMPLEMENT_VERTICES
    while True:
        rel = lib.Relation(n, _antisymmetric_pairs(rng, n))
        gens = [(i, j) for i in range(n) for j in range(n) if i != j and not rel.holds(i, j)]
        if lib.longest_avoiding_word(n, gens) - 1 == TARGET_DIMENSION:
            break
    lines = ["vertices: " + ", ".join(_labels(n)), "ideal:"]
    lines += [f"{i + 1}, {j + 1}" for i, j in gens]
    path = out / f"{index:04d}.manifold"
    path.write_text("\n".join(lines) + "\n")
    expected = sum(1 for _ in lib.Manifold.from_relation(rel).words())
    return Input(index, (path,), expected)


def _coefficient(rng: random.Random) -> str:
    re_num, re_den = rng.randint(-9, 9), rng.randint(1, 9)
    im_num, im_den = rng.randint(-9, 9), rng.randint(1, 9)
    sign = "-" if im_num < 0 else "+"
    return f"({re_num}/{re_den}{sign}{abs(im_num)}/{im_den}i)"


def _word(rng: random.Random, n: int, grade: int) -> list[int]:
    letters = [rng.randrange(n)]
    while len(letters) < grade + 1:
        k = rng.randrange(n - 1)
        letters.append(k if k < letters[-1] else k + 1)
    return letters


def _form_text(rng: random.Random, n: int) -> str:
    terms = []
    for _ in range(CALCULUS_TERMS):
        letters = ",".join(str(v + 1) for v in _word(rng, n, 1))
        terms.append(f"{_coefficient(rng)}*e[{letters}]")
    return " + ".join(terms)


def _calculus(lib, rng: random.Random, index: int, out: Path) -> Input:
    n = CALCULUS_VERTICES
    gens = [_word(rng, n, rng.randint(1, 2)) for _ in range(CALCULUS_GENERATORS)]
    ideal_path = out / f"{index:04d}.ideal"
    ideal_path.write_text(
        "\n".join(["vertices: " + ", ".join(_labels(n))] + [", ".join(str(v + 1) for v in g) for g in gens])
        + "\n"
    )
    forms_path = out / f"{index:04d}.forms"
    forms_path.write_text(_form_text(rng, n) + "\n" + _form_text(rng, n) + "\n")
    return Input(index, (ideal_path, forms_path))


_GENERATORS = {
    "correspondence": _correspondence,
    "ideal_complement": _ideal_complement,
    "calculus": _calculus,
}


def generate(lib, workload: str, seed: int, out: Path) -> list[Input]:
    """Write the inputs of `workload` for `seed` into a fresh `out`."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    make = _GENERATORS[workload]
    return [make(lib, rng, k, out) for k in range(INPUT_COUNT[workload])]
