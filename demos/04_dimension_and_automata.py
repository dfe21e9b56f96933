#!/usr/bin/env python3
# Dimension of ideal-complement manifolds is decided from the generators:
# infinite exactly when two letters carry no generator spelled with those
# two letters alone; a finite dimension is the longest path through a
# product of subsequence-avoidance automata.

import math

from finitary import (
    BasicIdeal,
    Manifold,
    NotAntisymmetric,
    Relation,
    longest_avoiding_word,
)


def e(w):
    """A word, a tuple of vertex indices, written as forms write it."""
    return "e(" + ",".join(map(str, w)) + ")"


# with no generators every alternating word survives: already two vertices
# give words 0101... of every length
free = Manifold.from_ideal(BasicIdeal(2))
print("no generators over two vertices -> dimension", free.dimension())
print("words up to grade 3:", [free.word_label(w) for w in free.words(max_grade=3)])

# forbidding the word (0,1) leaves only 0, 1 and 10
m = Manifold.from_ideal(BasicIdeal(2, [(0, 1)]))
print()
print("forbidding e(0,1) -> dimension", m.dimension())
print("surviving words:", "[" + ", ".join(map(e, m.words())) + "]")

# the raw automaton answer: longest valid word avoiding the generators
print()
for gens in ([], [(0, 1)], [(0, 1), (1, 0)]):
    print(f"longest word over 2 vertices avoiding {gens}:",
          longest_avoiding_word(2, gens))

# a relation with a 2-cycle cannot give a (finite) network manifold, and
# the automaton on the matching generator set agrees
rel = Relation(2, [(0, 1), (1, 0)])
try:
    Manifold.from_relation(rel)
except NotAntisymmetric as exc:
    print()
    print("network construction rejected:", exc)
gens = [(i, j) for i in range(2) for j in range(2) if i != j and not rel.holds(i, j)]
same_family = Manifold.from_ideal(BasicIdeal(2, gens))
print("ideal-complement encoding dimension:",
      "infinite" if math.isinf(same_family.dimension()) else same_family.dimension())
