"""Subsequence-avoiding word languages: finiteness, longest word and
enumeration.

The nonvanishing words of an ideal-complement calculus form the language
of adjacency-valid words (no equal adjacent letters) avoiding every
generator as a subsequence.  That language is recognized by the product
of one avoidance DFA per generator with the last-letter automaton, so:

  * the language is infinite  iff  a cycle is reachable among live states;
  * otherwise the reachable graph is a DAG and the longest word is the
    longest path from the start state;
  * the words themselves are the paths from the start state, listed level
    by level (one level per grade) with at most MAX_WORDS of them.

A state is (last letter, match progress per generator); a generator whose
progress reaches its length has been embedded, which kills the state.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .errors import TooLarge

_START = -1

MAX_WORDS = 100_000


def _successors(state, vertex_count: int, gens: Sequence[tuple[int, ...]]):
    last, progress = state
    for k in range(vertex_count):
        if k == last:
            continue
        advanced = []
        dead = False
        for g, p in zip(gens, progress):
            if g[p] == k:
                p += 1
                if p == len(g):
                    dead = True
                    break
            advanced.append(p)
        if not dead:
            yield (k, tuple(advanced))


def _generators(generators: Iterable) -> tuple[tuple[int, ...], ...]:
    gens = tuple(tuple(g) for g in generators)
    if any(len(g) < 2 for g in gens):
        raise ValueError("avoidance generators must have length >= 2")
    return gens


def avoiding_words(
    vertex_count: int, generators: Iterable, max_grade: int
) -> Iterator[tuple[int, ...]]:
    """Every adjacency-valid word of grade at most max_grade avoiding every
    generator as a subsequence, grade-major then lexicographic.

    Level g holds the (word, state) pairs of grade g; level g + 1 extends
    each of them by its live successor letters in ascending order, so only
    one level and its successor are held at a time.  Raises TooLarge once
    more than MAX_WORDS words have been built.
    """
    gens = _generators(generators)
    level = [((), (_START, (0,) * len(gens)))]
    built = 0
    for _ in range(max_grade + 1):
        following = []
        for word, state in level:
            for nxt in _successors(state, vertex_count, gens):
                built += 1
                if built > MAX_WORDS:
                    raise TooLarge(f"word enumeration is capped at {MAX_WORDS} words")
                following.append((word + (nxt[0],), nxt))
        if not following:
            return
        level = following
        for word, _ in level:
            yield word


def longest_avoiding_word(vertex_count: int, generators: Iterable) -> int | float:
    """Length of the longest nonempty adjacency-valid word avoiding every
    generator as a subsequence, or math.inf when there is no bound.

    Generators must have length >= 2, so single-letter words always exist
    and the result is at least 1.
    """
    gens = _generators(generators)
    start = (_START, (0,) * len(gens))

    # Iterative DFS with three colors: a back edge means a pumpable cycle,
    # otherwise memoize the longest path (in letters) out of each state.
    GRAY, BLACK = 1, 2
    color: dict = {}
    longest: dict = {}
    stack = [(start, _successors(start, vertex_count, gens))]
    color[start] = GRAY
    best_out = {start: 0}
    while stack:
        state, succ = stack[-1]
        found_next = False
        for nxt in succ:
            mark = color.get(nxt)
            if mark == GRAY:
                return math.inf
            if mark == BLACK:
                best_out[state] = max(best_out[state], 1 + longest[nxt])
                continue
            color[nxt] = GRAY
            best_out[nxt] = 0
            stack.append((nxt, _successors(nxt, vertex_count, gens)))
            found_next = True
            break
        if not found_next:
            stack.pop()
            color[state] = BLACK
            longest[state] = best_out[state]
            if stack:
                parent = stack[-1][0]
                best_out[parent] = max(best_out[parent], 1 + longest[state])
    return longest[start]
