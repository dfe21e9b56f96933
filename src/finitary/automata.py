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
    and the result is at least 1.  Each state is reached by a word of its
    own, so a finite language whose words can be listed (at most
    MAX_WORDS) has at most MAX_WORDS + 1 states, the start included; the
    walk raises TooLarge once it holds more.
    """
    gens = _generators(generators)
    start = (_START, (0,) * len(gens))

    # Iterative DFS.  longest[state] is None while the state is on the
    # current path, so meeting it again is a back edge (a pumpable cycle);
    # once its successors are done it holds the longest path (in letters)
    # out of the state.  Each frame carries its own running best.
    longest: dict = {start: None}
    stack = [[start, _successors(start, vertex_count, gens), 0]]
    while stack:
        frame = stack[-1]
        for nxt in frame[1]:
            if nxt not in longest:
                longest[nxt] = None
                if len(longest) > MAX_WORDS + 1:
                    raise TooLarge(
                        f"the avoidance automaton walk is capped at {MAX_WORDS + 1} states"
                    )
                stack.append([nxt, _successors(nxt, vertex_count, gens), 0])
                break
            if longest[nxt] is None:
                return math.inf
            frame[2] = max(frame[2], 1 + longest[nxt])
        else:
            state, _, best = stack.pop()
            longest[state] = best
            if stack:
                stack[-1][2] = max(stack[-1][2], 1 + best)
    return longest[start]
