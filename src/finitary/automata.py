"""Subsequence-avoiding word languages: finiteness, longest word and
enumeration.

The nonvanishing words of an ideal-complement calculus form the language
of adjacency-valid words (no equal adjacent letters) avoiding every
generator as a subsequence.  Each question about it has one algorithm:

  * the language is infinite  iff  two letters a != b carry no generator
    spelled with a and b alone (is_finite, read off the generators);
  * otherwise the longest word is the longest path from the start state
    of the product of one avoidance DFA per generator with the
    last-letter automaton, a DAG;
  * the words themselves are the paths from the start state, listed level
    by level (one level per grade) with at most MAX_WORDS of them.

A state is (last letter, s), with the match progress of every generator
packed into the int s by shift-and matching: generator g owns a block of
len(g) bits, and bit offset + p is set when p of its letters are matched.
Letter k advances each block whose set bit waits for k, the bits of
adv = s & M[k], and the next state is (k, s + adv), each advanced bit
moving one place up into its clear neighbour.  A generator matched to its
last letter has been embedded, which kills the state: adv meets LAST, the
mask of each block's top bit.  The level walk, given the chain rule
instead, lists a relation's chains (manifolds).

A word is tested against an ideal by the same masks, in a matcher
(start, M by letter, LAST); the zero ideal's matcher _NO_BLOCK has no
block.  The forward walk above gives F_s, the state of the prefix
w[:s]: its bit in g's block sits at pre(g), the length of the longest
prefix of g embedded in w[:s].  The backward walk reads w from the right
with the same masks: it starts at LAST, each letter moves its advanced
bits one place down (b -= adv >> 1), and a start bit reached kills it.
B_s, the state of the suffix w[s:], has its bit at |g| - 1 - suf(g),
suf(g) the length of the longest suffix of g embedded in w[s:].  For w
outside the ideal, two rules then test a new word in one AND:

  * g embeds into u.v  iff  pre_u(g) + suf_v(g) >= |g|, that is iff
    B(v) & (F(u) - START), F(u) - START holding the bits below pre_u(g);
  * inserting letter k at gap s embeds g  iff  g = g1 k g2 with g1 in
    w[:s] and g2 in w[s:], that is iff W_s & M[k] for the window
    W_s = ((F_s << 1) - START) & ((LAST << 1) - B_s), the positions
    from |g| - 1 - suf(g) up to pre(g) (_insertion_windows).
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations
from typing import Iterable, Iterator

from .errors import TooLarge

_START = -1

MAX_WORDS = 100_000


def _compile(vertex_count: int, generators: Iterable):
    """The matcher (start, M by letter, LAST): the packed start state, the
    match mask M[k] of each letter k and the mask LAST of each block's top
    bit.  A letter the dict lacks, one outside 0..vertex_count-1, matches
    nothing."""
    masks = dict.fromkeys(range(vertex_count), 0)
    start = last = offset = 0
    for g in map(tuple, generators):
        if len(g) < 2:
            raise ValueError("avoidance generators must have length >= 2")
        for p, letter in enumerate(g):
            if 0 <= letter < vertex_count:
                masks[letter] |= 1 << (offset + p)
        start |= 1 << offset
        offset += len(g)
        last |= 1 << (offset - 1)
    return start, masks, last


_NO_BLOCK = (0, {}, 0)


def _forward(word, matcher) -> int | None:
    """The forward state of word, or None once a generator embeds into it."""
    s, masks, last = matcher
    get = masks.get
    for letter in word:
        adv = s & get(letter, 0)
        if adv & last:
            return None
        s += adv
    return s


def _backward(word, matcher) -> int | None:
    """The backward state of word, read from the right, or None once a
    generator embeds into it."""
    start, masks, b = matcher
    get = masks.get
    for letter in reversed(word):
        adv = b & get(letter, 0)
        if adv & start:
            return None
        b -= adv >> 1
    return b


def _insertion_windows(word, matcher) -> list[int] | None:
    """W_0..W_len(word), one window per gap, by one forward and one
    backward walk: a letter k inserted at gap s embeds a generator iff
    W_s & M[k].  None when word itself lies in the ideal."""
    start, masks, last = matcher
    get = masks.get
    s = start
    windows = [(s << 1) - start]
    for letter in word:
        adv = s & get(letter, 0)
        if adv & last:
            return None
        s += adv
        windows.append((s << 1) - start)
    b, top = last, last << 1
    windows[-1] &= top - b
    for gap in range(len(word) - 1, -1, -1):
        b -= (b & get(word[gap], 0)) >> 1
        windows[gap] &= top - b
    return windows


def _successors(masks: dict[int, int], last: int, state):
    previous, s = state
    for k, m in masks.items():
        adv = s & m
        if k != previous and not adv & last:
            yield (k, s + adv)


def _walk(start, successors, max_grade: int, what: str) -> Iterator[tuple[int, ...]]:
    """Every word of grade at most max_grade spelled from start, level by
    level, grade-major then lexicographic; successors(state) lists the
    states (last letter, int) one letter on, ascending.  A word is yielded
    as it is built, so a caller that stops early builds no more.  Raises
    TooLarge, naming what is listed, past MAX_WORDS words."""
    level, built = [((), start)], 0
    for _ in range(max_grade + 1):
        previous, level = level, []
        for word, state in previous:
            for nxt in successors(state):
                built += 1
                if built > MAX_WORDS:
                    raise TooLarge(f"{what} is capped at {MAX_WORDS} words")
                level.append((word + (nxt[0],), nxt))
                yield level[-1][0]
        if not level:
            return


def avoiding_words(vertex_count: int, generators: Iterable, max_grade: int) -> Iterator:
    """Every adjacency-valid word of grade at most max_grade avoiding every
    generator as a subsequence, by the level walk of the shift-and states."""
    start, masks, last = _compile(vertex_count, generators)
    return _walk((_START, start), partial(_successors, masks, last), max_grade, "word enumeration")


def is_finite(vertex_count: int, generators: Iterable) -> bool:
    """True iff finitely many adjacency-valid words avoid every generator.

    That holds iff every pair of letters a < b is blocked: some generator's
    letter set is {a}, {b} or {a, b}.  An unblocked pair leaves the words
    abab... of every length.  An infinite language has an infinite word all
    of whose prefixes survive; the letters recurring in it, at least two,
    embed every word spelled with them, so no pair of them is blocked.  A
    generator with a letter outside 0..vertex_count-1 is never matched.
    """
    letters = set(range(vertex_count))
    # the masks of the letter sets of at most two letters, all vertices
    small = {sum(1 << k for k in g) for g in map(set, generators) if len(g) <= 2 and g <= letters}
    return all(
        not small.isdisjoint((1 << a, 1 << b, 1 << a | 1 << b))
        for a, b in combinations(range(vertex_count), 2)
    )


def longest_avoiding_word(vertex_count: int, generators: Iterable) -> int | float:
    """Length of the longest nonempty adjacency-valid word avoiding every
    generator as a subsequence, or math.inf when is_finite says there is
    no bound.

    Generators must have length >= 2, so single-letter words always exist
    and the result is at least 1.  A finite language has an acyclic
    automaton, walked depth first for its longest path.  Each state is
    reached by a word of its own, so a language whose words can be listed
    (at most MAX_WORDS) has at most MAX_WORDS + 1 states, the start
    included; the walk raises TooLarge once it holds more.
    """
    generators = list(generators)
    matched, masks, last = _compile(vertex_count, generators)
    start = (_START, matched)
    if not is_finite(vertex_count, generators):
        return math.inf

    # Iterative DFS over a DAG: longest[state] is the longest path (in
    # letters) out of the state once its successors are done.  Each frame
    # carries its own running best.
    longest: dict = {start: None}
    stack = [[start, _successors(masks, last, start), 0]]
    while stack:
        frame = stack[-1]
        for nxt in frame[1]:
            if nxt not in longest:
                longest[nxt] = None
                if len(longest) > MAX_WORDS + 1:
                    raise TooLarge(
                        f"the avoidance automaton walk is capped at {MAX_WORDS + 1} states"
                    )
                stack.append([nxt, _successors(masks, last, nxt), 0])
                break
            frame[2] = max(frame[2], 1 + longest[nxt])
        else:
            state, _, best = stack.pop()
            longest[state] = best
            if stack:
                stack[-1][2] = max(stack[-1][2], 1 + best)
    return longest[start]
