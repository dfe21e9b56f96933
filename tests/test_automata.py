"""Dimension decidability machinery against a brute-force enumeration.

The word language is prefix-closed (a prefix of a valid avoiding word is
one too), so if arbitrarily long words exist then every length occurs;
a capped depth-first enumeration is therefore a sound oracle.
"""

import itertools
import math
import random

import pytest

from finitary import TooLarge, automata, basis_words, longest_avoiding_word
from finitary.automata import avoiding_words


def subseq_oracle(a, b):
    a, b = tuple(a), tuple(b)
    return any(
        tuple(b[i] for i in pos) == a
        for pos in itertools.combinations(range(len(b)), len(a))
    )


def brute_max_length(n, gens, cap=12):
    """Longest valid avoiding word up to the cap, by exhaustive extension."""
    best = 0

    def extend(word):
        nonlocal best
        best = max(best, len(word))
        if len(word) == cap:
            return
        for k in range(n):
            if word and word[-1] == k:
                continue
            new = word + (k,)
            if any(subseq_oracle(g, new) for g in gens):
                continue
            extend(new)

    extend(())
    return best


def test_no_generators_single_vertex_is_finite():
    assert longest_avoiding_word(1, []) == 1


def test_no_generators_two_vertices_is_unbounded():
    assert longest_avoiding_word(2, []) == math.inf


def test_one_pair_generator():
    # avoiding (0,1): words are 0, 1, 10 only
    assert longest_avoiding_word(2, [(0, 1)]) == 2


def test_both_pairs_give_singletons_only():
    assert longest_avoiding_word(2, [(0, 1), (1, 0)]) == 1


def test_grade_zero_generator_rejected():
    with pytest.raises(ValueError):
        longest_avoiding_word(2, [(0,)])


def test_agreement_with_brute_force_exhaustive_pairs():
    # every set of forbidden pairs over three vertices
    pairs = [tuple(w) for w in basis_words(3, 1)]
    for size in range(len(pairs) + 1):
        for gens in itertools.combinations(pairs, size):
            result = longest_avoiding_word(3, gens)
            brute = brute_max_length(3, gens)
            if math.isinf(result):
                assert brute == 12
            else:
                assert result == brute


def test_agreement_with_brute_force_random_generators():
    rng = random.Random(5)
    pool = [tuple(w) for r in (1, 2) for w in basis_words(3, r)]
    for _ in range(60):
        gens = rng.sample(pool, rng.randint(1, 4))
        result = longest_avoiding_word(3, gens)
        brute = brute_max_length(3, gens)
        if math.isinf(result):
            assert brute == 12
        else:
            assert result < 12 and result == brute


def test_word_cap_counts_every_grade(monkeypatch):
    # two vertices, no generators: two words per grade
    monkeypatch.setattr(automata, "MAX_WORDS", 10)
    assert len(list(avoiding_words(2, [], 4))) == 10
    with pytest.raises(TooLarge):
        list(avoiding_words(2, [], 5))


def test_state_cap_refuses_only_past_the_word_cap(monkeypatch):
    # the patterns i, j, i on 3 vertices leave the 15 words of distinct
    # letters, one automaton state each, plus the start state
    gens = [(i, j, i) for i in range(3) for j in range(3) if i != j]
    monkeypatch.setattr(automata, "MAX_WORDS", 15)
    assert longest_avoiding_word(3, gens) == 3
    assert len(list(avoiding_words(3, gens, 3))) == 15
    monkeypatch.setattr(automata, "MAX_WORDS", 14)
    with pytest.raises(TooLarge, match="15 states"):
        longest_avoiding_word(3, gens)


def brute_avoiding_words(n, gens, max_grade):
    """Every valid word of grade at most max_grade avoiding every generator,
    grade-major then lexicographic.  The language is prefix-closed, so each
    grade extends the words of the one below; an extension avoids the
    generators when no subsequence through its new last letter is one."""
    forbidden = set(gens)
    sizes = {len(g) for g in gens}
    words, level = [], [()]
    for _ in range(max_grade + 1):
        level = sorted(
            word + (k,)
            for word in level
            for k in range(n)
            if (not word or word[-1] != k)
            and not any(
                s + (k,) in forbidden
                for size in sizes
                for s in itertools.combinations(word, size - 1)
            )
        )
        words += level
    return words


def random_avoidance_cases():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        # letters -1 and n lie outside the vertices and are never matched
        gens = [
            tuple(rng.randint(-1, n) for _ in range(rng.randint(2, 3)))
            for _ in range(rng.randint(0, 5))
        ]
        if n > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            gens.append((i, j, i))
        if rng.random() < 0.3:
            gens.append((0, 0))
        yield n, gens
    # 30 generators of 3 letters: 90 packed bits, past one machine word
    yield 6, [(i, j, i) for i in range(6) for j in range(6) if i != j]


def test_avoiding_words_agree_with_brute_force():
    for n, gens in random_avoidance_cases():
        longest = longest_avoiding_word(n, gens)
        top = 6 if math.isinf(longest) else longest - 1
        expected = brute_avoiding_words(n, gens, top)
        for grade in range(top + 1):
            got = list(avoiding_words(n, gens, grade))
            assert got == [w for w in expected if len(w) <= grade + 1], (n, gens, grade)


def reference_compile(vertex_count, generators):
    """The matcher (start, M by letter, LAST), each block placed at an
    offset and each letter at offset + its position."""
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


def reference_is_finite(vertex_count, generators):
    """The pair criterion on the letter sets, as sets."""
    letters = set(range(vertex_count))
    small = {sum(1 << k for k in g) for g in map(set, generators) if len(g) <= 2 and g <= letters}
    return all(
        not small.isdisjoint((1 << a, 1 << b, 1 << a | 1 << b))
        for a, b in itertools.combinations(range(vertex_count), 2)
    )


def cycle_search_longest(vertex_count, generators):
    """The longest word by a depth-first walk that also finds the language
    infinite, by meeting a state again on its own path (a pumpable cycle).
    It compiles with the reference, so it shares no code with is_finite
    or _compile."""
    matched, masks, last = reference_compile(vertex_count, generators)
    start = (automata._START, matched)
    longest = {start: None}
    stack = [[start, automata._successors(masks, last, start), 0]]
    while stack:
        frame = stack[-1]
        for nxt in frame[1]:
            if nxt not in longest:
                longest[nxt] = None
                if len(longest) > automata.MAX_WORDS + 1:
                    raise TooLarge("state cap")
                stack.append([nxt, automata._successors(masks, last, nxt), 0])
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


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def finiteness_cases():
    rng = random.Random(19)
    for _ in range(3000):
        n = rng.randint(0, 5)
        # letters -1 and n are never matched; repeats and one-letter sets
        # such as (0, 0) and (1, 1, 1) block every pair holding their letter
        gens = [
            tuple(rng.randint(-1, n) for _ in range(rng.randint(2, 4)))
            for _ in range(rng.randint(0, 6))
        ]
        if rng.random() < 0.3:
            gens.append(rng.choice([(0, 0), (1, 1, 1)]))
        if rng.random() < 0.02:
            gens.append((0,))  # too short: ValueError from both
        yield n, gens


def test_finiteness_criterion_agrees_with_the_cycle_search():
    for n, gens in finiteness_cases():
        assert outcome(longest_avoiding_word, n, gens) == outcome(
            cycle_search_longest, n, gens
        ), (n, gens)


def test_matcher_and_criterion_agree_with_their_references():
    rng = random.Random(23)
    # 30 generators of 3 letters, some outside the vertices: 90 packed bits
    three_letters = [(6, [tuple(rng.randint(-1, 6) for _ in range(3)) for _ in range(30)])]
    for n, gens in itertools.chain(random_avoidance_cases(), finiteness_cases(), three_letters):
        expected = outcome(reference_compile, n, gens)
        assert outcome(automata._compile, n, gens) == expected, (n, gens)
        # any iterable of generators, each any iterable of letters
        assert outcome(automata._compile, n, (iter(g) for g in gens)) == expected, (n, gens)
        assert automata.is_finite(n, gens) == reference_is_finite(n, gens), (n, gens)


def test_one_letter_generator_blocks_its_letter():
    # avoiding (0, 0): 0 occurs at most once, so 101 is the longest word
    assert longest_avoiding_word(2, [(0, 0)]) == 3
    assert automata.is_finite(3, [(1, 1, 1), (0, 2)])
    assert not automata.is_finite(3, [(1, 1, 1)])


def test_generator_outside_the_vertices_blocks_nothing():
    assert not automata.is_finite(2, [(0, 1, 2)])
    assert not automata.is_finite(2, [(-1, 0)])
    assert automata.is_finite(2, [(0, 1, 0)])


def test_short_generator_is_refused_before_the_criterion():
    with pytest.raises(ValueError):
        longest_avoiding_word(3, [(0, 1), (2,)])
