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
