"""Reference calculus kernels: every contribution is a GaussianRational
added into a term dict, one scalar per addition.

The library's kernels sum integer triples and build one scalar per
surviving term; tests compare them with these.  Only the public Form and
GaussianRational interface is used, and ideal membership is decided by
is_subsequence against the generators, not by the automaton masks.
"""

from finitary import Form, is_subsequence
from finitary.scalars import GaussianRational


def _accumulate(acc: dict, w: tuple[int, ...], c: GaussianRational) -> None:
    old = acc.get(w)
    acc[w] = c if old is None else old + c


def _insert_letters(
    acc: dict, w: tuple[int, ...], c: GaussianRational, vertex_count: int
) -> None:
    """Add c * d(w) into acc, gap s carrying sign (-1)^s."""
    for s in range(len(w) + 1):
        coeff = c if s % 2 == 0 else -c
        for k in range(vertex_count):
            if (s and w[s - 1] == k) or (s < len(w) and w[s] == k):
                continue
            _accumulate(acc, w[:s] + (k,) + w[s:], coeff)


def differential(f: Form, vertex_count: int) -> Form:
    acc: dict = {}
    for w, c in f.items():
        _insert_letters(acc, w, c, vertex_count)
    return Form(acc)


def differential_word(w: tuple[int, ...], vertex_count: int) -> Form:
    acc: dict = {}
    _insert_letters(acc, w, GaussianRational(1), vertex_count)
    return Form(acc)


def form_product(f: Form, g: Form) -> Form:
    acc: dict = {}
    for wa, ca in f.items():
        for wb, cb in g.items():
            if wa[-1] == wb[0]:
                _accumulate(acc, wa + wb[1:], ca * cb)
    return Form(acc)


def inner(f: Form, g: Form) -> GaussianRational:
    total = GaussianRational(0)
    g_terms = dict(g.items())
    for w, c in f.items():
        if w in g_terms:
            total = total + c.conjugate() * g_terms[w]
    return total


def add(f: Form, g: Form) -> Form:
    acc = dict(f.items())
    for w, c in g.items():
        _accumulate(acc, w, c)
    return Form(acc)


def sub(f: Form, g: Form) -> Form:
    acc = dict(f.items())
    for w, c in g.items():
        _accumulate(acc, w, -c)
    return Form(acc)


def reduce(generators, f: Form) -> Form:
    """The terms of f whose word has no generator as a subsequence."""
    return Form(
        (w, c) for w, c in f.items() if not any(is_subsequence(g, w) for g in generators)
    )
