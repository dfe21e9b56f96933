"""The three workloads: set-up parsing, the timed op, its output check, and
the traced op.

The traced op makes the same library calls as the timed op, split into
one span per call so each layer's time can be read off.  For the two CLI
workloads the split follows ``cli.main``: argument parsing, loading the
file, the library calls ``_cmd_verify`` / ``_cmd_topology`` make, and
rendering.  Calls nested inside ``generated_space`` are spanned by
wrapping the library's own bindings for the duration of one traced op.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

PER_CELL = 3


class Tracer:
    """Spans and counters kept in memory, tagged with the op that made them."""

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []  # [op, name, parent span index or None, start, end]
        self.counts: list[tuple] = []  # (op, name, value)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [self.op, name, self._open[-1] if self._open else None, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value) -> None:
        self.counts.append((self.op, name, value))


@contextmanager
def _replaced(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def _run_cli(lib, argv: list[str]) -> tuple[int, str]:
    """``finitary <argv>`` in-process, with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue()


# -- correspondence ------------------------------------------------------------


def _correspondence_argv(item) -> list[str]:
    path = item.paths[0]
    return ["verify", "correspondence", str(path), "--per-cell", str(PER_CELL), "--seed", str(item.index)]


def _correspondence_parse(lib, item):
    path = item.paths[0]
    return lib.io.parse_relation(path.read_text(), source=path.name)


def _correspondence_op(lib, item, parsed):
    return _run_cli(lib, _correspondence_argv(item))


def _correspondence_check(item, out) -> bool:
    code, text = out
    lines = text.splitlines()
    counts = [
        line.rsplit(": ", 1)[1]
        for line in lines
        if line.startswith(("generated space: ", "symbolic substitute: ", "sampled substitute ("))
    ]
    return (
        code == 0
        and bool(lines)
        and lines[-1] == "correspondence: VERIFIED"
        and counts == [f"{item.expected_points} points"] * 3
    )


def _correspondence_traced(lib, tr: Tracer, item, parsed):
    path = item.paths[0]
    buf = io.StringIO()
    with tr.span("op"):
        with tr.span("cli.parse_args"):
            args = lib.cli.build_parser().parse_args(_correspondence_argv(item))
        with tr.span("cli.load"):
            rel = lib.io.parse_relation(path.read_text(), source=path.name)
        with tr.span("manifolds.from_relation"):
            m = lib.Manifold.from_relation(rel)
        with tr.span("manifolds.to_simplicial"):
            complex_ = m.to_simplicial()
        with tr.span("topology.generated_space"):
            gen = lib.generated_space(m)
        with tr.span("coarse.simplicial_substitute"):
            sym = lib.simplicial_substitute(complex_)
        with tr.span("coarse.sampled_substitute"):
            sam = lib.sampled_substitute(complex_, args.per_cell, args.seed)
        with tr.span("topology.poset_isomorphic"):
            gen_to_sym = lib.poset_isomorphic(gen, sym)
        with tr.span("topology.poset_isomorphic"):
            sym_to_sam = lib.poset_isomorphic(sym, sam)
        report = lib.CorrespondenceReport(
            generated=gen,
            symbolic=sym,
            sampled=sam,
            per_cell=args.per_cell,
            seed=args.seed,
            gen_to_sym=gen_to_sym,
            sym_to_sam=sym_to_sam,
        )
        with tr.span("cli.render"):
            print(report.render(), file=buf)
    tr.count("manifolds.words", gen.n)
    tr.count("coarse.sample_points", len(complex_) * args.per_cell)
    tr.count("coarse.trace_classes", sam.n)
    return (0 if report.ok else 1), buf.getvalue()


# -- ideal_complement ----------------------------------------------------------


def _ideal_complement_argv(item) -> list[str]:
    return ["topology", "hasse", str(item.paths[0])]


def _ideal_complement_parse(lib, item):
    path = item.paths[0]
    return lib.io.parse_manifold(path.read_text(), source=path.name)


def _ideal_complement_op(lib, item, parsed):
    return _run_cli(lib, _ideal_complement_argv(item))


def _ideal_complement_check(item, out) -> bool:
    code, text = out
    return code == 0 and text.startswith(f"points ({item.expected_points}): ")


def _ideal_complement_traced(lib, tr: Tracer, item, parsed):
    path = item.paths[0]
    manifolds = lib.manifolds
    examined = 0

    def longest_avoiding_word(*a):
        with tr.span("automata.longest_avoiding_word"):
            return original_longest(*a)

    def words(self, max_grade=None):
        with tr.span("manifolds.words"):
            out = list(original_words(self, max_grade))
        return iter(out)

    def basis_words(vertex_count, grade):
        nonlocal examined
        out = list(original_basis(vertex_count, grade))
        examined += len(out)
        return iter(out)

    buf = io.StringIO()
    with tr.span("op"):
        with tr.span("cli.parse_args"):
            lib.cli.build_parser().parse_args(_ideal_complement_argv(item))
        with tr.span("cli.load"):
            m = lib.io.parse_manifold(path.read_text(), source=path.name)
        with (
            _replaced(manifolds, "longest_avoiding_word", longest_avoiding_word) as original_longest,
            _replaced(manifolds.Manifold, "words", words) as original_words,
            _replaced(manifolds, "basis_words", basis_words) as original_basis,
            tr.span("topology.generated_space"),
        ):
            space = lib.generated_space(m)
        with tr.span("topology.hasse"):
            diagram = lib.hasse(space)
        with tr.span("cli.render"):
            print(f"points ({space.n}): " + ", ".join(space.labels), file=buf)
            print(f"edges ({len(diagram.edges)}):", file=buf)
            for lo, up in diagram.edges:
                print(f"  {space.labels[lo]} < {space.labels[up]}", file=buf)
    tr.count("manifolds.words", space.n)
    tr.count("envelope.basis_words_examined", examined)
    tr.count("topology.hasse_edges", len(diagram.edges))
    return 0, buf.getvalue()


# -- calculus ------------------------------------------------------------------


def _calculus_parse(lib, item):
    ideal_path, forms_path = item.paths
    ideal, table, _ = lib.io.parse_ideal(ideal_path.read_text(), source=ideal_path.name)
    f_text, g_text = forms_path.read_text().splitlines()
    f = lib.io.parse_form(f_text, table, source=forms_path.name, line=1)
    g = lib.io.parse_form(g_text, table, source=forms_path.name, line=2)
    return ideal, f, g


def _calculus_op(lib, item, parsed):
    """The graded Leibniz rule in the quotient calculus, for grade-1 f."""
    ideal, f, g = parsed
    qd, qp = ideal.quotient_differential, ideal.quotient_product
    lhs = qd(qp(f, g))
    rhs = qp(qd(f), g) - qp(f, qd(g))
    return lhs == rhs, lhs


def _calculus_check(item, out) -> bool:
    return out[0] is True


def _calculus_traced(lib, tr: Tracer, item, parsed):
    ideal, f, g = parsed
    n = ideal.vertex_count
    products = []
    reduced_in = reduced_kept = 0

    def reduce(x):
        nonlocal reduced_in, reduced_kept
        with tr.span("ideals.reduce"):
            y = ideal.reduce(x)
        reduced_in += len(x)
        reduced_kept += len(y)
        return y

    def product(a, b):
        products.append((a, b))
        with tr.span("envelope.form_product"):
            return lib.form_product(a, b)

    def d(a):
        with tr.span("envelope.differential"):
            return lib.differential(a, n)

    with tr.span("op"):
        lhs = reduce(d(reduce(product(f, g))))
        left = reduce(product(reduce(d(f)), g))
        right = reduce(product(f, reduce(d(g))))
        with tr.span("envelope.add"):
            rhs = left - right
        equal = lhs == rhs

    # Replay the coefficient multiplications form_product made, to time the
    # scalar layer on its own.
    pairs = []
    for a, b in products:
        by_first: dict = {}
        for wb, cb in b.items():
            by_first.setdefault(wb[0], []).append(cb)
        for wa, ca in a.items():
            pairs.extend((ca, cb) for cb in by_first.get(wa[-1], ()))
    start = time.perf_counter()
    for ca, cb in pairs:
        ca * cb
    tr.count("scalars.replay_s", time.perf_counter() - start)
    tr.count("envelope.product_pairs", sum(len(a) * len(b) for a, b in products))
    tr.count("envelope.product_useful", len(pairs))
    tr.count("ideals.reduce_in", reduced_in)
    tr.count("ideals.reduce_kept", reduced_kept)
    return equal, lhs


@dataclass(frozen=True)
class Workload:
    parse: Callable  # (lib, item) -> parsed input, run in set-up
    op: Callable  # (lib, item, parsed) -> output, the timed op
    check: Callable  # (item, output) -> whether the output is correct
    traced: Callable  # (lib, tracer, item, parsed) -> output equal to op's


WORKLOADS = {
    "correspondence": Workload(
        _correspondence_parse, _correspondence_op, _correspondence_check, _correspondence_traced
    ),
    "ideal_complement": Workload(
        _ideal_complement_parse, _ideal_complement_op, _ideal_complement_check, _ideal_complement_traced
    ),
    "calculus": Workload(_calculus_parse, _calculus_op, _calculus_check, _calculus_traced),
}
