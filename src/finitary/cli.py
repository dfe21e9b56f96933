"""Command-line surface.

Each ``finitary COMMAND OP`` has a parser of its own, which declares
exactly the arguments the op reads: a missing argument, or one the op
does not read, is a usage error, refused before any file is read.  An op
is one function plus one ``op(name, fn, *parents)`` line in build_parser;
the op's parser binds the function, which main runs.  main finds the
op's parser from the first two words of the command line and gives it
the rest; the full parser, which nests the same op parsers, answers
help and every refusal.

Exit codes: 0 success / verification passed, 1 verification failed (the
witness is printed), 2 malformed or inadmissible input, a command line the
parser refuses (one error[UsageError] line on stderr), or stdout closed by
its reader before the output was written (one error[BrokenPipeError] line
on stderr, while stderr can still be written).  --help prints to stdout
and exits 0.  All collections are printed in canonical order so identical
inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import io as fio
from .automata import is_finite
from .coarse import (
    STANDARD_CIRCLE_ARCS,
    STANDARD_CIRCLE_EXTRA_POINTS,
    circle_covering,
    sampled_substitute,
    simplicial_substitute,
    trace_substitute,
    verify_correspondence,
)
from .envelope import Form, differential, form_product, inner
from .errors import FinitaryError, members
from .manifolds import Manifold
from .topology import generated_space, hasse, open_sets
from .io import ParseError


class UsageError(FinitaryError):
    """A command line that the argument parser refuses."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise UsageError instead of
    printing usage and exiting, so they keep the exit-2 report; the parser
    of each command and of each op is built of the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _read(path: str) -> tuple[str, str]:
    """The text of the file at path and its name.  The readers split the
    text with str.splitlines, so CRLF and lone-CR line ends read as in
    text mode; an empty path names no file."""
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8-sig"), os.path.basename(path)
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(path, 0, "cannot read file: not UTF-8 text") from None


def positive(text: str) -> int:
    """An integer of at least 1, for argparse, which names this function in
    its refusal: "invalid positive value"."""
    if (value := int(text)) < 1:
        raise ValueError(text)
    return value


def non_negative(text: str) -> int:
    """An integer of at least 0, for argparse, which names this function in
    its refusal: "invalid non_negative value"."""
    if (value := int(text)) < 0:
        raise ValueError(text)
    return value


def _load_manifold(path: str) -> Manifold:
    return fio.parse_manifold(*_read(path))


def _write(text: str) -> None:
    """Write text to stdout a line at a time.  One write past the stream's
    buffer can end short at a closed pipe without raising, which would
    drop the rest of the output and still exit 0."""
    sys.stdout.writelines(text.splitlines(keepends=True))


def _verdict(report, as_json: bool = False) -> int:
    """Print a check's report, or its payload as JSON, and return its exit
    code: 0 when the check passed, 1 when it failed."""
    print(json.dumps(report.payload(), indent=2) if as_json else report.render())
    return 0 if report.ok else 1


def _dimension(m: Manifold) -> str:
    dim = m.dimension()
    return f"dimension: {'infinite' if math.isinf(dim) else dim}"


def _print_space(space, as_json: bool) -> None:
    if as_json:
        _write(fio.space_json(space))
        return
    print(f"points ({space.n}): " + ", ".join(space.labels))
    print("min_open:")
    for x in range(space.n):
        points = ", ".join(space.labels[y] for y in members(space.min_open[x]))
        print(f"  {space.labels[x]}: {points}")


# -- ops ---------------------------------------------------------------------
# One function per op, run by main with the parsed arguments: it returns
# the exit code of a check, or nothing once its output is printed.

def _forms(args):
    """The vertex table of --vertices and the forms read over it."""
    table = fio.parse_vertex_table(args.vertices)
    return table, [fio.parse_form(text, table) for text in args.form]


def _envelope_d(args) -> None:
    table, (form,) = _forms(args)
    print(fio.print_form(differential(form, table.n), table))


def _envelope_mul(args) -> None:
    table, (f, g) = _forms(args)
    print(fio.print_form(form_product(f, g), table))


def _envelope_inner(args) -> None:
    _, (f, g) = _forms(args)
    print(inner(f, g))


def _ideal_check(args) -> None:
    ideal, table, given = fio.parse_ideal(*_read(args.file))
    print("vertices: " + ", ".join(table.labels))
    gens = ", ".join(fio.print_form(Form.word(g), table) for g in ideal.generators)
    print(f"generators (antichain): {gens if gens else '(none)'}")
    for w in sorted(set(given) - set(ideal.generators), key=lambda w: (len(w), w)):
        print("dropped (redundant): " + fio.print_form(Form.word(w), table))
    print("ok")


def _ideal_reduce(args) -> None:
    ideal, table, _ = fio.parse_ideal(*_read(args.file))
    form = fio.parse_form(args.form, table)
    print(fio.print_form(ideal.reduce(form), table))


def _manifold_info(args) -> None:
    m = _load_manifold(args.file)
    # enumerate before the first print, so a refusal leaves stdout empty;
    # a finite family is listed first, and its dimension read off the last
    # grade without a second walk of the automaton
    kind = (
        f"explicit ({sum(1 for _ in m.words())} words)"
        if m.is_explicit
        else f"ideal complement ({len(m.ideal.generators)} generators)"
    )
    finite = m.is_explicit or is_finite(m.n, m.ideal.generators)
    network = ("yes" if m.is_network() else "no") if finite else "n/a (infinite dimensional)"
    dimension = _dimension(m)
    unlisted = not finite and args.max_grade is None
    by_grade: dict[int, list[str]] = {}
    if not unlisted:
        for w in m.words(max_grade=args.max_grade):
            by_grade.setdefault(len(w) - 1, []).append(m.word_label(w))
    print("vertices: " + ", ".join(m.labels))
    print(f"representation: {kind}")
    print(dimension)
    print(f"network: {network}")
    if unlisted:
        print("words: pass --max-grade to enumerate")
        return
    print("words:")
    for g in sorted(by_grade):
        print(f"  grade {g}: " + ", ".join(by_grade[g]))


def _manifold_check(args) -> int:
    return _verdict(_load_manifold(args.file).check_structure())


def _manifold_dim(args) -> None:
    print(_dimension(_load_manifold(args.file)))


def _topology_hasse(args) -> None:
    space = generated_space(_load_manifold(args.file))
    diagram = hasse(space)
    if args.dot:
        _write(fio.hasse_dot(diagram))
        return
    lines = [f"points ({space.n}): " + ", ".join(space.labels), f"edges ({len(diagram.edges)}):"]
    lines += [f"  {space.labels[lo]} < {space.labels[up]}" for lo, up in diagram.edges]
    _write("\n".join(lines) + "\n")


def _topology_open_sets(args) -> None:
    space = generated_space(_load_manifold(args.file))
    opens = open_sets(space)
    print(f"open sets ({len(opens)}):")
    for u in opens:
        print("  {" + ", ".join(space.labels[x] for x in members(u)) + "}")


def _topology_json(args) -> None:
    _write(fio.space_json(generated_space(_load_manifold(args.file))))


def _complex(args):
    """The complex of FILE; each face the reader added is noted on stderr."""
    complex_, notes = fio.parse_complex(*_read(args.file))
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return complex_


def _substitute_simplicial(args) -> None:
    _print_space(simplicial_substitute(_complex(args)), args.json)


def _substitute_sampled(args) -> None:
    space = sampled_substitute(_complex(args), args.per_cell, args.seed)
    print(f"per_cell: {args.per_cell}")
    print(f"seed: {args.seed}")
    _print_space(space, args.json)


def _substitute_circle(args) -> None:
    covering = circle_covering(STANDARD_CIRCLE_ARCS, args.samples, STANDARD_CIRCLE_EXTRA_POINTS)
    space, class_of = trace_substitute(covering)
    arcs, angles = len(covering.cover_labels), len(covering.point_labels)
    print(f"arcs: {arcs}, sampled angles: {angles}")
    print(f"classes ({space.n}):")
    for x in range(space.n):
        trace = covering.traces[class_of.index(x)]
        names = ",".join(covering.cover_labels[i] for i in members(trace))
        print(f"  {space.labels[x]}: trace {{{names}}}")
    if args.json:
        _write(fio.space_json(space))


def _substitute_trace(args) -> None:
    space, _ = trace_substitute(fio.parse_covering(*_read(args.file)))
    _print_space(space, args.json)


def _verify_correspondence(args) -> int:
    m = _load_manifold(args.file)
    return _verdict(verify_correspondence(m, per_cell=args.per_cell, seed=args.seed), args.json)


def build_parser() -> argparse.ArgumentParser:
    """The table of commands: one parser per op of each command, declaring
    exactly the arguments the op reads, so argparse refuses a missing or a
    surplus argument before any file is read.  An op is one function plus
    one ``op(name, fn, *parents)`` line here, which also records the op's
    parser in the returned parser's ``ops`` table, keyed by (command, op).
    FILE, --json and the sampling pair --per-cell/--seed are declared once
    each, as parents."""
    file, as_json, sampling = (_Parser(add_help=False) for _ in range(3))
    file.add_argument("file")
    as_json.add_argument("--json", action="store_true")
    sampling.add_argument("--per-cell", type=positive, default=3)
    sampling.add_argument("--seed", type=int, default=0)

    parser = _Parser(
        prog="finitary",
        description="Exact differential calculi on finite sets and their finite topologies",
    )
    parser.ops = {}  # (command, op) -> the op's parser, for main's dispatch
    commands = parser.add_subparsers(dest="command", required=True)

    def command(cmd: str, summary: str):
        """The command's parser; returns the maker of its ops, each run by
        its own function fn."""
        ops = commands.add_parser(cmd, help=summary).add_subparsers(dest="op", required=True)

        def op(name: str, fn, *parents):
            p = parser.ops[cmd, name] = ops.add_parser(name, parents=parents)
            p.set_defaults(fn=fn)
            return p

        return op

    op = command("envelope", "operate on forms of the free calculus")
    for name, fn, count in (
        ("d", _envelope_d, 1),
        ("mul", _envelope_mul, 2),
        ("inner", _envelope_inner, 2),
    ):
        p = op(name, fn)
        p.add_argument("form", nargs=count, help="form expression, e.g. 'e[1,2] - e[2,1]'")
        p.add_argument("--vertices", required=True, help="comma-separated vertex labels")

    op = command("ideal", "validate or apply a generator file")
    op("check", _ideal_check, file)
    op("reduce", _ideal_reduce, file).add_argument("form", help="form expression")

    op = command("manifold", "inspect a manifold or relation file")
    op("info", _manifold_info, file).add_argument("--max-grade", type=non_negative)
    op("check", _manifold_check, file)
    op("dim", _manifold_dim, file)

    op = command("topology", "the generated space of a manifold")
    op("hasse", _topology_hasse, file).add_argument("--dot", action="store_true")
    op("open-sets", _topology_open_sets, file)
    op("json", _topology_json, file)

    op = command("substitute", "finitary substitutes of coverings")
    op("simplicial", _substitute_simplicial, file, as_json)
    op("sampled", _substitute_sampled, file, sampling, as_json)
    op("circle", _substitute_circle, as_json).add_argument("--samples", type=positive, default=4096)
    op("trace", _substitute_trace, file, as_json)

    op = command("verify", "check the correspondence of the three spaces")
    op("correspondence", _verify_correspondence, file, sampling, as_json)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser and, as its ``ops``, the table of its op parsers, built
    together on the first call of main and kept for the rest of the
    process."""
    return build_parser()


def main(argv=None) -> int:
    """Run ``finitary`` on argv (default: the process's arguments) and
    return the exit code.  When the first two words name an op, the op's
    own parser reads the rest, as the nested parser would hand it on;
    input that names no op, or leaves arguments over, goes to the full
    parser, whose refusal names the top-level prog."""
    try:
        parser = _parser()
        argv = sys.argv[1:] if argv is None else argv
        op = parser.ops.get(tuple(argv[:2]))
        args, rest = op.parse_known_args(argv[2:]) if op else (None, None)
        if op is None or rest:
            args = parser.parse_args(argv)
        code = args.fn(args) or 0
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except FinitaryError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader of stdout has gone: what is still buffered goes to
        # devnull, so the flush at interpreter exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        except BrokenPipeError:  # stderr went with it
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
