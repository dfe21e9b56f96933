"""Command-line surface.

Exit codes: 0 success / verification passed, 1 verification failed (the
witness is printed), 2 malformed or inadmissible input, or stdout closed by
its reader before the output was written (one error[BrokenPipeError] line
on stderr, while stderr can still be written).  All collections are
printed in canonical order so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

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
from .envelope import differential, form_product, inner
from .errors import FinitaryError, members
from .manifolds import Manifold
from .topology import generated_space, hasse, open_sets
from .io import ParseError


def _read(path: str) -> tuple[str, str]:
    p = Path(path)
    try:
        return p.read_text(), p.name
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from None


def _load_manifold(path: str) -> Manifold:
    return fio.parse_manifold(*_read(path))


def _write(text: str) -> None:
    """Write text to stdout a line at a time.  One write past the stream's
    buffer can end short at a closed pipe without raising, which would
    drop the rest of the output and still exit 0."""
    sys.stdout.writelines(text.splitlines(keepends=True))


def _print_space(space, as_json: bool) -> None:
    if as_json:
        _write(fio.space_json(space))
        return
    print(f"points ({space.n}): " + ", ".join(space.labels))
    print("min_open:")
    for x in range(space.n):
        points = ", ".join(space.labels[y] for y in members(space.min_open[x]))
        print(f"  {space.labels[x]}: {points}")


# -- subcommands -------------------------------------------------------------

def _cmd_envelope(args) -> int:
    table = fio.parse_vertex_table(args.vertices)
    forms = [fio.parse_form(text, table) for text in args.form]
    if args.op == "d":
        result = differential(forms[0], table.n)
        print(fio.print_form(result, table))
    elif args.op == "mul":
        print(fio.print_form(form_product(forms[0], forms[1]), table))
    else:
        print(str(inner(forms[0], forms[1])))
    return 0


def _cmd_ideal(args) -> int:
    text, name = _read(args.file)
    ideal, table, given = fio.parse_ideal(text, source=name)
    if args.op == "check":
        print("vertices: " + ", ".join(table.labels))
        gens = ", ".join(
            "e[" + ",".join(table.labels[i] for i in g) + "]" for g in ideal.generators
        )
        print(f"generators (antichain): {gens if gens else '(none)'}")
        dropped = sorted(set(given) - set(ideal.generators), key=lambda w: (len(w), w))
        for w in dropped:
            print("dropped (redundant): e[" + ",".join(table.labels[i] for i in w) + "]")
        print("ok")
        return 0
    form = fio.parse_form(args.form, table)
    print(fio.print_form(ideal.reduce(form), table))
    return 0


def _cmd_manifold(args) -> int:
    m = _load_manifold(args.file)
    if args.op == "check":
        report = m.check_structure()
        print(str(report))
        if report.ok:
            print("structure: ok")
            return 0
        print("structure: FAILED")
        return 1
    if args.op == "dim":
        dim = m.dimension()
        print(f"dimension: {'infinite' if math.isinf(dim) else dim}")
        return 0
    # info: enumerate before the first print, so a refusal leaves stdout
    # empty; a finite family is listed first, and its dimension read off
    # the last grade without a second walk of the automaton
    kind = (
        f"explicit ({sum(1 for _ in m.words())} words)"
        if m.is_explicit
        else f"ideal complement ({len(m.ideal.generators)} generators)"
    )
    finite = m.is_explicit or is_finite(m.n, m.ideal.generators)
    network = ("yes" if m.is_network() else "no") if finite else "n/a (infinite dimensional)"
    dim = m.dimension()
    dim_text = "infinite" if math.isinf(dim) else str(dim)
    unlisted = not finite and args.max_grade is None
    by_grade: dict[int, list[str]] = {}
    if not unlisted:
        for w in m.words(max_grade=args.max_grade):
            by_grade.setdefault(w.grade, []).append(m.word_label(w))
    print("vertices: " + ", ".join(m.labels))
    print(f"representation: {kind}")
    print(f"dimension: {dim_text}")
    print(f"network: {network}")
    if unlisted:
        print("words: pass --max-grade to enumerate")
        return 0
    print("words:")
    for g in sorted(by_grade):
        print(f"  grade {g}: " + ", ".join(by_grade[g]))
    return 0


def _cmd_topology(args) -> int:
    m = _load_manifold(args.file)
    space = generated_space(m)
    if args.op == "json":
        _write(fio.space_json(space))
        return 0
    if args.op == "open-sets":
        opens = open_sets(space)
        print(f"open sets ({len(opens)}):")
        for u in opens:
            print("  {" + ", ".join(space.labels[x] for x in members(u)) + "}")
        return 0
    diagram = hasse(space)
    if args.dot:
        _write(fio.hasse_dot(diagram))
        return 0
    print(f"points ({space.n}): " + ", ".join(space.labels))
    print(f"edges ({len(diagram.edges)}):")
    for lo, up in diagram.edges:
        print(f"  {space.labels[lo]} < {space.labels[up]}")
    return 0


def _cmd_substitute(args) -> int:
    if args.op == "circle":
        covering = circle_covering(
            STANDARD_CIRCLE_ARCS,
            samples=args.samples,
            extra_points=STANDARD_CIRCLE_EXTRA_POINTS,
        )
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
        return 0
    if args.op == "trace":
        covering = fio.parse_covering(*_read(args.file))
        space, _ = trace_substitute(covering)
        _print_space(space, args.json)
        return 0
    complex_, notes = fio.parse_complex(*_read(args.file))
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    if args.op == "simplicial":
        space = simplicial_substitute(complex_)
    else:
        space = sampled_substitute(complex_, args.per_cell, args.seed)
        print(f"per_cell: {args.per_cell}")
        print(f"seed: {args.seed}")
    _print_space(space, args.json)
    return 0


def _cmd_verify(args) -> int:
    m = _load_manifold(args.file)
    report = verify_correspondence(m, per_cell=args.per_cell, seed=args.seed)
    if args.json:
        payload = {
            "ok": report.ok,
            "generated_points": report.generated.n,
            "symbolic_points": report.symbolic.n,
            "sampled_points": report.sampled.n,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitary",
        description="Exact differential calculi on finite sets and their finite topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", help="operate on forms of the free calculus")
    p.add_argument("op", choices=("d", "mul", "inner"))
    p.add_argument("form", nargs="+", help="form expression(s), e.g. 'e[1,2] - e[2,1]'")
    p.add_argument("--vertices", required=True, help="comma-separated vertex labels")
    p.set_defaults(fn=_cmd_envelope, needs=lambda a: 2 if a.op in ("mul", "inner") else 1)

    p = sub.add_parser("ideal", help="validate or apply a generator file")
    p.add_argument("op", choices=("check", "reduce"))
    p.add_argument("file")
    p.add_argument("form", nargs="?", help="form expression (reduce only)")
    p.set_defaults(fn=_cmd_ideal)

    p = sub.add_parser("manifold", help="inspect a manifold or relation file")
    p.add_argument("op", choices=("info", "check", "dim"))
    p.add_argument("file")
    p.add_argument("--max-grade", type=int, default=None)
    p.set_defaults(fn=_cmd_manifold)

    p = sub.add_parser("topology", help="the generated space of a manifold")
    p.add_argument("op", choices=("hasse", "open-sets", "json"))
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_topology)

    p = sub.add_parser("substitute", help="finitary substitutes of coverings")
    p.add_argument("op", choices=("simplicial", "sampled", "circle", "trace"))
    p.add_argument("file", nargs="?")
    p.add_argument("--per-cell", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_substitute)

    p = sub.add_parser("verify", help="check the correspondence of the three spaces")
    p.add_argument("op", choices=("correspondence",))
    p.add_argument("file")
    p.add_argument("--per-cell", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main and kept for the rest
    of the process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "envelope":
        need = args.needs(args)
        if len(args.form) != need:
            parser.error(f"envelope {args.op} takes exactly {need} form argument(s)")
    if args.command == "ideal" and args.op == "reduce" and args.form is None:
        parser.error("ideal reduce needs a form expression")
    if args.command == "substitute" and args.op != "circle" and args.file is None:
        parser.error(f"substitute {args.op} needs an input file")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except (FinitaryError, ValueError) as exc:
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
