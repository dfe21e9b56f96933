"""The file formats the tools read, form printing, and JSON/DOT export
of finite spaces.

Printed forms are canonically ordered (grade-major, then lexicographic)
so that identical inputs give byte-identical output.  Formats:

  form      ``3/2*e[1,2] - e[2,1] + (1+2i)*e[3]``: terms ``coeff*e[labels]``,
            each but the first after a run of signs (the parity of its
            ``-`` is the sign), the coefficient bare or in parentheses;
            ``0`` is the zero form.  Each term is read straight into
            the term dict a Form holds: its letter tuple from the vertex
            table and its coefficient as the reduced triple
            scalars._literal reads, so no scalar is built and no word
            passes the library's boundary check; envelope._summed adds
            the terms
  relation  header ``n <count>``, then one ``i <= j`` line per pair
  manifold  ``vertices:`` line, then a ``relation:``, ``words:`` or
            ``ideal:`` block (one entry per line); or a relation file,
            read as its network manifold
  ideal     optional ``vertices:`` line, then one generator word per line
            as comma-separated labels
  complex   optional ``vertices:`` line, then one simplex per line;
            missing faces are added (reported back to the caller)
  covering  ``covers:`` header line, then ``point: set1, set2`` lines;
            a point label follows the vertex-label rule

Lines starting with ``#`` and blank lines are ignored everywhere.
"""

from __future__ import annotations

import json
import re

from . import automata
from .complexes import SimplicialComplex, vertex_mask
from .coarse import Covering
from .envelope import Form, _distinct_neighbours, _summed
from .errors import FinitaryError, TooLarge, Value, _restore, members
from .ideals import BasicIdeal
from .manifolds import Manifold, Relation
from .scalars import GaussianRational, _literal
from .topology import FiniteSpace, HasseDiagram


class ParseError(FinitaryError):
    def __init__(self, source: str, line: int, message: str, col: int | None = None):
        self.source = source
        self.line = line
        self.col = col
        where = f"{source}:{line}" if col is None else f"{source}:{line}:{col}"
        super().__init__(f"{where}: {message}")


_LABEL = re.compile(r"^[A-Za-z0-9_.\-]+$")


class VertexTable(Value):
    """Display labels for the vertex set, resolving labels to indices."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        labels = tuple(labels)
        for lbl in labels:
            if not _LABEL.match(lbl):
                raise ValueError(f"bad vertex label {lbl!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lbl: i for i, lbl in enumerate(labels)})

    def _key(self):
        return self.labels

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label {label!r}") from None


def parse_vertex_table(
    spec: str, source: str = "<vertices>", line: int = 1
) -> VertexTable:
    """A vertex table from a comma-separated label list."""
    toks = [t.strip() for t in spec.split(",") if t.strip()]
    if not toks:
        raise ParseError(source, line, "no vertex labels given")
    try:
        return VertexTable(toks)
    except ValueError as exc:
        raise ParseError(source, line, str(exc)) from None


def _content_lines(text: str, source: str, what: str) -> list[tuple[int, str]]:
    """The (line number, stripped line) pairs of the lines that are neither
    blank nor a ``#`` comment; a file with none is refused as an empty
    ``what`` file."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise ParseError(source, 1, f"empty {what} file")
    return lines


# -- forms -----------------------------------------------------------------

# one term: a sign run (its parity is the sign; required before every term
# but the first), an optional coefficient, bare or in parentheses (the
# text inside them is group 3), with its '*', and the word; spaces may
# follow the sign run and the word
_TERM = re.compile(r"([+-]*)\s*(?:(\(([^()]*)\)|[^\s*\[\]()+-][^*\[\]()+-]*)\*)?e\[([^\]]*)\]\s*")


def parse_form(text: str, table: VertexTable, source: str = "<form>", line: int = 1) -> Form:
    body = text.strip()
    if not body:
        raise ParseError(source, line, "empty form expression")
    if body == "0":
        return Form()
    pairs, pos = [], 0
    while pos < len(body):
        match = _TERM.match(body, pos)
        if match is None or (pos and not match[1]):
            rest = repr(body[pos:pos + 30]) + ("..." if len(body) > pos + 30 else "")
            raise ParseError(source, line, f"cannot parse the form from {rest}", pos + 1)
        signs, coef_tok, inner, word_tok = match.groups()
        col, pos = match.end(1) + 1, match.end()
        if coef_tok is None:
            t = 1, 0, 1
        else:
            try:
                t = _literal(coef_tok if inner is None else inner)
            except (ValueError, ZeroDivisionError):
                raise ParseError(source, line, f"bad coefficient {coef_tok!r}", col) from None
        if not word_tok.strip():
            raise ParseError(source, line, "word with no letters", col)
        try:
            letters = _distinct_neighbours(map(table.index, map(str.strip, word_tok.split(","))))
        except (ValueError, FinitaryError) as exc:
            raise ParseError(source, line, str(exc), col) from None
        if signs.count("-") & 1:
            t = -t[0], -t[1], t[2]
        pairs.append((letters, t))
    return _summed(pairs)


def _coeff_prefix(c: GaussianRational) -> tuple[int, str]:
    """Sign and printable multiplier prefix ('' means coefficient 1): a
    value with a real and an imaginary part prints whole in parentheses,
    any other as its magnitude (str of c or -c, so i prints as i)."""
    if c.re and c.im:
        return 1, f"({c})*"
    negative = (c.re or c.im) < 0
    mag = -c if negative else c
    return -1 if negative else 1, "" if mag == 1 else f"{mag}*"


def print_form(f: Form, table: VertexTable) -> str:
    if not f:
        return "0"
    parts = []
    for w, c in f.items():
        sign, prefix = _coeff_prefix(c)
        body = prefix + "e[" + ",".join(table.labels[i] for i in w) + "]"
        if not parts:
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(parts)


# -- relations ---------------------------------------------------------------

def parse_relation(text: str, source: str = "<relation>") -> Relation:
    lines = _content_lines(text, source, "relation")
    return _relation(lines, source)


def _relation(lines, source: str) -> Relation:
    """A relation from the content lines of a file with an ``n`` header."""
    lineno, header = lines[0]
    bits = header.split()
    count = bits[1] if len(bits) == 2 and bits[0] == "n" else ""
    if not (count.isascii() and count.isdigit()):  # isdigit alone takes "²" and "١٢"
        raise ParseError(source, lineno, f"expected header 'n <count>', got {header!r}")
    # int() refuses past 4300 digits, leading zeros included, so only the
    # significant ones are read; more of them than the cap has is too large.
    # The cap is read at each call, so raising automata.MAX_WORDS lifts it
    cap = automata.MAX_WORDS
    digits = count.lstrip("0")
    n = int(digits or "0") if len(digits) <= len(str(cap)) else cap + 1
    if n < 1:
        raise ParseError(source, lineno, "vertex count must be at least 1")
    if n > cap:  # its n singletons are already too many words
        raise TooLarge(f"relation path enumeration is capped at {cap} words")
    # the labels 1..n are distinct and valid by construction
    labels = tuple(map(str, range(1, n + 1)))
    table = _restore(VertexTable, (labels, dict(zip(labels, range(n)))))
    return Relation(n, _parse_pairs(lines[1:], source, table))


def _parse_pairs(entries, source: str, table: VertexTable) -> list[tuple[int, int]]:
    """One ``i <= j`` pair per content line, as vertex indices."""
    pairs = []
    for lineno, line in entries:
        left, sep, right = line.partition("<=")
        if not sep:
            raise ParseError(source, lineno, f"expected 'i <= j', got {line!r}")
        try:
            pairs.append((table.index(left.strip()), table.index(right.strip())))
        except ValueError as exc:
            raise ParseError(source, lineno, str(exc)) from None
    return pairs


# -- manifolds ---------------------------------------------------------------

def _table_and_entries(lines, source: str) -> tuple[VertexTable, list]:
    """The ``vertices:`` table if the first line gives one, else the sorted
    labels used by the lines, the first bad one in file order refused at
    its line; plus the remaining content lines."""
    if lines and lines[0][1].startswith("vertices:"):
        lineno, first = lines[0]
        return parse_vertex_table(first.split(":", 1)[1], source, lineno), lines[1:]
    seen: set[str] = set()
    for lineno, line in lines:
        for label in map(str.strip, line.split(",")):
            if label not in seen and not _LABEL.match(label):
                raise ParseError(source, lineno, f"bad vertex label {label!r}")
            seen.add(label)
    return VertexTable(sorted(seen)), lines


def _parse_word_line(line: str, lineno: int, source: str, table: VertexTable) -> tuple[int, ...]:
    """The word a line spells.  table.index returns only indices inside
    the table and a line has at least one letter, so equal neighbours are
    all that is left to refuse, and the ideal or manifold of such words is
    assembled with no second check (its _of_words)."""
    try:
        return _distinct_neighbours(map(table.index, map(str.strip, line.split(","))))
    except (ValueError, FinitaryError) as exc:
        raise ParseError(source, lineno, str(exc)) from None


def _generators(entries, source: str, table: VertexTable) -> list[tuple[int, ...]]:
    """The generator words of an ideal block, one per content line, in file
    order.  A one-letter word is refused at its own line: an ideal must
    vanish in grade 0."""
    words = []
    for lineno, line in entries:
        word = _parse_word_line(line, lineno, source, table)
        if len(word) == 1:
            grade_zero = f"generator e[{table.labels[word[0]]}] has grade 0"
            raise ParseError(source, lineno, f"{grade_zero}; ideals must vanish in grade 0")
        words.append(word)
    return words


def parse_manifold(text: str, source: str = "<manifold>") -> Manifold:
    """A manifold file, or a relation file (first content line ``n`` or
    ``n ...``) read as the network manifold of its relation."""
    lines = _content_lines(text, source, "manifold")
    lineno, first = lines[0]
    if first == "n" or first.startswith("n "):
        return Manifold.from_relation(_relation(lines, source))
    if not first.startswith("vertices:"):
        raise ParseError(source, lineno, "manifold file must start with 'vertices:'")
    table = parse_vertex_table(first.split(":", 1)[1], source, lineno)
    if len(lines) < 2:
        raise ParseError(source, lineno, "missing 'relation:', 'words:' or 'ideal:' block")
    lineno, block = lines[1]
    if block not in ("relation:", "words:", "ideal:"):
        raise ParseError(
            source, lineno, f"expected 'relation:', 'words:' or 'ideal:', got {block!r}"
        )
    entries = lines[2:]
    if block == "relation:":
        rel = Relation(table.n, _parse_pairs(entries, source, table))
        return Manifold.from_relation(rel, labels=table.labels)
    if block == "words:":
        if not entries:
            raise ParseError(source, lineno, "words: block lists no words")
        words = [_parse_word_line(line, lno, source, table) for lno, line in entries]
        return Manifold._of_words(table.labels, words)
    ideal = BasicIdeal._of_words(table.n, _generators(entries, source, table))
    return Manifold.from_ideal(ideal, labels=table.labels)


# -- ideals ------------------------------------------------------------------

def parse_ideal(
    text: str, source: str = "<ideal>"
) -> tuple[BasicIdeal, VertexTable, list[tuple[int, ...]]]:
    """Returns the normalized ideal, the vertex table and the words as
    given (so callers can report dropped redundant generators)."""
    lines = _content_lines(text, source, "ideal")
    table, entries = _table_and_entries(lines, source)
    words = _generators(entries, source, table)
    return BasicIdeal._of_words(table.n, words), table, words


# -- complexes ---------------------------------------------------------------

def parse_complex(
    text: str, source: str = "<complex>"
) -> tuple[SimplicialComplex, list[str]]:
    """Returns the complex and human-readable notes about added faces."""
    lines = _content_lines(text, source, "complex")
    table, entries = _table_and_entries(lines, source)
    simplices = []
    for lno, line in entries:
        toks = [t.strip() for t in line.split(",")]
        try:
            simplex = vertex_mask(table.index(t) for t in toks)
        except ValueError as exc:
            raise ParseError(source, lno, str(exc)) from None
        if simplex.bit_count() != len(toks):
            raise ParseError(source, lno, f"simplex {line!r} repeats a vertex")
        simplices.append(simplex)
    complex_ = SimplicialComplex(table.n, simplices, labels=table.labels)
    given, cells = set(simplices), zip(complex_.simplices, complex_.cell_labels)
    notes = [f"added missing face {label}" for s, label in cells if s not in given]
    return complex_, notes


# -- coverings ---------------------------------------------------------------

def parse_covering(text: str, source: str = "<covering>") -> Covering:
    lines = _content_lines(text, source, "covering")
    lineno, header = lines[0]
    if not header.startswith("covers:"):
        raise ParseError(source, lineno, "covering file must start with 'covers:'")
    cover_labels = [t.strip() for t in header.split(":", 1)[1].split(",") if t.strip()]
    if not cover_labels:
        raise ParseError(source, lineno, "covers: line lists no cover sets")
    index = {lbl: i for i, lbl in enumerate(cover_labels)}
    if len(index) != len(cover_labels):
        raise ParseError(source, lineno, "duplicate cover set label")
    traces: dict[str, int] = {}  # point label -> trace, in file order
    for lno, line in lines[1:]:
        if ":" not in line:
            raise ParseError(source, lno, f"expected 'point: set1, set2', got {line!r}")
        label, body = (s.strip() for s in line.split(":", 1))
        if not _LABEL.match(label):
            raise ParseError(source, lno, f"bad point label {label!r}")
        trace = 0
        for tok in (t.strip() for t in body.split(",") if t.strip()):
            if tok not in index:
                raise ParseError(source, lno, f"unknown cover set {tok!r}")
            trace |= 1 << index[tok]
        if label in traces:
            raise ParseError(source, lno, "point labels must be unique")
        if not trace:
            raise ParseError(source, lno, f"point {label} lies in no cover set")
        traces[label] = trace
    return Covering(cover_labels, traces, traces.values())


# -- finite spaces -----------------------------------------------------------

def space_json(s: FiniteSpace) -> str:
    payload = {
        "points": list(s.labels),
        "min_open": {
            s.labels[x]: [s.labels[y] for y in members(s.min_open[x])]
            for x in range(s.n)
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def hasse_dot(h: HasseDiagram) -> str:
    """The diagram in DOT, bottom to top, one rank per longest-chain height."""
    rows: dict[int, list[str]] = {}
    for label, height in zip(h.labels, h.heights()):
        rows.setdefault(height, []).append(f'"{label}";')
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines.extend("  { rank=same; " + " ".join(rows[r]) + " }" for r in sorted(rows))
    lines.extend(f'  "{h.labels[lo]}" -> "{h.labels[up]}";' for lo, up in h.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
