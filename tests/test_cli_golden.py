"""Byte-identical CLI output: stdout, stderr and exit code of every
subcommand form over each demos/data file, and of the `envelope` ops and
`substitute circle` (with and without --json), against a recorded
transcript.

The transcript is cli_golden.json next to this file.  To record it again
after a deliberate change of output, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from finitary import cli

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
TRANSCRIPT = Path(__file__).resolve().with_name("cli_golden.json")

# "{}" stands for the path of one demos/data file
FILE_FORMS = (
    "ideal check {}",
    "ideal reduce {} e[1,2]+e[2,1]",
    "manifold info {}",
    "manifold info {} --max-grade 1",
    "manifold check {}",
    "manifold dim {}",
    "topology hasse {}",
    "topology hasse {} --dot",
    "topology open-sets {}",
    "topology json {}",
    "substitute simplicial {}",
    "substitute simplicial {} --json",
    "substitute sampled {}",
    "substitute sampled {} --per-cell 1 --seed 7",
    "substitute sampled {} --json",
    "substitute trace {}",
    "substitute trace {} --json",
    "verify correspondence {}",
    "verify correspondence {} --per-cell 1 --seed 5",
    "verify correspondence {} --json",
)
PLAIN_FORMS = (
    "envelope d e[1,2] --vertices 1,2,3",
    "envelope mul e[1,2] e[2,3] --vertices 1,2,3",
    "envelope inner e[1,2]+e[2,3] e[2,3] --vertices 1,2,3",
    "substitute circle",
    "substitute circle --json",
)


def cases() -> list[tuple[str, str | None]]:
    files = sorted(p.name for p in DATA.iterdir() if p.is_file())
    return [(form, name) for form in FILE_FORMS for name in files] + [
        (form, None) for form in PLAIN_FORMS
    ]


def run(form: str, name: str | None) -> dict:
    """One in-process CLI call; stderr is kept only when it names no file
    by its full path, so the transcript does not depend on the checkout."""
    argv = form.split()
    if name is not None:
        argv = [str(DATA / name) if tok == "{}" else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    stderr = err.getvalue()
    return {
        "form": form,
        "file": name,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": None if str(DATA) in stderr else stderr,
    }


@functools.cache
def _recorded() -> dict:
    records = json.loads(TRANSCRIPT.read_text())
    return {(r["form"], r["file"]): r for r in records}


def test_transcript_covers_every_case():
    assert sorted(_recorded(), key=str) == sorted(cases(), key=str)


def test_transcript_runs_every_op():
    # every (command, op) pair of the parser has a form in the transcript,
    # so an op cannot land without its output pinned
    def choices(parser):
        (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    ops = {(c, o) for c, p in choices(cli.build_parser()).items() for o in choices(p)}
    assert len(ops) == 16
    assert ops - {tuple(form.split()[:2]) for form, _ in _recorded()} == set()


@pytest.mark.parametrize("form,name", cases(), ids=str)
def test_output_matches_transcript(form, name):
    assert run(form, name) == _recorded()[(form, name)]


if __name__ == "__main__":
    TRANSCRIPT.write_text(json.dumps([run(*c) for c in cases()], indent=1) + "\n")
