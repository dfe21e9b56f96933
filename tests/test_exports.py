"""The package's public names."""

import re
from pathlib import Path

import finitary

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in finitary.__all__ if not hasattr(finitary, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert finitary.__all__ == sorted(set(finitary.__all__))


def test_too_large_is_one_class():
    assert finitary.TooLarge is finitary.topology.TooLarge is finitary.errors.TooLarge


def test_every_export_has_a_caller():
    # A public name must be used by the library, a demo or the benchmark,
    # not only by tests: its own definition line does not count.
    package = ROOT / "src" / "finitary"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    texts = [p.read_text() for p in files]
    unused = []
    for name in finitary.__all__:
        definition = re.compile(rf"^\s*(?:def|class)\s+{name}\b|^{name}\s*[:=]", re.M)
        use = re.compile(rf"\b{name}\b")
        if not any(use.search(definition.sub("", t)) for t in texts):
            unused.append(name)
    assert unused == []
