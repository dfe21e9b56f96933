"""The package's public names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import finitary

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in finitary.__all__ if not hasattr(finitary, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert finitary.__all__ == sorted(set(finitary.__all__))


def test_cli_imports_nothing_outside_the_standard_library():
    # no runtime dependencies; and no hashlib, whose OpenSSL libcrypto
    # (_hashlib, _ssl) costs several MB of resident memory per process
    code = (
        "import json, sys; before = set(sys.modules); import finitary.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    outside = {
        top
        for top in (name.partition(".")[0] for name in loaded)
        if top != "finitary" and top not in sys.stdlib_module_names
    }
    assert outside == set()
    assert "finitary.cli" in loaded
    assert not {"_hashlib", "_ssl"} & set(loaded)


def test_too_large_is_one_class():
    assert finitary.TooLarge is finitary.topology.TooLarge is finitary.errors.TooLarge


def test_every_export_has_a_caller():
    # A public name must be used in the code of the library, a demo or the
    # benchmark, not only by tests: a name or an attribute read counts; a
    # definition, an assignment, a docstring or a comment does not.
    package = ROOT / "src" / "finitary"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert sorted(set(finitary.__all__) - used) == []


def test_every_module_import_is_used():
    # A module-level import whose bound name the module never reads is
    # dead, unless its line says noqa (a name kept for another module).
    unused = []
    for path in sorted((ROOT / "src" / "finitary").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            if getattr(node, "module", None) == "__future__" or any("noqa" in l for l in statement):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in read:
                    unused.append(f"{path.name}: {name}")
    assert unused == []
