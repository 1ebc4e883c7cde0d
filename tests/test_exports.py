"""The package namespace holds only its submodules, and the package defines
nothing that neither it nor the benchmark uses."""

import ast
import re
from pathlib import Path

import catb2.cli  # loads every submodule

ROOT = Path(__file__).resolve().parents[1]


def test_the_package_binds_only_its_submodules():
    # Every name is imported from the module that defines it; catb2 itself
    # re-exports nothing.
    public = {name: value for name, value in vars(catb2).items() if not name.startswith("_")}
    assert "cli" in public
    assert [n for n, v in public.items() if getattr(v, "__name__", None) != f"catb2.{n}"] == []


def _exempt(name: str) -> bool:
    # Dunders are called by the language; checks are looked up by name.
    return (name.startswith("__") and name.endswith("__")) or name.startswith("check_")


def test_every_definition_is_used():
    # A top-level function or class must be referenced as a name or attribute
    # somewhere in src, and a method (Class.name) as an attribute `.name`, so
    # that a parameter or local of the same name does not keep it alive.
    # Either counts as used when it appears as a word in perfbench (the tracer
    # wraps what it names).  Test-only helpers belong in tests/oracles.py.
    defs, names, attrs, words = [], set(), set(), set()
    for path in sorted((ROOT / "src" / "catb2").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name, False))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{sub.name}", sub.name, True)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    for path in (ROOT / "perfbench").glob("*.py"):
        words.update(re.findall(r"\w+", path.read_text()))

    def used(name: str, method: bool) -> bool:
        return name in attrs or name in words or (not method and name in names)

    dead = [full for full, name, method in defs if not (_exempt(name) or used(name, method))]
    assert dead == []
