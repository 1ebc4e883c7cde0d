"""The package's export list names only what the package defines, and the
package defines nothing that neither it nor the benchmark uses."""

import ast
import re
from pathlib import Path

import catb2

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in catb2.__all__ if not hasattr(catb2, name)]
    assert missing == []
    assert len(set(catb2.__all__)) == len(catb2.__all__)
    namespace: dict = {}
    exec("from catb2 import *", namespace)
    assert set(catb2.__all__) <= set(namespace)


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
