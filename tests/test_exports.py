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
    # A top-level function, class or method must be referenced as a name or
    # attribute somewhere in src, or appear as a word in perfbench (the tracer
    # wraps what it names).  Test-only helpers belong in tests/oracles.py.
    defs, used = [], set()
    for path in sorted((ROOT / "src" / "catb2").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in (ROOT / "perfbench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text()))
    dead = [full for full, name in defs if not _exempt(name) and name not in used]
    assert dead == []
