"""Every definition in src/sqkd has a caller in src/sqkd or perfbench/.

The scan is syntactic: a top-level function or class, or a method of a
top-level class, counts as used when its name appears as an ast.Name, an
ast.Attribute or an import alias anywhere in src/sqkd or perfbench/, or
when sqkd.__all__ exports it.  Dunder methods are called by Python itself
and are skipped.  Because names are matched without their owner, a
definition slips through when some unrelated name or attribute reads the
same: engine.basis_state did, as a parameter of engine.project read in its
body, until it was deleted.
"""

import ast
from pathlib import Path

import sqkd

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqkd"

#: the reader of the file format `sqkd run` writes, kept for audits and as
#: the tests' oracle: no code in the package reads a run back
ALLOWED = {"read_transcript"}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}"


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_definition_has_a_caller():
    used = set(sqkd.__all__) | ALLOWED
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name.rsplit(".", 1)[-1] not in used:
                dead.append(f"{path.stem}.{name}")
    assert dead == []
