"""Every definition in src/sqkd has a caller in src/sqkd or perfbench/.

The scan is syntactic.  A top-level function or class counts as used when
its name is loaded (an ast.Name read, not assigned), read as an attribute
or imported under any alias anywhere in src/sqkd or perfbench/, or when
sqkd.__all__ exports it.  A method of a top-level class counts as used only
when its name is read as an attribute (x.name).  Dunder methods are called
by Python itself and are skipped.  Names are still matched without their
owner, so a method slips through when an unrelated attribute reads the
same; but a local variable no longer hides a dead definition, as
theorem_check's `normalized` hid SubnormalizedVector.normalized until it
was deleted.
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


def _used_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(loaded names and import aliases, attribute names) read in tree."""
    loaded, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            loaded.add(node.name.rsplit(".", 1)[-1])
    return loaded, attributes


def test_every_definition_has_a_caller():
    loaded = set(sqkd.__all__) | ALLOWED
    attributes = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        names, attrs = _used_names(ast.parse(path.read_text(encoding="utf-8")))
        loaded |= names
        attributes |= attrs
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            owner, _, short = name.rpartition(".")
            used = attributes if owner else loaded | attributes
            if short not in used:
                dead.append(f"{path.stem}.{name}")
    assert dead == []
