"""The modules of src/sqkd import one another without a cycle.

Every `from .x import ...` counts, at module level or inside a function: a
function-level import hides a cycle from the interpreter, not from readers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sqkd"

#: an order of the modules in which each comes after all it imports, so
#: the graph has no cycle
ORDER = ["errors", "engine", "attacks", "protocol", "analysis", "cli"]


def _imports(path: Path) -> set[str]:
    """Sibling modules path imports with `from .x import` anywhere in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_module_graph_is_acyclic():
    graph = {p.stem: _imports(p) for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert sorted(graph) == sorted(ORDER)
    for module, imported in graph.items():
        late = [m for m in imported if ORDER.index(m) >= ORDER.index(module)]
        assert late == [], f"{module} imports {late}"
