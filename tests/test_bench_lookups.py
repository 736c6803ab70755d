"""The names the benchmark harness in perfbench/ looks up in sqkd still resolve.

perfbench/spans.py wraps functions it finds by name and binds
theorem_check's signature; perfbench/ops.py drives sqkd.cli.  A rename in
sqkd that breaks either would otherwise only show when the harness runs.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from sqkd import analysis, protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sqkd_lookups(path: Path):
    """(module, name) of every `from sqkd... import name` and `cli.name` in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqkd":
            for alias in node.names:
                yield node.module, alias.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cli"
        ):
            yield "sqkd.cli", node.attr


def test_traced_functions_resolve():
    spans = _spans()
    for layer, functions in spans.LAYERS.items():
        module = importlib.import_module(f"sqkd.{layer}")
        for fn in functions:
            assert callable(getattr(module, fn, None)), f"sqkd.{layer}.{fn}"
    assert spans.FINISH_ROUND == "protocol.JointEvolution.finish_round"
    assert callable(protocol.JointEvolution.finish_round)


def test_imported_names_exist():
    lookups = {
        lookup for name in ("ops.py", "spans.py") for lookup in _sqkd_lookups(PERFBENCH / name)
    }
    assert ("sqkd.engine", "partial_trace") in lookups  # spans.kernel_metrics is scanned
    for module, name in lookups:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_theorem_check_keeps_the_parameters_spans_binds():
    parameters = inspect.signature(analysis.theorem_check).parameters
    assert {"patterns", "max_pattern_len"} <= set(parameters)
    assert callable(analysis.default_patterns)
