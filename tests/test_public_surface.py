"""Every name that ratcat exports has a caller outside the tests: the CLI,
verify, a demo, a module of the package, or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ratcat"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced(path, with_strings=False):
    """The identifiers a file reads, imports or looks up as an attribute;
    with_strings adds the leading word of each string constant, as the
    benchmark's tracer names what it wraps ("unglue", "DyckPath.validate")."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value.partition(".")[0])  # a phrase names no export
    return names


def test_every_export_has_a_caller_outside_the_tests():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "demos").glob("*.py"))
    used = set().union(*map(_referenced, callers),
                       *(_referenced(p, with_strings=True)
                         for p in (ROOT / "perfbench").glob("*.py")))
    exports = _exports()
    assert len(exports) >= 60
    assert sorted(exports - used) == []
