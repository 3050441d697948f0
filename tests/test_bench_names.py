"""The benchmark wraps and calls ratcat functions by name; every name must resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_layertrace",
                                                  PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves_in_its_layer():
    missing = []
    for layer, names in _layers().items():
        home = importlib.import_module(f"ratcat.{layer}")
        for name in names:
            if name.endswith(".validate"):
                cls = getattr(home, name.split(".")[0], None)
                found = isinstance(cls, type) and "__post_init__" in vars(cls)
            else:
                found = callable(getattr(home, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_every_workload_name_resolves_in_its_module():
    # the untraced run calls <module>.<name> for each module that
    # workloads.py imports from ratcat
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "ratcat"
               for alias in node.names}
    used = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("lattice", "parse_path") in used and len(used) >= 20
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(f"ratcat.{module}"), name)]
    assert missing == []
