"""The benchmark's traced run wraps ratcat functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_layertrace", LAYERTRACE)
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
