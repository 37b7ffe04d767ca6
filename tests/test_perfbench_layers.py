"""The traced benchmark run (perfbench/tracing.py) wraps every function that
perfbench/layers.py lists, looking each one up as ``vars(owner)[attr]``.  A
refactor that drops such a function, or leaves it to be inherited, would
crash the traced run; this walks the list the same way."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_every_traced_layer_is_defined_where_listed():
    layers = _layers()
    assert layers
    for layer in layers:
        owner = importlib.import_module(f"laxkit.{layer.module}")
        *path, attr = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in vars(owner), layer.name
        assert callable(vars(owner)[attr]), layer.name
