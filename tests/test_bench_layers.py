"""The traced benchmark run wraps bbcells functions by name; every name it
lists must still exist, or `bench/run.py --trace 1` breaks."""

import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_layers():
    """LAYERS of bench/tracing.py, executed from its source without
    importing it, so nothing is written beside it."""
    namespace = {}
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), namespace)
    return namespace["LAYERS"]


def test_traced_functions_exist():
    layers = load_layers()
    assert layers
    for layer, (module_name, functions) in layers.items():
        module = importlib.import_module(f"bbcells.{module_name}")
        for fname in functions:
            assert callable(getattr(module, fname, None)), (layer, module_name, fname)
