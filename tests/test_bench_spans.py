"""The benchmark's traced run wraps engine functions by name; every name
it lists must still resolve, or `bench/run.py --trace 1` breaks."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    """LAYERS from the file's source, run without importing it, so nothing
    is written next to it."""
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves_on_the_engine():
    layers = _layers()
    assert layers
    for name, module, attr, _ in layers:
        target = importlib.import_module(f"flaghg.{module}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: flaghg.{module}.{attr}"
            target = getattr(target, part)
        assert callable(target), name
