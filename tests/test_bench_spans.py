"""The benchmark's traced run wraps engine functions by name; every name
it lists must still resolve, or `bench/run.py --trace 1` breaks.  The
traced run also counts work from the wrapped calls' arguments and results
and requires equal counts from two passes on the same inputs."""

import importlib
from collections import Counter

import pytest

from conftest import BENCH

SPANS = BENCH / "spans.py"


def _spans() -> dict:
    """bench/spans.py run from its source without importing it, so nothing
    is written next to it."""
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_traced_layer_resolves_on_the_engine():
    layers = _spans()["LAYERS"]
    assert layers
    for name, module, attr, _ in layers:
        target = importlib.import_module(f"flaghg.{module}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: flaghg.{module}.{attr}"
            target = getattr(target, part)
        assert callable(target), name


@pytest.mark.parametrize("workload", ["integrals", "classes"])
def test_traced_passes_meet_checks_with_equal_span_counts(jobs, workload):
    spans = _spans()
    expected = jobs.load_expected()
    recorder = spans["Recorder"]()
    undo = spans["install"](recorder)
    try:
        passes = []
        for _ in range(2):
            counts = {}
            for job in jobs.WORKLOAD_JOBS[workload](7, 0):
                start = len(recorder)
                out = job.run()
                spans_by_name = Counter()
                for k in range(start, len(recorder)):
                    name = recorder.names[recorder.name[k]]
                    spans_by_name[name, "calls"] += 1
                    spans_by_name[name, "work"] += recorder.count[k]
                counts[job.name] = spans_by_name
                assert jobs.passes_check(job, out, expected), job.name
            passes.append(counts)
    finally:
        spans["uninstall"](undo)
    assert passes[0] == passes[1]
