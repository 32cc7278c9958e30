"""The benchmark's traced run wraps engine functions by name; every name
it lists must still resolve, or `bench/run.py --trace 1` breaks.  The
traced run also counts work from the wrapped calls' arguments and results
and requires equal counts from two passes on the same inputs."""

import importlib
from collections import Counter

import pytest

from flaghg.tableaux import enumerate_tableaux

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


def test_traced_integrals_pass_records_one_oracle_span_per_tableau(jobs):
    """integral_Id integrates each tableau by one ab_integrate call, which
    enumerates that tableau's fixed points once; a passing hori_vafa_verify
    pairs a zero difference and reaches no oracle."""
    spans = _spans()
    recorder = spans["Recorder"]()
    undo = spans["install"](recorder)
    try:
        for job in jobs.WORKLOAD_JOBS["integrals"](7, 0):
            job.run()
    finally:
        spans["uninstall"](undo)
    names = [recorder.names[k] for k in recorder.name]
    oracle = [k for k, name in enumerate(names)
              if name == "pushforward.ab_integrate"]
    points = [k for k, name in enumerate(names)
              if name == "fixedlocus.torus_fixed_points"]
    tableaux = sum(len(enumerate_tableaux(spec))
                   for spec in jobs.INTEGRAL_SPECS)
    assert len(oracle) == tableaux == 12
    assert all(names[recorder.parent[k]] == "mirror.integral_Id"
               for k in oracle)
    assert sorted(recorder.parent[k] for k in points) == oracle
