"""One pass of the benchmark's job mixes, with the benchmark's own exact
checks, so a change that breaks them fails here before any timed run."""

import sys
import types
from pathlib import Path

import pytest

from flaghg.cli import main

JOBS = Path(__file__).resolve().parent.parent / "bench" / "jobs.py"


@pytest.fixture(scope="module")
def jobs():
    """bench/jobs.py run from its source into a registered module (its
    dataclass looks the module up), so nothing is written next to it."""
    module = types.ModuleType("bench_jobs")
    module.__file__ = str(JOBS)
    sys.modules[module.__name__] = module
    try:
        exec(compile(JOBS.read_text(), str(JOBS), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


@pytest.mark.parametrize("workload", ["integrals", "classes"])
def test_workload_pass_meets_its_checks(jobs, workload):
    expected = jobs.load_expected()
    for job in jobs.WORKLOAD_JOBS[workload](7, 0):
        assert jobs.passes_check(job, job.run(), expected), job.name


def test_cli_commands_miss_then_hit_with_recorded_results(jobs, tmp_path,
                                                          capsys):
    expected = jobs.load_expected()
    for argv in jobs.cli_argvs(7):
        name = " ".join(argv[:-2])
        seen = []
        for status in ("miss", "hit"):
            assert main(argv + ["--cache-dir", str(tmp_path)]) == 0, name
            out = capsys.readouterr().out
            seen.append(jobs.cli_results_bytes(argv, out))
            assert seen[-1][0] == status, name
        results = seen[0][1]
        assert seen[1][1] == results, name
        if argv[0] in jobs.SEED_DEPENDENT_COMMANDS:
            assert "all_equal: True" in results, name
        else:
            assert jobs.digest(results) == expected[name], name
