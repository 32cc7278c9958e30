"""One pass of the benchmark's job mixes, with the benchmark's own exact
checks, so a change that breaks them fails here before any timed run."""

import pytest

from flaghg.cli import main


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
