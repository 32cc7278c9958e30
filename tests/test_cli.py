import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flaghg
from flaghg import cli, fixedlocus, pushforward, runners
from flaghg.algebra import LinearProduct, RatFun
from flaghg.cli import (cache_key, format_report, main, parse_job,
                        run_and_report)
from flaghg.errors import FormulaMismatchError, UsageError
from flaghg.tableaux import FlagSpec, enumerate_tableaux

from conftest import shift_tableau_route


def test_parse_integral_job():
    job = parse_job(["integral", "--n", "2", "--ranks", "1",
                     "--degrees", "1"])
    assert job.command == "integral"
    assert job.spec == FlagSpec(2, (1,), (1,))
    assert job.output_format == "text"
    assert job.lambda_seed == 0


def test_parse_tableaux_json_job():
    job = parse_job(["tableaux", "--n", "4", "--ranks", "2",
                     "--degrees", "2", "--json"])
    assert job.command == "tableaux"
    assert job.spec == FlagSpec(4, (2,), (2,))
    assert job.output_format == "json"


def test_parse_rejects_decreasing_ranks():
    with pytest.raises(UsageError, match="ranks must be strictly increasing"):
        parse_job(["integral", "--n", "3", "--ranks", "2,1"])


def test_parse_rejects_rank_at_least_n():
    with pytest.raises(UsageError, match="smaller than n"):
        parse_job(["integral", "--n", "3", "--ranks", "3"])


def test_parse_rejects_negative_degrees():
    with pytest.raises(UsageError, match="non-negative"):
        parse_job(["integral", "--n", "3", "--ranks", "1",
                   "--degrees", "-1"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_job(["integral", "--n", "2", "--ranks", "1", "--frob", "1"])


def test_parse_env_cache_dir():
    job = parse_job(["integral", "--n", "2", "--ranks", "1"],
                    {"FLAGHG_CACHE": "/tmp/somewhere"})
    assert job.cache_dir == "/tmp/somewhere"
    job2 = parse_job(["integral", "--n", "2", "--ranks", "1",
                      "--cache-dir", "/tmp/explicit"],
                     {"FLAGHG_CACHE": "/tmp/somewhere"})
    assert job2.cache_dir == "/tmp/explicit"


def _job(command, spec, tmp_path, output_format="json"):
    argv = [command, "--n", str(spec.n),
            "--ranks", ",".join(map(str, spec.ranks)),
            "--degrees", ",".join(map(str, spec.degrees)),
            "--cache-dir", str(tmp_path)]
    return parse_job(argv + (["--json"] if output_format == "json" else []))


def test_tableaux_report_contents(tmp_path):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    report = run_and_report(job)
    results = report["results"]
    assert results["count"] == 2
    assert [e["dimension"] for e in results["tableaux"]] == [5, 4]
    assert results["hquot_dimension"] == 12


def test_integral_report_contains_golden_value(tmp_path):
    job = _job("integral", FlagSpec(2, (1,), (1,)), tmp_path)
    report = run_and_report(job)
    assert report["results"]["value"] == "(2 + alpha*t[1]) / (alpha)^3"
    assert report["provenance"]["cache"]["status"] == "miss"


def test_reports_byte_identical_on_clean_runs(tmp_path):
    job1 = _job("integral", FlagSpec(2, (1,), (1,)), tmp_path / "a")
    job2 = _job("integral", FlagSpec(2, (1,), (1,)), tmp_path / "b")
    text1 = format_report(run_and_report(job1), "json")
    text2 = format_report(run_and_report(job2), "json")
    assert text1 == text2


def test_cache_hit_and_soundness(tmp_path):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    first = run_and_report(job)
    second = run_and_report(job)
    assert first["provenance"]["cache"]["status"] == "miss"
    assert second["provenance"]["cache"]["status"] == "hit"
    assert first["results"] == second["results"]
    assert first["provenance"]["work"] == {"tableaux": 2, "fixed_points": 18}
    assert second["provenance"]["work"] == first["provenance"]["work"]
    # eviction: recomputed results byte-identical to the cached ones
    for entry in tmp_path.iterdir():
        entry.unlink()
    third = run_and_report(job)
    assert third["provenance"]["cache"]["status"] == "miss"
    assert third["results"] == first["results"]


def test_corrupt_cache_is_bypassed_with_warning(tmp_path):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    first = run_and_report(job)
    key = cache_key(job)
    (tmp_path / f"{key}.json").write_text("{not json")
    again = run_and_report(job)
    assert again["provenance"]["cache"]["status"] == "miss"
    assert "warning" in again["provenance"]
    assert again["results"] == first["results"]


def test_non_object_cache_entry_is_bypassed_with_warning(tmp_path):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    first = run_and_report(job)
    (tmp_path / f"{cache_key(job)}.json").write_text("[1,2]")
    again = run_and_report(job)
    assert again["provenance"]["cache"]["status"] == "miss"
    assert again["provenance"]["warning"] == \
        "cache entry was corrupt and has been bypassed"
    assert again["results"] == first["results"]


@pytest.mark.parametrize("work", [
    None, "garbage", {}, {"tableaux": 3, "fixed_points": "36"}],
    ids=["missing", "string", "empty", "non-integer"])
def test_cache_entry_without_work_is_bypassed_with_warning(tmp_path, work):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    first = run_and_report(job)
    key = cache_key(job)
    entry = {"key": key, "results": first["results"]}
    if work is not None:
        entry["work"] = work
    (tmp_path / f"{key}.json").write_text(json.dumps(entry))
    again = run_and_report(job)
    assert again["provenance"]["cache"]["status"] == "miss"
    assert again["provenance"]["warning"] == \
        "cache entry was corrupt and has been bypassed"
    assert again["provenance"]["work"] == first["provenance"]["work"]
    assert run_and_report(job)["provenance"]["cache"]["status"] == "hit"


@pytest.mark.parametrize("results", [{}, [1, 2]], ids=["no-verdict", "list"])
def test_cache_entry_without_results_object_is_bypassed_with_warning(
        tmp_path, capsys, results):
    argv = ["hori-vafa", "--n", "3", "--ranks", "2", "--json",
            "--cache-dir", str(tmp_path)]
    key = cache_key(parse_job(argv))
    (tmp_path / f"{key}.json").write_text(
        json.dumps({"key": key, "results": results,
                    "work": {"tableaux": 1, "fixed_points": 3}}))
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["ok"] is True
    assert report["provenance"]["cache"]["status"] == "miss"
    assert report["provenance"]["warning"] == \
        "cache entry was corrupt and has been bypassed"


def test_unreadable_cache_entry_is_bypassed_with_warning(tmp_path, capsys):
    argv = ["integral", "--n", "2", "--ranks", "1", "--degrees", "1",
            "--json", "--cache-dir", str(tmp_path)]
    (tmp_path / f"{cache_key(parse_job(argv))}.json").mkdir()
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["value"] == "(2 + alpha*t[1]) / (alpha)^3"
    assert report["provenance"]["cache"]["status"] == "miss"
    assert report["provenance"]["warning"] == \
        "cache entry was corrupt and has been bypassed"


@pytest.mark.parametrize("command, spec", [
    ("tableaux", FlagSpec(4, (2,), (2,))),
    ("integral", FlagSpec(2, (1,), (1,))),
])
def test_cache_hit_enumerates_nothing(tmp_path, monkeypatch, command, spec):
    job = _job(command, spec, tmp_path)
    first = run_and_report(job)

    def refuse(*args):
        raise AssertionError("a cache hit enumerated")

    monkeypatch.setattr(runners, "enumerate_tableaux", refuse)
    monkeypatch.setattr(fixedlocus, "torus_fixed_points", refuse)
    monkeypatch.setattr(pushforward, "torus_fixed_points", refuse)
    second = run_and_report(job)
    assert second["provenance"]["cache"]["status"] == "hit"
    assert second["results"] == first["results"]
    assert second["provenance"]["work"] == first["provenance"]["work"]


@pytest.mark.parametrize("command", ["tableaux", "euler", "oracle-compare"])
def test_cache_miss_enumerates_once(tmp_path, monkeypatch, command):
    # the work counters count the tableaux the runner enumerated
    calls = []

    def counted(spec):
        calls.append(spec)
        return enumerate_tableaux(spec)

    monkeypatch.setattr(runners, "enumerate_tableaux", counted)
    spec = FlagSpec(4, (2,), (2,))
    report = run_and_report(_job(command, spec, tmp_path))
    assert report["provenance"]["cache"]["status"] == "miss"
    assert calls == [spec]
    assert report["provenance"]["work"]["tableaux"] == len(
        enumerate_tableaux(spec))


def test_cache_key_skips_fields_the_command_ignores(tmp_path, capsys):
    base = ["integral", "--n", "2", "--ranks", "1", "--degrees", "1",
            "--json", "--cache-dir", str(tmp_path)]
    budget = base + ["--coset-budget", "5"]
    assert cache_key(parse_job(base)) == cache_key(parse_job(budget))
    assert main(base) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(budget) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["provenance"]["cache"]["status"] == "miss"
    assert second["provenance"]["cache"]["status"] == "hit"
    assert second["results"] == first["results"]
    assert second["job"]["coset_budget"] == 5
    # a field the command reads still splits the key
    assert cache_key(parse_job(base)) != \
        cache_key(parse_job(base + ["--lambda-seed", "1"]))


def test_cache_write_leaves_only_the_entry(tmp_path):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    first = run_and_report(job)
    assert [p.name for p in tmp_path.iterdir()] == [f"{cache_key(job)}.json"]
    second = run_and_report(job)
    assert second["provenance"]["cache"]["status"] == "hit"
    assert second["results"] == first["results"]


def test_cache_key_covers_engine_source(tmp_path, monkeypatch):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    before = cache_key(job)
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cache_key(job) != before


@pytest.mark.parametrize("name", ["runners.py", "spec.py", "mirror.py"])
def test_source_digest_covers_modules_a_hit_never_imports(tmp_path,
                                                          monkeypatch, name):
    # on a copy of the package, so the checkout's files stay untouched
    package = tmp_path / "flaghg"
    shutil.copytree(Path(cli.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    digest = cli._source_digest.__wrapped__
    before = digest()
    path = package / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert digest() != before


def test_runner_table_matches_command_table():
    assert set(runners.RUNNERS) == set(cli.COMMANDS)


def test_cache_key_ignores_output_format(tmp_path):
    a = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path,
             output_format="json")
    b = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path,
             output_format="text")
    assert cache_key(a) == cache_key(b)


def test_main_euler_route_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fixedlocus, "euler_product_closed_form",
                        lambda t, roots: LinearProduct(0))
    assert main(["euler", "--n", "2", "--ranks", "1", "--degrees", "1",
                 "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "computation error [euler]: Euler class routes disagree on ((1,),)\n")
    with pytest.raises(FormulaMismatchError):
        run_and_report(_job("euler", FlagSpec(2, (1,), (1,)), tmp_path / "b"))


# memory runs out in the job, or while its cache entry is written, which
# then leaves no temporary file behind
@pytest.mark.parametrize("stage", ["job", "cache"])
def test_main_out_of_memory_is_a_computation_error(tmp_path, capsys,
                                                  monkeypatch, stage):
    def exhausted(*args):
        raise MemoryError

    if stage == "job":
        monkeypatch.setitem(runners.RUNNERS, "tableaux", exhausted)
    else:
        monkeypatch.setattr(os, "replace", exhausted)
    assert main(["tableaux", "--n", "3", "--ranks", "1", "--degrees", "1",
                 "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == (
        "", "computation error [tableaux]: out of memory\n")
    assert list(tmp_path.iterdir()) == []


def test_euler_multiplies_out_one_class_per_tableau(tmp_path, monkeypatch):
    # the two routes are compared factored; only the reported class is
    # expanded
    calls = []
    original = LinearProduct.to_ratfun

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LinearProduct, "to_ratfun", counted)
    spec = FlagSpec(4, (1, 2), (1, 2))
    result = run_and_report(_job("euler", spec, tmp_path))
    count = len(list(enumerate_tableaux(spec)))
    assert result["results"]["count"] == count
    assert len(calls) == count


def test_main_exit_codes(tmp_path, capsys):
    cache = str(tmp_path)
    assert main(["integral", "--n", "2", "--ranks", "1", "--degrees", "1",
                 "--json", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "(2 + alpha*t[1]) / (alpha)^3" in out
    assert main(["integral", "--n", "3", "--ranks", "2,1",
                 "--cache-dir", cache]) == 1
    err = capsys.readouterr().err
    assert "ranks must be strictly increasing" in err


@pytest.mark.parametrize("args,message", [
    (["--ranks", "2,1"], "ranks must be strictly increasing"),
    (["--ranks", "4"], "ranks must be smaller than n"),
    (["--ranks", "0"], "ranks must be positive"),
    (["--ranks", "0,1"], "ranks must be positive"),
    (["--ranks", "1,2", "--degrees", "1"],
     "degrees must match ranks in length"),
    (["--ranks", "2", "--degrees", "-1"], "degrees must be non-negative"),
    (["--ranks", "2,1", "--coset-budget", "-1"],
     "ranks must be strictly increasing"),
    (["--ranks", "3,2", "--degrees", "1"],
     "ranks must be strictly increasing"),
    (["--ranks", "5", "--degrees=-1,2"], "ranks must be smaller than n"),
])
def test_main_spec_usage_error_lines(tmp_path, capsys, args, message):
    # with several faults on one line, the first check in order wins
    code = main(["tableaux", "--n", "4", *args, "--cache-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_main_computation_error_exit_code(tmp_path, capsys):
    code = main(["oracle-compare", "--n", "4", "--ranks", "2", "--degrees",
                 "1", "--coset-budget", "1", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "computation error" in capsys.readouterr().err


def test_main_hg_over_the_coset_budget_is_a_computation_error(tmp_path,
                                                              capsys):
    # a degree-2 tableau of Gr(3, 5) has rows (0, 1, 1): three cosets
    code = main(["hg", "--n", "5", "--ranks", "3", "--max-degree", "2",
                 "--coset-budget", "2", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == \
        "computation error [hg]: 3 cosets exceed the budget of 2\n"


def test_main_hori_vafa_mismatch_is_a_verification_failure(
        tmp_path, capsys, monkeypatch):
    # the check pairs the display minus the tableau route of rank r with
    # the Schur polynomials, so a wrong class is reported, not raised
    shift_tableau_route(monkeypatch, RatFun.const(1))
    code = main(["hori-vafa", "--n", "3", "--ranks", "2", "--max-degree",
                 "1", "--json", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert json.loads(captured.out)["results"]["ok"] is False


def test_main_hori_vafa_one_row_mismatch_is_a_computation_error(
        tmp_path, capsys, monkeypatch):
    # the one-row classes are checked as hg checks them, before any degree
    # of rank r
    shift_tableau_route(monkeypatch, RatFun.const(1), min_rank=1)
    code = main(["hori-vafa", "--n", "3", "--ranks", "2", "--max-degree",
                 "1", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("computation error [hori-vafa]: hypergeometric "
                            "routes disagree at (n=3, r=1, d=0)\n")


def test_main_hori_vafa_one_row_check_keeps_the_coset_budget(tmp_path,
                                                             capsys):
    # the degree-0 tableau of P^2 has one coset
    code = main(["hori-vafa", "--n", "3", "--ranks", "2", "--max-degree",
                 "1", "--coset-budget", "0", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == \
        "computation error [hori-vafa]: 1 cosets exceed the budget of 0\n"


def test_main_hg_requires_grassmannian(tmp_path, capsys):
    code = main(["hg", "--n", "4", "--ranks", "1,2", "--cache-dir",
                 str(tmp_path)])
    assert code == 1
    assert "Grassmannian" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["hg", "--ranks", "1,2"], "hg requires a Grassmannian (a single rank)"),
    (["hori-vafa", "--ranks", "1"],
     "hori-vafa requires a Grassmannian with rank >= 2"),
    (["hg", "--ranks", "1,2", "--max-degree", "-1"],
     "hg needs --max-degree >= 0"),
    (["hori-vafa", "--ranks", "1", "--max-degree", "0"],
     "hori-vafa needs --max-degree >= 1"),
    (["hg", "--ranks", "2", "--degrees", "5"], "hg takes no --degrees"),
    (["hori-vafa", "--ranks", "2", "--degrees", "1"],
     "hori-vafa takes no --degrees"),
])
def test_command_usage_rules_fail_before_the_cache(tmp_path, capsys, argv,
                                                   message):
    # the --max-degree floor is checked before the Grassmannian shape
    argv = [argv[0], "--n", "4", *argv[1:], "--cache-dir", str(tmp_path)]
    with pytest.raises(UsageError, match=re.escape(message)):
        parse_job(argv)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# per command: the flags that split the cache key, provenance.routes, and
# the results field whose false value makes main exit 3
@pytest.mark.parametrize("command,splits,routes,verdict", [
    ("tableaux", {"--explain"}, ["enumeration"], None),
    ("euler", {"--explain"}, ["ledger", "closed-form"], None),
    ("integral", {"--lambda-seed", "--explain"}, ["fixed-point-oracle"],
     None),
    ("hg", {"--max-degree", "--coset-budget"},
     ["tableau-sum", "simplified-display"], None),
    ("hori-vafa", {"--max-degree", "--lambda-seed", "--coset-budget"},
     ["tableau-sum", "simplified-display", "antisymmetrization"], "ok"),
    ("oracle-compare", {"--lambda-seed", "--coset-budget"},
     ["fixed-point-oracle", "fibration-tower"], "all_equal"),
])
def test_command_table(tmp_path, capsys, monkeypatch, command, splits,
                       routes, verdict):
    base = [command, "--n", "4", "--ranks", "2", "--max-degree", "1",
            "--json"]
    flags = {"--max-degree": ["--max-degree", "2"],
             "--lambda-seed": ["--lambda-seed", "3"],
             "--coset-budget": ["--coset-budget", "7"],
             "--explain": ["--explain"]}
    key = cache_key(parse_job(base))
    assert {flag for flag, extra in flags.items()
            if cache_key(parse_job(base + extra)) != key} == splits
    for field in ("ok", "all_equal"):
        results = {"ok": True, "all_equal": True, field: False}
        monkeypatch.setitem(runners.RUNNERS, command,
                            lambda job: (results, []))
        code = main(base + ["--cache-dir", str(tmp_path / field)])
        assert code == (3 if field == verdict else 0)
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == results
        assert report["provenance"]["routes"] == routes


# per command, a small spec: n, ranks and degrees
JOB_SPECS = {
    "tableaux": (4, [2], [2]),
    "euler": (3, [1, 2], [1, 1]),
    "integral": (3, [1, 2], [1, 1]),
    "hg": (4, [2], [0]),
    "hori-vafa": (3, [2], [0]),
    "oracle-compare": (3, [1], [1]),
}


@pytest.mark.parametrize("command", JOB_SPECS)
def test_report_job_is_the_job_fields(tmp_path, capsys, command):
    """The report's job is every parsed job field but the cache
    directory, each flag off its default, with the spec rendered."""
    n, ranks, degrees = JOB_SPECS[command]
    code = main([command, "--n", str(n),
                 "--ranks", ",".join(map(str, ranks)),
                 "--degrees", ",".join(map(str, degrees)),
                 "--max-degree", "2", "--lambda-seed", "7",
                 "--coset-budget", "500", "--explain", "--json",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["job"] == {
        "command": command,
        "spec": {"n": n, "ranks": ranks, "degrees": degrees},
        "max_degree": 2,
        "lambda_seed": 7,
        "coset_budget": 500,
        "explain": True,
        "output_format": "json",
    }


@pytest.mark.parametrize("name", ["a" * 300, "file"],
                         ids=["name-too-long", "not-a-directory"])
def test_cache_path_without_entry_is_a_plain_miss(tmp_path, capsys, name):
    (tmp_path / "file").write_text("")
    assert main(["tableaux", "--n", "3", "--ranks", "1", "--json",
                 "--cache-dir", str(tmp_path / name)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["results"]["count"] == 1
    assert report["provenance"]["cache"]["status"] == "miss"
    assert report["provenance"]["warning"] == \
        "cache directory is not writable"


@pytest.mark.parametrize("fault, warning", [
    ("corrupt", "cache entry was corrupt and has been bypassed"),
    ("file", "cache directory is not writable")], ids=["corrupt", "file"])
def test_text_report_warns_on_stderr(tmp_path, capsys, fault, warning):
    argv = ["tableaux", "--n", "3", "--ranks", "1", "--degrees", "1"]
    assert main(argv + ["--cache-dir", str(tmp_path / "clean")]) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    cache = tmp_path / fault
    if fault == "corrupt":
        cache.mkdir()
        key = cache_key(parse_job(argv + ["--cache-dir", str(cache)]))
        (cache / f"{key}.json").write_text("{not json")
    else:
        cache.write_text("")
    assert main(argv + ["--cache-dir", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {warning}\n"
    assert captured.out == clean.out
    assert "cache=miss" in captured.out


def test_main_hori_vafa_rejects_max_degree_zero(tmp_path, capsys):
    code = main(["hori-vafa", "--n", "3", "--ranks", "2", "--max-degree",
                 "0", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "--max-degree >= 1" in capsys.readouterr().err


def test_main_hg_rejects_negative_max_degree(tmp_path, capsys):
    code = main(["hg", "--n", "4", "--ranks", "2", "--max-degree", "-3",
                 "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "--max-degree >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_rejects_negative_coset_budget(tmp_path, capsys):
    code = main(["integral", "--n", "2", "--ranks", "1", "--coset-budget",
                 "-1", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "--coset-budget must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_hori_vafa_passes(tmp_path, capsys):
    code = main(["hori-vafa", "--n", "3", "--ranks", "2", "--max-degree",
                 "1", "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["ok"] is True


def test_main_oracle_compare(tmp_path, capsys):
    code = main(["oracle-compare", "--n", "3", "--ranks", "1", "--degrees",
                 "1", "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["all_equal"] is True


def test_text_rendering_is_deterministic(tmp_path):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path,
               output_format="text")
    one = format_report(run_and_report(job), "text")
    two = format_report(run_and_report(job), "text")
    # identical up to the cache status line, which flips to a hit
    assert one.replace("cache=miss", "cache=hit") == two


@pytest.mark.parametrize("argv", [
    ["integral", "--n", "3", "--ranks", "1,2", "--degrees", "1,1", "--json"],
    ["hg", "--n", "4", "--ranks", "2", "--max-degree", "2", "--json"],
    ["euler", "--n", "4", "--ranks", "1,2", "--degrees", "1,2", "--explain",
     "--json"],
    ["oracle-compare", "--n", "4", "--ranks", "1,2", "--degrees", "1,1",
     "--json"],
])
def test_reports_do_not_depend_on_hash_seed(tmp_path, argv):
    """Also with the variables registered in reverse VarId order before
    main runs, which reverses their packed exponent slots."""
    reverse = (
        "import sys\n"
        "from flaghg.algebra import ALPHA, Poly, ambient, kahler, y\n"
        "from flaghg.cli import main\n"
        "r = range(1, 6)\n"
        "names = [y(i, j, k) for i in r for j in r for k in r]\n"
        "names += [ambient(k) for k in r] + [kahler(i) for i in r]\n"
        "for v in sorted(names + [ALPHA], reverse=True):\n"
        "    Poly.var(v)\n"
        "sys.exit(main())\n")
    outputs = []
    for seed, start in (("0", ["-m", "flaghg"]), ("1", ["-m", "flaghg"]),
                        ("2", ["-c", reverse])):
        proc = _python([*start, *argv, "--cache-dir", str(tmp_path / seed)],
                       PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def _python(args, **env):
    """Run a fresh interpreter on this checkout's package, no FLAGHG_CACHE."""
    src = str(Path(flaghg.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("FLAGHG_CACHE", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_zero_without_a_usage_error(flag):
    proc = _python(["-m", "flaghg", flag])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: flaghg")


# 138 coordinates, each with its own torus weight, a row longer than
# the interpreter's recursion limit, a one-row degree that no search over
# every part size would finish, a level whose rows the row above bounds,
# and the help text
@pytest.mark.parametrize("argv", [
    ["integral", "--n", "138", "--ranks", "1"],
    ["tableaux", "--n", "2000", "--ranks", "1500", "--degrees", "0"],
    ["tableaux", "--n", "2000", "--ranks", "1500", "--degrees", "1"],
    ["tableaux", "--n", "3", "--ranks", "1",
     "--degrees", "100000000000000000000000"],
    ["tableaux", "--n", "3", "--ranks", "1,2", "--degrees", "1,1000000"],
    ["--help"],
], ids=lambda argv: " ".join(argv))
def test_command_line_never_ends_in_a_traceback(tmp_path, argv):
    proc = _python(["-m", "flaghg", *argv, "--cache-dir", str(tmp_path)])
    assert proc.returncode in (0, 1, 2, 3)
    assert "Traceback" not in proc.stderr


# runs main on argv, then lists every loaded module on stderr
_MAIN_THEN_MODULES = (
    "import sys\n"
    "import flaghg.cli\n"
    "code = flaghg.cli.main(sys.argv[1:])\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n")


# one line per command, and the package modules a cache hit of it loads
HIT_ARGVS = [
    ["tableaux", "--n", "4", "--ranks", "2", "--degrees", "2", "--explain"],
    ["euler", "--n", "3", "--ranks", "1,2", "--degrees", "1,1", "--explain"],
    ["integral", "--n", "3", "--ranks", "1,2", "--degrees", "1,1"],
    ["hg", "--n", "4", "--ranks", "2", "--max-degree", "1"],
    ["hori-vafa", "--n", "3", "--ranks", "2", "--max-degree", "1"],
    ["oracle-compare", "--n", "3", "--ranks", "1", "--degrees", "1"],
]
HIT_MODULES = ["flaghg", "flaghg.cli", "flaghg.errors", "flaghg.spec"]


@pytest.mark.parametrize("argv", HIT_ARGVS, ids=lambda argv: argv[0])
def test_cache_hit_imports_no_engine_module(tmp_path, argv):
    argv = argv + ["--json", "--cache-dir", str(tmp_path)]
    miss, hit = [_python(["-c", _MAIN_THEN_MODULES, *argv]) for _ in range(2)]
    for proc, status in ((miss, "miss"), (hit, "hit")):
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["provenance"]["cache"]["status"] == status
    assert {"flaghg.fixedlocus", "flaghg.runners"} <= set(miss.stderr.split())
    loaded = hit.stderr.split()
    assert "flaghg.runners" not in loaded
    assert [m for m in loaded if m.partition(".")[0] == "flaghg"] == HIT_MODULES
    # nor `dataclasses`, which imports `inspect`; a `site` .pth file may
    # load them in any interpreter, so only the hit's own imports count
    bare = _python(["-c", "import sys; print(*sys.modules)"])
    assert bare.returncode == 0, bare.stderr
    assert {"dataclasses", "inspect"} & set(loaded) \
        <= set(bare.stdout.split())
    direct = _python(["-m", "flaghg", *argv])
    assert (direct.returncode, direct.stdout, direct.stderr) == \
        (0, hit.stdout, "")


# with -S no `site` .pth file preloads a module, so the hit's own imports
# show; these would cost a hit more than its own work
NOT_ON_THE_HIT_PATH = {"typing", "__future__", "dataclasses", "inspect",
                       "tempfile", "random"}


@pytest.mark.parametrize("argv", HIT_ARGVS, ids=lambda argv: argv[0])
def test_cache_hit_without_site_loads_only_the_hit_path(tmp_path, argv):
    argv = argv + ["--json", "--cache-dir", str(tmp_path)]
    miss, hit = [_python(["-S", "-c", _MAIN_THEN_MODULES, *argv])
                 for _ in range(2)]
    for proc, status in ((miss, "miss"), (hit, "hit")):
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["provenance"]["cache"]["status"] == status
    assert "flaghg.runners" in miss.stderr.split()
    loaded = set(hit.stderr.split())
    assert sorted(m for m in loaded if m.partition(".")[0] == "flaghg") == \
        HIT_MODULES
    assert loaded & NOT_ON_THE_HIT_PATH == set()


# a plain tableaux miss enumerates and counts, with no algebra; --explain
# adds the normal ledgers, which need fixedlocus
@pytest.mark.parametrize("explain, modules", [
    (False, ["flaghg", "flaghg.cli", "flaghg.errors", "flaghg.runners",
             "flaghg.spec", "flaghg.tableaux"]),
    (True, ["flaghg", "flaghg.algebra", "flaghg.cli", "flaghg.errors",
            "flaghg.fixedlocus", "flaghg.runners", "flaghg.spec",
            "flaghg.tableaux"]),
], ids=["plain", "explain"])
def test_tableaux_miss_without_site_loads_no_algebra(tmp_path, explain,
                                                      modules):
    argv = ["tableaux", "--n", "4", "--ranks", "1,2", "--degrees", "1,1",
            "--json", "--cache-dir", str(tmp_path)]
    proc = _python(["-S", "-c", _MAIN_THEN_MODULES,
                    *argv, *["--explain"] * explain])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["provenance"]["cache"]["status"] == "miss"
    assert ("general_components" in report["results"]) == explain
    loaded = proc.stderr.split()
    assert sorted(m for m in loaded if m.partition(".")[0] == "flaghg") == \
        modules
    # the engine modules import typing; nothing a plain miss runs does
    assert ("typing" in loaded) == explain


def test_integral_prints_coefficients_past_the_int_digit_limit(tmp_path):
    # P^1 in degree 1000 has coefficients past the 4300 digits that
    # str(int) allows by default since Python 3.10.7
    proc = _python(["-m", "flaghg", "integral", "--n", "2", "--ranks", "1",
                    "--degrees", "1000", "--json", "--cache-dir",
                    str(tmp_path)])
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)["results"]
    assert max(map(len, re.findall(r"\d+", json.dumps(results)))) > 4300


def test_importing_the_package_loads_no_submodule():
    proc = _python(["-c", "import sys, flaghg\n"
                          "print(*sorted(m for m in sys.modules\n"
                          "      if m.partition('.')[0] == 'flaghg'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["flaghg"]
