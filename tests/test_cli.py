import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flaghg
from flaghg import cli, fixedlocus, pushforward
from flaghg.cli import (JobSpec, cache_key, format_report, main, parse_job,
                        run_and_report)
from flaghg.errors import UsageError
from flaghg.tableaux import FlagSpec


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


def _job(command, spec, tmp_path, **kwargs):
    return JobSpec(
        command=command,
        spec=spec,
        max_degree=kwargs.get("max_degree", 1),
        lambda_seed=kwargs.get("lambda_seed", 0),
        coset_budget=10080,
        output_format=kwargs.get("output_format", "json"),
        explain=kwargs.get("explain", False),
        cache_dir=str(tmp_path),
    )


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


def test_cache_entry_without_work_is_bypassed_with_warning(tmp_path):
    job = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path)
    first = run_and_report(job)
    key = cache_key(job)
    (tmp_path / f"{key}.json").write_text(
        json.dumps({"key": key, "results": first["results"]}))
    again = run_and_report(job)
    assert again["provenance"]["cache"]["status"] == "miss"
    assert again["provenance"]["warning"] == \
        "cache entry was corrupt and has been bypassed"
    assert again["provenance"]["work"] == first["provenance"]["work"]
    assert run_and_report(job)["provenance"]["cache"]["status"] == "hit"


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

    monkeypatch.setattr(cli, "enumerate_tableaux", refuse)
    monkeypatch.setattr(fixedlocus, "torus_fixed_points", refuse)
    monkeypatch.setattr(pushforward, "torus_fixed_points", refuse)
    second = run_and_report(job)
    assert second["provenance"]["cache"]["status"] == "hit"
    assert second["results"] == first["results"]
    assert second["provenance"]["work"] == first["provenance"]["work"]


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


def test_cache_key_ignores_output_format(tmp_path):
    a = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path,
             output_format="json")
    b = _job("tableaux", FlagSpec(4, (2,), (2,)), tmp_path,
             output_format="text")
    assert cache_key(a) == cache_key(b)


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


def test_main_computation_error_exit_code(tmp_path, capsys):
    code = main(["oracle-compare", "--n", "4", "--ranks", "2", "--degrees",
                 "1", "--coset-budget", "1", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "computation error" in capsys.readouterr().err


def test_main_hg_requires_grassmannian(tmp_path, capsys):
    code = main(["hg", "--n", "4", "--ranks", "1,2", "--cache-dir",
                 str(tmp_path)])
    assert code == 1
    assert "Grassmannian" in capsys.readouterr().err


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
])
def test_reports_do_not_depend_on_hash_seed(tmp_path, argv):
    src = str(Path(flaghg.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("FLAGHG_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "flaghg", *argv,
             "--cache-dir", str(tmp_path / seed)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
