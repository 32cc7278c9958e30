"""Record the digests of every lambda-independent output in expected.json.

Usage: python3 bench/record_digests.py

Run it on a commit whose outputs are known to be right.  run.py checks
every later run against these digests: integral values, Hori-Vafa
reports, hypergeometric classes, Euler classes, and the results of each
`cli_warm` command except `oracle-compare`, whose report shows the seed's
random integrands.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    jobs = run._import_engine()
    expected = {}
    for make in jobs.WORKLOAD_JOBS.values():
        for job in make(0, 0):
            agree, stable = job.judge(job.run())
            if not agree:
                run._fail(f"routes disagree on {job.name}")
            if stable is not None:
                expected[job.name] = jobs.digest(stable)
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    try:
        home = workdir / "home"
        home.mkdir()
        env = run._child_env(home)
        for argv in jobs.cli_argvs(0):
            if argv[0] in jobs.SEED_DEPENDENT_COMMANDS:
                continue
            code, out, _, _ = run.spawn(
                [sys.executable, "-m", "flaghg", *argv,
                 "--cache-dir", str(workdir / "cache")],
                env, workdir, workdir / "child.err")
            if code != 0:
                run._fail(f"{' '.join(argv)} exited with {code}")
            _, results = jobs.cli_results_bytes(argv, out)
            expected[" ".join(argv[:-2])] = jobs.digest(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    jobs.EXPECTED_FILE.write_text(text)
    print(f"recorded {len(expected)} digests in {jobs.EXPECTED_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
