"""The job mix of each workload, generated from the seed, with exact checks.

A job is one call into the engine (or one `flaghg` command line).  The
seed picks each job's `lambda_seed` and, for the `classes` workload, the
block-symmetric integrands; the pass order is drawn from the same seed by
the runner.  Only these generated inputs reach the program.

Every check is exact.  A job passes when its two routes agree (where it
has two) and its lambda-independent output hashes to the digest recorded
in `expected.json`.  Outputs that depend on the seed (the generated
integrands and `oracle-compare` reports) are checked by route agreement
alone.  Engine functions are always reached through their module, so a
traced run sees the wrapped binding.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from flaghg import fixedlocus, mirror, pushforward, tableaux
from flaghg.algebra import Poly, RatFun, y
from flaghg.tableaux import FlagSpec

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Job:
    """`run` does the timed work; `judge` maps its output to
    (routes agree, lambda-independent output or None)."""

    name: str
    run: Callable[[], object]
    judge: Callable[[object], tuple[bool, object]]


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def passes_check(job: Job, out, expected: dict) -> bool:
    agree, stable = job.judge(out)
    return agree and (stable is None or digest(stable) == expected[job.name])


def _spec_label(spec: FlagSpec) -> str:
    ranks = ",".join(map(str, spec.ranks))
    degrees = ",".join(map(str, spec.degrees))
    return f"Fl({ranks};C^{spec.n}) d=({degrees})"


def _integral_job(spec, lambda_seed: int) -> Job:
    def judge(result):
        data = result.to_json()
        del data["lambda_seed"]
        return True, data

    return Job(f"integral {_spec_label(spec)}",
               lambda: mirror.integral_Id(spec, lambda_seed=lambda_seed),
               judge)


def _hori_vafa_job(n: int, r: int, max_degree: int, lambda_seed: int) -> Job:
    def judge(report):
        return report.ok, report.to_json()

    return Job(f"hori_vafa_verify({n},{r},{max_degree})",
               lambda: mirror.hori_vafa_verify(n, r, max_degree,
                                               lambda_seed=lambda_seed),
               judge)


def _hg_job(n: int, r: int, d: int) -> Job:
    # grassmannian_hg_term raises unless its two routes agree
    return Job(f"grassmannian_hg_term({n},{r},{d})",
               lambda: mirror.grassmannian_hg_term(n, r, d),
               lambda cls: (True, cls.to_json()))


def _euler_job(spec) -> Job:
    def run():
        rows = []
        for t in tableaux.enumerate_tableaux(spec):
            roots = fixedlocus.canonical_roots(
                tableaux.block_decomposition(t))
            via_ledger = fixedlocus.euler_class_from_ledger(
                fixedlocus.normal_ledger(t), roots)
            via_closed = fixedlocus.euler_class_closed_form(t, roots)
            rows.append((t.rows, via_ledger, via_closed))
        return rows

    def judge(rows):
        agree = all(a == b for _, a, b in rows)
        return agree, [[list(map(list, r)), a.to_json()] for r, a, _ in rows]

    return Job(f"euler classes {_spec_label(spec)}", run, judge)


def _block_symmetric_integrand(t, rng: random.Random) -> RatFun:
    """A product of complete homogeneous polynomials, one per block, whose
    total degree is the component dimension, so the integral can be
    non-zero."""
    blocks = tableaux.block_decomposition(t)
    refs = [(i, j) for i in range(1, blocks.levels + 1)
            for j in range(1, blocks.K(i) + 1)]
    left = tableaux.component_dimension(t)
    p = Poly.const(rng.randint(1, 3))
    for index, (i, j) in enumerate(refs):
        k = left if index == len(refs) - 1 else rng.randint(0, left)
        left -= k
        letters = [y(i, j, s) for s in range(1, blocks.m(i, j) + 1)]
        p = p * pushforward.complete_homogeneous(k, letters)
    return RatFun.from_poly(p)


def _tower_oracle_job(spec, lambda_seed: int, rng: random.Random) -> Job:
    cases = [(t, _block_symmetric_integrand(t, rng))
             for t in tableaux.enumerate_tableaux(spec)]
    lam = pushforward.lam_vector(spec.n, lambda_seed)

    def run():
        return [
            (pushforward.ab_integrate(t, f, lam, seed=lambda_seed,
                                      check_symmetry=False),
             pushforward.integrate_to_point(f, pushforward.tableau_tower(t)))
            for t, f in cases
        ]

    return Job(f"tower vs oracle {_spec_label(spec)}", run,
               lambda pairs: (all(a == b for a, b in pairs), None))


# Degree 0 takes the polynomial-integrand path (Poly.substitute); positive
# degree takes the rational path (ratfun_sum / ratfun_normalize).
INTEGRAL_SPECS = (
    FlagSpec(4, (1, 2, 3), (0, 0, 0)),
    FlagSpec(5, (2, 3), (0, 0)),
    FlagSpec(5, (1, 3), (0, 0)),
    FlagSpec(5, (1, 4), (0, 0)),
    FlagSpec(4, (2,), (2,)),
    FlagSpec(4, (2,), (3,)),
    FlagSpec(5, (2,), (2,)),
    FlagSpec(4, (1, 2), (1, 2)),
)
HORI_VAFA = ((4, 2, 2), (4, 2, 1))
HG_TERMS = ((5, 3, 2), (6, 3, 2), (7, 2, 3), (5, 2, 4), (6, 2, 3))
EULER_SPECS = (
    FlagSpec(5, (2,), (2,)),
    FlagSpec(4, (2,), (2,)),
    FlagSpec(4, (1, 2), (1, 2)),
)
TOWER_SPECS = (
    FlagSpec(5, (2,), (2,)),
    FlagSpec(4, (2,), (3,)),
    FlagSpec(5, (1, 2), (1, 0)),
    FlagSpec(4, (1, 3), (1, 1)),
)

CLI_COMMANDS = (
    "tableaux --n 14 --ranks 7 --degrees 2",
    "tableaux --n 10 --ranks 3,6 --degrees 1,1",
    "euler --n 4 --ranks 1,2 --degrees 1,2 --explain",
    "integral --n 4 --ranks 2 --degrees 2 --json",
    "hg --n 5 --ranks 2 --max-degree 3",
    "hori-vafa --n 4 --ranks 2 --max-degree 2",
    "oracle-compare --n 4 --ranks 1,2 --degrees 1,1",
)
# oracle-compare reports the seed's random integrands, so only the
# agreement of its routes is checked
SEED_DEPENDENT_COMMANDS = {"oracle-compare"}


def _lambda_seed(rng: random.Random) -> int:
    return rng.randrange(1000)


def integrals_jobs(seed: int, inputs: int) -> list[Job]:
    """Input set `inputs` of the seed: a fresh lambda_seed per job."""
    rng = random.Random(f"integrals/{seed}/{inputs}")
    jobs = [_integral_job(spec, _lambda_seed(rng)) for spec in INTEGRAL_SPECS]
    jobs += [_hori_vafa_job(*args, _lambda_seed(rng)) for args in HORI_VAFA]
    return jobs


def classes_jobs(seed: int, inputs: int) -> list[Job]:
    """Input set `inputs` of the seed: fresh integrands and lambda_seeds."""
    rng = random.Random(f"classes/{seed}/{inputs}")
    jobs = [_hg_job(*args) for args in HG_TERMS]
    jobs += [_euler_job(spec) for spec in EULER_SPECS]
    jobs += [_tower_oracle_job(spec, _lambda_seed(rng), rng)
             for spec in TOWER_SPECS]
    return jobs


def cli_argvs(seed: int) -> list[list[str]]:
    """One argv per command, each with its own `--lambda-seed`."""
    rng = random.Random(f"cli_warm/{seed}")
    return [command.split() + ["--lambda-seed", str(_lambda_seed(rng))]
            for command in CLI_COMMANDS]


def cli_results_bytes(argv: list[str], stdout: str) -> tuple[str, str]:
    """(cache status, the report's results as bytes) from one CLI report.

    A JSON report carries both as fields; a text report names the status
    on its second line and renders the results below it.
    """
    if "--json" in argv:
        report = json.loads(stdout)
        results = json.dumps(report["results"], sort_keys=True,
                             separators=(",", ":"))
        return report["provenance"]["cache"]["status"], results
    lines = stdout.split("\n")
    status = lines[1].rsplit("cache=", 1)[1]
    return status, "\n".join(lines[2:])


WORKLOAD_JOBS = {"integrals": integrals_jobs, "classes": classes_jobs}
