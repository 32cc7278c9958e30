"""Command-line front end: job parsing, cached dispatch, stable reports.

Reports are canonical JSON (or a text rendering of the same data) and are
byte-identical across runs with the same job and seed.  Results and work
counters are cached content-addressed under a key derived from the job
fields the command reads, the engine version and a digest of the package
source.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .errors import (DEFAULT_COSET_BUDGET, FlagHGError, FormulaMismatchError,
                     UsageError)
from .tableaux import (FlagSpec, component_dimension,
                       enumerate_general_components, enumerate_tableaux,
                       general_component_dimension, hquot_dimension)

# The engine modules (algebra, fixedlocus, mirror, pushforward) are imported
# inside the runners and _work_counters, so a cache hit never loads them.
# The records here are NamedTuples, and those of tableaux slotted classes,
# because `dataclasses` (with `inspect`) costs a hit more than its own work.


class JobSpec(NamedTuple):
    command: str
    spec: FlagSpec
    max_degree: int
    lambda_seed: int
    coset_budget: int
    output_format: str
    explain: bool
    cache_dir: str | None

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "spec": self.spec.to_json(),
            "max_degree": self.max_degree,
            "lambda_seed": self.lambda_seed,
            "coset_budget": self.coset_budget,
            "explain": self.explain,
            "output_format": self.output_format,
        }


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list")


def parse_job(argv, env=None) -> JobSpec:
    """Validate command-line arguments into a JobSpec; every usage rule
    is checked here, before the cache is touched."""
    env = dict(env or {})
    parser = argparse.ArgumentParser(prog="flaghg", add_help=True)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--ranks", type=str, required=True)
    parser.add_argument("--degrees", type=str, default=None)
    parser.add_argument("--max-degree", type=int, default=1)
    parser.add_argument("--lambda-seed", type=int, default=0)
    parser.add_argument("--coset-budget", type=int,
                        default=DEFAULT_COSET_BUDGET)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--explain", action="store_true")
    parser.add_argument("--cache-dir", type=str, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help printed the usage text
            raise
        raise UsageError("bad command line")
    ranks = _parse_int_list(args.ranks, "--ranks")
    if args.degrees is None:
        degrees = (0,) * len(ranks)
    else:
        degrees = _parse_int_list(args.degrees, "--degrees")
    try:
        spec = FlagSpec(args.n, ranks, degrees)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.coset_budget < 0:
        raise UsageError("--coset-budget must be non-negative")
    command = COMMANDS[args.command]
    floor = command.min_degree
    if floor is not None and args.max_degree < floor:
        raise UsageError(f"{args.command} needs --max-degree >= {floor}")
    if command.grassmannian is not None:
        min_rank, message = command.grassmannian
        if spec.levels != 1 or spec.ranks[0] < min_rank:
            raise UsageError(message)
        # the degrees come from --max-degree; a non-zero --degrees would
        # split the cache and count tableaux the command never reads
        if any(spec.degrees):
            raise UsageError(f"{args.command} takes no --degrees")
    return JobSpec(
        command=args.command,
        spec=spec,
        max_degree=args.max_degree,
        lambda_seed=args.lambda_seed,
        coset_budget=args.coset_budget,
        output_format="json" if args.json else "text",
        explain=args.explain,
        cache_dir=args.cache_dir or env.get("FLAGHG_CACHE"),
    )


def _run_tableaux(job: JobSpec) -> dict:
    from .fixedlocus import normal_ledger

    spec = job.spec
    rows = []
    for t in enumerate_tableaux(spec):
        entry = {
            "alpha": [list(r) for r in t.rows],
            "dimension": component_dimension(t),
        }
        if job.explain:
            entry["normal_ledger"] = normal_ledger(t).to_json()
        rows.append(entry)
    out = {
        "hquot_dimension": hquot_dimension(spec),
        "count": len(rows),
        "tableaux": rows,
    }
    if job.explain:
        general = enumerate_general_components(spec)
        out["general_components"] = {
            "count": len(general),
            "entries": [
                {
                    "alpha": [list(r) for r in a.rows],
                    "beta": [list(r) for r in b.rows],
                    "dimension": general_component_dimension(a, b),
                }
                for a, b in general
            ],
        }
    return out


def _run_euler(job: JobSpec) -> dict:
    from .fixedlocus import (canonical_roots, euler_product_closed_form,
                             euler_product_from_ledger, normal_ledger)

    spec = job.spec
    rows = []
    for t in enumerate_tableaux(spec):
        ledger = normal_ledger(t)
        roots = canonical_roots(t)
        # canonical factors with net exponents: equal products are equal
        # classes, so only the reported one is multiplied out
        via_ledger = euler_product_from_ledger(ledger, roots)
        if via_ledger != euler_product_closed_form(t, roots):
            raise FormulaMismatchError(
                f"Euler class routes disagree on {t.rows}")
        entry = {
            "alpha": [list(r) for r in t.rows],
            "codimension": hquot_dimension(spec) - component_dimension(t),
            "euler_class": via_ledger.to_ratfun().to_json(),
        }
        if job.explain:
            entry["normal_ledger"] = ledger.to_json()
        rows.append(entry)
    return {"count": len(rows), "classes": rows}


def _run_integral(job: JobSpec) -> dict:
    from .fixedlocus import normal_ledger
    from .mirror import integral_Id

    result = integral_Id(job.spec, lambda_seed=job.lambda_seed)
    data = result.to_json()
    out = {
        "value": result.value.to_text(),
        "t_poly": data["t_poly"],
    }
    if job.explain:
        out["per_tableau"] = data["per_tableau"]
        out["ledgers"] = {
            repr([list(r) for r in t.rows]): normal_ledger(t).to_json()
            for t, _ in result.per_tableau
        }
    return out


def _run_hg(job: JobSpec) -> dict:
    from .mirror import grassmannian_hg_term

    spec = job.spec
    terms = []
    for d in range(job.max_degree + 1):
        cls = grassmannian_hg_term(spec.n, spec.ranks[0], d,
                                   job.coset_budget)
        terms.append({"d": d, "class": cls.to_json()})
    return {"schema": "flaghg/hgseries-v1", "spec": spec.to_json(),
            "truncation": job.max_degree, "terms": terms}


def _run_hori_vafa(job: JobSpec) -> dict:
    from .mirror import hori_vafa_verify

    spec = job.spec
    return hori_vafa_verify(spec.n, spec.ranks[0], job.max_degree,
                            lambda_seed=job.lambda_seed,
                            budget=job.coset_budget).to_json()


def _run_oracle_compare(job: JobSpec) -> dict:
    from .algebra import Poly, RatFun
    from .pushforward import (ab_integrate, complete_homogeneous,
                              integrate_to_point, lam_vector, tableau_tower)

    spec = job.spec
    lam = lam_vector(spec.n, job.lambda_seed)
    rows = []
    all_equal = True
    for index, t in enumerate(enumerate_tableaux(spec)):
        rng = random.Random(job.lambda_seed * 7919 + index)
        cases = []
        dim = component_dimension(t)
        for trial in range(3):
            p = Poly.const(1)
            degree = 0
            for i in range(1, t.levels + 1):
                for j in range(1, t.K(i) + 1):
                    k = rng.randint(0, max(0, min(2, dim - degree)))
                    degree += k
                    p = p * complete_homogeneous(k, t.letters(i, j))
            f = RatFun.from_poly(p)
            via_oracle = ab_integrate(t, f, lam, seed=job.lambda_seed,
                                      check_symmetry=False)
            via_tower = integrate_to_point(f, tableau_tower(t),
                                           job.coset_budget)
            equal = via_oracle == via_tower
            all_equal = all_equal and equal
            cases.append({
                "trial": trial,
                "integrand": p.to_text(),
                "oracle": via_oracle.to_text(),
                "tower": via_tower.to_text(),
                "equal": equal,
            })
        rows.append({
            "alpha": [list(r) for r in t.rows],
            "cases": cases,
        })
    return {"all_equal": all_equal, "tableaux": rows}


class Command(NamedTuple):
    """Everything the command line knows about one command."""

    run: Callable[[JobSpec], dict]
    # the job fields the runner reads besides the spec; the cache key
    # covers only these, so a flag the command ignores never splits entries
    key_fields: tuple[str, ...]
    routes: tuple[str, ...]
    min_degree: int | None = None  # the lowest --max-degree
    # (lowest rank, message) of a command that needs a Grassmannian
    grassmannian: tuple[int, str] | None = None
    verdict: str | None = None  # a results field; false means exit 3


COMMANDS = {
    "tableaux": Command(_run_tableaux, ("explain",), ("enumeration",)),
    "euler": Command(_run_euler, ("explain",), ("ledger", "closed-form")),
    "integral": Command(_run_integral, ("lambda_seed", "explain"),
                        ("fixed-point-oracle",)),
    "hg": Command(
        _run_hg, ("max_degree", "coset_budget"),
        ("tableau-sum", "simplified-display"), min_degree=0,
        grassmannian=(1, "hg requires a Grassmannian (a single rank)")),
    "hori-vafa": Command(
        _run_hori_vafa, ("max_degree", "lambda_seed", "coset_budget"),
        ("tableau-sum", "simplified-display", "antisymmetrization"),
        min_degree=1, verdict="ok",
        grassmannian=(2, "hori-vafa requires a Grassmannian with rank >= 2")),
    "oracle-compare": Command(
        _run_oracle_compare, ("lambda_seed", "coset_budget"),
        ("fixed-point-oracle", "fibration-tower"), verdict="all_equal"),
}


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's source files, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cache_key(job: JobSpec) -> str:
    identity = {"command": job.command, "spec": job.spec.to_json()}
    for field in COMMANDS[job.command].key_fields:
        identity[field] = getattr(job, field)
    payload = {"job": identity, "engine": __version__,
               "source": _source_digest()}
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def run_and_report(job: JobSpec) -> dict:
    """Dispatch a job through the cache and assemble the report."""
    key = cache_key(job)
    cache_dir = (Path(job.cache_dir) if job.cache_dir
                 else Path.home() / ".cache" / "flaghg")
    cache_file = cache_dir / f"{key}.json"
    command = COMMANDS[job.command]
    cache_status = "miss"
    warning = None
    try:
        stored = json.loads(cache_file.read_text())
        if not isinstance(stored, dict) or stored.get("key") != key:
            raise ValueError("not an entry for this key")
        results, work = stored["results"], stored["work"]
        if not isinstance(results, dict) or (
                command.verdict and command.verdict not in results):
            raise ValueError("no results object for this command")
        if not isinstance(work, dict) or not all(
                type(work.get(field)) is int
                for field in ("tableaux", "fixed_points")):
            raise ValueError("no work counters")
        cache_status = "hit"
    except (OSError, ValueError, KeyError) as exc:
        # no entry, or no path to one, is a plain miss
        if getattr(exc, "errno", None) not in (
                errno.ENOENT, errno.ENOTDIR, errno.ENAMETOOLONG):
            warning = "cache entry was corrupt and has been bypassed"
    if cache_status == "miss":
        results = command.run(job)
        work = _work_counters(job)
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            # a concurrent reader sees the old entry or the whole new one
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as out:
                    out.write(_canonical_json({"key": key,
                                               "results": results,
                                               "work": work}))
                os.replace(tmp, cache_file)
            except OSError:
                Path(tmp).unlink(missing_ok=True)
                raise
        except OSError:
            # a directory at the entry's path fails both the read and the
            # replace; the warning names the first fault
            warning = warning or "cache directory is not writable"
    provenance = {
        "engine_version": __version__,
        "seed": job.lambda_seed,
        "routes": list(command.routes),
        "work": work,
        "cache": {"key": key, "status": cache_status},
    }
    if warning:
        provenance["warning"] = warning
    return {
        "schema": "flaghg/report-v1",
        "job": job.to_json(),
        "results": results,
        "provenance": provenance,
    }


def _work_counters(job: JobSpec) -> dict:
    """Stored in the cache entry, so a hit never recounts."""
    from .fixedlocus import fixed_point_count

    tableaux = enumerate_tableaux(job.spec)
    return {
        "tableaux": len(tableaux),
        "fixed_points": sum(fixed_point_count(t) for t in tableaux),
    }


def _render_text(report: dict) -> str:
    lines = []
    job = report["job"]
    lines.append(f"flaghg {job['command']} "
                 f"n={job['spec']['n']} ranks={job['spec']['ranks']} "
                 f"degrees={job['spec']['degrees']}")
    lines.append(f"seed={job['lambda_seed']} "
                 f"cache={report['provenance']['cache']['status']}")
    results = report["results"]

    def walk(value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(item, indent + 1)
                else:
                    lines.append(f"{pad}- {item}")

    walk(results, 1)
    return "\n".join(lines) + "\n"


def format_report(report: dict, output_format: str) -> str:
    if output_format == "json":
        return _canonical_json(report) + "\n"
    return _render_text(report)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        job = parse_job(argv, os.environ)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_and_report(job)
    except FlagHGError as exc:
        print(f"computation error [{job.command}]: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(format_report(report, job.output_format))
    verdict = COMMANDS[job.command].verdict
    return 3 if verdict and not report["results"][verdict] else 0


if __name__ == "__main__":
    sys.exit(main())
