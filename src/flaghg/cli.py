"""Command-line front end: job parsing, cached dispatch, stable reports.

Reports are canonical JSON (or a text rendering of the same data) and are
byte-identical across runs with the same job and seed.  Results and work
counters are cached content-addressed under a key derived from the job
fields the command reads, the engine version and a digest of the package
source.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import (DEFAULT_COSET_BUDGET, FlagHGError, FormulaMismatchError,
                     UsageError)
from .tableaux import (FlagSpec, block_decomposition, component_dimension,
                       enumerate_general_components, enumerate_tableaux,
                       general_component_dimension, hquot_dimension)

# The engine modules (algebra, fixedlocus, mirror, pushforward) are imported
# inside the runners and _work_counters, so a cache hit never loads them.

COMMANDS = ("tableaux", "euler", "integral", "hg", "hori-vafa",
            "oracle-compare")


@dataclass
class JobSpec:
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
    """Validate command-line arguments into a JobSpec."""
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
    except SystemExit:
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
    min_degree = {"hg": 0, "hori-vafa": 1}.get(args.command)
    if min_degree is not None and args.max_degree < min_degree:
        raise UsageError(
            f"{args.command} needs --max-degree >= {min_degree}")
    cache_dir = args.cache_dir or env.get("FLAGHG_CACHE")
    return JobSpec(
        command=args.command,
        spec=spec,
        max_degree=args.max_degree,
        lambda_seed=args.lambda_seed,
        coset_budget=args.coset_budget,
        output_format="json" if args.json else "text",
        explain=args.explain,
        cache_dir=cache_dir,
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
    from .fixedlocus import (canonical_roots, euler_class_closed_form,
                             euler_class_from_ledger, normal_ledger)

    spec = job.spec
    rows = []
    for t in enumerate_tableaux(spec):
        ledger = normal_ledger(t)
        roots = canonical_roots(block_decomposition(t))
        via_ledger = euler_class_from_ledger(ledger, roots)
        via_closed = euler_class_closed_form(t, roots)
        if via_ledger != via_closed:
            raise FormulaMismatchError(
                f"Euler class routes disagree on {t.rows}")
        entry = {
            "alpha": [list(r) for r in t.rows],
            "codimension": hquot_dimension(spec) - component_dimension(t),
            "euler_class": via_ledger.to_json(),
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
    if spec.levels != 1:
        raise UsageError("hg requires a Grassmannian (a single rank)")
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
    if spec.levels != 1 or spec.ranks[0] < 2:
        raise UsageError("hori-vafa requires a Grassmannian with rank >= 2")
    report = hori_vafa_verify(spec.n, spec.ranks[0], job.max_degree,
                              lambda_seed=job.lambda_seed,
                              budget=job.coset_budget)
    return report.to_json()


def _run_oracle_compare(job: JobSpec) -> dict:
    from .algebra import Poly, RatFun
    from .pushforward import (ab_integrate, complete_homogeneous,
                              integrate_to_point, lam_vector, tableau_tower)

    spec = job.spec
    lam = lam_vector(spec.n, job.lambda_seed)
    rows = []
    all_equal = True
    for index, t in enumerate(enumerate_tableaux(spec)):
        blocks = block_decomposition(t)
        rng = random.Random(job.lambda_seed * 7919 + index)
        cases = []
        dim = component_dimension(t)
        for trial in range(3):
            p = Poly.const(1)
            degree = 0
            for i in range(1, blocks.levels + 1):
                for j in range(1, blocks.K(i) + 1):
                    k = rng.randint(0, max(0, min(2, dim - degree)))
                    degree += k
                    p = p * complete_homogeneous(k, blocks.letters(i, j))
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


_RUNNERS = {
    "tableaux": _run_tableaux,
    "euler": _run_euler,
    "integral": _run_integral,
    "hg": _run_hg,
    "hori-vafa": _run_hori_vafa,
    "oracle-compare": _run_oracle_compare,
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


# The job fields each command's runner reads besides the spec; the cache
# key covers only these, so a flag the command ignores never splits entries.
_KEY_FIELDS = {
    "tableaux": ("explain",),
    "euler": ("explain",),
    "integral": ("lambda_seed", "explain"),
    "hg": ("max_degree", "coset_budget"),
    "hori-vafa": ("max_degree", "lambda_seed", "coset_budget"),
    "oracle-compare": ("lambda_seed", "coset_budget"),
}


def cache_key(job: JobSpec) -> str:
    identity = {"command": job.command, "spec": job.spec.to_json()}
    for field in _KEY_FIELDS[job.command]:
        identity[field] = getattr(job, field)
    payload = {"job": identity, "engine": __version__,
               "source": _source_digest()}
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "flaghg"


def run_and_report(job: JobSpec) -> dict:
    """Dispatch a job through the cache and assemble the report."""
    key = cache_key(job)
    cache_dir = Path(job.cache_dir) if job.cache_dir else _default_cache_dir()
    cache_file = cache_dir / f"{key}.json"
    cache_status = "miss"
    warning = None
    if cache_file.exists():
        try:
            stored = json.loads(cache_file.read_text())
            if not isinstance(stored, dict) or stored.get("key") != key:
                raise ValueError("not an entry for this key")
            results, work = stored["results"], stored["work"]
            cache_status = "hit"
        except (OSError, ValueError, KeyError):
            warning = "cache entry was corrupt and has been bypassed"
    if cache_status == "miss":
        results = _RUNNERS[job.command](job)
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
        "routes": _routes_for(job.command),
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


def _routes_for(command: str) -> list[str]:
    return {
        "tableaux": ["enumeration"],
        "euler": ["ledger", "closed-form"],
        "integral": ["fixed-point-oracle"],
        "hg": ["tableau-sum", "simplified-display"],
        "hori-vafa": ["tableau-sum", "simplified-display",
                      "antisymmetrization"],
        "oracle-compare": ["fixed-point-oracle", "fibration-tower"],
    }[command]


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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FlagHGError as exc:
        print(f"computation error [{job.command}]: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(format_report(report, job.output_format))
    if job.command == "hori-vafa" and not report["results"]["ok"]:
        return 3
    if job.command == "oracle-compare" and not report["results"]["all_equal"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
