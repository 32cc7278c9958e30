"""Command-line front end: job parsing, cached dispatch, stable reports.

Reports are canonical JSON (or a text rendering of the same data) and are
byte-identical across runs with the same job and seed.  Results and work
counters are cached content-addressed under a key derived from the job
fields the command reads, the engine version and a digest of the package
source.
"""

import argparse
import errno
import functools
import hashlib
import json
import os
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__
from .errors import DEFAULT_COSET_BUDGET, FlagHGError, UsageError
from .spec import FlagSpec

# A cache hit loads only this module, `errors` and `spec`.  The runners and
# the engine they call live in `runners`, which a miss imports.  The records
# here are plain namedtuples: `typing.NamedTuple` would load `typing`, and a
# dataclass `dataclasses` with `inspect`, each costing a hit more than its
# own work.  Nor is there a `from __future__ import annotations`, so the
# annotations below are evaluated, which Python 3.10 supports.


class JobSpec(namedtuple("JobSpec", (
        "command", "spec", "max_degree", "lambda_seed", "coset_budget",
        "output_format", "explain", "cache_dir"))):
    __slots__ = ()

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


# Everything the command line knows about one command but its runner,
# which `runners.RUNNERS` holds under the same name:
# - key_fields: the job fields the runner reads besides the spec; the cache
#   key covers only these, so a flag the command ignores never splits entries
# - routes: the report's provenance.routes
# - min_degree: the lowest --max-degree
# - grassmannian: (lowest rank, message) of a command that needs one
# - verdict: a results field whose false value means exit 3
Command = namedtuple("Command", (
    "key_fields", "routes", "min_degree", "grassmannian", "verdict"),
    defaults=(None, None, None))


COMMANDS = {
    "tableaux": Command(("explain",), ("enumeration",)),
    "euler": Command(("explain",), ("ledger", "closed-form")),
    "integral": Command(("lambda_seed", "explain"), ("fixed-point-oracle",)),
    "hg": Command(
        ("max_degree", "coset_budget"),
        ("tableau-sum", "simplified-display"), min_degree=0,
        grassmannian=(1, "hg requires a Grassmannian (a single rank)")),
    "hori-vafa": Command(
        ("max_degree", "lambda_seed", "coset_budget"),
        ("tableau-sum", "simplified-display", "antisymmetrization"),
        min_degree=1, verdict="ok",
        grassmannian=(2, "hori-vafa requires a Grassmannian with rank >= 2")),
    "oracle-compare": Command(
        ("lambda_seed", "coset_budget"),
        ("fixed-point-oracle", "fibration-tower"), verdict="all_equal"),
}


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's source files, read once per process;
    the modules a hit never imports count too, so a changed runner or
    engine module never serves its old results."""
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
        import tempfile

        from .runners import RUNNERS, work_counters

        results = RUNNERS[job.command](job)
        work = work_counters(job)
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
    # a report's coefficients may have more digits than str(int) allows
    # since 3.10.7; the command line was parsed under that limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
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
