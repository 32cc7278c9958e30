"""flaghg benchmark: three closed-loop workloads and a traced run.

Usage:
    python3 bench/run.py --workload {integrals,classes,cli_warm} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the engine is imported from that
tree's `src/`, never from an installed copy.  One client runs the
workload's job mix in passes, each pass in an order drawn from the seed,
one job after another.  The number of passes is fixed per workload and
scales with `--seconds` (PASSES_AT_25_S), so it is the same on every
commit and host.  Every output is checked exactly (see jobs.py).

`integrals` and `classes` call the engine in this process, with fresh
inputs from the seed on every pass.  `cli_warm` runs `python -m flaghg`
once per job against a private cache directory: three cold passes fill
fresh caches during set-up, then the timed passes read the last one.

The run pins itself and its children to one CPU and scales times to a
reference speed (see ReferenceClock).  With `--trace 0` the last line of
stdout is a JSON object with the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of two traced passes, after untraced passes
that give the tracing overhead.  The lines before it give the run
context, the unscaled times and every metric with its unit; a traced run
also writes its spans and per-job work counts under `.bench_out/`.  Exit
status is 2, with no result line, when the tree has no `src/flaghg`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import reference_work

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("integrals", "classes", "cli_warm")
SETUP_PROBES = 9      # interpreter start + import + inputs, per run
SETUP_WARMUPS = 2     # unmeasured probes first: the first ones run slow
COLD_PASSES = 3       # cold cache fills per cli_warm run
TRACED_PASSES = 2     # traced passes on the same inputs; counts must agree


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_engine():
    """Import flaghg from this tree's src/ and prove it came from there."""
    if not (SRC / "flaghg" / "__init__.py").is_file():
        _fail(f"no source tree: {SRC / 'flaghg'} is missing")
    sys.path.insert(0, str(SRC))
    import flaghg
    if not Path(flaghg.__file__).resolve().is_relative_to(SRC):
        _fail(f"flaghg imported from {flaghg.__file__}, not from {SRC}")
    import jobs
    return jobs


# ---------------------------------------------------------------- timing


IN_PROCESS_REFERENCE_S = 0.045   # nominal time of reference_work()
SPAWNED_REFERENCE_S = 0.125      # nominal time of a reference.py child
READING_GAP_S = 1.0              # least time between readings after jobs
WALL_CAP = 2.5                   # no pass may end after this many --seconds

# Passes per run at --seconds 25, scaled in proportion to --seconds.  A
# fixed count keeps the sample count, and with it the rank of the mix
# that `job_s_tail` picks, the same on every commit; stopping on time
# would let a faster engine's extra pass move the tail to another job.
# One pass takes about 5.7, 3.2 and 2.1 s of scaled time at the seed
# commit.  `integrals` gets the most time because its job times vary the
# most between weight draws; `classes` is deterministic but for four jobs.
PASSES_AT_25_S = {"integrals": 5, "classes": 7, "cli_warm": 12}


class ReferenceClock:
    """Scales timed intervals to the machine's speed around them.

    On a shared host the same job's wall time swings by a third over tens
    of seconds while other tenants load the CPU, and the CPU time swings
    with it.  A fixed reference (reference.py) slows down alike.  A
    reading of it is taken after a timed interval, at most one every
    READING_GAP_S.  Each interval is scaled by the nominal reference time
    over the median of the two readings before it and the two after it.
    Jobs in this process are scaled by the reference run in this process;
    jobs in child processes by the reference run as a child, which also
    pays for interpreter start-up.  The reference never calls the engine,
    so a faster engine still shows as a shorter time.
    """

    def __init__(self, probe, nominal_s: float,
                 gap_s: float = READING_GAP_S):
        self.probe = probe
        self.nominal_s = nominal_s
        self.gap_s = gap_s
        self.reference_s = [probe()]
        self.last = time.perf_counter()

    def mark(self) -> int:
        """After an interval: take a reading if the gap allows; return the
        index of the last reading taken before the interval."""
        if time.perf_counter() - self.last < self.gap_s:
            return len(self.reference_s) - 1
        self.reference_s.append(self.probe())
        self.last = time.perf_counter()
        return len(self.reference_s) - 2

    def scale(self, wall: float, index: int) -> float:
        around = self.reference_s[max(0, index - 1):index + 3]
        return wall * self.nominal_s / statistics.median(around)


def _in_process_reading() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def spawned_clock(env: dict, workdir: Path,
                  gap_s: float = READING_GAP_S) -> ReferenceClock:
    argv = [sys.executable, str(BENCH / "reference.py")]
    return ReferenceClock(
        lambda: spawn(argv, env, workdir, workdir / "reference.err")[2],
        SPAWNED_REFERENCE_S, gap_s)


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), and its value; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = (100 * (n - 10)) // n
    return p, ordered[math.ceil(p * n / 100) - 1]


def per_job_medians(times: list[float], jobs: list[int]) -> list[float]:
    """Each sample replaced by the median of its job's samples.

    The mix is fixed, so its percentiles should pick a job of the mix;
    taking each job's median first keeps the host's noise on single
    samples from moving them.  The sample count is unchanged."""
    by_job: dict[int, list[float]] = {}
    for t, k in zip(times, jobs):
        by_job.setdefault(k, []).append(t)
    medians = {k: statistics.median(ts) for k, ts in by_job.items()}
    return [medians[k] for k in jobs]


class Tally:
    """Attempts, failures and job wall times of one phase, each with the
    index of its reference reading."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall_s: list[float] = []
        self.marks: list[int] = []
        self.jobs: list[int] = []
        self.passes = 0

    def record(self, name: str, k: int, wall: float, mark: int,
               ok: bool) -> None:
        self.attempted += 1
        self.wall_s.append(wall)
        self.marks.append(mark)
        self.jobs.append(k)
        if not ok:
            self.failed += 1
            print(f"bench: job failed: {name}", file=sys.stderr)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    def job_s(self, clock: ReferenceClock) -> list[float]:
        return [clock.scale(w, m) for w, m in zip(self.wall_s, self.marks)]

    def jobs_per_s(self, clock: ReferenceClock | None) -> float:
        """Correct jobs over the summed job time, scaled unless no clock."""
        busy = sum(self.job_s(clock) if clock else self.wall_s)
        return (self.attempted - self.failed) / busy


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_25_S[workload] * seconds / 25))


def run_passes(runner, order_rng: random.Random, clock: ReferenceClock,
               passes: int, inputs: int | None = None,
               wall_limit: float = math.inf) -> Tally:
    """Closed loop, one client: `passes` whole passes over the jobs, each
    in seeded order.  No pass starts that would be expected to end after
    `wall_limit` seconds of wall time; that bounds the run on a host far
    slower than the one measured.  Pass p runs input set p, or set
    `inputs` for every pass."""
    tally = Tally()
    njobs = len(runner.names)
    start = time.perf_counter()
    while tally.passes < passes:
        elapsed = time.perf_counter() - start
        if tally.passes and elapsed * (tally.passes + 1) / tally.passes \
                > wall_limit:
            print(f"bench: stopped after {tally.passes} of {passes} passes "
                  f"at {elapsed:.1f} s of wall time", file=sys.stderr)
            break
        runner.prepare(tally.passes if inputs is None else inputs)
        for k in order_rng.sample(range(njobs), njobs):
            wall, ok = runner.run(tally.passes, k)
            tally.record(runner.names[k], k, wall, clock.mark(), ok)
        tally.passes += 1
    return tally


# ---------------------------------------------------------------- runners


class InProcessRunner:
    """Engine calls in this process; `prepare` builds a pass's inputs."""

    def __init__(self, jobs_mod, workload: str, seed: int, expected: dict):
        self.jobs_mod = jobs_mod
        self.make = lambda index: jobs_mod.WORKLOAD_JOBS[workload](seed,
                                                                  index)
        self.jobs = self.make(0)
        self.names = [job.name for job in self.jobs]
        self.expected = expected
        self.recorder = None

    def prepare(self, inputs: int) -> None:
        self.jobs = self.make(inputs)

    def run(self, pass_index: int, k: int) -> tuple[float, bool]:
        job = self.jobs[k]
        start = time.perf_counter()
        try:
            if self.recorder is None:
                out = job.run()
            else:
                self.recorder.job_id = pass_index * len(self.jobs) + k
                try:
                    with self.recorder.span("job"):
                        out = job.run()
                finally:
                    self.recorder.job_id = -1
        except Exception as exc:  # a failed job is counted, not fatal
            print(f"bench: {job.name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return time.perf_counter() - start, False
        wall = time.perf_counter() - start
        return wall, self.jobs_mod.passes_check(job, out, self.expected)


def _child_env(home: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FLAGHG_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["HOME"] = str(home)
    return env


def spawn(argv: list[str], env: dict, cwd: Path, err_path: Path):
    """Run a child to completion: (exit code, stdout, wall s, peak RSS KiB)."""
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=cwd)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


class CliRunner:
    """`python -m flaghg` per job, against a private cache directory."""

    def __init__(self, jobs_mod, seed: int, workdir: Path, expected: dict):
        self.jobs_mod = jobs_mod
        self.argvs = jobs_mod.cli_argvs(seed)
        self.names = [" ".join(a[:-2]) for a in self.argvs]
        self.workdir = workdir
        self.expected = expected
        home = workdir / "home"
        home.mkdir()
        self.env = _child_env(home)
        self.cache_dir: Path | None = None
        self.cold_log: list | None = None
        self.cold_results: list[str] | None = None
        self.want = "miss"
        self.recorder = None
        self.rss_kib: list[int] = []
        self.report_bytes: list[int] = []
        self.statuses: list[str] = []
        self.child_import_s: list[float] = []
        code, out, _, _ = spawn(
            [sys.executable, "-c", "import flaghg; print(flaghg.__file__)"],
            self.env, workdir, workdir / "probe.err")
        if code != 0 or not Path(out.strip()).resolve().is_relative_to(SRC):
            _fail(f"a child imports flaghg from {out.strip()!r}, not {SRC}")

    def prepare(self, inputs: int) -> None:
        pass

    def _command(self, k: int, spans_path: Path | None) -> list[str]:
        tail = self.argvs[k] + ["--cache-dir", str(self.cache_dir)]
        if spans_path is None:
            return [sys.executable, "-m", "flaghg"] + tail
        return [sys.executable, str(BENCH / "cli_child.py"),
                str(spans_path)] + tail

    def run(self, pass_index: int, k: int) -> tuple[float, bool]:
        if self.recorder is None:
            code, out, wall, rss = spawn(self._command(k, None), self.env,
                                         self.workdir,
                                         self.workdir / "child.err")
        else:
            self.recorder.job_id = pass_index * len(self.argvs) + k
            spans_path = self.workdir / "spans.json"
            spans_path.unlink(missing_ok=True)
            with self.recorder.span("job"):
                code, out, wall, rss = spawn(self._command(k, spans_path),
                                             self.env, self.workdir,
                                             self.workdir / "child.err")
                try:
                    child = json.loads(spans_path.read_text())
                except (OSError, ValueError):
                    return wall, False
                self.recorder.extend_from_json(child["spans"],
                                               self.recorder.job_id)
            self.child_import_s.append(child["import_s"])
            if not Path(child["flaghg_file"]).resolve().is_relative_to(SRC):
                return wall, False
        if self.want == "hit":
            self.rss_kib.append(rss)
            self.report_bytes.append(len(out.encode()))
        return wall, self._judge(k, code, out)

    def _judge(self, k: int, code: int, stdout: str) -> bool:
        """Cold: the digest or route check, and the same results as the
        first cold pass.  Warm: a hit with the cold results, byte for byte."""
        name = self.names[k]
        if code != 0:
            print(f"bench: {name}: exit status {code}: "
                  + (self.workdir / "child.err").read_text()[-2000:],
                  file=sys.stderr)
            return False
        try:
            status, results = self.jobs_mod.cli_results_bytes(
                self.argvs[k], stdout)
        except (ValueError, KeyError, IndexError) as exc:
            print(f"bench: {name}: unreadable report: {exc}", file=sys.stderr)
            return False
        self.statuses.append(status)
        if status != self.want:
            print(f"bench: {name}: cache {status}, expected {self.want}",
                  file=sys.stderr)
            return False
        if self.cold_log is not None:
            self.cold_log[k] = results
        if self.cold_results is not None:
            return results == self.cold_results[k]
        command = self.argvs[k][0]
        if command in self.jobs_mod.SEED_DEPENDENT_COMMANDS:
            return "all_equal: True" in results
        if command == "hori-vafa" and "  ok: True" not in results:
            return False
        return self.jobs_mod.digest(results) == self.expected[name]

    def cold_setup(self, order_rng: random.Random, clock: ReferenceClock,
                   tally: Tally) -> float:
        """Fill COLD_PASSES fresh caches; the median scaled pass time."""
        colds = []
        for index in range(COLD_PASSES):
            self.cache_dir = self.workdir / f"cache{index}"
            self.cold_log = [None] * len(self.argvs)
            colds.append(run_passes(self, order_rng, clock, 1))
            tally.add(colds[-1])
            if self.cold_results is None:
                self.cold_results = self.cold_log
        self.cold_log = None
        self.want = "hit"
        self.statuses.clear()
        return statistics.median(sum(cold.job_s(clock)) for cold in colds)

    def cache_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.cache_dir.glob("*.json"))


def in_process_setup_s(workload: str, seed: int, workdir: Path) -> float:
    """Median scaled wall time of fresh interpreters that import the
    engine and generate this seed's first inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    env = _child_env(workdir)
    for _ in range(SETUP_WARMUPS):
        spawn(argv, env, ROOT, workdir / "probe.err")
    clock = spawned_clock(env, workdir, gap_s=0.0)
    probes = []
    for _ in range(SETUP_PROBES):
        code, _, wall, _ = spawn(argv, env, ROOT, workdir / "probe.err")
        if code != 0:
            _fail("set-up probe failed: "
                  + (workdir / "probe.err").read_text()[-2000:])
        probes.append((wall, clock.mark()))
    return statistics.median(clock.scale(w, m) for w, m in probes)


# ---------------------------------------------------------------- context


def _loadavg() -> list[float]:
    try:
        return [float(x)
                for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "flaghg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- measure


def end_to_end(tally: Tally, clock: ReferenceClock, setup_s: float,
               rss_mib: float) -> tuple[dict, dict]:
    mix = per_job_medians(tally.job_s(clock), tally.jobs)
    raw_mix = per_job_medians(tally.wall_s, tally.jobs)
    p, tail = tail_percentile(mix)
    metrics = {
        "jobs_per_s": {"value": tally.jobs_per_s(clock), "unit": "jobs/s"},
        "job_s_p50": {"value": statistics.median(mix), "unit": "s"},
        "job_s_tail": {"value": tail, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    samples = {
        "jobs": len(mix),
        "passes": tally.passes,
        "job_s_tail_percentile": p,
        "unscaled": {
            "jobs_per_s": tally.jobs_per_s(None),
            "job_s_p50": statistics.median(raw_mix),
            "job_s_tail": tail_percentile(raw_mix)[1],
        },
    }
    return metrics, samples


def measure(args, jobs_mod, workdir: Path, context: dict):
    """Run one workload; return (tally of every attempt, metrics)."""
    expected = jobs_mod.load_expected()
    order_rng = random.Random(f"order/{args.workload}/{args.seed}")
    everything = Tally()
    if args.workload == "cli_warm":
        runner = CliRunner(jobs_mod, args.seed, workdir, expected)
        clock = spawned_clock(runner.env, workdir)
        setup_s = runner.cold_setup(order_rng, clock, everything)
        setup_samples = COLD_PASSES
    else:
        setup_s = in_process_setup_s(args.workload, args.seed, workdir)
        setup_samples = SETUP_PROBES
        runner = InProcessRunner(jobs_mod, args.workload, args.seed,
                                 expected)
        clock = ReferenceClock(_in_process_reading, IN_PROCESS_REFERENCE_S)
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(runner, order_rng, clock,
                          passes_for(args.workload, seconds),
                          wall_limit=WALL_CAP * seconds)
    everything.add(untraced)
    if args.workload == "cli_warm":
        rss_mib = max(runner.rss_kib) / 1024
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, samples = end_to_end(untraced, clock, setup_s, rss_mib)
    samples["setup"] = setup_samples
    context["samples"] = samples
    context["reference_s_median"] = statistics.median(clock.reference_s)
    if args.trace:
        metrics = traced_run(args, jobs_mod, runner, order_rng, clock,
                             untraced, everything, context)
    return everything, metrics


def traced_run(args, jobs_mod, runner, order_rng, clock, untraced: Tally,
               everything: Tally, context: dict) -> dict:
    """TRACED_PASSES passes on the first pass's inputs with the layer
    spans installed; per-layer metrics, work counts and the spans file."""
    import layers
    import spans
    njobs = len(runner.names)
    recorder = spans.Recorder()
    runner.recorder = recorder
    cli = args.workload == "cli_warm"
    statuses_before = len(runner.statuses) if cli else 0
    reports_before = len(runner.report_bytes) if cli else 0
    undo = [] if cli else spans.install(recorder)
    try:
        traced = run_passes(runner, order_rng, clock, TRACED_PASSES,
                            inputs=0)
    finally:
        spans.uninstall(undo)
    everything.add(traced)

    per_pass, per_job = layers.summarise_spans(recorder, njobs)
    counts = [layers.job_work_counts(per_job, runner.names, njobs, p)
              for p in range(TRACED_PASSES)]
    identical = all(c == counts[0] for c in counts[1:])
    if not identical:
        print("bench: work counts differ between traced passes",
              file=sys.stderr)
        everything.failed += 1
    extra = {"bench.trace_overhead": untraced.jobs_per_s(clock)
             / traced.jobs_per_s(clock)}
    if cli:
        statuses = runner.statuses[statuses_before:]
        extra["cli.import_s"] = statistics.median(runner.child_import_s)
        extra["cli.cache_hit_ratio"] = statuses.count("hit") / len(statuses)
        extra["cli.cache_bytes"] = runner.cache_bytes()
        extra["cli.report_bytes"] = \
            sum(runner.report_bytes[reports_before:]) // TRACED_PASSES
        extra["fixedlocus.torus_fixed_points.tableaux_job_share"] = \
            layers.tableaux_job_share(recorder, runner.names, njobs)
    metrics = layers.layer_metrics(per_pass, extra)
    context["traced"] = {
        "passes": traced.passes,
        "jobs_per_s_untraced": untraced.jobs_per_s(clock),
        "jobs_per_s_traced": traced.jobs_per_s(clock),
        "counts_identical_across_passes": identical,
        "counts_sha256": jobs_mod.digest(counts[0]),
    }
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    layers.write_trace(trace_path, recorder, {
        "context": context, "job_work_counts": counts[0],
        "metrics": metrics})
    context["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    # One CPU for the client, its children and the reference readings,
    # so the reference measures the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jobs_mod = _import_engine()
    if args.setup_probe:
        jobs_mod.WORKLOAD_JOBS[args.workload](args.seed, 0)
        return 0

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "client": "closed loop, 1 client process",
    }
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tally, metrics = measure(args, jobs_mod, workdir, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["loadavg_end"] = _loadavg()
    context["failed_ratio"] = tally.failed / tally.attempted
    print(json.dumps({"context": context}, sort_keys=True))
    print(f"failed_ratio {context['failed_ratio']} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
