"""Per-layer metrics from the spans of a traced run.

Self time is a span's duration less the time its child spans cover.
Counts (calls and the work counts the spans carry) are taken from one
traced pass; times are the median over the traced passes.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path


LAYER_METRICS = (
    # (metric, unit); every one is printed by every traced run
    ("algebra.poly_substitute.calls", "count"),
    ("algebra.poly_substitute.self_s", "s"),
    ("algebra.ratfun_sum.calls", "count"),
    ("algebra.ratfun_sum.terms", "count"),
    ("algebra.ratfun_sum.self_s", "s"),
    ("algebra.ratfun_normalize.calls", "count"),
    ("algebra.ratfun_normalize.self_s", "s"),
    ("algebra.divide_by_linear.calls", "count"),
    ("algebra.divide_by_linear.hit_ratio", "ratio"),
    ("algebra.divide_by_linear.self_s", "s"),
    ("algebra.poly_mul.calls", "count"),
    ("algebra.poly_mul.self_s", "s"),
    ("algebra.exp_series.terms", "count"),
    ("algebra.exp_series.self_s", "s"),
    ("tableaux.enumerate_tableaux.calls", "count"),
    ("tableaux.enumerate_tableaux.tableaux", "count"),
    ("tableaux.enumerate_tableaux.self_s", "s"),
    ("fixedlocus.torus_fixed_points.calls", "count"),
    ("fixedlocus.torus_fixed_points.fixed_points", "count"),
    ("fixedlocus.torus_fixed_points.self_s", "s"),
    ("fixedlocus.torus_fixed_points.self_s_per_fixed_point", "s"),
    ("fixedlocus.torus_fixed_points.tableaux_job_share", "ratio"),
    ("fixedlocus.normal_ledger.calls", "count"),
    ("fixedlocus.normal_ledger.ledger_factors", "count"),
    ("fixedlocus.normal_ledger.self_s", "s"),
    ("fixedlocus.euler_class_from_ledger.self_s", "s"),
    ("fixedlocus.euler_class_closed_form.self_s", "s"),
    ("pushforward.ab_integrate.calls", "count"),
    ("pushforward.ab_integrate.self_s", "s"),
    ("pushforward.ab_integrate.total_s", "s"),
    ("pushforward.ab_integrate.wall_share", "ratio"),
    ("pushforward.ab_integrate.lambda_retries", "count"),
    ("pushforward.ab_integrate.self_s_per_fixed_point", "s"),
    ("pushforward.brion_pushforward.calls", "count"),
    ("pushforward.brion_pushforward.cosets", "count"),
    ("pushforward.brion_pushforward.self_s", "s"),
    ("pushforward.brion_pushforward.self_s_per_coset", "s"),
    ("pushforward.integrate_to_point.self_s", "s"),
    ("mirror.integral_Id.self_s", "s"),
    ("mirror.mirror_integrand.self_s", "s"),
    ("mirror.schur_pairing.calls", "count"),
    ("mirror.schur_pairing.self_s", "s"),
    ("mirror.hori_vafa_verify.self_s", "s"),
    ("mirror.grassmannian_hg_term.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.parse_job.self_s", "s"),
    ("cli.run_and_report.self_s", "s"),
    ("cli.format_report.self_s", "s"),
    ("cli.cache_hit_ratio", "ratio"),
    ("cli.cache_bytes", "bytes"),
    ("cli.report_bytes", "bytes"),
    ("bench.trace_overhead", "ratio"),
)

# per-layer fields read from the work count each span carries
SPAN_COUNTS = {"terms", "tableaux", "fixed_points", "ledger_factors", "cosets"}

# work counts taken per job from the spans ("<layer>.count" sums)
WORK_COUNTS = {
    "tableaux": "tableaux.enumerate_tableaux",
    "fixed_points": "fixedlocus.torus_fixed_points",
    "ledger_factors": "fixedlocus.normal_ledger",
    "cosets": "pushforward.brion_pushforward",
    "series_length": "algebra.exp_series",
}


def span_times(recorder) -> tuple[list[float], list[float]]:
    """Each span's duration and self time (duration less its children)."""
    n = len(recorder)
    dur = [recorder.end[i] - recorder.start[i] for i in range(n)]
    own = list(dur)
    for i in range(n):
        if recorder.parent[i] >= 0:
            own[recorder.parent[i]] -= dur[i]
    return dur, own


def summarise_spans(recorder, njobs: int):
    """Per traced pass: layer sums; per job: work counts and call counts."""
    names = recorder.names
    parent, job, count = recorder.parent, recorder.job, recorder.count
    dur, own = span_times(recorder)
    per_pass: dict[int, Counter] = defaultdict(Counter)
    per_job: dict[int, Counter] = defaultdict(Counter)
    for i in range(len(recorder)):
        name = names[recorder.name[i]]
        if job[i] < 0:
            continue
        sums = per_pass[job[i] // njobs]
        work = per_job[job[i]]
        if name == "job":
            sums["job_s"] += dur[i]
            continue
        sums[name + ".calls"] += 1
        sums[name + ".self_s"] += own[i]
        sums[name + ".total_s"] += dur[i]
        sums[name + ".count"] += count[i]
        work[name + ".calls"] += 1
        work[name + ".count"] += count[i]
        up = names[recorder.name[parent[i]]] if parent[i] >= 0 else None
        if up == "pushforward.ab_integrate":
            if name == "pushforward.lam_vector":
                sums["pushforward.ab_integrate.lambda_retries"] += 1
                work["lambda_retries"] += 1
            elif name == "fixedlocus.torus_fixed_points":
                sums["ab_fixed_points"] += count[i]
    return per_pass, per_job


def job_work_counts(per_job: dict, job_names: list[str], njobs: int,
                    pass_index: int) -> dict:
    out = {}
    for k, name in enumerate(job_names):
        work = per_job.get(pass_index * njobs + k, Counter())
        entry = {label: work[layer + ".count"]
                 for label, layer in WORK_COUNTS.items()}
        entry["lambda_retries"] = work["lambda_retries"]
        entry["calls"] = {key[:-6]: v for key, v in sorted(work.items())
                          if key.endswith(".calls")}
        out[name] = entry
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(per_pass: dict, extra: dict) -> dict:
    """Counts from one traced pass; times as the median over traced passes."""
    passes = [per_pass[p] for p in sorted(per_pass)]

    def med(key):
        return statistics.median(s[key] for s in passes) if passes else 0.0

    first = passes[0] if passes else Counter()
    values = {}
    for metric, unit in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if metric in extra:
            values[metric] = extra[metric]
        elif field in ("self_s", "total_s"):
            values[metric] = med(metric)
        elif field in ("calls", "lambda_retries"):
            values[metric] = first[metric]
        elif field == "hit_ratio":
            values[metric] = _ratio(first[layer + ".count"],
                                    first[layer + ".calls"])
        elif field == "wall_share":
            values[metric] = statistics.median(
                _ratio(s[layer + ".total_s"], s["job_s"]) for s in passes)
        elif field.startswith("self_s_per_"):
            work = "ab_fixed_points" if layer.endswith("ab_integrate") \
                else layer + ".count"
            values[metric] = _ratio(med(layer + ".self_s"), first[work])
        elif field in SPAN_COUNTS:
            values[metric] = first[layer + ".count"]
        else:  # measured outside the spans, and not on this workload
            values[metric] = 0
    return {m: {"value": values[m], "unit": u} for m, u in LAYER_METRICS}


def write_trace(path: Path, recorder, document: dict) -> None:
    """The spans, less the `poly_mul` leaves, which are summed per parent
    span, together with the run's summary."""
    mul = recorder.names.index("algebra.poly_mul") \
        if "algebra.poly_mul" in recorder.names else -1
    keep = [i for i in range(len(recorder)) if recorder.name[i] != mul]
    new_index = {old: new for new, old in enumerate(keep)}
    mul_by_parent: dict[int, list] = defaultdict(lambda: [0, 0.0])
    for i in range(len(recorder)):
        if recorder.name[i] == mul:
            entry = mul_by_parent[new_index.get(recorder.parent[i], -1)]
            entry[0] += 1
            entry[1] += recorder.end[i] - recorder.start[i]
    document["spans"] = {
        "names": recorder.names,
        "columns": ["name", "parent", "job", "start", "end", "count"],
        "rows": [[recorder.name[i], new_index.get(recorder.parent[i], -1),
                  recorder.job[i], recorder.start[i], recorder.end[i],
                  recorder.count[i]] for i in keep],
        "poly_mul_by_parent": {str(k): v for k, v in mul_by_parent.items()},
    }
    path.write_text(json.dumps(document))


def tableaux_job_share(recorder, names: list[str], njobs: int) -> float:
    """torus_fixed_points self time over the wall time of the `tableaux`
    command jobs, in the traced passes."""
    torus = recorder.names.index("fixedlocus.torus_fixed_points") \
        if "fixedlocus.torus_fixed_points" in recorder.names else -1
    job_name = recorder.names.index("job")
    wanted = {k for k, name in enumerate(names)
              if name.startswith("tableaux ")}
    dur, own = span_times(recorder)
    torus_s = wall_s = 0.0
    for i in range(len(recorder)):
        if recorder.job[i] < 0 or recorder.job[i] % njobs not in wanted:
            continue
        if recorder.name[i] == torus:
            torus_s += own[i]
        elif recorder.name[i] == job_name:
            wall_s += dur[i]
    return _ratio(torus_s, wall_s)
