"""The command line's runners: one function per command, from a parsed job
to its results and the tableaux it enumerated, and the work counters,
counted from those tableaux and stored beside the results.

`cli.run_and_report` imports this module only on a cache miss, so a hit
neither loads nor compiles it.  The engine modules (algebra, fixedlocus,
mirror, pushforward) are imported inside the runners that use them, so a
`tableaux` miss without --explain loads no algebra.
"""

import random

from .cli import JobSpec
from .errors import FormulaMismatchError
from .tableaux import (component_dimension, enumerate_general_components,
                       enumerate_tableaux, fixed_point_count,
                       general_component_dimension, hquot_dimension)


def _run_tableaux(job: JobSpec) -> tuple[dict, list]:
    spec = job.spec
    if job.explain:
        from .fixedlocus import normal_ledger
    rows = []
    tableaux = enumerate_tableaux(spec)
    for t in tableaux:
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
    return out, tableaux


def _run_euler(job: JobSpec) -> tuple[dict, list]:
    from .fixedlocus import (canonical_roots, euler_product_closed_form,
                             euler_product_from_ledger, normal_ledger)

    spec = job.spec
    rows = []
    tableaux = enumerate_tableaux(spec)
    for t in tableaux:
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
    return {"count": len(rows), "classes": rows}, tableaux


def _run_integral(job: JobSpec) -> tuple[dict, list]:
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
        # the report's per_tableau keys, in the order of result.per_tableau
        out["ledgers"] = {
            key: normal_ledger(t).to_json()
            for key, (t, _) in zip(data["per_tableau"], result.per_tableau)
        }
    return out, [t for t, _ in result.per_tableau]


# hg and hori-vafa take their degrees from --max-degree; their counters
# describe the degree-0 spec's tableaux, as provenance.work documents
def _run_hg(job: JobSpec) -> tuple[dict, list]:
    from .mirror import grassmannian_hg_term

    spec = job.spec
    terms = []
    for d in range(job.max_degree + 1):
        cls = grassmannian_hg_term(spec.n, spec.ranks[0], d,
                                   job.coset_budget)
        terms.append({"d": d, "class": cls.to_json()})
    return ({"schema": "flaghg/hgseries-v1", "spec": spec.to_json(),
             "truncation": job.max_degree, "terms": terms},
            enumerate_tableaux(spec))


def _run_hori_vafa(job: JobSpec) -> tuple[dict, list]:
    from .mirror import hori_vafa_verify

    spec = job.spec
    report = hori_vafa_verify(spec.n, spec.ranks[0], job.max_degree,
                              lambda_seed=job.lambda_seed,
                              budget=job.coset_budget)
    return report.to_json(), enumerate_tableaux(spec)


def _run_oracle_compare(job: JobSpec) -> tuple[dict, list]:
    from .algebra import Poly, RatFun
    from .pushforward import (ab_integrate, complete_homogeneous,
                              integrate_to_point, lam_vector, tableau_tower)

    spec = job.spec
    lam = lam_vector(spec.n, job.lambda_seed)
    rows = []
    all_equal = True
    tableaux = enumerate_tableaux(spec)
    for index, t in enumerate(tableaux):
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
    return {"all_equal": all_equal, "tableaux": rows}, tableaux


# the runner of each command of `cli.COMMANDS`, by the same name
RUNNERS = {
    "tableaux": _run_tableaux,
    "euler": _run_euler,
    "integral": _run_integral,
    "hg": _run_hg,
    "hori-vafa": _run_hori_vafa,
    "oracle-compare": _run_oracle_compare,
}


def work_counters(tableaux: list) -> dict:
    """The counters of the tableaux a runner enumerated; stored in the
    cache entry, so a hit never recounts."""
    return {
        "tableaux": len(tableaux),
        "fixed_points": sum(fixed_point_count(t) for t in tableaux),
    }
