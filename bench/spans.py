"""Spans recorded from outside the engine, around calls into its layers.

`install(recorder)` wraps the public functions named in `LAYERS` and every
binding of them: a function imported by name into another module is
patched there too, and `Poly` methods are patched on the class (both
`__mul__` and its alias `__rmul__`).  Each call becomes one span: the
layer name, start, end, the enclosing span and the job it ran for, plus an
optional work count taken from the arguments or the result.  Spans stay
in flat arrays while the run lasts and are summarised when it ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array


def _ledger_factors(args, out):
    """Linear factors in the Euler class of a normal ledger."""
    return sum(abs(m) * out.block_rank(src) * out.block_rank(tgt)
               for src, tgt, _, m in out.terms())


# (span name, module, attribute or "Class.method", work count or None)
LAYERS = (
    ("algebra.poly_substitute", "algebra", "Poly.substitute", None),
    ("algebra.poly_mul", "algebra", "Poly.__mul__", None),
    ("algebra.divide_by_linear", "algebra", "Poly.divide_by_linear",
     lambda args, out: int(out is not None)),
    ("algebra.ratfun_sum", "algebra", "ratfun_sum",
     lambda args, out: len(args[0])),
    ("algebra.ratfun_normalize", "algebra", "ratfun_normalize", None),
    ("algebra.exp_series", "algebra", "exp_series",
     lambda args, out: len(out.terms)),
    ("tableaux.enumerate_tableaux", "tableaux", "enumerate_tableaux",
     lambda args, out: len(out)),
    ("fixedlocus.torus_fixed_points", "fixedlocus", "torus_fixed_points",
     lambda args, out: len(out)),
    ("fixedlocus.normal_ledger", "fixedlocus", "normal_ledger",
     _ledger_factors),
    ("fixedlocus.euler_class_from_ledger", "fixedlocus",
     "euler_class_from_ledger", None),
    ("fixedlocus.euler_class_closed_form", "fixedlocus",
     "euler_class_closed_form", None),
    ("pushforward.ab_integrate", "pushforward", "ab_integrate", None),
    ("pushforward.lam_vector", "pushforward", "lam_vector", None),
    ("pushforward.brion_pushforward", "pushforward", "brion_pushforward",
     lambda args, out: args[1].coset_count()),
    ("pushforward.integrate_to_point", "pushforward", "integrate_to_point",
     None),
    ("mirror.integral_Id", "mirror", "integral_Id", None),
    ("mirror.mirror_integrand", "mirror", "mirror_integrand", None),
    ("mirror.schur_pairing", "mirror", "schur_pairing", None),
    ("mirror.hori_vafa_verify", "mirror", "hori_vafa_verify", None),
    ("mirror.grassmannian_hg_term", "mirror", "grassmannian_hg_term", None),
    ("cli.parse_job", "cli", "parse_job", None),
    ("cli.run_and_report", "cli", "run_and_report", None),
    ("cli.format_report", "cli", "format_report", None),
)


class Recorder:
    """Spans as parallel arrays; index -1 means no parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.job_id = -1
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.intern(name))

    def __len__(self):
        return len(self.name)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "count": self.count.tolist(),
        }

    def extend_from_json(self, data: dict, job_id: int) -> None:
        """Append a child process's spans, re-parented and tagged with job."""
        base = len(self.name)
        remap = [self.intern(n) for n in data["names"]]
        for k in range(len(data["name"])):
            self.name.append(remap[data["name"][k]])
            p = data["parent"][k]
            self.parent.append(p + base if p >= 0 else self._stack[-1])
            self.job.append(job_id)
            self.start.append(data["start"][k])
            self.end.append(data["end"][k])
            self.count.append(data["count"][k])


class _Span:
    def __init__(self, recorder: Recorder, name_id: int):
        self.recorder = recorder
        self.name_id = name_id

    def __enter__(self):
        self.index = self.recorder.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.recorder.close(self.index)
        return False


def _wrap(recorder: Recorder, name: str, fn, count):
    name_id = recorder.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            recorder.count[index] = count(args, out)
        return out

    return traced


def install(recorder: Recorder) -> list:
    """Wrap every layer function at every binding; return an undo list."""
    modules = {module: importlib.import_module(f"flaghg.{module}")
               for _, module, _, _ in LAYERS}
    namespaces = [m.__dict__ for name, m in list(sys.modules.items())
                  if name == "flaghg" or name.startswith("flaghg.")]
    undo = []
    for name, module, attr, count in LAYERS:
        mod = modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            targets = [cls]
        else:
            orig = getattr(mod, attr)
            targets = []
        traced = _wrap(recorder, name, orig, count)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is orig:
                    undo.append((ns, key, orig))
                    ns[key] = traced
        for cls in targets:
            for key, value in list(cls.__dict__.items()):
                if value is orig:
                    undo.append((cls, key, orig))
                    setattr(cls, key, traced)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = orig
        else:
            setattr(owner, key, orig)

