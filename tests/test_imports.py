"""Every imported name is referenced in the module that imports it, and
the package's lazy exports are the objects of the submodules defining them."""

import ast
import importlib
from pathlib import Path

import pytest

import flaghg

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "flaghg").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py")))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                text = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(text)
                         if isinstance(m, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detection():
    source = ("from __future__ import annotations\n"
              "import os, json\nfrom a import b, c as d\n"
              "from e import F\n"
              "def g(x: 'F') -> None:\n    return os.sep, d\n")
    assert unused_imports(source) == ["b (line 3)", "json (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _calls_by_name(function: ast.AST, name: str) -> bool:
    """Whether the function's body calls `name` or `self.name`."""
    for n in ast.walk(function):
        if isinstance(n, ast.Call):
            f = n.func
            if isinstance(f, ast.Name) and f.id == name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
    return False


def self_calls(source: str) -> list[str]:
    """Every function that calls itself, as outer.inner for a function
    nested in another and Class.method for a method."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if _calls_by_name(child, child.name):
                    found.append(name)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_self_call_detection():
    source = ("def f(n):\n    return f(n - 1) if n else 0\n"
              "def g():\n    def h(k):\n        return h(k)\n"
              "    return h\n"
              "class C:\n    def m(self):\n        return self.m()\n"
              "    def k(self):\n        return self.c.k()\n")
    assert self_calls(source) == ["f", "g.h", "C.m"]


def test_recursion_is_pinned():
    # each recursion's depth is bounded by the job's structure, not by a
    # row length or level count: the blocks of a tableau, the degree of a
    # monomial, the nesting of a report
    found = sorted(name for path in FILES if path.parent.name == "flaghg"
                   for name in self_calls(path.read_text()))
    assert found == ["_render_text.walk", "ab_integrals.mono_index",
                     "torus_fixed_points.choose"]


# The public names of the `flaghg` package, by the submodule defining them.
PACKAGE_EXPORTS = {
    "algebra": ["ALPHA", "FORMAL_C", "LinearProduct", "Poly", "RatFun",
                "VarId", "ambient", "exp_series", "kahler",
                "ratfun_normalize", "y"],
    "errors": ["BudgetExceededError", "CancellationFailureError",
               "FlagHGError", "FormulaMismatchError",
               "InfeasibleTableauError", "IntegrationShapeError",
               "SingularSubstitutionError", "SymmetryViolationError",
               "UsageError", "ZeroDenominatorError"],
    "fixedlocus": ["Ledger", "euler_class_closed_form",
                   "euler_class_from_ledger", "fixed_point_count",
                   "hquot_restriction_ledger", "normal_ledger",
                   "tangent_ledger", "torus_fixed_points"],
    "mirror": ["HoriVafaReport", "IntegralResult", "grassmannian_hg_term",
               "hori_vafa_verify", "hyperplane_pullback", "integral_Id",
               "reconstruct_class_from_pairings", "schur_pairing"],
    "pushforward": ["BlockAlphabet", "ab_integrals", "ab_integrate",
                    "brion_pushforward", "integrate_to_point", "lam_vector",
                    "omega_class", "schur_polynomial", "tableau_tower"],
    "tableaux": ["FlagSpec", "Tableau", "component_dimension",
                 "enumerate_general_components", "enumerate_tableaux",
                 "general_component_dimension", "hquot_dimension"],
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_exports_are_the_submodule_objects(module):
    submodule = importlib.import_module(f"flaghg.{module}")
    names = PACKAGE_EXPORTS[module]
    for name in names:
        assert getattr(flaghg, name) is getattr(submodule, name), name
    assert set(names) <= set(dir(flaghg))


def test_package_rejects_unknown_names():
    with pytest.raises(AttributeError, match="'flaghg' has no attribute "
                                             "'no_such_name'"):
        flaghg.no_such_name
