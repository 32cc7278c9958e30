"""Exact localization engine for circle-fixed loci of hyper-Quot schemes
over the projective line and the hypergeometric series of flag manifolds.

The names below load their submodule on first use (PEP 562), so importing
the package, or only the command line's parser, imports no engine module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("ALPHA", "LinearProduct", "Poly", "RatFun", "VarId",
                "ambient", "exp_series", "kahler", "ratfun_normalize", "y"),
    "errors": ("BudgetExceededError", "CancellationFailureError",
               "FlagHGError", "FormulaMismatchError",
               "InfeasibleTableauError", "IntegrationShapeError",
               "SingularSubstitutionError", "SymmetryViolationError",
               "UsageError", "ZeroDenominatorError"),
    "fixedlocus": ("Ledger", "euler_class_closed_form",
                   "euler_class_from_ledger", "hquot_restriction_ledger",
                   "normal_ledger", "tangent_ledger", "torus_fixed_points"),
    "mirror": ("HoriVafaReport", "IntegralResult", "grassmannian_hg_term",
               "hori_vafa_verify", "hyperplane_pullback", "integral_Id",
               "reconstruct_class_from_pairings", "schur_pairing"),
    "pushforward": ("BlockAlphabet", "ab_integrate", "brion_pushforward",
                    "integrate_to_point", "lam_vector", "omega_class",
                    "schur_polynomial", "tableau_tower"),
    "spec": ("FlagSpec",),
    "tableaux": ("Tableau", "component_dimension",
                 "enumerate_general_components", "enumerate_tableaux",
                 "fixed_point_count", "general_component_dimension",
                 "hquot_dimension"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
