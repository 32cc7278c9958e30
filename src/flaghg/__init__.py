"""Exact localization engine for circle-fixed loci of hyper-Quot schemes
over the projective line and the hypergeometric series of flag manifolds."""

__version__ = "0.1.0"

from .algebra import (ALPHA, FORMAL_C, LinearProduct, Poly, RatFun, VarId,
                      ambient, exp_series, kahler, ratfun_normalize, y)
from .errors import (BudgetExceededError, CancellationFailureError,
                     FlagHGError, FormulaMismatchError,
                     InfeasibleTableauError, IntegrationShapeError,
                     SingularSubstitutionError, SymmetryViolationError,
                     UsageError, ZeroDenominatorError)
from .fixedlocus import (Ledger, euler_class_closed_form,
                         euler_class_from_ledger, fixed_point_count,
                         hquot_restriction_ledger, normal_ledger,
                         tangent_ledger, torus_fixed_points)
from .mirror import (HoriVafaReport, IntegralResult, grassmannian_hg_term,
                     hori_vafa_verify, hyperplane_pullback, integral_Id,
                     reconstruct_class_from_pairings, schur_pairing)
from .pushforward import (BlockAlphabet, ab_integrals, ab_integrate,
                          brion_pushforward, integrate_to_point, lam_vector,
                          omega_class, schur_polynomial, tableau_tower)
from .tableaux import (BlockData, FlagSpec, Tableau, block_decomposition,
                       component_dimension, enumerate_general_components,
                       enumerate_tableaux, general_component_dimension,
                       hquot_dimension)
