"""Exact symbolic computation in twisted graded Hecke algebras attached to
homocyclic groups (Z/ell)^(n-1), with a verification suite for the n+1
generators and the single relation presenting their center.

All arithmetic is exact: rationals, cyclotomic integers modulo the ell-th
cyclotomic polynomial, and sparse polynomials in the symbolic deformation
parameters t_1..t_n.  Every identity is checked by structural equality of
canonical forms, never by numeric tolerance.
"""

from .chebyshev import (
    IntPoly,
    chebyshev_T,
    identity_che1,
    identity_che2,
    identity_rho,
    nu,
)
from .coeffring import ParamPoly, ParamRing
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, zeta_power
from .exprs import EvalError, ParseError, eval_hecke, eval_laurent, eval_scalar, parse
from .group import (
    GroupElem,
    action_char,
    alpha,
    all_elements,
    cocycle_identity_holds,
    star_mul,
    star_power,
)
from .hecke import HeckeAlgebra, HeckeElem, enumerate_J
from .laurent import LaurentAlgebra, LaurentElem
from .suite import (
    DEFAULT_GRID,
    CheckResult,
    Config,
    all_passed,
    run_grid,
    run_suite,
    suite_report,
)

__version__ = "0.1.0"

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "zeta_power",
    "ParamPoly",
    "ParamRing",
    "GroupElem",
    "alpha",
    "action_char",
    "star_mul",
    "star_power",
    "all_elements",
    "cocycle_identity_holds",
    "HeckeAlgebra",
    "HeckeElem",
    "enumerate_J",
    "LaurentAlgebra",
    "LaurentElem",
    "IntPoly",
    "chebyshev_T",
    "nu",
    "identity_che1",
    "identity_che2",
    "identity_rho",
    "parse",
    "eval_hecke",
    "eval_laurent",
    "eval_scalar",
    "ParseError",
    "EvalError",
    "Config",
    "CheckResult",
    "run_suite",
    "run_grid",
    "suite_report",
    "all_passed",
    "DEFAULT_GRID",
]
