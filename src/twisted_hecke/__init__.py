"""Exact symbolic computation in twisted graded Hecke algebras attached to
homocyclic groups (Z/ell)^(n-1), with a verification suite for the n+1
generators and the single relation presenting their center.

All arithmetic is exact: rationals, cyclotomic integers modulo the ell-th
cyclotomic polynomial, and sparse polynomials in the symbolic deformation
parameters t_1..t_n.  Every identity is checked by structural equality of
canonical forms, never by numeric tolerance.

What an import loads: ``import twisted_hecke`` loads none of the package's
submodules.  Each public name below is resolved on first use, which
imports the submodule that defines it (PEP 562).  Building
``HeckeAlgebra`` and ``LaurentAlgebra`` with symbolic t loads
``cyclotomic``, ``group``, ``coeffring``, ``crossed``, ``hecke`` and
``laurent``, and neither ``fractions`` nor the parser, the suite or
``chebyshev``; those load when a value is parsed, rendered or verified.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {
    "Cyclotomic": "cyclotomic",
    "cyclotomic_polynomial": "cyclotomic",
    "zeta_power": "cyclotomic",
    "ParamPoly": "coeffring",
    "ParamRing": "coeffring",
    "GroupElem": "group",
    "star_power": "group",
    "all_elements": "group",
    "HeckeAlgebra": "hecke",
    "HeckeElem": "hecke",
    "enumerate_J": "hecke",
    "LaurentAlgebra": "laurent",
    "LaurentElem": "laurent",
    "IntPoly": "chebyshev",
    "chebyshev_T": "chebyshev",
    "nu": "chebyshev",
    "identity_che1": "chebyshev",
    "identity_che2": "chebyshev",
    "identity_rho": "chebyshev",
    "parse": "exprs",
    "eval_hecke": "exprs",
    "eval_laurent": "exprs",
    "eval_scalar": "exprs",
    "ParseError": "exprs",
    "EvalError": "exprs",
    "Config": "suite",
    "CheckResult": "suite",
    "run_suite": "suite",
    "run_grid": "suite",
    "suite_report": "suite",
    "all_passed": "suite",
    "DEFAULT_GRID": "suite",
}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    source = _SOURCE.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{source}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
