"""Chebyshev polynomials of the first kind and the coefficients nu_r.

Everything here is exact: polynomials are sparse Laurent polynomials in a
formal variable xi and, where needed, a second variable s standing for
rho^2 (only even powers of rho ever occur, so taking s = rho^2 as the
formal variable avoids introducing square roots).  The three identities

    2*T_ell(xi/2)            == sum_r nu_r xi^(ell-2r)
    2*T_ell((xi + 1/xi)/2)   == xi^ell + xi^(-ell)
    xi^ell + s^ell xi^(-ell) == sum_r nu_r s^r (xi + s/xi)^(ell-2r)

are checked by full expansion with rational coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import SparseSum, power, render_terms

__all__ = [
    "IntPoly",
    "chebyshev_T",
    "nu",
    "identity_che1",
    "identity_che2",
    "identity_rho",
]

_F0 = Fraction(0)
_F1 = Fraction(1)
_HALF = Fraction(1, 2)


class IntPoly(SparseSum):
    """Sparse Laurent polynomial in xi and s with Fraction coefficients (a
    ``SparseSum``).

    Keys are (xi_exponent, s_exponent) with the xi exponent any integer and
    the s exponent nonnegative.
    """

    __slots__ = ()

    @classmethod
    def const(cls, q) -> "IntPoly":
        return cls({(0, 0): Fraction(q)})

    @classmethod
    def xi(cls, k: int = 1) -> "IntPoly":
        return cls({(k, 0): _F1})

    @classmethod
    def s(cls, k: int = 1) -> "IntPoly":
        return cls({(0, k): _F1})

    def _like(self, terms: dict) -> "IntPoly":
        new = object.__new__(IntPoly)
        new.terms = terms
        return new

    def _coerce(self, value) -> Fraction | None:
        return Fraction(value) if isinstance(value, (int, Fraction)) else None

    def one(self) -> "IntPoly":
        return IntPoly.const(1)

    def render(self) -> str:
        return render_terms(
            (c, [power(name, k) for name, k in (("xi", i), ("s", j)) if k])
            for (i, j), c in sorted(self.terms.items(), reverse=True)
        )

    __repr__ = render


_T_CACHE = [IntPoly.const(1), IntPoly.xi()]


def chebyshev_T(m: int) -> IntPoly:
    """T_m via the recursion T_m = 2*xi*T_(m-1) - T_(m-2), T_0 = 1, T_1 = xi."""
    if m < 0:
        raise ValueError(f"Chebyshev index must be >= 0, got {m}")
    two_xi = IntPoly({(1, 0): Fraction(2)})
    while len(_T_CACHE) <= m:
        _T_CACHE.append(two_xi * _T_CACHE[-1] - _T_CACHE[-2])
    return _T_CACHE[m]


def nu(ell: int, r: int) -> Fraction:
    """nu_r = (-1)^r * (ell/(ell-r)) * C(ell-r, r); always an integer."""
    if not 0 <= r <= ell // 2:
        raise ValueError(f"r must lie in 0..{ell // 2}, got {r}")
    value = Fraction(ell, ell - r) * math.comb(ell - r, r)
    if r % 2:
        value = -value
    return value


def _eval_T(ell: int, arg: IntPoly) -> IntPoly:
    """T_ell evaluated at a Laurent-polynomial argument, by Horner's rule."""
    coeffs = [_F0] * (ell + 1)
    for (i, _), c in chebyshev_T(ell).terms.items():
        coeffs[i] = c
    acc = IntPoly()
    for c in reversed(coeffs):
        acc = acc * arg
        if c:
            acc = acc + IntPoly.const(c)
    return acc


def identity_che1(ell: int) -> bool:
    """2*T_ell(xi/2) == sum_r nu_r xi^(ell-2r), exactly."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    lhs = _eval_T(ell, IntPoly({(1, 0): _HALF})).scale(2)
    rhs = IntPoly({(ell - 2 * r, 0): nu(ell, r) for r in range(ell // 2 + 1)})
    return lhs == rhs


def identity_che2(ell: int) -> bool:
    """2*T_ell((xi + xi^-1)/2) == xi^ell + xi^(-ell), exactly."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    arg = IntPoly({(1, 0): _HALF, (-1, 0): _HALF})
    lhs = _eval_T(ell, arg).scale(2)
    rhs = IntPoly({(ell, 0): _F1, (-ell, 0): _F1})
    return lhs == rhs


def identity_rho(ell: int) -> bool:
    """xi^ell + s^ell xi^(-ell) == sum_r nu_r s^r (xi + s*xi^-1)^(ell-2r),
    exactly, with s standing for rho^2."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    lhs = IntPoly({(ell, 0): _F1, (-ell, ell): _F1})
    base = IntPoly({(1, 0): _F1, (-1, 1): _F1})
    rhs = IntPoly()
    for r in range(ell // 2 + 1):
        rhs = rhs + (base ** (ell - 2 * r) * IntPoly.s(r)).scale(nu(ell, r))
    return lhs == rhs
