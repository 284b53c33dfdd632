"""Chebyshev polynomials, the nu coefficients, and the three identities."""

from fractions import Fraction

import pytest
import sympy

from twisted_hecke.chebyshev import (
    IntPoly,
    chebyshev_T,
    identity_che1,
    identity_che2,
    identity_rho,
    nu,
)

F = Fraction


def test_base_cases():
    assert chebyshev_T(0) == IntPoly.const(1)
    assert chebyshev_T(1) == IntPoly.xi()
    assert chebyshev_T(2) == IntPoly({(2, 0): F(2), (0, 0): F(-1)})


def test_render():
    assert chebyshev_T(3).render() == "4*xi^3 - 3*xi"


def test_recursion_holds():
    two_xi = IntPoly({(1, 0): F(2)})
    for m in range(2, 20):
        assert chebyshev_T(m) == two_xi * chebyshev_T(m - 1) - chebyshev_T(m - 2)


@pytest.mark.parametrize("m", range(0, 13))
def test_against_sympy_oracle(m):
    xi = sympy.Symbol("xi")
    expected = sympy.Poly(sympy.chebyshevt(m, xi), xi).all_coeffs()[::-1]
    ours = [0] * (m + 1)
    for (i, _), c in chebyshev_T(m).terms.items():
        assert c.denominator == 1
        ours[i] = c.numerator
    assert ours[: len(expected)] == [int(v) for v in expected]


def test_nu_values():
    for ell in range(1, 17):
        assert nu(ell, 0) == 1
    assert nu(4, 1) == -4
    assert nu(4, 2) == 2
    assert nu(2, 1) == -2


def test_nu_range_errors():
    with pytest.raises(ValueError):
        nu(4, 3)
    with pytest.raises(ValueError):
        nu(4, -1)


@pytest.mark.parametrize("ell", range(1, 17))
def test_nu_is_integral(ell):
    for r in range(ell // 2 + 1):
        assert nu(ell, r).denominator == 1


def test_nu4_expansion_cross_check():
    # xi^4 + xi^-4 == (xi + xi^-1)^4 - 4 (xi + xi^-1)^2 + 2, expanded directly
    s = IntPoly({(1, 0): F(1), (-1, 0): F(1)})
    lhs = IntPoly({(4, 0): F(1), (-4, 0): F(1)})
    assert lhs == s**4 - s**2 * 4 + IntPoly.const(2)


def test_identity_che1_examples():
    # ell = 2: 2 T_2(xi/2) = xi^2 - 2 = nu_0 xi^2 + nu_1
    assert identity_che1(1)
    assert identity_che1(2)
    assert identity_che1(12)


def test_identity_che2_examples():
    assert identity_che2(1)
    assert identity_che2(3)
    assert identity_che2(16)


def test_identity_rho_examples():
    assert identity_rho(2)
    assert identity_rho(7)


@pytest.mark.parametrize("ell", range(1, 17))
def test_all_three_identities(ell):
    assert identity_che1(ell)
    assert identity_che2(ell)
    assert identity_rho(ell)


def test_identities_reject_nonpositive_order():
    for fn in (identity_che1, identity_che2, identity_rho):
        with pytest.raises(ValueError):
            fn(0)


def test_chebyshev_rejects_a_negative_index():
    with pytest.raises(ValueError, match=r"^Chebyshev index must be >= 0, got -1$"):
        chebyshev_T(-1)
