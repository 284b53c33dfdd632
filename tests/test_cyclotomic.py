"""Exactness and field structure of the cyclotomic arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_hecke.coeffring import ParamRing
from twisted_hecke.cyclotomic import (
    Cyclotomic,
    _poly_mul,
    accumulate,
    cyclotomic_polynomial,
    zeta_power,
)

F = Fraction

# hand-checked small cyclotomic polynomials, ascending coefficients
KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("ell,coeffs", sorted(KNOWN.items()))
def test_cyclotomic_polynomial_known_values(ell, coeffs):
    assert cyclotomic_polynomial(ell) == tuple(F(c) for c in coeffs)


@pytest.mark.parametrize("ell", range(1, 17))
def test_product_over_divisors_is_power_minus_one(ell):
    # z^ell - 1 == product of Phi_d over all divisors d of ell
    prod = [F(1)]
    for d in range(1, ell + 1):
        if ell % d == 0:
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [F(0)] * (ell + 1)
    expected[0], expected[ell] = F(-1), F(1)
    assert prod == expected


def test_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        Cyclotomic(-3, [1])


def test_zeta_power_examples():
    assert zeta_power(3, 0) == Cyclotomic.one(3)
    # zeta^-1 = zeta^2 = -1 - zeta in Q(zeta_3)
    assert zeta_power(3, -1) == Cyclotomic(3, [-1, -1])
    assert zeta_power(3, -1) == zeta_power(3, 2)
    # for ell = 2 the root is -1 itself
    assert zeta_power(2, 1) == Cyclotomic.from_rational(2, -1)


def test_additive_and_multiplicative_identities():
    z = zeta_power(5, 1)
    assert z + Cyclotomic.zero(5) == z
    assert z * zeta_power(5, 4) == Cyclotomic.one(5)
    assert zeta_power(2, 1) * zeta_power(2, 1) == Cyclotomic.one(2)


def test_inverse_examples():
    assert Cyclotomic.one(7).inv() == Cyclotomic.one(7)
    # ell = 2: zeta - 1 = -2, a plain rational inversion
    a = zeta_power(2, 1) - 1
    assert a.inv() == Cyclotomic.from_rational(2, F(-1, 2))
    # ell = 4: 1/(zeta - 1) = (-1 - zeta)/2
    b = zeta_power(4, 1) - 1
    assert b.inv() == Cyclotomic(4, [F(-1, 2), F(-1, 2)])
    assert b * b.inv() == Cyclotomic.one(4)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(6).inv()


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 12])
def test_primitivity(ell):
    one = Cyclotomic.one(ell)
    for k in range(1, ell):
        assert zeta_power(ell, k) != one
    assert zeta_power(ell, ell) == one


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11])
def test_full_period_sum_vanishes_for_prime_order(ell):
    total = Cyclotomic.zero(ell)
    for k in range(ell):
        total = total + zeta_power(ell, k)
    assert total.is_zero()


ells = st.sampled_from([2, 3, 4, 5, 6, 12])
rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def elements(ell):
    size = len(cyclotomic_polynomial(ell)) - 1
    return st.lists(rationals, min_size=size, max_size=size).map(
        lambda cs: Cyclotomic(ell, cs)
    )


@given(ells.flatmap(lambda ell: st.tuples(elements(ell), elements(ell), elements(ell))))
@settings(max_examples=150, deadline=None)
def test_field_axioms_on_random_samples(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inv() == Cyclotomic.one(a.ell)


@given(
    ells,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_zeta_power_is_a_character(ell, k, m):
    assert zeta_power(ell, k) * zeta_power(ell, m) == zeta_power(ell, k + m)
    assert zeta_power(ell, k) == zeta_power(ell, k % ell)


def test_power_operator_handles_negative_exponents():
    z = zeta_power(12, 1) + 1
    assert z**0 == Cyclotomic.one(12)
    assert z**3 * z**-3 == Cyclotomic.one(12)


def test_string_rendering():
    assert str(Cyclotomic.zero(4)) == "0"
    assert str(Cyclotomic.one(4)) == "1"
    assert str(zeta_power(4, 1)) == "zeta"
    assert str(Cyclotomic(4, [F(1), F(-1, 2)])) == "1 - (1/2)*zeta"


_RING = ParamRing(3, 3)
_ZETA = zeta_power(3, 1)


# (zero, a, b) in each coefficient type that sparse maps store
@pytest.mark.parametrize(
    "zero,a,b",
    [
        (F(0), F(2), F(-5, 3)),
        (Cyclotomic.zero(3), _ZETA, Cyclotomic.one(3) + _ZETA),
        (_RING.zero(), _RING.t(1), _RING.t(2).scale(_ZETA)),
    ],
    ids=["fraction", "cyclotomic", "parampoly"],
)
def test_accumulate_never_stores_a_zero(zero, a, b):
    out = {}
    accumulate(out, "k", zero)
    assert out == {}  # a zero at a new key is not stored
    accumulate(out, "k", a)
    accumulate(out, "j", b)
    accumulate(out, "k", -a)
    assert out == {"j": b}  # a cancelling sum deletes the key
    accumulate(out, "j", a)
    assert out == {"j": b + a}  # a nonzero sum replaces the old value
    accumulate(out, "k", a)
    assert list(out) == ["j", "k"]  # a deleted key comes back at the end
