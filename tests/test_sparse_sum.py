"""The laws every finite sum {monomial: nonzero coefficient} shares: parameter
polynomials, Hecke and Laurent elements (t symbolic and specialised) and the
Chebyshev polynomials all take their vector-space arithmetic from
``cyclotomic.SparseSum``."""

from fractions import Fraction

import pytest

from twisted_hecke.chebyshev import IntPoly
from twisted_hecke.coeffring import ParamRing
from twisted_hecke.cyclotomic import SparseSum, zeta_power
from twisted_hecke.exprs import eval_scalar
from twisted_hecke.group import GroupElem
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra

NEGATIVE_POWER = r"^negative power -1 of a sparse sum$"


T33 = tuple(eval_scalar(s, 3) for s in ("1", "zeta", "1/2"))


def param_polys():
    def build(r):
        return r.t(1) * r.t(2) + r.zeta() * r.t(3) ** 2

    r = ParamRing(3, 3)
    b = r.t(1).scale(Fraction(1, 2)) - r.one()
    return build(r), b, ParamRing(3, 4).one(), lambda: build(ParamRing(3, 3))


def elements(algebra, t):
    def build(alg):
        g1 = GroupElem.generator(3, 3, 1)
        return alg.monomial((1, 0, 2), g1, zeta_power(3, 1)) + alg.gen_g(2)

    alg = algebra(3, 3, t)
    b = alg.monomial((0, 1, 1), None, alg.ring.t(1)) - alg.one()
    # t symbolic at another ell, or specialised to other values
    foreign = algebra(3, 4).one() if t is None else algebra(3, 3, t[::-1]).one()
    return build(alg), b, foreign, lambda: build(algebra(3, 3, t))


def int_polys():
    a = IntPoly.xi(2) + IntPoly.s(1).scale(3)
    b = IntPoly.xi(-1) - IntPoly.const(Fraction(1, 2))
    return a, b, None, (lambda: IntPoly({(2, 0): 1, (0, 1): 3}))


CASES = {
    "ParamPoly": param_polys,
    "HeckeElem-sym": lambda: elements(HeckeAlgebra, None),
    "HeckeElem-spec": lambda: elements(HeckeAlgebra, T33),
    "LaurentElem-sym": lambda: elements(LaurentAlgebra, None),
    "LaurentElem-spec": lambda: elements(LaurentAlgebra, T33),
    "IntPoly": int_polys,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_all_share_one_base():
    for make in CASES.values():
        a, *_ = make()
        assert isinstance(a, SparseSum) and a


def test_difference_with_itself_is_empty(case):
    a, b, _, _ = case
    for x in (a, b, a * b, a + b):
        d = x - x
        assert d.terms == {} and d.is_zero() and not d
        assert (x + (-x)).terms == {}
        assert x.scale(0).terms == {}


def test_equal_values_hash_equal(case):
    a, b, _, rebuild = case
    again = rebuild()
    assert again is not a and again == a and hash(again) == hash(a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a.scale(2) == a + a and hash(a.scale(2)) == hash(a + a)
    assert a**2 == a * a and a**0 == a.one() and a**1 == a


def test_mixing_types_raises_type_error(case):
    a, _, _, _ = case
    other = IntPoly.xi() if not isinstance(a, IntPoly) else ParamRing(3, 3).t(1)
    for bad in (1, Fraction(1, 2), other, "x"):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            bad + a
        with pytest.raises(TypeError):
            a - bad
        assert a != bad
    with pytest.raises(TypeError):
        a * "x"
    with pytest.raises(TypeError):
        a * other


# IntPoly has one space
@pytest.mark.parametrize("name", sorted(set(CASES) - {"IntPoly"}))
def test_incompatible_spaces_raise_and_differ(name):
    a, _, foreign, _ = CASES[name]()
    with pytest.raises(ValueError):
        a + foreign
    with pytest.raises(ValueError):
        a - foreign
    assert a != foreign and a.one() != foreign and foreign != a.one()
    if name.endswith("-spec"):
        # only the values of t tell the two ones apart
        assert a.one().terms == foreign.terms


def test_negative_power_has_one_message(case):
    a, _, _, _ = case
    with pytest.raises(ValueError, match=NEGATIVE_POWER):
        a ** -1


def test_int_poly_takes_rational_scalars_only():
    with pytest.raises(TypeError, match="unsupported operand"):
        IntPoly.xi() + 1
    assert 2 * IntPoly.xi() == IntPoly.xi() * 2 == IntPoly({(1, 0): 2})
    with pytest.raises(TypeError):
        IntPoly.xi().scale(0.5)
