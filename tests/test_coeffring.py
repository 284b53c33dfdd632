"""The parameter ring Q(zeta)[t_1..t_n]: arithmetic, tau scalars, specialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_hecke.coeffring import ParamRing
from twisted_hecke.cyclotomic import Cyclotomic, zeta_power

F = Fraction


def ring(n=3, ell=2, t_values=None):
    return ParamRing(n, ell, t_values)


def test_basic_monomial_arithmetic():
    r = ring()
    t1, t2 = r.t(1), r.t(2)
    assert t1 + r.zero() == t1
    prod = t1 * t2
    assert prod.terms == {(1, 1, 0): Cyclotomic.one(2)}
    half_t1 = t1.scale(F(-1, 2))
    assert half_t1 * half_t1 == (t1 * t1).scale(F(1, 4))


def test_dimension_mismatch_rejected():
    a = ring(3, 2).t(1)
    b = ring(4, 2).t(1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + ring(3, 3).t(1)


def test_ring_bounds():
    with pytest.raises(ValueError):
        ParamRing(17, 2)
    with pytest.raises(ValueError):
        ParamRing(3, 1)


def test_tau_values_for_ell_two():
    r = ring(3, 2)
    assert r.tau(1) == r.t(1).scale(F(-1, 2))
    assert r.tau(2) == r.t(2).scale(F(-1, 2))
    assert r.tau(3) == r.t(3).scale(F(1, 2))


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_tau_inverts_zeta_minus_one(ell):
    r = ring(4, ell)
    zm1 = zeta_power(ell, 1) - 1
    for i in range(1, 4):
        assert r.tau(i).scale(zm1) == r.t(i)
    assert r.tau(4).scale(zm1) == r.t(4).scale(zeta_power(ell, 1))


def test_tau_tilde_examples():
    r = ring(3, 2)
    assert r.tau_tilde(1) == (r.t(1) * r.t(1)).scale(F(1, 4))
    # the sign (-1)^(n(ell-1)) is -1 for n = 3, ell = 2
    assert r.tau_tilde(3) == (r.t(3) * r.t(3)).scale(F(-1, 4))


@pytest.mark.parametrize("n,ell", [(4, 2), (4, 3), (3, 3), (6, 4)])
def test_tau_tilde_sign_rule(n, ell):
    r = ring(n, ell)
    for i in range(1, n + 1):
        expected = r.tau(i) ** ell
        if i == n and (n * (ell - 1)) % 2:
            expected = -expected
        assert r.tau_tilde(i) == expected


def test_specialize_examples():
    r = ring(3, 2)
    zero = Cyclotomic.zero(2)
    one = Cyclotomic.one(2)
    assert r.t(1).specialize([zero, zero, zero]) == zero
    assert (r.t(1) * r.t(2)).specialize([one, one, zero]) == one
    # tau_1 evaluated at t_1 = zeta - 1 collapses to 1
    zm1 = zeta_power(2, 1) - 1
    assert r.tau(1).specialize([zm1, zero, zero]) == one


def test_specialized_ring_constant_parameters():
    values = (
        Cyclotomic.one(3),
        zeta_power(3, 1),
        Cyclotomic.zero(3),
    )
    r = ring(3, 3, values)
    assert r.t(1) == r.one()
    assert r.t(3).is_zero()
    assert r.t(2) == r.from_cyclotomic(zeta_power(3, 1))


def test_render_graded_lex():
    r = ring(3, 2)
    p = r.t(1) * r.t(1) + r.t(2) + r.one().scale(3)
    assert p.render() == "t1^2 + t2 + 3"
    assert (r.t(1) * r.t(1)).scale(F(1, 4)).render() == "(1/4)*t1^2"


small_rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def polys(n=3, ell=3, max_terms=4):
    r = ring(n, ell)
    exps = st.tuples(*([st.integers(min_value=0, max_value=3)] * n))
    coeffs = st.builds(
        lambda rat, k: Cyclotomic.from_rational(ell, rat) * zeta_power(ell, k),
        small_rat,
        st.integers(min_value=0, max_value=ell - 1),
    )
    def build(pairs):
        from twisted_hecke.coeffring import ParamPoly
        terms = {}
        for e, c in pairs:
            terms[e] = terms.get(e, Cyclotomic.zero(ell)) + c
        return ParamPoly(n, ell, terms)
    return st.lists(st.tuples(exps, coeffs), min_size=0, max_size=max_terms).map(build)


@given(polys(), polys(), polys())
@settings(max_examples=100, deadline=None)
def test_ring_axioms_on_random_samples(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


values3 = st.tuples(
    *(
        st.builds(
            lambda rat, k: Cyclotomic.from_rational(3, rat) * zeta_power(3, k),
            small_rat,
            st.integers(min_value=0, max_value=2),
        )
        for _ in range(3)
    )
)


@given(polys(), polys(), values3)
@settings(max_examples=100, deadline=None)
def test_specialize_is_a_ring_homomorphism(a, b, vals):
    vals = list(vals)
    assert (a * b).specialize(vals) == a.specialize(vals) * b.specialize(vals)
    assert (a + b).specialize(vals) == a.specialize(vals) + b.specialize(vals)


def test_specialize_rejects_bad_values():
    t1 = ring().t(1)
    with pytest.raises(ValueError, match=r"^expected 3 values, got 2$"):
        t1.specialize([Cyclotomic.one(2)] * 2)
    with pytest.raises(ValueError, match=r"^specialization values must lie in Q\(zeta\) for this ell$"):
        t1.specialize([zeta_power(3, 1)] * 3)


def test_param_ring_rejects_bad_parameters():
    with pytest.raises(ValueError, match=r"^expected 3 parameter values, got 2$"):
        ParamRing(3, 2, (Cyclotomic.one(2),) * 2)
    with pytest.raises(ValueError, match=r"^parameter values must be Cyclotomic of matching ell$"):
        ParamRing(3, 2, (1, 2, 3))
    with pytest.raises(ValueError, match=r"^scalar from a different cyclotomic field$"):
        ring().from_cyclotomic(zeta_power(3, 1))
    with pytest.raises(ValueError, match=r"^parameter index 0 out of range 1..3$"):
        ring().t(0)
