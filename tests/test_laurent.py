"""The Laurent crossed product, the embedding theta, and the closed forms."""

import random

import pytest

from twisted_hecke.cyclotomic import Cyclotomic, zeta_power
from twisted_hecke.group import GroupElem
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra, LaurentMonomial
from twisted_hecke.suite import random_hecke_elem


@pytest.fixture(scope="module")
def pair32():
    return HeckeAlgebra(3, 2), LaurentAlgebra(3, 2)


@pytest.fixture(scope="module")
def pair43():
    return HeckeAlgebra(4, 3), LaurentAlgebra(4, 3)


def test_lmul_examples(pair32):
    _, L = pair32
    assert L.lmul(L.gen_y(1), L.gen_y(1, -1)) == L.one()
    # g_1 y_1 = zeta y_1 g_1 and g_1 y_2 = zeta^-1 y_2 g_1
    zeta = L.ring.zeta()
    y1g1 = L.lmul(L.gen_y(1), L.gen_g(1))
    assert L.lmul(L.gen_g(1), L.gen_y(1)) == y1g1.scale(zeta)
    y2g1 = L.lmul(L.gen_y(2), L.gen_g(1))
    assert L.lmul(L.gen_g(1), L.gen_y(2)) == y2g1.scale(L.ring.zeta(-1))


def test_theta_x_two_term_form(pair43):
    _, L = pair43
    for i in (1, 2, 3, 4):
        img = L.theta_x(i)
        assert len(img.terms) == 2
        top = LaurentMonomial(tuple(1 if j == i - 1 else 0 for j in range(4)), L.identity_g)
        assert img.terms[top] == L.ring.one()
        low = LaurentMonomial(
            tuple(-1 if j == i % 4 else 0 for j in range(4)),
            GroupElem.generator(4, 3, i),
        )
        zeta = zeta_power(3, 1)
        expected = L.ring.t(i).scale(-(zeta * (zeta - 1).inv()))
        assert img.terms[low] == expected


def test_theta_x_at_t_zero():
    zeros = tuple(Cyclotomic.zero(3) for _ in range(4))
    L0 = LaurentAlgebra(4, 3, zeros)
    for i in (1, 2, 3, 4):
        assert L0.theta_x(i) == L0.gen_y(i)


def test_theta_fixes_group_elements(pair32):
    H, L = pair32
    for i in (1, 2, 3):
        assert L.theta(H.gen_g(i)) == L.gen_g(i)


def test_theta_respects_the_defining_relation(pair32):
    H, L = pair32
    lhs = L.theta(H.mul(H.gen_x(2), H.gen_x(1)))
    rhs = L.lmul(L.theta_x(2), L.theta_x(1))
    assert lhs == rhs


def test_theta_is_linear(pair32):
    H, L = pair32
    a = H.gen_x(1) + H.gen_x(2).scale(H.ring.t(1))
    b = H.mul(H.gen_x(3), H.gen_g(2))
    assert L.theta(a + b) == L.theta(a) + L.theta(b)


def test_theta_homomorphism_random(pair43):
    H, L = pair43
    rng = random.Random(5)
    for _ in range(25):
        a = random_hecke_elem(H, rng)
        b = random_hecke_elem(H, rng)
        assert L.theta(H.mul(a, b)) == L.lmul(L.theta(a), L.theta(b))


def test_closed_form_x_pow_ell(pair32, pair43):
    for H, L in (pair32, pair43):
        for i in range(1, H.n + 1):
            assert L.theta(H.x_pow_ell(i)) == L.theta_xi_ell_closed(i)


def test_closed_form_sign_for_odd_n_even_ell(pair32):
    _, L = pair32
    # at n = 3, ell = 2 the sign (-1)^(n(ell-1)) is -1, so the second
    # term of the closed form for i = n is +tau_n^2 y_1^(-2)
    closed = L.theta_xi_ell_closed(3)
    low = LaurentMonomial((-2, 0, 0), L.identity_g)
    assert closed.terms[low] == L.ring.tau(3) ** 2


def test_closed_form_w(pair32, pair43):
    for H, L in (pair32, pair43):
        assert L.theta(H.build_w()) == L.theta_w_closed()


def test_closed_form_w_n3_shape(pair32):
    _, L = pair32
    closed = L.theta_w_closed()
    # y1 y2 y3 - zeta tau1 tau2 tau3 (y1 y2 y3)^(-1)
    scal = -zeta_power(2, 1)
    expected = L.monomial((1, 1, 1)) + L.monomial(
        (-1, -1, -1), None, L.ring.tau_product().scale(scal)
    )
    assert closed == expected


def test_closed_forms_at_t_zero():
    zeros = tuple(Cyclotomic.zero(2) for _ in range(3))
    L0 = LaurentAlgebra(3, 2, zeros)
    assert L0.theta_xi_ell_closed(1) == L0.monomial((2, 0, 0))
    assert L0.theta_w_closed() == L0.monomial((1, 1, 1))


def test_summation_identities_small():
    for n, ell in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        L = LaurentAlgebra(n, ell)
        assert L.leftside_identity_check()
        assert L.rightside_identity_check()


def test_closed_forms_are_central_in_laurent(pair43):
    _, L = pair43
    candidates = [L.theta_xi_ell_closed(i) for i in range(1, 5)] + [L.theta_w_closed()]
    gens = [L.gen_y(j) for j in range(1, 5)] + [L.gen_g(j) for j in range(1, 4)]
    for z in candidates:
        for gen in gens:
            assert L.commutator(z, gen).is_zero()


def test_injectivity_spotcheck(pair32):
    _, L = pair32
    assert L.injectivity_spotcheck(3)


def test_theta_leading_terms(pair32):
    H, L = pair32
    img = L.theta(H.monomial((1, 1, 0)))
    lead = LaurentMonomial((1, 1, 0), L.identity_g)
    assert img.terms[lead] == L.ring.one()
    assert all(m.total_degree < 2 for m in img.terms if m != lead)


def test_theta_rejects_mismatched_configuration(pair32):
    H, _ = pair32
    L43 = LaurentAlgebra(4, 3)
    with pytest.raises(ValueError):
        L43.theta(H.gen_x(1))


def test_render_golden(pair32):
    H, L = pair32
    assert L.theta(H.gen_x(1)).render() == "y1 - (1/2)*t1*y2^-1*g1"
    assert L.gen_y(1, -1).render() == "y1^-1"


def test_elements_of_the_two_algebras_never_mix(pair32):
    H, L = pair32
    assert H.one().terms == L.one().terms
    assert H.one() != L.one()
    with pytest.raises(TypeError) as add:
        H.one() + L.one()
    assert str(add.value) == "unsupported operand type(s) for +: 'HeckeElem' and 'LaurentElem'"
    with pytest.raises(TypeError) as mul:
        H.one() * L.one()
    assert str(mul.value) == "unsupported operand type(s) for *: 'HeckeElem' and 'LaurentElem'"


def test_specialized_and_symbolic_elements_never_mix(pair32):
    H, _ = pair32
    Hs = HeckeAlgebra(3, 2, tuple(Cyclotomic.one(2) for _ in range(3)))
    with pytest.raises(ValueError, match="^elements from incompatible algebras$"):
        H.one() + Hs.one()


def test_render_golden_theta_w():
    H, L = HeckeAlgebra(4, 3), LaurentAlgebra(4, 3)
    assert L.theta(H.build_w()).render() == (
        "y1*y2*y3*y4 + (1/9)*zeta*t1*t2*t3*t4*y1^-1*y2^-1*y3^-1*y4^-1"
    )
