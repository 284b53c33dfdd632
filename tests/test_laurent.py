"""The Laurent crossed product, the embedding theta, and the closed forms."""

import random

import pytest

from twisted_hecke.crossed import exponents_bounded
from twisted_hecke.cyclotomic import Cyclotomic, zeta_power
from twisted_hecke.group import GroupElem, all_elements
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra
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
        img = L.theta_x(i).monomial_terms()
        assert len(img) == 2
        top = (tuple(1 if j == i - 1 else 0 for j in range(4)), GroupElem.identity(4, 3))
        assert img[top] == L.ring.one()
        low = (tuple(-1 if j == i % 4 else 0 for j in range(4)), GroupElem.generator(4, 3, i))
        zeta = zeta_power(3, 1)
        expected = L.ring.t(i).scale(-(zeta * (zeta - 1).inv()))
        assert img[low] == expected


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
    low = ((-2, 0, 0), GroupElem.identity(3, 2))
    assert closed.monomial_terms()[low] == L.ring.tau(3) ** 2


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


def test_theta_cache_starts_with_the_closed_forms():
    L = LaurentAlgebra(4, 3)
    units = [tuple(int(j == i) for j in range(4)) for i in range(4)]
    assert set(L._theta_mono) == {(0, 0, 0, 0), *units}
    zeta = zeta_power(3, 1)
    for i in range(1, 5):
        coeff = L.ring.t(i).scale(-(zeta * (zeta - 1).inv()))
        low = tuple(-1 if j == i % 4 else 0 for j in range(4))
        expected = L.gen_y(i) + L.monomial(low, GroupElem.generator(4, 3, i), coeff)
        assert L.theta_x(i) is L._theta_mono[units[i - 1]]
        assert L.theta_x(i) == expected
    with pytest.raises(ValueError):
        L.theta_x(5)


def test_non_integer_configuration_is_rejected():
    # LaurentAlgebra(3, "2") once failed comparing a str with an int
    with pytest.raises(ValueError, match="^ell must be an integer, got '2'$"):
        LaurentAlgebra(3, "2")
    with pytest.raises(ValueError, match=r"^n must be an integer, got 4\.5$"):
        LaurentAlgebra(4.5, 3)


def test_non_integer_exponents_are_rejected(pair32):
    # y1^0.5 used to be stored and rendered
    _, L = pair32
    with pytest.raises(ValueError, match="^exponents must be integers"):
        L.monomial((0.5, 0, 0))
    assert L.monomial((-2, 0, 1)).render() == "y1^-2*y3"


def test_injectivity_spotcheck(pair32):
    _, L = pair32
    assert L.injectivity_spotcheck(3)


def injectivity_all_g(L, max_degree):
    """The check at every group element, as it was before the reduction to
    g = 1: the reference ``injectivity_spotcheck`` must agree with."""
    one = L.ring.one()
    for p in exponents_bounded(L.n, max_degree):
        d = sum(p)
        img_p = L._theta_monomial(p)
        for g in all_elements(L.n, L.ell):
            img = img_p
            if not g.is_identity():
                img = L.lmul(img_p, L.monomial(L._zero_p, g))
            lead = (p, g)
            terms = img.monomial_terms()
            if terms.get(lead) != one:
                return False
            for q, h in terms:
                if sum(q) >= d and (q, h) != lead:
                    return False
    return True


INJECTIVITY_POINTS = [(3, 2), (3, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("n,ell", INJECTIVITY_POINTS)
def test_injectivity_at_identity_agrees_with_every_g(n, ell):
    L = LaurentAlgebra(n, ell)
    assert L.injectivity_spotcheck(3)
    assert injectivity_all_g(L, 3)


@pytest.mark.parametrize("n,ell", INJECTIVITY_POINTS)
def test_injectivity_checks_reject_a_same_degree_term(n, ell, monkeypatch):
    # theta(x^p) gains y^p g_1, a second term of the leading degree
    real = LaurentAlgebra._theta_monomial
    g1 = GroupElem.generator(n, ell, 1)
    monkeypatch.setattr(
        LaurentAlgebra, "_theta_monomial", lambda L, p: real(L, p) + L.monomial(p, g1)
    )
    L = LaurentAlgebra(n, ell)
    assert not L.injectivity_spotcheck(3)
    assert not injectivity_all_g(L, 3)


@pytest.mark.parametrize("n,ell", INJECTIVITY_POINTS)
def test_injectivity_checks_reject_a_leading_coefficient_other_than_one(n, ell, monkeypatch):
    real = LaurentAlgebra._theta_monomial
    monkeypatch.setattr(LaurentAlgebra, "_theta_monomial", lambda L, p: real(L, p).scale(2))
    L = LaurentAlgebra(n, ell)
    assert not L.injectivity_spotcheck(3)
    assert not injectivity_all_g(L, 3)


def test_theta_leading_terms(pair32):
    H, L = pair32
    img = L.theta(H.monomial((1, 1, 0)))
    lead = ((1, 1, 0), GroupElem.identity(3, 2))
    terms = img.monomial_terms()
    assert terms[lead] == L.ring.one()
    assert all(sum(q) < 2 for q, h in terms if (q, h) != lead)


def test_theta_rejects_mismatched_configuration(pair32):
    H, _ = pair32
    L43 = LaurentAlgebra(4, 3)
    with pytest.raises(ValueError):
        L43.theta(H.gen_x(1))


def test_theta_and_closed_forms_reject_bad_input(pair32):
    _, L = pair32
    with pytest.raises(TypeError, match=r"^theta expects a Hecke element$"):
        L.theta(L.one())
    with pytest.raises(ValueError, match=r"^index 0 out of range 1..3$"):
        L.theta_xi_ell_closed(0)
    assert L.zero().total_degree() == -1


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


def test_symbolic_theta_images_keep_the_ring_one_on_their_leading_term():
    # no product is formed by the ring's unit, so the coefficient-1 term y^p
    # of theta(x^p) is the object unit itself, at the ring's own zero
    # t-exponent, which theta then skips multiplying
    L = LaurentAlgebra(4, 3)
    one, tz = L.ring.unit, L.ring.t_zero
    for p in exponents_bounded(4, 4):
        terms = L._theta_monomial(p).terms
        assert terms[(p, 0, tz)] is one
        ((_, _, key_tz),) = [key for key in terms if key[:2] == (p, 0)]
        assert key_tz is tz
