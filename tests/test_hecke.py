"""The PBW rewriting engine: relations, normal forms, central elements."""

import itertools
import random
from fractions import Fraction

import pytest

from twisted_hecke.chebyshev import nu
from twisted_hecke.cyclotomic import Cyclotomic, accumulate, zeta_power
from twisted_hecke.exprs import eval_scalar
from twisted_hecke.group import GroupElem, alpha_exp
from twisted_hecke.hecke import (
    HeckeAlgebra,
    cover_complement,
    enumerate_J,
    expand_relation,
    relation_a_terms,
    relation_b_terms,
    successive_powers,
)
from twisted_hecke.laurent import LaurentAlgebra
from twisted_hecke.suite import random_hecke_elem

F = Fraction


@pytest.fixture(scope="module")
def H32():
    return HeckeAlgebra(3, 2)


@pytest.fixture(scope="module")
def H43():
    return HeckeAlgebra(4, 3)


def t_times_g(alg, i):
    g = GroupElem.generator(alg.n, alg.ell, i)
    return alg.monomial((0,) * alg.n, g, alg.ring.t(i))


def test_configuration_bounds():
    with pytest.raises(ValueError):
        HeckeAlgebra(2, 2)
    with pytest.raises(ValueError):
        HeckeAlgebra(3, 1)


def test_non_integer_configuration_is_rejected():
    # HeckeAlgebra(3.0, 2) once failed deep in the group code with a bare
    # TypeError about multiplying a sequence by a float
    with pytest.raises(ValueError, match=r"^n must be an integer, got 3\.0$"):
        HeckeAlgebra(3.0, 2)
    with pytest.raises(ValueError, match=r"^ell must be an integer, got 2\.0$"):
        HeckeAlgebra(3, 2.0)


def test_generator_monomials(H43):
    x1 = H43.gen_x(1)
    ((mono, coeff),) = x1.monomial_terms().items()
    assert mono == ((1, 0, 0, 0), GroupElem.identity(4, 3))
    assert coeff == H43.ring.one()
    gn = H43.gen_g(4)
    (((_, g), _),) = gn.monomial_terms().items()
    assert g.e == (2, 2, 2)
    with pytest.raises(ValueError):
        H43.gen_x(5)


def test_group_generator_index_out_of_range():
    H = HeckeAlgebra(3, 2)
    with pytest.raises(ValueError, match=r"^generator index 0 out of range 1\.\.3$"):
        H.gen_g(0)
    with pytest.raises(ValueError, match=r"^generator index 4 out of range 1\.\.3$"):
        H.gen_g(4)


def test_adjacent_relation(H32):
    x1, x2 = H32.gen_x(1), H32.gen_x(2)
    assert H32.mul(x2, x1) == H32.mul(x1, x2) - t_times_g(H32, 1)


def test_distant_generators_commute(H43):
    x1, x3 = H43.gen_x(1), H43.gen_x(3)
    assert H43.mul(x3, x1) == H43.mul(x1, x3)
    assert H43.commutator(x1, x3).is_zero()


def test_cyclic_relation():
    for n, ell in [(3, 2), (4, 3), (5, 4)]:
        alg = HeckeAlgebra(n, ell)
        xn, x1 = alg.gen_x(n), alg.gen_x(1)
        assert alg.mul(xn, x1) == alg.mul(x1, xn) + t_times_g(alg, n)


def test_group_action_on_generators(H32):
    # g_1 x_1 = zeta x_1 g_1, with zeta = -1 at ell = 2
    lhs = H32.mul(H32.gen_g(1), H32.gen_x(1))
    rhs = H32.mul(H32.gen_x(1), H32.gen_g(1)).scale(H32.ring.from_rational(-1))
    assert lhs == rhs


def test_commutator_examples(H32):
    x1, x2 = H32.gen_x(1), H32.gen_x(2)
    assert H32.commutator(x1, x1).is_zero()
    assert H32.commutator(x1, x2) == t_times_g(H32, 1)


def test_defining_relations_verbatim():
    for n, ell in [(3, 3), (4, 2), (5, 3)]:
        alg = HeckeAlgebra(n, ell)
        for i in range(1, n + 1):
            j = i % n + 1
            assert alg.commutator(alg.gen_x(i), alg.gen_x(j)) == t_times_g(alg, i)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (j - i) % n not in (1, n - 1):
                    assert alg.commutator(alg.gen_x(i), alg.gen_x(j)).is_zero()


def test_nested_rewrite_with_geometric_factor():
    # x_3 x_1^2 = x_1^2 x_3 + (1 + zeta^-1) t_3 x_1 g_3, worked by applying
    # the cyclic relation twice and commuting g_3 past x_1
    for ell in (2, 3, 4):
        alg = HeckeAlgebra(3, ell)
        lhs = alg.mul(alg.gen_x(3), alg.monomial((2, 0, 0)))
        scal = Cyclotomic.one(ell) + zeta_power(ell, -1)
        g3 = GroupElem.generator(3, ell, 3)
        rhs = alg.monomial((2, 0, 1)) + alg.monomial(
            (1, 0, 0), g3, alg.ring.t(3).scale(scal)
        )
        assert lhs == rhs


def test_enumerate_J_counts_and_membership():
    # Lucas numbers: 4, 7, 11 independent sets for the 3-, 4-, 5-cycle
    assert enumerate_J(3) == [(), (1,), (2,), (3,)]
    j4 = enumerate_J(4)
    assert len(j4) == 7
    assert (1, 3) in j4 and (2, 4) in j4
    assert (1, 2) not in j4 and (1, 4) not in j4
    assert len(enumerate_J(5)) == 11
    with pytest.raises(ValueError):
        enumerate_J(2)


def test_build_w_n3(H32):
    ring = H32.ring
    expected = (
        H32.monomial((1, 1, 1))
        + H32.monomial((0, 0, 1), GroupElem.generator(3, 2, 1), ring.tau(1))
        + H32.monomial((1, 0, 0), GroupElem.generator(3, 2, 2), ring.tau(2))
        + H32.monomial((0, 1, 0), GroupElem.generator(3, 2, 3), ring.tau(3))
    )
    assert H32.build_w() == expected


def test_build_w_n4(H43):
    ring = H43.ring
    G = lambda i: GroupElem.generator(4, 3, i)
    expected = (
        H43.monomial((1, 1, 1, 1))
        + H43.monomial((0, 0, 1, 1), G(1), ring.tau(1))
        + H43.monomial((1, 0, 0, 1), G(2), ring.tau(2))
        + H43.monomial((1, 1, 0, 0), G(3), ring.tau(3))
        + H43.monomial((0, 1, 1, 0), G(4), ring.tau(4))
        + H43.monomial((0, 0, 0, 0), G(1) * G(3), ring.tau(1) * ring.tau(3))
        # the cocycle contributes alpha(g_2, g_4) = zeta on the last term
        + H43.monomial(
            (0, 0, 0, 0),
            G(2) * G(4),
            (ring.tau(2) * ring.tau(4)).scale(zeta_power(3, 1)),
        )
    )
    assert H43.build_w() == expected


def test_build_w_at_t_zero():
    for n, ell in [(3, 2), (4, 3)]:
        zeros = tuple(Cyclotomic.zero(ell) for _ in range(n))
        alg = HeckeAlgebra(n, ell, zeros)
        assert alg.build_w() == alg.monomial((1,) * n)


def test_x_pow_ell_and_products(H32):
    a = H32.x_pow_ell(1)
    ((mono, coeff),) = a.monomial_terms().items()
    assert mono == ((2, 0, 0), GroupElem.identity(3, 2))
    assert coeff == H32.ring.one()
    prod = H32.mul(H32.x_pow_ell(1), H32.x_pow_ell(2))
    assert prod == H32.monomial((2, 2, 0))
    # product in the opposite order agrees (both are central)
    assert H32.mul(H32.x_pow_ell(2), H32.x_pow_ell(1)) == prod


def test_is_central(H32):
    ok, witness = H32.is_central(H32.gen_x(1))
    assert not ok
    assert witness == t_times_g(H32, 1)
    for i in (1, 2, 3):
        ok, _ = H32.is_central(H32.x_pow_ell(i))
        assert ok
    ok, _ = H32.is_central(H32.build_w())
    assert ok


def test_evaluate_F_small_grid():
    for n, ell in [(3, 2), (3, 3), (4, 2)]:
        assert HeckeAlgebra(n, ell).evaluate_F().is_zero()


def test_center_relation_undeformed():
    zeros = tuple(Cyclotomic.zero(2) for _ in range(3))
    alg = HeckeAlgebra(3, 2, zeros)
    one = alg.ring.one()
    # F degenerates to a_1 a_2 a_3 - b^ell
    assert alg.center_relation_terms() == {
        ((1, 1, 1), 0): one,
        ((0, 0, 0), 2): -one,
    }
    assert alg.evaluate_F().is_zero()


def test_associativity_on_random_sparse_triples():
    rng = random.Random(42)
    for n, ell in [(3, 2), (3, 3), (4, 2)]:
        alg = HeckeAlgebra(n, ell)
        for _ in range(12):
            a = random_hecke_elem(alg, rng, max_degree=3, max_terms=2)
            b = random_hecke_elem(alg, rng, max_degree=3, max_terms=2)
            c = random_hecke_elem(alg, rng, max_degree=3, max_terms=2)
            assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))


def test_filtration_and_top_part():
    rng = random.Random(7)
    for n, ell in [(3, 2), (4, 3)]:
        alg = HeckeAlgebra(n, ell)
        for _ in range(15):
            a = random_hecke_elem(alg, rng, max_degree=3, max_terms=2)
            b = random_hecke_elem(alg, rng, max_degree=3, max_terms=2)
            prod = alg.mul(a, b)
            da, db = a.total_degree(), b.total_degree()
            assert prod.total_degree() <= da + db
            # the degree-(da+db) part is the associated-graded product
            gr = alg.gr_mul(a.top_part(), b.top_part())
            top = {(p, g): c for (p, g), c in prod.monomial_terms().items() if sum(p) == da + db}
            assert top == gr.monomial_terms()


def test_pbw_independence_evidence():
    assert HeckeAlgebra(3, 2).pbw_independence_evidence(8)
    assert HeckeAlgebra(3, 3).pbw_independence_evidence(8)


def test_pbw_independence_evidence_fails_without_w(monkeypatch):
    # with w replaced by 1, x^(ell p) w^m lacks its leading monomial for m >= 1
    monkeypatch.setattr(HeckeAlgebra, "w_power", lambda self, k: self.one())
    assert not HeckeAlgebra(3, 2).pbw_independence_evidence(3)


def test_successive_powers_put_b_on_the_left():
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x * y

    pows = [1, 3]
    assert successive_powers(pows, mul, 4) == 81
    assert calls == [(3, 3), (3, 9), (3, 27)] and pows == [1, 3, 9, 27, 81]
    assert successive_powers(pows, mul, 2) == 9 and len(calls) == 3


@pytest.mark.parametrize("n", [4, 6])
def test_expand_relation_keeps_repeated_exponents(n):
    # the zero vector comes once per perfect matching of the n-cycle; a map
    # keyed by exponents would keep one of the two
    L = LaurentAlgebra(n, 2)
    a_terms = relation_a_terms(L.ring)
    zero = (0,) * n
    assert [v for v, _ in a_terms].count(zero) == 2
    pair = ((zero, 0), L.ring.one())
    assert expand_relation(L, [pair, pair], [], [L.one()]) == L.one().scale(2)
    closed = [L.theta_xi_ell_closed(i) for i in range(1, n + 1)]
    pairs = [((v, 0), c) for v, c in a_terms]
    assert expand_relation(L, pairs, closed, [L.one()]) == L._power_sum_rhs()


def test_negative_w_power_and_zero_degree(H32):
    with pytest.raises(ValueError, match=r"^negative power of w$"):
        H32.w_power(-1)
    assert H32.zero().total_degree() == -1


def test_w_leading_term(H32):
    w = H32.build_w()
    lead = ((1, 1, 1), GroupElem.identity(3, 2))
    assert w.monomial_terms()[lead] == H32.ring.one()


@pytest.mark.parametrize("n, ell", [(3, 3), (4, 2), (4, 4)])
def test_w_power_matches_repeated_squaring(n, ell):
    # w_power multiplies by w one step at a time; ** goes through
    # power_by_squaring, an independent route to the same powers
    alg = HeckeAlgebra(n, ell)
    w = alg.build_w()
    for k in range(ell + 1):
        assert alg.w_power(k) == w**k


def test_sklyanin_check():
    for ell in (2, 3, 4):
        assert HeckeAlgebra(3, ell).sklyanin_check()
    with pytest.raises(ValueError):
        HeckeAlgebra(4, 2).sklyanin_check()


def test_scalar_and_power_operators(H32):
    x1 = H32.gen_x(1)
    assert (x1 + x1) == x1.scale(H32.ring.from_rational(2))
    assert x1**0 == H32.one()
    assert x1**3 == H32.monomial((3, 0, 0))
    assert (2 * x1) == x1 * 2
    with pytest.raises(ValueError):
        x1 ** (-1)


def test_monomial_validation(H32):
    with pytest.raises(ValueError):
        H32.monomial((1, -1, 0))
    with pytest.raises(ValueError):
        H32.monomial((1, 0))


def test_non_integer_exponents_are_rejected(H32):
    # x1^1.5 used to be stored and rendered
    with pytest.raises(ValueError, match="^x-exponents must be nonnegative integers$"):
        H32.monomial((1.5, 0, 0))


@pytest.mark.parametrize("t", [None, "1,zeta,1/2", "0,zeta,1/2"])
def test_insert_never_scales_by_zero(t, monkeypatch):
    # the geometric sum over a passed block is often zero (an empty block, or
    # one whose length is a multiple of ell): it is tested before the product
    values = None if t is None else tuple(eval_scalar(s, 2) for s in t.split(","))
    H = HeckeAlgebra(3, 2, values)
    coeff_type = type(H.ring.t(1))
    real, zeros = coeff_type.scale, []

    def scale(c, s):
        if not s:
            zeros.append(s)
        return real(c, s)

    monkeypatch.setattr(coeff_type, "scale", scale)
    x = [H.gen_x(i) for i in (1, 2, 3)]
    for a, b in itertools.product(x + [x[0] * x[0], x[2] * x[1]], repeat=2):
        H.mul(b * a, a * b)
    assert H._insert_cache and zeros == []


def test_off_grid_configurations():
    # nothing is tuned to the default grid; a couple of outliers
    for n, ell in [(6, 2), (3, 5)]:
        H = HeckeAlgebra(n, ell)
        assert H.evaluate_F().is_zero()
        ok, _ = H.is_central(H.build_w())
        assert ok


def test_specialized_pipeline_matches_symbolic_specialization():
    # computing symbolically and then evaluating the coefficients must agree
    # with computing in an algebra whose parameters were fixed up front
    ell = 3
    values = (
        Cyclotomic.from_rational(ell, F(1, 2)),
        zeta_power(ell, 1),
        Cyclotomic.from_rational(ell, -2),
    )
    Hs = HeckeAlgebra(3, ell)
    Hv = HeckeAlgebra(3, ell, values)

    def at_values(elem):
        out = Hv.zero()
        for (p, g), c in elem.monomial_terms().items():
            out = out + Hv.monomial(p, g, c.specialize(values))
        return out

    a = Hs.mul(Hs.gen_x(3), Hs.mul(Hs.gen_x(2), Hs.gen_x(1)))
    w = Hs.build_w()
    assert at_values(w) == Hv.build_w()
    assert at_values(Hs.mul(a, w)) == Hv.mul(at_values(a), Hv.build_w())
    assert Hv.evaluate_F().is_zero()


def test_render_golden(H32):
    assert H32.zero().render() == "0"
    assert H32.one().render() == "1"
    assert H32.mul(H32.gen_x(2), H32.gen_x(1)).render() == "x1*x2 - t1*g1"
    assert (
        H32.build_w().render()
        == "x1*x2*x3 - (1/2)*t2*x1*g2 + (1/2)*t3*x2*g2*g1 - (1/2)*t1*x3*g1"
    )


# -- beta and w against their term-by-term derivations ----------------------

# odd and even n and ell, so that every sign branch of the old formulas runs;
# at ell = 6, zeta^3 = -1 could cancel a wrong sign of beta
REFERENCE_POINTS = [(3, 2), (3, 3), (4, 3), (5, 4), (5, 5), (3, 6)]
REFERENCE_T = ("1", "zeta", "1/2", "-2", "zeta^2+1")


def reference_algebra(n, ell, specialised):
    t = tuple(eval_scalar(v, ell) for v in REFERENCE_T[:n]) if specialised else None
    return HeckeAlgebra(n, ell, t)


def reference_b_terms(ring):
    """(ell - 2r, (-1)^(nr) zeta^((n-2)r) nu_r (tau_1..tau_n)^r), with the
    sign and the zeta power worked out for each r."""
    n, ell = ring.n, ring.ell
    taus = ring.tau_product()
    out = []
    for r in range(ell // 2 + 1):
        scal = zeta_power(ell, (n - 2) * r) * Cyclotomic.from_rational(ell, nu(ell, r))
        if (n * r) % 2:
            scal = -scal
        out.append((ell - 2 * r, (taus**r).scale(scal)))
    return out


def reference_w(H):
    """w with the group factors of each term folded in the twisted group
    algebra, g h with alpha(g, h), and the product of the alphas scaling the
    term."""
    n, ell, ring = H.n, H.ell, H.ring
    acc = {}
    for subset in enumerate_J(n):
        coeff = ring.one()
        for i in subset:
            coeff = coeff * ring.tau(i)
        scal = Cyclotomic.one(ell)
        g = GroupElem.identity(n, ell)
        for i in subset:
            gi = GroupElem.generator(n, ell, i)
            scal = scal * zeta_power(ell, alpha_exp(g, gi))
            g = g * gi
        accumulate(acc, (cover_complement(n, subset), g), coeff.scale(scal))
    return sum((H.monomial(p, g, c) for (p, g), c in acc.items()), H.zero())


@pytest.mark.parametrize("specialised", [False, True])
@pytest.mark.parametrize("n, ell", REFERENCE_POINTS)
def test_relation_b_terms_match_the_signed_tau_formula(n, ell, specialised):
    ring = reference_algebra(n, ell, specialised).ring
    assert relation_b_terms(ring) == reference_b_terms(ring)


@pytest.mark.parametrize("specialised", [False, True])
@pytest.mark.parametrize("n, ell", REFERENCE_POINTS)
def test_build_w_matches_the_star_mul_fold(n, ell, specialised):
    H = reference_algebra(n, ell, specialised)
    expected = reference_w(H)
    assert H.build_w() == expected
    assert H.build_w().render() == expected.render()


@pytest.mark.parametrize("specialised", [False, True])
@pytest.mark.parametrize("n, ell", REFERENCE_POINTS)
def test_power_sum_rhs_matches_the_signed_tau_power(n, ell, specialised):
    # Y^ell + (-1)^(n ell) (tau_1..tau_n)^ell Y^(-ell), Y = y_1..y_n: the
    # right side both summation identities compare against
    L = LaurentAlgebra(n, ell, reference_algebra(n, ell, specialised).ring.t_values)
    coeff = L.ring.tau_product() ** ell
    if (n * ell) % 2:
        coeff = -coeff
    expected = L.monomial((ell,) * n) + L.monomial((-ell,) * n, None, coeff)
    assert L._power_sum_rhs() == expected


@pytest.mark.parametrize("specialised", [False, True])
@pytest.mark.parametrize("n, ell", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_w_power_with_w_on_the_left_matches_the_right_multiplied_powers(n, ell, specialised):
    # w_power builds w^k as w * w^(k-1); the powers built the other way,
    # w^(k-1) * w, on an algebra of their own (no shared caches), agree
    H, old = reference_algebra(n, ell, specialised), reference_algebra(n, ell, specialised)
    w = old.build_w()
    power = old.one()
    for k in range(ell + 1):
        assert H.w_power(k) == power
        assert H.w_power(k).render() == power.render()
        power = old.mul(power, w)
