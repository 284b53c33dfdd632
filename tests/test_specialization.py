"""Specialized t: the ring hands out bare Q(zeta) coefficients, and the
specialized kernels agree with the symbolic ones evaluated at t."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from twisted_hecke.coeffring import ParamPoly, ParamRing
from twisted_hecke.cyclotomic import Cyclotomic, accumulate, zeta_power
from twisted_hecke.exprs import eval_hecke, eval_laurent, eval_scalar, parse
from twisted_hecke.group import GroupElem
from twisted_hecke.hecke import HeckeAlgebra, HeckeElem, relation_a_terms, relation_b_terms
from twisted_hecke.laurent import LaurentAlgebra
from twisted_hecke.suite import random_hecke_elem

POINTS = [(3, 2), (4, 3), (5, 4), (3, 6)]
T_GENERIC = ("1", "zeta", "1/2", "-2", "zeta^2+1")
T_WITH_ZERO = ("1", "0", "1/2", "-2", "0")


def t_at(n, ell, texts):
    return tuple(eval_scalar(text, ell) for text in texts[:n])


@lru_cache(maxsize=None)
def symbolic(n, ell):
    # shared by both specializations, so each point computes w^ell and F once
    return HeckeAlgebra(n, ell), LaurentAlgebra(n, ell)


def at_t(alg, elem, values):
    """elem with every coefficient evaluated at t = values, zeros dropped,
    as an element of the specialized algebra alg."""
    out = alg.zero()
    for (p, g), c in elem.monomial_terms().items():
        out = out + alg.monomial(p, g, c.specialize(values))
    return out


@pytest.mark.parametrize("texts", [T_GENERIC, T_WITH_ZERO])
@pytest.mark.parametrize("n,ell", POINTS)
def test_specialized_kernels_agree_with_symbolic_ones_at_t(n, ell, texts):
    values = t_at(n, ell, texts)
    Hs, Ls = symbolic(n, ell)
    Ht, Lt = HeckeAlgebra(n, ell, values), LaurentAlgebra(n, ell, values)
    rng_s, rng_t = random.Random(f"agree:{n}:{ell}"), random.Random(f"agree:{n}:{ell}")
    for _ in range(8):
        a, b = random_hecke_elem(Hs, rng_s), random_hecke_elem(Hs, rng_s)
        a_t, b_t = at_t(Ht, a, values), at_t(Ht, b, values)
        # the same draws in the specialized algebra are the evaluated elements
        assert random_hecke_elem(Ht, rng_t) == a_t
        assert random_hecke_elem(Ht, rng_t) == b_t
        assert Ht.mul(a_t, b_t) == at_t(Ht, Hs.mul(a, b), values)
        theta_a, theta_b = Ls.theta(a), Ls.theta(b)
        assert Lt.theta(a_t) == at_t(Lt, theta_a, values)
        assert Lt.lmul(Lt.theta(a_t), Lt.theta(b_t)) == at_t(Lt, Ls.lmul(theta_a, theta_b), values)
    assert Ht.w_power(ell) == at_t(Ht, Hs.w_power(ell), values)
    relation = {key: c.specialize(values) for key, c in Hs.center_relation_terms().items()}
    assert Ht.center_relation_terms() == {key: c for key, c in relation.items() if c}
    assert Ht.evaluate_F() == at_t(Ht, Hs.evaluate_F(), values)


def random_hecke_elem_by_products(alg, rng, max_degree=3, max_terms=3):
    """``random_hecke_elem`` built through ParamPoly products, the reference
    for ``split_t_monomial``: the same draws, the coefficient multiplied by
    each drawn ring.t(i) and then split."""
    n, ell, ring = alg.n, alg.ell, alg.ring
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        p = [0] * n
        for _ in range(d):
            p[rng.randrange(n)] += 1
        g = alg.codes.encode([rng.randrange(ell) for _ in range(n - 1)])
        rat = Fraction(rng.choice((1, -1, 2, -2, 1, 3)), rng.choice((1, 1, 2)))
        coeff = ring.from_cyclotomic(
            Cyclotomic.from_rational(ell, rat).times_zeta(rng.randrange(ell))
        )
        for _ in range(rng.randint(0, 2)):
            coeff = coeff * ring.t(rng.randint(1, n))
        for tau, c in ring.split(coeff):
            accumulate(terms, (tuple(p), g, tau), c)
    return HeckeElem._new(alg, terms)


@pytest.mark.parametrize("texts", [None, T_GENERIC, T_WITH_ZERO])
@pytest.mark.parametrize("n,ell", POINTS)
def test_random_elements_equal_the_product_construction(n, ell, texts):
    # the same elements from the same draws, left in the same RNG state
    H = HeckeAlgebra(n, ell, None if texts is None else t_at(n, ell, texts))
    for seed in range(150):
        rng, ref = random.Random(f"split:{seed}"), random.Random(f"split:{seed}")
        for size in ((3, 3), (3, 2), (3, 1), (5, 4)):
            a, b = random_hecke_elem(H, rng, *size), random_hecke_elem_by_products(H, ref, *size)
            assert a == b
        assert rng.getstate() == ref.getstate()


def test_split_t_monomial_hands_out_the_unit_on_a_symbolic_t_monomial():
    # 1 t_1 t_3 is stored with the ring's unit, the coefficient t(i) holds,
    # which the product loop's ``is`` tests skip; a bare 1, or 1 times
    # specialized t values, is a value like any other
    symbolic, special = ParamRing(3, 3), ParamRing(3, 3, t_at(3, 3, T_GENERIC))
    one = Cyclotomic.one(3)
    assert one is not symbolic.unit
    assert symbolic.split_t_monomial(one, [1, 3]) == (((1, 0, 1), one),)
    assert symbolic.split_t_monomial(one, [1, 3])[0][1] is symbolic.unit
    assert symbolic.split_t_monomial(one, [])[0][1] is one
    assert special.split_t_monomial(one, [2])[0][1] == zeta_power(3, 1)
    assert symbolic.split_t_monomial(Cyclotomic.zero(3), [2]) == ()
    assert ParamRing(3, 3, t_at(3, 3, T_WITH_ZERO)).split_t_monomial(one, [1, 2]) == ()


def test_split_t_monomial_rejects_an_index_out_of_range():
    for ring in (ParamRing(3, 2), ParamRing(3, 2, t_at(3, 2, T_GENERIC))):
        with pytest.raises(ValueError, match="out of range"):
            ring.split_t_monomial(Cyclotomic.one(2), [1, 4])
        with pytest.raises(ValueError, match="out of range"):
            ring.split_t_monomial(Cyclotomic.one(2), [0])


def built_coefficients(H, L):
    """Every scalar and coefficient that a Hecke and a Laurent algebra build
    through their public constructors, kernels and closed forms, as three
    lists: the ring's scalars, the coefficients the elements and the
    rewriting caches store, and those of the elements' ``monomial_terms``."""
    n, ell, ring = H.n, H.ell, H.ring
    foreign = ParamRing(n, ell)
    scalars = [
        ring.zero(), ring.one(), ring.from_cyclotomic(zeta_power(ell, 1)),
        ring.from_rational(Fraction(1, 2)), ring.zeta(2), ring.tau_product(),
        ring.coerce(3), ring.coerce(foreign.t(1) * foreign.t(2)),
    ]
    for i in range(1, n + 1):
        scalars += [ring.t(i), ring.tau(i), ring.tau_tilde(i)]
    scalars += [c for _, c in relation_a_terms(ring) + relation_b_terms(ring)]
    scalars += list(H.center_relation_terms().values())
    rng = random.Random(f"types:{n}:{ell}")
    a, b = random_hecke_elem(H, rng), random_hecke_elem(H, rng)
    g1 = GroupElem.generator(n, ell, 1)
    elems = [
        H.zero(), H.one(), H.scalar(2), H.scalar(foreign.t(2)), H.gen_g(1),
        H.monomial((1,) + (0,) * (n - 1), g1, foreign.t(1)), H.x_pow_ell(n),
        a, b, H.mul(a, b), H.gr_mul(a, b), a * b, a + b, a - b, -a, 3 * a,
        zeta_power(ell, 1) * a, a.scale(ring.tau(1)), a.scale(foreign.t(1)), a**2,
        H.commutator(a, b),
        H.build_w(), H.w_power(ell), H.evaluate_F(), H.is_central(H.gen_x(1))[1],
        eval_hecke(parse("t1*x1*x2 + zeta*x2*g1 - 1/2"), H),
        L.theta(a), L.lmul(L.theta(a), L.theta(b)), L.theta_w_closed(),
        L.theta_xi_ell_closed(n), L.gen_y(1, -2),
        eval_laurent(parse("t2*y1^-1*g1 + zeta"), L),
    ]
    elems += [L.theta_x(i) for i in range(1, n + 1)]
    stored = [c for key in list(H._insert_cache) for _, c in H._insert(*key)]
    stored += [c for key in list(H._product_cache) for c in H._normal_product(*key).values()]
    viewed = []
    for elem in elems:
        if elem is not None:
            stored += list(elem.terms.values())
            viewed += list(elem.monomial_terms().values())
    return scalars, stored, viewed


@pytest.mark.parametrize("texts", [None, T_GENERIC, T_WITH_ZERO])
@pytest.mark.parametrize("n,ell", [(3, 4), (4, 3)])
def test_coefficients_are_cyclotomic_exactly_when_t_is_specialized(n, ell, texts):
    # the ring's scalars and the coefficients of the view are ParamPoly
    # exactly when t is symbolic; every coefficient an element or a cache
    # stores is a Cyclotomic in both modes
    values = None if texts is None else t_at(n, ell, texts)
    expected = ParamPoly if values is None else Cyclotomic
    H, L = HeckeAlgebra(n, ell, values), LaurentAlgebra(n, ell, values)
    scalars, stored, viewed = built_coefficients(H, L)
    assert len(stored) > 100 and len(viewed) > 40
    assert {type(c) for c in scalars + viewed} == {expected}
    assert {type(c) for c in stored} == {Cyclotomic}


def test_a_symbolic_coefficient_is_evaluated_in_a_specialized_algebra():
    ell = 3
    Ht = HeckeAlgebra(3, ell, t_at(3, ell, T_GENERIC))
    t = ParamRing(3, ell).t
    assert Ht.monomial((1, 0, 0), None, t(1)).render() == "x1"
    assert Ht.monomial((1, 0, 0), None, t(2) * t(3) * 4).render() == "2*zeta*x1"
    assert (t(2) * Ht.gen_x(1)).render() == "zeta*x1"
    assert Ht.gen_x(1).scale(t(3)).render() == "(1/2)*x1"
    assert Ht.scalar(t(1) * t(1) - t(1)).is_zero()
    # a symbolic algebra keeps the parameter
    assert HeckeAlgebra(3, ell).monomial((1, 0, 0), None, t(1)).render() == "t1*x1"
    for other in (ParamRing(4, ell), ParamRing(3, 4)):
        with pytest.raises(ValueError):
            Ht.monomial((1, 0, 0), None, other.t(1))
    with pytest.raises(TypeError):
        Ht.gen_x(1).scale("t1")
