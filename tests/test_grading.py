"""The Z^n-grading: deg x_i = deg y_i = eps_i, deg t_i = eps_i + eps_(i+1)
(indices mod n) and deg g = 0.  Every defining relation and theta(x_i) is
homogeneous for it, so a product of homogeneous elements and its theta image
carry the sum of the factors' multidegrees, term by term.  A wrong t index
or a wrong exponent in the rewriting breaks that."""

import random
from operator import add

import pytest

from twisted_hecke import crossed
from twisted_hecke.coeffring import ParamRing
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra
from twisted_hecke.suite import random_hecke_elem

GRADING_POINTS = [(3, 2), (3, 4), (4, 3), (5, 4), (6, 3)]


def multidegrees(elem) -> set:
    """The multidegree of every (t-monomial, term) of an element with
    symbolic t."""
    n = elem.alg.n
    out = set()
    for (p, _), coeff in elem.monomial_terms().items():
        for e in coeff.terms:
            # position k collects t_k and t_(k-1); t_n wraps round to eps_1
            out.add(tuple(p[k] + e[k] + e[k - 1] for k in range(n)))
    return out


def grading_failures(H, L, count: int, seed: int) -> list:
    """The seeded single-term pairs (a, b) whose product a*b or its theta
    image has a term of multidegree other than deg a + deg b."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        a, b = (random_hecke_elem(H, rng, max_degree=3, max_terms=1) for _ in range(2))
        (da,), (db,) = multidegrees(a), multidegrees(b)
        want = {tuple(map(add, da, db))}
        prod = H.mul(a, b)
        if multidegrees(prod) != want or multidegrees(L.theta(prod)) != want:
            bad.append((a, b))
    return bad


@pytest.mark.parametrize("n,ell", GRADING_POINTS)
def test_products_and_theta_images_are_homogeneous(n, ell):
    H, L = HeckeAlgebra(n, ell), LaurentAlgebra(n, ell)
    assert grading_failures(H, L, count=150, seed=n * 100 + ell) == []


# w^ell costs 0.3-0.5 s at (5,4) and (6,3), so it is checked at the others
@pytest.mark.parametrize("n,ell", GRADING_POINTS[:3])
def test_w_power_ell_is_homogeneous(n, ell):
    # w = x_1...x_n + (lower terms), so w^ell has multidegree ell*delta
    assert multidegrees(HeckeAlgebra(n, ell).w_power(ell)) == {(ell,) * n}


class ShiftedParamRing(ParamRing):
    """t(i) hands out t_(i+1): a wrong t index in the rewriting."""

    def t(self, i):
        return super().t(i % self.n + 1)


def test_a_wrong_t_index_breaks_the_grading(monkeypatch):
    monkeypatch.setattr(crossed, "ParamRing", ShiftedParamRing)
    H, L = HeckeAlgebra(4, 3), LaurentAlgebra(4, 3)
    x2x1 = H.mul(H.gen_x(2), H.gen_x(1))
    assert x2x1.render() == "x1*x2 - t2*g1"
    assert len(multidegrees(x2x1)) == 2
    assert grading_failures(H, L, count=15, seed=403)
