"""Crossed product of Laurent polynomials with the homocyclic group, and
the embedding theta of the Hecke algebra into it.

The y_i commute with one another, so multiplication here never rewrites
anything: (y^p g)(y^q h) = char(g, q) alpha(g, h) y^(p+q) (gh), the law
``crossed.crossed_mul`` implements for both algebras and which is bound here
as ``lmul``.  That makes this algebra a fast, independent oracle for the
PBW rewriting engine via

    theta(x_i) = y_i - (zeta t_i / (zeta - 1)) y_(i+1)^(-1) g_i,
    theta(g)   = g,

extended to PBW monomials by multiplying the generator images in PBW order.
The closed forms for theta of x_i^ell and of w, and the two summation
identities they satisfy over independent sets of the n-cycle, are exposed
as exact checks.
"""

from __future__ import annotations

from functools import reduce

from .crossed import CrossedAlgebra, CrossedElem, crossed_mul, exponents_bounded
from .cyclotomic import zeta_power
from .hecke import HeckeElem, relation_a_terms, relation_b_terms

__all__ = ["LaurentElem", "LaurentAlgebra"]


class LaurentElem(CrossedElem):
    """A finite sum of Laurent monomials c t^tau y^p g (``CrossedElem``)."""

    __slots__ = ()

    # bound in this class, as for HeckeElem
    render = CrossedElem.render


class LaurentAlgebra(CrossedAlgebra):
    """C[y_1^+-, ..., y_n^+-] crossed with G, twisted by the same cocycle."""

    elem_type = LaurentElem
    var = "y"

    def __init__(self, n: int, ell: int, t_values=None):
        super().__init__(n, ell, t_values)
        # theta(x^p) by exponent vector, seeded with theta(x^0) = 1 and the
        # closed forms theta(x_i) = y_i - (zeta t_i/(zeta-1)) y_(i+1)^(-1) g_i
        self._theta_mono: dict = {self._zero_p: self.one()}
        zeta = zeta_power(ell, 1)
        scal = -(zeta * (zeta - 1).inv())
        for i in range(1, n + 1):
            q_low = tuple(-1 if k == i % n else 0 for k in range(n))
            low = self._term(q_low, self.codes.generator(i), self.ring.t(i).scale(scal))
            self._theta_mono[tuple(int(k == i - 1) for k in range(n))] = self.gen_y(i) + low

    def gen_y(self, i: int, k: int = 1) -> LaurentElem:
        return self._gen_power(i, k)

    lmul = crossed_mul

    def mul(self, a: LaurentElem, b: LaurentElem) -> LaurentElem:
        # looked up at call time, so products through * and ** reach the
        # current binding of lmul
        return self.lmul(a, b)

    # -- the embedding ----------------------------------------------------

    def theta_x(self, i: int) -> LaurentElem:
        """theta(x_i) = y_i - (zeta t_i/(zeta-1)) y_(i+1)^(-1) g_i, mod-n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self._theta_mono[tuple(int(j == i - 1) for j in range(self.n))]

    def _theta_monomial(self, p: tuple) -> LaurentElem:
        """theta(x^p) = theta(x^(p - e_j)) theta(x_j), with j the last nonzero
        position of p.  Every link of the chain is cached, from theta(x^0)
        and the theta(x_i) on.  The chain is built in a loop from its longest
        cached prefix, so no recursion grows with |p|."""
        cache = self._theta_mono
        chain = []
        while p not in cache:
            j = len(p) - 1
            while not p[j]:
                j -= 1
            chain.append((p, j + 1))
            p = p[:j] + (p[j] - 1,) + p[j + 1 :]
        img = cache[p]
        for link, i in reversed(chain):
            img = cache[link] = self.lmul(img, self.theta_x(i))
        return img

    def theta(self, a: HeckeElem) -> LaurentElem:
        """Image of a Hecke element: each PBW monomial x^p g maps to
        theta(x_1)^(p_1) ... theta(x_n)^(p_n) g, extended linearly: the cached
        image of x^p times c t^tau y^0 g, the crossed product's right group
        step."""
        if not isinstance(a, HeckeElem):
            raise TypeError("theta expects a Hecke element")
        if not self.ring.same_parameters(a.alg.ring):
            raise ValueError("Hecke element from an incompatible configuration")
        total: dict = {}
        for (p, g, tau), c in a.terms.items():
            img = self._theta_monomial(p).terms.items()
            self._accumulate_product(total, img, (((self._zero_p, g, tau), c),))
        return LaurentElem._new(self, total)

    # -- closed forms and identities ---------------------------------------

    def theta_xi_ell_closed(self, i: int) -> LaurentElem:
        """Closed form y_i^ell - tau~_i y_(i+1)^(-ell) of theta(x_i^ell);
        for i = n the coefficient tau~_n carries the sign (-1)^(n(ell-1))."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        n, ell = self.n, self.ell
        q_low = tuple(-ell if j == i % n else 0 for j in range(n))
        return self.gen_y(i, ell) + self.monomial(q_low, None, -self.ring.tau_tilde(i))

    def theta_w_closed(self) -> LaurentElem:
        """Closed form Y + beta Y^(-1) of theta(w), with Y = y_1...y_n and
        beta from ``ParamRing.beta``."""
        n = self.n
        return self.monomial((1,) * n) + self.monomial((-1,) * n, None, self.ring.beta())

    def _power_sum_rhs(self) -> LaurentElem:
        # Y^ell + beta^ell Y^(-ell), Y = y_1...y_n
        n, ell = self.n, self.ell
        coeff = self.ring.beta() ** ell
        return self.monomial((ell,) * n) + self.monomial((-ell,) * n, None, coeff)

    def leftside_identity_check(self) -> bool:
        """sum over independent sets of tau~ products times products of the
        closed forms theta(x_i^ell) equals Y^ell + beta^ell Y^(-ell), with
        Y = y_1...y_n."""
        closed = {i: self.theta_xi_ell_closed(i) for i in range(1, self.n + 1)}
        total = self.zero()
        for v, coeff in relation_a_terms(self.ring):
            factors = [closed[i] for i in range(1, self.n + 1) if v[i - 1]]
            prod = reduce(self.lmul, factors) if factors else self.one()
            total = total + prod.scale(coeff)
        return total == self._power_sum_rhs()

    def rightside_identity_check(self) -> bool:
        """sum_r nu_r beta^r bt^(ell-2r), with bt = Y + beta Y^(-1) the
        closed form of theta(w), equals the same right side
        Y^ell + beta^ell Y^(-ell)."""
        bt = self.theta_w_closed()
        total = self.zero()
        for bexp, coeff in relation_b_terms(self.ring):
            total = total + (bt**bexp).scale(coeff)
        return total == self._power_sum_rhs()

    def injectivity_spotcheck(self, max_degree: int) -> bool:
        """Triangularity evidence: for every PBW monomial x^p g of total
        degree at most max_degree, theta(x^p g) contains y^p g with
        coefficient exactly one and every other term has strictly smaller
        total degree.

        Only g = 1 is examined, which decides every g: theta(x^p g) is
        theta(x^p) times y^0 g, and right multiplication by y^0 g sends each
        term c y^q h to alpha(h, g) c y^q (hg).  That map is injective on
        monomials, keeps every degree and scales every coefficient by a root
        of unity, and the leading term y^p 1 picks up alpha(1, g) = 1.
        A negative bound would examine nothing and raises ValueError.
        """
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        one = self.ring.unit
        for p in exponents_bounded(self.n, max_degree):
            d = sum(p)
            lead = (p, 0, self.ring.t_zero)
            img = self._theta_monomial(p)
            if img.terms.get(lead) != one:
                return False
            for mono in img.terms:
                if sum(mono[0]) >= d and mono != lead:
                    return False
        return True
