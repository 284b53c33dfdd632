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

from .chebyshev import nu
from .crossed import CrossedAlgebra, CrossedElem, Monomial, crossed_mul, exponents_bounded
from .cyclotomic import Cyclotomic, zeta_power
from .group import GroupElem, all_elements
from .hecke import HeckeElem, cover_complement, enumerate_J

__all__ = ["LaurentMonomial", "LaurentElem", "LaurentAlgebra"]

# y_1^(p_1) ... y_n^(p_n) g with integer (possibly negative) exponents
LaurentMonomial = Monomial


class LaurentElem(CrossedElem):
    """A finite sum of Laurent monomials with ParamPoly coefficients."""

    __slots__ = ()

    def render(self) -> str:
        return self._render("y")


class LaurentAlgebra(CrossedAlgebra):
    """C[y_1^+-, ..., y_n^+-] crossed with G, twisted by the same cocycle."""

    elem_type = LaurentElem

    def __init__(self, n: int, ell: int, t_values=None):
        super().__init__(n, ell, t_values)
        self._theta_x: dict[int, LaurentElem] = {}
        self._theta_x_pows: dict = {}
        self._theta_mono: dict = {}

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
        cached = self._theta_x.get(i)
        if cached is not None:
            return cached
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        n, ell, ring = self.n, self.ell, self.ring
        zeta = zeta_power(ell, 1)
        coeff = ring.t(i).scale(-(zeta * (zeta - 1).inv()))
        q_low = tuple(-1 if j == i % n else 0 for j in range(n))
        gi = GroupElem.generator(n, ell, i)
        result = self.gen_y(i) + self.monomial(q_low, gi, coeff)
        self._theta_x[i] = result
        return result

    def _theta_x_pow(self, i: int, k: int) -> LaurentElem:
        key = (i, k)
        cached = self._theta_x_pows.get(key)
        if cached is None:
            if k == 0:
                cached = self.one()
            else:
                cached = self.lmul(self._theta_x_pow(i, k - 1), self.theta_x(i))
            self._theta_x_pows[key] = cached
        return cached

    def _theta_monomial(self, p: tuple) -> LaurentElem:
        cached = self._theta_mono.get(p)
        if cached is None:
            cached = self.one()
            for i, k in enumerate(p, start=1):
                if k:
                    cached = self.lmul(cached, self._theta_x_pow(i, k))
            self._theta_mono[p] = cached
        return cached

    def theta(self, a: HeckeElem) -> LaurentElem:
        """Image of a Hecke element: each PBW monomial x^p g maps to
        theta(x_1)^(p_1) ... theta(x_n)^(p_n) g, extended linearly."""
        if not isinstance(a, HeckeElem):
            raise TypeError("theta expects a Hecke element")
        if not self.ring.same_parameters(a.alg.ring):
            raise ValueError("Hecke element from an incompatible configuration")
        total = self.zero()
        for (p, g), c in a.terms.items():
            img = self._theta_monomial(p)
            if not g.is_identity():
                img = self.lmul(img, self.monomial(self._zero_p, g))
            total = total + img.scale(c)
        return total

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
        """Closed form of theta(w):
        y_1...y_n + (-1)^n zeta^(n-2) tau_1...tau_n (y_1...y_n)^(-1)."""
        n = self.n
        scal = zeta_power(self.ell, n - 2)
        if n % 2:
            scal = -scal
        coeff = self.ring.tau_product().scale(scal)
        return self.monomial((1,) * n) + self.monomial((-1,) * n, None, coeff)

    def _power_sum_rhs(self) -> LaurentElem:
        # (y_1...y_n)^ell + (-1)^(n ell) (tau_1...tau_n)^ell (y_1...y_n)^(-ell)
        n, ell = self.n, self.ell
        coeff = self.ring.tau_product() ** ell
        if (n * ell) % 2:
            coeff = -coeff
        return self.monomial((ell,) * n) + self.monomial((-ell,) * n, None, coeff)

    def leftside_identity_check(self) -> bool:
        """sum over independent sets of tau~ products times products of the
        closed forms theta(x_i^ell) equals
        (y_1..y_n)^ell + (-1)^(n ell) (tau_1..tau_n)^ell (y_1..y_n)^(-ell)."""
        ring = self.ring
        closed = {i: self.theta_xi_ell_closed(i) for i in range(1, self.n + 1)}
        total = self.zero()
        for subset in enumerate_J(self.n):
            coeff = ring.one()
            for i in subset:
                coeff = coeff * ring.tau_tilde(i)
            v = cover_complement(self.n, subset)
            prod = self.one()
            for i in range(1, self.n + 1):
                if v[i - 1]:
                    prod = self.lmul(prod, closed[i])
            total = total + prod.scale(coeff)
        return total == self._power_sum_rhs()

    def rightside_identity_check(self) -> bool:
        """sum_r (-1)^(nr) zeta^((n-2)r) nu_r (tau_1..tau_n)^r bt^(ell-2r),
        with bt the closed form of theta(w), equals the same right side."""
        n, ell, ring = self.n, self.ell, self.ring
        bt = self.theta_w_closed()
        bt_pows = {0: self.one()}
        for k in range(1, ell + 1):
            bt_pows[k] = self.lmul(bt_pows[k - 1], bt)
        taus = ring.tau_product()
        total = self.zero()
        for r in range(ell // 2 + 1):
            scal = zeta_power(ell, (n - 2) * r) * Cyclotomic.from_rational(ell, nu(ell, r))
            if (n * r) % 2:
                scal = -scal
            total = total + bt_pows[ell - 2 * r].scale((taus**r).scale(scal))
        return total == self._power_sum_rhs()

    def injectivity_spotcheck(self, max_degree: int) -> bool:
        """Triangularity evidence: for every PBW monomial x^p g of total
        degree at most max_degree, theta(x^p g) contains y^p g with
        coefficient exactly one and every other term has strictly smaller
        total degree."""
        one = self.ring.one()
        for p in exponents_bounded(self.n, max_degree):
            d = sum(p)
            img_p = self._theta_monomial(p)
            for g in all_elements(self.n, self.ell):
                img = img_p
                if not g.is_identity():
                    img = self.lmul(img_p, self.monomial(self._zero_p, g))
                lead = img.terms.get(LaurentMonomial(p, g))
                if lead != one:
                    return False
                for mono in img.terms:
                    if mono.total_degree >= d and mono != LaurentMonomial(p, g):
                        return False
        return True
