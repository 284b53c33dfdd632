"""PBW engine for the twisted graded Hecke algebra of (Z/ell)^(n-1).

The algebra H is generated by x_1, ..., x_n and the group G, subject to

    x_i x_(i+1) - x_(i+1) x_i = t_i g_i      (subscripts mod n),
    x_i x_j = x_j x_i                        (|i - j| not in {1, n-1}),

on top of the crossed-product law twisted by the cocycle alpha.  Elements
are stored in PBW normal form: finite sums of monomials
x_1^(p_1) ... x_n^(p_n) g with coefficients in Q(zeta)[t_1..t_n].

Multiplication normal-orders the concatenated word by moving each left
factor x_i rightward to its slot.  Passing a power x_j^m is free unless the
pair is cyclically adjacent, in which case a correction term of total
degree two lower is emitted: the relation contributes +-t g, the group
element picks up an action character while commuting to the right end, and
a geometric sum in zeta accounts for the copies of x_j already passed.
Each step either lowers the inversion count at constant degree or lowers
the degree by two, so the rewriting terminates; associativity and agreement
with the Laurent-side embedding are checked by the test suite, which makes
the rewriting confluent on everything we compute.

Element arithmetic, the algebra plumbing and the associated graded product
``gr_mul`` come from ``crossed``; this module adds the rewriting, w and F.
"""

from __future__ import annotations

import itertools

from .chebyshev import nu
from .crossed import (
    CrossedAlgebra,
    CrossedElem,
    Monomial,
    crossed_mul,
    exponents_bounded,
)
from .cyclotomic import Cyclotomic, zeta_power
from .group import (
    GroupElem,
    action_char_exp,
    alpha,
    alpha_exp,
    star_mul,
)

__all__ = ["PBWMonomial", "HeckeElem", "HeckeAlgebra", "enumerate_J"]

# x_1^(p_1) ... x_n^(p_n) g, with the factors in exactly that order
PBWMonomial = Monomial


def enumerate_J(n: int) -> list[tuple]:
    """All independent sets of the n-cycle {1..n}, as increasing tuples.

    A subset qualifies iff no two members are cyclically adjacent, i.e.
    |i - j| is never 1 or n-1.  Includes the empty set; ordered by size and
    then lexicographically, so the output is deterministic.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    out = []
    for k in range(n + 1):
        for comb in itertools.combinations(range(1, n + 1), k):
            if all(
                abs(a - b) not in (1, n - 1)
                for a, b in itertools.combinations(comb, 2)
            ):
                out.append(comb)
    return out


def cover_complement(n: int, subset) -> tuple:
    """delta - eps_(i_1) - ... - eps_(i_k) for an independent set: all ones,
    with positions i and i+1 (mod n) lowered for each member i."""
    v = [1] * n
    for i in subset:
        v[i - 1] -= 1
        v[i % n] -= 1
    return tuple(v)


class HeckeElem(CrossedElem):
    """A finite sum of PBW monomials with ParamPoly coefficients."""

    __slots__ = ()

    def top_part(self) -> "HeckeElem":
        """The homogeneous part of highest filtration degree."""
        d = self.total_degree()
        return HeckeElem(
            self.alg, {m: c for m, c in self.terms.items() if sum(m.p) == d}
        )

    def render(self) -> str:
        """Canonical text form in the shared expression grammar."""
        return self._render("x")


class HeckeAlgebra(CrossedAlgebra):
    """The twisted graded Hecke algebra for a fixed configuration (n, ell).

    ``t_values`` specializes the deformation parameters to concrete Q(zeta)
    scalars; by default they stay symbolic.  Instances cache the rewriting
    steps they have performed, so reusing one algebra across many products
    is markedly faster than constructing fresh ones.
    """

    elem_type = HeckeElem

    def __init__(self, n: int, ell: int, t_values=None):
        super().__init__(n, ell, t_values)
        self._insert_cache: dict = {}
        self._product_cache: dict = {}
        self._w: HeckeElem | None = None
        self._w_pows: dict[int, HeckeElem] = {}

    # -- construction ---------------------------------------------------

    def monomial(self, p, g: GroupElem | None = None, coeff=None) -> HeckeElem:
        p = tuple(p)
        if any(k < 0 for k in p):
            raise ValueError("x-exponents must be nonnegative integers")
        return super().monomial(p, g, coeff)

    def gen_x(self, i: int) -> HeckeElem:
        return self._gen_power(i, 1)

    def x_pow_ell(self, i: int) -> HeckeElem:
        """The central monomial x_i^ell (already in normal form)."""
        return self._gen_power(i, self.ell)

    # -- multiplication --------------------------------------------------

    def _insert(self, i: int, q: tuple, g: GroupElem):
        """x_i * (x^q g) in PBW form, as ((exponents, group, coeff), ...).

        The main term moves x_i to its slot.  When x_i passes a cyclically
        adjacent block a correction appears: the pair is consumed by the
        defining relation, the geometric factor sums the characters from
        copies of the passed generator, and the action character plus
        cocycle move the new group element to the right end.
        """
        key = (i, q, g)
        hit = self._insert_cache.get(key)
        if hit is not None:
            return hit
        n, ell, ring = self.n, self.ell, self.ring
        main = list(q)
        main[i - 1] += 1
        out = [(tuple(main), g, ring.one())]
        if i >= 2 and q[i - 2]:
            m = q[i - 2]
            scal = Cyclotomic.zero(ell)
            for v in range(m):
                scal = scal + zeta_power(ell, v)
            gi = GroupElem.generator(n, ell, i - 1)
            scal = scal * zeta_power(ell, -q[i - 1]) * alpha(gi, g)
            coeff = ring.t(i - 1).scale(-scal)
            if coeff:
                lower = list(q)
                lower[i - 2] -= 1
                out.append((tuple(lower), gi * g, coeff))
        if i == n and q[0]:
            m = q[0]
            scal = Cyclotomic.zero(ell)
            for v in range(m):
                scal = scal + zeta_power(ell, -v)
            gn = GroupElem.generator(n, ell, n)
            scal = scal * zeta_power(ell, q[n - 1]) * alpha(gn, g)
            coeff = ring.t(n).scale(scal)
            if coeff:
                lower = list(q)
                lower[0] -= 1
                out.append((tuple(lower), gn * g, coeff))
        out = tuple(out)
        self._insert_cache[key] = out
        return out

    def _normal_product(self, p: tuple, q: tuple, g: GroupElem) -> dict:
        """Normal form of x^p * x^q * g as {(exponents, group): coeff}."""
        key = (p, q, g)
        hit = self._product_cache.get(key)
        if hit is not None:
            return hit
        one = self.ring.one()
        cur = {(q, g): one}
        for i in range(self.n, 0, -1):
            for _ in range(p[i - 1]):
                nxt: dict = {}
                for (qq, gg), c in cur.items():
                    for q2, g2, c2 in self._insert(i, qq, gg):
                        if c2 is one:
                            nc = c
                        elif c is one:
                            nc = c2
                        else:
                            nc = c * c2
                        k2 = (q2, g2)
                        prev = nxt.get(k2)
                        if prev is None:
                            nxt[k2] = nc
                        else:
                            s = prev + nc
                            if s:
                                nxt[k2] = s
                            else:
                                del nxt[k2]
                cur = nxt
        self._product_cache[key] = cur
        return cur

    def mul(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        """Product in H, returned in canonical PBW form."""
        a._compat(b)
        ell = self.ell
        out: dict = {}
        for (p, g), ca in a.terms.items():
            for (q, h), cb in b.terms.items():
                z = action_char_exp(g, q) + alpha_exp(g, h)
                base = ca * cb
                if z % ell:
                    base = base.scale(zeta_power(ell, z))
                for (q2, g2), c in self._normal_product(p, q, g * h).items():
                    v = base if c is self.ring._one else base * c
                    mono = PBWMonomial(q2, g2)
                    prev = out.get(mono)
                    if prev is None:
                        out[mono] = v
                    else:
                        s = prev + v
                        if s:
                            out[mono] = s
                        else:
                            del out[mono]
        return HeckeElem(self, out)

    # product in the associated graded algebra: the crossed product of the
    # polynomial ring (all x commuting) with the twisted group
    gr_mul = crossed_mul

    # -- distinguished central elements ----------------------------------

    def build_w(self) -> HeckeElem:
        """The central element

            w = sum over independent sets {i_1<...<i_k} of the n-cycle of
                tau_(i_1)...tau_(i_k) x^(delta - eps_(i_1) - ... - eps_(i_k))
                g_(i_1) * ... * g_(i_k)

        where delta = (1,..,1), eps_i lowers positions i and i+1 (mod n),
        and the group factors multiply in the twisted group algebra.
        """
        if self._w is None:
            n, ell, ring = self.n, self.ell, self.ring
            acc: dict = {}
            for subset in enumerate_J(n):
                coeff = ring.one()
                for i in subset:
                    coeff = coeff * ring.tau(i)
                scal = Cyclotomic.one(ell)
                g = self.identity_g
                for i in subset:
                    c, g = star_mul(g, GroupElem.generator(n, ell, i))
                    scal = scal * c
                coeff = coeff.scale(scal)
                if coeff:
                    mono = PBWMonomial(cover_complement(n, subset), g)
                    prev = acc.get(mono)
                    acc[mono] = coeff if prev is None else prev + coeff
            self._w = HeckeElem(self, {m: c for m, c in acc.items() if c})
        return self._w

    def w_power(self, k: int) -> HeckeElem:
        if k < 0:
            raise ValueError("negative power of w")
        cached = self._w_pows.get(k)
        if cached is None:
            if k == 0:
                cached = self.one()
            elif k == 1:
                cached = self.build_w()
            elif k % 2 == 0:
                half = self.w_power(k // 2)
                cached = self.mul(half, half)
            else:
                cached = self.mul(self.w_power(k - 1), self.build_w())
            self._w_pows[k] = cached
        return cached

    def is_central(self, z: HeckeElem):
        """(True, None) if z commutes with every generator of H, else
        (False, first nonzero commutator as witness)."""
        gens = [self.gen_x(i) for i in range(1, self.n + 1)]
        gens += [self.gen_g(j) for j in range(1, self.n)]
        for gen in gens:
            c = self.commutator(z, gen)
            if c:
                return False, c
        return True, None

    # -- the center relation ---------------------------------------------

    def center_relation_terms(self) -> dict:
        """The relation satisfied by a_i = x_i^ell and b = w, as a
        commutative polynomial: {(a_exponents, b_exponent): coefficient}.

            F = sum over independent sets of tau~ products times
                a^(delta - sum of eps)
              - sum_r (-1)^(nr) zeta^((n-2)r) nu_r (tau_1..tau_n)^r b^(ell-2r)
        """
        n, ell, ring = self.n, self.ell, self.ring
        terms: dict = {}

        def put(key, coeff):
            prev = terms.get(key)
            s = coeff if prev is None else prev + coeff
            if s:
                terms[key] = s
            elif prev is not None:
                del terms[key]

        for subset in enumerate_J(n):
            coeff = ring.one()
            for i in subset:
                coeff = coeff * ring.tau_tilde(i)
            put((cover_complement(n, subset), 0), coeff)
        taus = ring.tau_product()
        for r in range(ell // 2 + 1):
            scal = zeta_power(ell, (n - 2) * r) * Cyclotomic.from_rational(ell, nu(ell, r))
            if (n * r) % 2:
                scal = -scal
            put(((0,) * n, ell - 2 * r), -(taus**r).scale(scal))
        return terms

    def evaluate_F(self) -> HeckeElem:
        """Substitute a_i -> x_i^ell, b -> w into the center relation and
        expand in H.  The result is the zero element exactly when the
        relation holds, which the acceptance suite asserts on a grid."""
        total = self.zero()
        for (a, bexp), coeff in self.center_relation_terms().items():
            mono = self.monomial(tuple(self.ell * k for k in a))
            term = self.mul(mono, self.w_power(bexp)) if bexp else mono
            total = total + term.scale(coeff)
        return total

    # -- finite evidence for the basis and spot checks --------------------

    def pbw_independence_evidence(self, max_total_degree: int) -> bool:
        """Check that the normal forms of x^(ell p) w^m (0 <= m < ell,
        bounded total degree) each contain their expected leading monomial
        x^(ell p + m delta) with nonzero coefficient, and that these leading
        monomials are pairwise distinct."""
        seen = set()
        for m in range(self.ell):
            base = m * self.n
            if base > max_total_degree:
                break
            smax = (max_total_degree - base) // self.ell
            for p in exponents_bounded(self.n, smax):
                prod = self.mul(
                    self.monomial(tuple(self.ell * k for k in p)), self.w_power(m)
                )
                lead = PBWMonomial(
                    tuple(self.ell * k + m for k in p), self.identity_g
                )
                if lead in seen or prod.terms.get(lead) is None:
                    return False
                seen.add(lead)
        return True

    def sklyanin_check(self) -> bool:
        """For n = 3, verify phi_i phi_(i+1) - zeta phi_(i+1) phi_i = zeta t_i
        with phi_i = x_i g_(i+1), indices mod 3."""
        if self.n != 3:
            raise ValueError("the Sklyanin spot-check requires n = 3")
        zeta = self.ring.zeta()
        phi = [self.mul(self.gen_x(i), self.gen_g(i % 3 + 1)) for i in (1, 2, 3)]
        for i in range(3):
            a, b = phi[i], phi[(i + 1) % 3]
            lhs = self.mul(a, b) - self.mul(b, a).scale(zeta)
            rhs = self.scalar(zeta * self.ring.t(i + 1))
            if lhs != rhs:
                return False
        return True

