"""PBW engine for the twisted graded Hecke algebra of (Z/ell)^(n-1).

The algebra H is generated by x_1, ..., x_n and the group G, subject to

    x_i x_(i+1) - x_(i+1) x_i = t_i g_i      (subscripts mod n),
    x_i x_j = x_j x_i                        (|i - j| not in {1, n-1}),

on top of the crossed-product law twisted by the cocycle alpha.  Elements
are stored in PBW normal form: finite sums of monomials
x_1^(p_1) ... x_n^(p_n) g with coefficients in Q(zeta)[t_1..t_n], each
held as its t-monomials with Q(zeta) scalars (``crossed``).

Multiplication normal-orders the concatenated word by moving each left
factor x_i rightward to its slot.  The group factor of a PBW monomial sits
at the right end, so x_i (x^q g) = (x_i x^q) g: the rewriting happens at
g = 1, its caches are keyed by exponents alone, and the group factor is
applied once, on the right, by the crossed product's right group step.
Passing a power x_j^m is free unless the pair is cyclically adjacent, in
which case a correction term of total degree two lower is emitted: the
relation contributes +-t_r g_r (a term at t-exponent e_r), the group
element picks up an action character while commuting to the right end, and
a geometric sum in zeta accounts for the copies of x_j already passed.
Each step either lowers the inversion count at constant degree or lowers
the degree by two, so the rewriting terminates; associativity and agreement
with the Laurent-side embedding are checked by the test suite, which makes
the rewriting confluent on everything we compute.

Element arithmetic, the algebra plumbing and the product loop come from
``crossed``: the twist of each term pair, both group steps and ``gr_mul``.
This module adds only the rewriting, w, F and the one expansion of F and
its parts (``expand_relation``) that both algebras call.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import prod

from .crossed import CrossedAlgebra, CrossedElem, crossed_mul, exponents_bounded
from .cyclotomic import Cyclotomic, accumulate, zeta_power
from .group import GroupElem, check_degree_bound

__all__ = ["HeckeElem", "HeckeAlgebra", "enumerate_J"]


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


def independence_exponents(n: int, ell: int, max_total_degree: int):
    """(p, m) for every product x^(ell p) w^m with 0 <= m < ell and total
    degree ell |p| + n m <= max_total_degree: the cases
    ``pbw_independence_evidence`` examines."""
    for m in range(ell):
        base = m * n
        if base > max_total_degree:
            break
        for p in exponents_bounded(n, (max_total_degree - base) // ell):
            yield p, m


def relation_a_terms(ring) -> list:
    """The a-part of the center relation F: (delta - sum of eps_i,
    product of tau~_i) for each independent set of the n-cycle, in
    ``enumerate_J`` order."""
    out = []
    for subset in enumerate_J(ring.n):
        coeff = prod(map(ring.tau_tilde, subset), start=ring.one())
        out.append((cover_complement(ring.n, subset), coeff))
    return out


def relation_b_terms(ring) -> list:
    """The b-part of F without its sign: (ell - 2r, nu_r beta^r) for
    0 <= r <= ell/2, with beta from ``ParamRing.beta``."""
    # chebyshev is imported here, not with the module, so that building an
    # algebra loads neither it nor ``fractions``
    from .chebyshev import nu

    ell, beta = ring.ell, ring.beta()
    return [(ell - 2 * r, (beta**r).scale(nu(ell, r))) for r in range(ell // 2 + 1)]


def successive_powers(pows: list, mul, k: int):
    """b^k from pows = [b^0, b^1, ...], which holds b^0, and b^1 when
    k >= 1.  Each missing power is appended as b^j = b * b^(j-1), one
    product by b."""
    while len(pows) <= k:
        pows.append(mul(pows[1], pows[-1]))
    return pows[k]


def expand_relation(alg, pairs, a, b_pows: list):
    """The sum of c b^m a_1^(k_1) ... a_n^(k_n) over ((k, m), c) pairs in
    ``alg``, with b^m from ``successive_powers`` over b_pows: F or either of
    its parts.  Pairs, not a map: at even n, ``relation_a_terms`` yields the
    zero vector once per perfect matching of the n-cycle."""
    total = alg.zero()
    for (k, m), c in pairs:
        factors = [a_i for a_i, k_i in zip(a, k) for _ in range(k_i)]
        term = reduce(alg.mul, factors, successive_powers(b_pows, alg.mul, m))
        total = total + term.scale(c)
    return total


class HeckeElem(CrossedElem):
    """A finite sum of PBW monomials c t^tau x^p g (``CrossedElem``)."""

    __slots__ = ()

    def top_part(self) -> "HeckeElem":
        """The homogeneous part of highest filtration degree."""
        d = self.total_degree()
        return self._like({m: c for m, c in self.terms.items() if sum(m[0]) == d})

    # bound in this class, so the per-layer tracer can wrap it for HeckeElem
    # alone
    render = CrossedElem.render


class HeckeAlgebra(CrossedAlgebra):
    """The twisted graded Hecke algebra for a fixed configuration (n, ell).

    ``t_values`` specializes the deformation parameters to concrete Q(zeta)
    scalars; by default they stay symbolic.  Instances cache the rewriting
    steps they have performed, so reusing one algebra across many products
    is markedly faster than constructing fresh ones.
    """

    elem_type = HeckeElem
    var = "x"

    def __init__(self, n: int, ell: int, t_values=None):
        super().__init__(n, ell, t_values)
        self._insert_cache: dict = {}
        self._product_cache: dict = {}
        # w^0, w^1, ...: w itself is built once, into place 1
        self._w_pows: list[HeckeElem] = [self.one()]

    # -- construction ---------------------------------------------------

    def monomial(self, p, g: GroupElem | None = None, coeff=None) -> HeckeElem:
        p = tuple(p)
        if not all(isinstance(k, int) and k >= 0 for k in p):
            raise ValueError("x-exponents must be nonnegative integers")
        return super().monomial(p, g, coeff)

    def gen_x(self, i: int) -> HeckeElem:
        return self._gen_power(i, 1)

    def x_pow_ell(self, i: int) -> HeckeElem:
        """The central monomial x_i^ell (already in normal form)."""
        return self._gen_power(i, self.ell)

    # -- multiplication --------------------------------------------------

    def _insert(self, i: int, q: tuple):
        """x_i * x^q in PBW form, as term-map items
        (((exponents, group, t-exponent), coeff), ...).

        The rewriting happens at g = 1, since x_i (x^q g) = (x_i x^q) g; the
        callers apply the group factor on the right.  The main term moves x_i
        to its slot.  Passing a cyclically adjacent block x_j^m consumes the
        pair by relation r as s t_r g_r, and g_r picks up the geometric factor
        sum_(v<m) zeta^(s(q_i - v)) on its way past the copies of x_j and x_i:
        the term is that scalar at t-exponent e_r, or t_r's value times it
        when t is specialized.
        """
        key = (i, q)
        hit = self._insert_cache.get(key)
        if hit is not None:
            return hit
        n, ell, ring = self.n, self.ell, self.ring
        main = list(q)
        main[i - 1] += 1
        out = [((tuple(main), 0, ring.t_zero), ring.unit)]
        # (relation r, passed position, sign s): x_(i-1) before x_i, x_1 after x_n
        for r, j, s in [(i - 1, i - 2, -1)] * (i >= 2) + [(n, 0, 1)] * (i == n):
            terms = (zeta_power(ell, s * (q[i - 1] - v)) for v in range(q[j]))
            scal = sum(terms, Cyclotomic.zero(ell))
            if not scal:
                continue
            lower = list(q)
            lower[j] -= 1
            lower, g_r = tuple(lower), self.codes.generator(r)
            # no term when a specialised t_r is 0
            for tau, c in ring.split(ring.t(r).scale(scal if s > 0 else -scal)):
                out.append(((lower, g_r, tau), c))
        out = tuple(out)
        self._insert_cache[key] = out
        return out

    def _normal_product(self, p: tuple, q: tuple) -> dict:
        """Normal form of x^p * x^q as {(exponents, group, t-exponent): coeff}:
        an inserted term c t^tau x^r k landing on a word c' t^sigma x^qq gg
        becomes alpha(k, gg) c c' t^(tau+sigma) x^r (k gg)."""
        key = (p, q)
        hit = self._product_cache.get(key)
        if hit is not None:
            return hit
        cur = {(q, 0, self.ring.t_zero): self.ring.unit}
        for i in range(self.n, 0, -1):
            for _ in range(p[i - 1]):
                nxt: dict = {}
                for (qq, gg, tau), c in cur.items():
                    step = (((self._zero_p, gg, tau), c),)
                    self._accumulate_product(nxt, self._insert(i, qq), step)
                cur = nxt
        self._product_cache[key] = cur
        return cur

    def mul(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        """Product in H in canonical PBW form: (x^p g) b = x^p (g b), where g b
        is the crossed product, as only the [x_i, x_j] are deformed (the loop
        on one left term ca x^0 g), and the terms c x^q k of g b that share
        an x^q add x^p x^q in normal form times the sum of their c x^0 k (one
        loop per distinct q, whose right side is those terms).  Each term's
        t-exponent rides on the one-term side of the first step and on the
        right side of the second."""
        a._check(b)
        step, zero, out = self._accumulate_product, self._zero_p, {}
        for (p, g, sigma), ca in a.terms.items():
            gb: dict = {}
            step(gb, (((zero, g, sigma), ca),), b.terms.items())
            by_q: dict = {}
            for (q, k, tau), c in gb.items():
                by_q.setdefault(q, []).append(((zero, k, tau), c))
            for q, right in by_q.items():
                step(out, self._normal_product(p, q).items(), right)
        return HeckeElem._new(self, out)

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
        and the group factors multiply in H, which reads alpha through
        ``twist_row`` and ``twist_exp`` as every product does.
        """
        pows = self._w_pows
        if len(pows) == 1:
            ring, w = self.ring, self.zero()
            for subset in enumerate_J(self.n):
                coeff = prod(map(ring.tau, subset), start=ring.one())
                term = self.monomial(cover_complement(self.n, subset), None, coeff)
                w = w + reduce(self.mul, map(self.gen_g, subset), term)
            pows.append(w)
        return pows[1]

    def w_power(self, k: int) -> HeckeElem:
        """w^k from the successive powers w^0, w^1, ... (``successive_powers``):
        each new power is w * w^(k-1), which costs less than w^(k-1) * w here
        because ``_normal_product(p, q)`` inserts the |p| letters of the left
        factor into x^q one at a time, and w's monomials have |p| <= n where
        those of w^(k-1) reach |p| = n(k-1).  No centrality of w is used
        (``centrality-w`` checks that on its own)."""
        if not isinstance(k, int):
            raise ValueError(f"the power of w must be an integer, got {k!r}")
        if k < 0:
            raise ValueError("negative power of w")
        if k:
            self.build_w()
        return successive_powers(self._w_pows, self.mul, k)

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
              - sum_r nu_r beta^r b^(ell-2r)
        """
        terms: dict = {}
        # the two parts share the key ((0,...,0), 0) at even n and even ell
        for a, coeff in relation_a_terms(self.ring):
            accumulate(terms, (a, 0), coeff)
        for bexp, coeff in relation_b_terms(self.ring):
            accumulate(terms, (self._zero_p, bexp), -coeff)
        return terms

    def evaluate_F(self) -> HeckeElem:
        """F at a_i = x_i^ell and b = w, expanded in H by ``expand_relation``
        with w's powers from ``w_power``'s list.  The result is the zero
        element exactly when the relation holds, which the acceptance suite
        asserts on a grid."""
        a = [self.x_pow_ell(i) for i in range(1, self.n + 1)]
        self.build_w()
        return expand_relation(self, self.center_relation_terms().items(), a, self._w_pows)

    # -- finite evidence for the basis and spot checks --------------------

    def pbw_independence_evidence(self, max_total_degree: int) -> bool:
        """Check that the normal forms of x^(ell p) w^m (0 <= m < ell,
        bounded total degree) each contain their expected leading monomial
        x^(ell p + m delta) with nonzero coefficient, and that these leading
        monomials are pairwise distinct.  The bound is an integer >= 0
        (``check_degree_bound``)."""
        check_degree_bound("max_total_degree", max_total_degree)
        seen = set()
        for p, m in independence_exponents(self.n, self.ell, max_total_degree):
            product = self.mul(
                self.monomial(tuple(self.ell * k for k in p)), self.w_power(m)
            )
            lead = (tuple(self.ell * k + m for k in p), 0)
            if lead in seen or not any(key[:2] == lead for key in product.terms):
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

