"""The alpha-twisted crossed product of a monomial ring with G, the part
shared by the Hecke algebra and its Laurent oracle.

Both algebras store elements as finite sums of monomials m^p g with
coefficients in Q(zeta)[t_1..t_n], or in Q(zeta) when t is specialized,
where m^p is x^p (Hecke, p >= 0) or y^p (Laurent, p in Z^n).  When the
m_i commute, products follow the crossed-product law

    (m^p g)(m^q h) = char(g, q) alpha(g, h) m^(p+q) (gh),

which is the whole multiplication of the Laurent algebra, the associated
graded multiplication of the Hecke algebra and, with p = 0, its left group
step g (x^q h), which the deformation leaves alone.  The twist
char(g, q) alpha(g, h) is zeta^z, with z evaluated from the exponent
vector of g (``group.twist_exp``) and applied to the coefficient as a
shift (``times_zeta``), not a product.  This module holds that law, the
element type (its sums and scalings from ``cyclotomic.SparseSum``) and the
algebra plumbing; the subclasses add PBW rewriting (Hecke) and theta
(Laurent).  Every product of either algebra ends in the law's right group
step, the case q = 0: c m^r k times g is alpha(k, g) c m^r (kg).  The PBW
product, its normal-ordering and theta all take it from
``CrossedAlgebra._accumulate_times``.
"""

from __future__ import annotations

from operator import add

from .coeffring import ParamRing
from .cyclotomic import SparseSum, accumulate, graded_lex_key, indexed_powers, render_terms
from .group import GroupElem, check_bounds, twist_exp

__all__ = ["CrossedElem", "CrossedAlgebra", "crossed_mul", "exponents_bounded"]


def exponents_bounded(n: int, total: int):
    """Every n-tuple of nonnegative integers with sum at most ``total``, in
    lexicographic order; nothing when ``total`` is negative."""
    if total < 0:
        return
    if n == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in exponents_bounded(n - 1, total - first):
            yield (first,) + rest


class CrossedElem(SparseSum):
    """A finite sum of monomials (a ``SparseSum``) with coefficients from the
    algebra's ParamRing: ParamPoly for symbolic t, Cyclotomic for
    specialized t.  Each term is keyed by an (exponents, group) pair (p, g)
    standing for m_1^(p_1) ... m_n^(p_n) g, with the factors in exactly that
    order and integer exponents that may be negative on the Laurent side.
    Elements of different algebra types never mix: arithmetic between them
    is a TypeError."""

    __slots__ = ("alg",)
    _mixed = "elements from incompatible algebras"

    def __init__(self, alg: "CrossedAlgebra", terms: dict):
        self.alg = alg
        super().__init__(terms)

    @classmethod
    def _new(cls, alg: "CrossedAlgebra", terms: dict):
        """An element of ``alg`` holding ``terms`` as they are (no zero)."""
        new = object.__new__(cls)
        new.alg = alg
        new.terms = terms
        return new

    def _like(self, terms: dict):
        return self._new(self.alg, terms)

    def _same_space(self, other: "CrossedElem") -> bool:
        return self.alg.compatible(other.alg)

    def _coerce(self, value):
        return self.alg.ring.coerce(value)

    def one(self):
        return self.alg.one()

    def total_degree(self) -> int:
        """Filtration degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(p) for p, _ in self.terms)

    def __mul__(self, other):
        if type(other) is type(self):
            return self.alg.mul(self, other)
        return self.__rmul__(other)

    def sorted_terms(self):
        # ties of exponents broken by the group element
        return sorted(
            self.terms.items(), key=lambda item: (graded_lex_key(item[0][0]), item[0][1].e)
        )

    def render(self) -> str:
        """Canonical text form in the shared expression grammar, with the
        monomial generators named by the algebra (``alg.var``)."""
        terms = []
        var = self.alg.var
        for (p, g), coeff in self.sorted_terms():
            tail = indexed_powers(var, p) + g.factors()
            for rat, factors in coeff.factor_terms():
                terms.append((rat, factors + tail))
        return render_terms(terms)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"


def crossed_mul(alg: "CrossedAlgebra", a: CrossedElem, b: CrossedElem) -> CrossedElem:
    """(m^p g)(m^q h) = char(g,q) alpha(g,h) m^(p+q) (gh), bilinearly, with
    zeta's exponent z from ``twist_exp``; H's left group step g (x^q h) is
    the case p = 0.  A left coefficient is shifted to ca zeta^z once for
    each z it meets, at most ell shifts per left term, and that shift
    multiplies cb.  No product is formed when either factor is the ring's
    one object, so a product of terms with coefficient one keeps that
    object (the leading term y^p of every theta image, say)."""
    a._check(b)
    one = alg.ring.one()
    out: dict = {}
    for (p, g), ca in a.terms.items():
        shifted = {0: ca}  # ca zeta^z by z, each shift made once
        for (q, h), cb in b.terms.items():
            z = twist_exp(g, q, h)
            cz = shifted.get(z)
            if cz is None:
                cz = shifted[z] = ca.times_zeta(z)
            v = cz if cb is one else cb if cz is one else cz * cb
            accumulate(out, (tuple(map(add, p, q)), g * h), v)
    return alg.elem_type._new(alg, out)


class CrossedAlgebra:
    """Configuration (n, ell, t) and the constructors shared by both
    algebras.  A subclass sets ``elem_type``, names its monomial generators
    by the letter ``var`` (for the parser and the renderer) and defines
    ``mul``."""

    elem_type: type[CrossedElem]
    var: str

    def __init__(self, n: int, ell: int, t_values=None):
        check_bounds(n, ell)
        self.n = n
        self.ell = ell
        self.ring = ParamRing(n, ell, t_values)
        self.identity_g = GroupElem.identity(n, ell)
        # g_1, ..., g_n, built once: the rewriting and gen_g read them here
        self._gens_g = tuple(GroupElem.generator(n, ell, i) for i in range(1, n + 1))
        self._zero_p = (0,) * n

    def compatible(self, other: "CrossedAlgebra") -> bool:
        return self is other or (
            type(self) is type(other) and self.ring.same_parameters(other.ring)
        )

    def zero(self):
        return self.elem_type(self, {})

    def one(self):
        return self.monomial(self._zero_p)

    def scalar(self, value):
        return self.monomial(self._zero_p, None, value)

    def monomial(self, p, g: GroupElem | None = None, coeff=None):
        """coeff m^p g; the zero element when coeff is zero."""
        p = tuple(p)
        if len(p) != self.n:
            raise ValueError(f"exponents must have length {self.n}")
        if not all(isinstance(k, int) for k in p):
            raise ValueError(f"exponents must be integers, got {p}")
        if g is None:
            g = self.identity_g
        c = self.ring.one() if coeff is None else self.ring.coerce(coeff)
        if c is None:
            raise TypeError(f"cannot interpret {coeff!r} as a coefficient")
        return self.elem_type(self, {(p, g): c})

    def _gen_power(self, i: int, k: int):
        """The monomial m_i^k."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return self.monomial(tuple(k if j == i - 1 else 0 for j in range(self.n)))

    def _accumulate_times(self, out: dict, items, c, g: GroupElem) -> None:
        """Add (sum of v m^r k) * c * g into the term map ``out``, where
        ``items`` yields the ((r, k), v) pairs of the sum: the right group step
        every product ends in.  By the law with q = 0, each term becomes
        alpha(k, g) (c v) m^r (kg) = (c zeta^z) v m^r (kg), with z the
        exponent of alpha(k, g).  c is fixed for the call, so it is shifted
        once for each nonzero z it meets, at most ell - 1 shifts whatever the
        number of terms; the map of shifts is made at the first term that
        needs one, so the many short calls that need none pay nothing for it.
        When c is the ring's one, v is shifted instead.  No coefficient
        product is formed when v or c is the ring's one, no twist or group
        product when g is the identity, and no twist when k is.  Every
        identity element is the object ``identity_g``, wherever it was built
        (g_1^ell, say), so both identity tests are ``is``."""
        one, ident, zero = self.ring.one(), self.identity_g, self._zero_p
        moved = g is not ident
        shifted = None  # c zeta^z by z != 0, each shift made once
        for (r, k), v in items:
            cz = c
            if moved:
                if k is ident:
                    k = g
                else:
                    z = twist_exp(k, zero, g)
                    k = k * g
                    if c is one:
                        # shifting v costs what shifting c would
                        v = v.times_zeta(z)
                    elif z:
                        if shifted is None:
                            shifted = {}
                        cz = shifted.get(z)
                        if cz is None:
                            cz = shifted[z] = c.times_zeta(z)
            if cz is not one:
                v = cz if v is one else cz * v
            accumulate(out, (r, k), v)

    def gen_g(self, i: int):
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return self.monomial(self._zero_p, self._gens_g[i - 1])

    def commutator(self, a, b):
        return self.mul(a, b) - self.mul(b, a)
