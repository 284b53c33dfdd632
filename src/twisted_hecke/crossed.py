"""The alpha-twisted crossed product of a monomial ring with G, the part
shared by the Hecke algebra and its Laurent oracle.

Both algebras store elements as finite sums of monomials m^p g with
coefficients in Q(zeta)[t_1..t_n], or in Q(zeta) when t is specialized,
where m^p is x^p (Hecke, p >= 0) or y^p (Laurent, p in Z^n).  When the
m_i commute, products follow the crossed-product law

    (m^p g)(m^q h) = char(g, q) alpha(g, h) m^(p+q) (gh),

which is the whole multiplication of the Laurent algebra, the associated
graded multiplication of the Hecke algebra and, with p = 0, its left group
step g (x^q h), which the deformation leaves alone; the case q = 0 is the
right group step, c m^r k times g = alpha(k, g) c m^r (kg), that ends every
product of either algebra.  The twist char(g, q) alpha(g, h) is zeta^z,
with z read from the exponent vector of g (``group.twist_exp``) and
applied to a coefficient as a shift (``times_zeta``), not a product.

One loop, ``CrossedAlgebra._accumulate_product``, applies the law in every
product: to two sums in ``crossed_mul``, to one left term at x^0 in H's
left group step and to one right term at m^0 in the right group step.  Its
shortcuts (no twist at an identity, no exponent sum with the zero vector,
no coefficient product by the ring's one) are ``is`` tests, which decide
exactly for the interned identity element; an equal object that is not
the one tested takes the general path to the same result.  The element
type (sums and scalings from ``cyclotomic.SparseSum``) and the algebra
plumbing are here too; the subclasses add PBW rewriting and theta.
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
    """(m^p g)(m^q h) = char(g,q) alpha(g,h) m^(p+q) (gh), bilinearly: the
    product of L and of gr H, from ``CrossedAlgebra._accumulate_product``."""
    a._check(b)
    out: dict = {}
    alg._accumulate_product(out, a.terms.items(), b.terms.items())
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
        """coeff m^p g; the zero element when coeff is zero.  g must be an
        element of this algebra's group."""
        p = tuple(p)
        if len(p) != self.n:
            raise ValueError(f"exponents must have length {self.n}")
        if not all(isinstance(k, int) for k in p):
            raise ValueError(f"exponents must be integers, got {p}")
        if g is None:
            g = self.identity_g
        elif not isinstance(g, GroupElem):
            raise TypeError(f"group part must be a GroupElem, got {g!r}")
        else:
            self.identity_g._check(g)
        c = self.ring.one() if coeff is None else self.ring.coerce(coeff)
        if c is None:
            raise TypeError(f"cannot interpret {coeff!r} as a coefficient")
        return self.elem_type(self, {(p, g): c})

    def _gen_power(self, i: int, k: int):
        """The monomial m_i^k."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return self.monomial(tuple(k if j == i - 1 else 0 for j in range(self.n)))

    def _accumulate_product(self, out: dict, left, right) -> None:
        """Add (sum of ca m^p g)(sum of cb m^q h) into the term map ``out``;
        ``left`` and ``right`` yield ((exponents, group), coeff) pairs, and
        each pair adds zeta^z ca cb m^(p+q) (gh), z from ``twist_exp``.

        Right terms are the outer loop.  A pair's z and group part are 0 and
        h when g is the identity, 0 and g when the right term is plain (h
        the identity, q the zero vector), else the twist and gh.  Exponents
        that are ``_zero_p`` are not added.  With z = 0 no coefficient
        product is formed when a factor is the ring's one; with z != 0, ca
        is shifted when cb is the one, and otherwise cb is, once per z for
        each right term, and multiplies ca unless ca is the one.  These
        ``is`` tests are shortcuts only: every identity element is the
        object ``identity_g``, and a zero vector or a 1 that is another
        object takes the general path, to the same result."""
        one, ident, zero = self.ring.one(), self.identity_g, self._zero_p
        for (q, h), cb in right:
            plain = h is ident and q is zero
            shifted = None  # cb zeta^z by z != 0, each shift made once
            for (p, g), ca in left:
                if g is ident:
                    z, k = 0, h
                elif plain:
                    z, k = 0, g
                else:
                    z, k = twist_exp(g, q, h), g * h
                r = p if q is zero else q if p is zero else tuple(map(add, p, q))
                if not z:
                    v = cb if ca is one else ca if cb is one else cb * ca
                elif cb is one:
                    v = ca.times_zeta(z)
                else:
                    if shifted is None:
                        shifted = {}
                    cz = shifted.get(z)
                    if cz is None:
                        cz = shifted[z] = cb.times_zeta(z)
                    v = cz if ca is one else cz * ca
                accumulate(out, (r, k), v)

    def gen_g(self, i: int):
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return self.monomial(self._zero_p, self._gens_g[i - 1])

    def commutator(self, a, b):
        return self.mul(a, b) - self.mul(b, a)
