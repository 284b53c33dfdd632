"""The alpha-twisted crossed product of a monomial ring with G, the part
shared by the Hecke algebra and its Laurent oracle.

Both algebras store elements as finite sums of terms c t^tau m^p g: c is a
Cyclotomic scalar, t^tau a monomial in the deformation parameters t_i
(tau = () when t is specialized, and then c carries t's values) and m^p is
x^p (Hecke, p >= 0) or y^p (Laurent, p in Z^n).  The key of a term is
(p, g, tau) with g the integer code of the group element
(``group.GroupCodes``; the identity is 0), so a (p, g) whose coefficient in
Q(zeta)[t] has several t-monomials has one key for each; ``monomial_terms``
gathers them back into ParamRing scalars, the ring's ParamPoly when t is
symbolic, keyed by (p, GroupElem).  This is a change of basis over
Q(zeta): t is central, so every product multiplies the Q(zeta) scalars and
adds the t-exponents.  When the m_i commute,
products follow the crossed-product law

    (m^p g)(m^q h) = char(g, q) alpha(g, h) m^(p+q) (gh),

which is the whole multiplication of the Laurent algebra, the associated
graded multiplication of the Hecke algebra and, with p = 0, its left group
step g (x^q h), which the deformation leaves alone; the case q = 0 is the
right group step, c m^r k times g = alpha(k, g) c m^r (kg), that ends every
product of either algebra.  The twist char(g, q) alpha(g, h) is zeta^z,
with z the sum of g's residues against the twist row of m^q h
(``group.twist_exp`` and ``group.twist_row``, the row built once per right
term) and applied to a coefficient by ``times_zeta``.  Every other
coefficient product is the Q(zeta) product kernel of ell
(``cyclotomic._kernel``), bound once per call.

One loop, ``CrossedAlgebra._accumulate_product``, applies the law in every
product: to two sums in ``crossed_mul``, to one left term at x^0 in H's
left group step, to one right term at m^0 in the right group step and to
one scalar term in ``scale``.  Its shortcuts: no twist at an identity, an
exact test, as the identity's code 0 is the only false one; no exponent
sum with a zero vector and no coefficient product by the ring's one, which
are ``is`` tests, so an equal object that is not the one tested takes the
general path to the same result.  The element type (sums from
``cyclotomic.SparseSum``) and the algebra plumbing are here too; the
subclasses add PBW rewriting and theta.
"""

from __future__ import annotations

from operator import add

from .coeffring import ParamRing
from .cyclotomic import (
    SparseSum, _kernel, graded_lex_key, indexed_powers, render_terms,
)
from .group import GroupCodes, GroupElem, check_bounds, factors, twist_exp, twist_row

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
    """A finite sum of terms c t^tau m^p g (a ``SparseSum``) with c a
    Cyclotomic, keyed by the triple (p, g, tau): p the exponents of
    m_1^(p_1) ... m_n^(p_n), with the factors in exactly that order and
    integers that may be negative on the Laurent side, g the code of the
    group element and tau the t-exponent, () when t is specialized.
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

    def __reduce__(self):
        # the term map and what rebuilds the algebra, not the algebra with
        # its caches; a slotted class pickles at protocols 0 and 1 only
        # through this
        alg = self.alg
        return _rebuild_elem, (type(alg), alg.n, alg.ell, alg.ring.t_values, self.terms)

    def _same_space(self, other: "CrossedElem") -> bool:
        return self.alg.compatible(other.alg)

    def _coerce(self, value):
        return self.alg.ring.coerce(value)

    def one(self):
        return self.alg.one()

    def scale(self, value):
        """Multiply by a ring scalar: the product with the scalar's terms
        c t^tau m^0 1, which are central."""
        alg, out = self.alg, {}
        scalar = [((alg._zero_p, 0, tau), c) for tau, c in alg.ring.split(value)]
        alg._accumulate_product(out, self.terms.items(), scalar)
        return self._like(out)

    def monomial_terms(self) -> dict:
        """{(exponents, GroupElem): coefficient} with the t-monomials of
        each (p, g) gathered into one ring scalar: a ParamPoly when t is
        symbolic, a Cyclotomic when it is specialized."""
        grouped: dict = {}
        for (p, g, tau), c in self.terms.items():
            grouped.setdefault((p, g), {})[tau] = c
        join, elem = self.alg.ring.join, self.alg.codes.elem
        return {(p, elem(g)): join(ts) for (p, g), ts in grouped.items()}

    def total_degree(self) -> int:
        """Filtration degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(m[0]) for m in self.terms)

    def __mul__(self, other):
        if type(other) is type(self):
            return self.alg.mul(self, other)
        return self.__rmul__(other)

    def sorted_terms(self):
        # by the monomial, ties broken by the group element's residues and
        # then by the t-monomial in ParamPoly's order
        res = self.alg.codes
        return sorted(
            self.terms.items(),
            key=lambda item: (
                graded_lex_key(item[0][0]), res[item[0][1]], graded_lex_key(item[0][2])
            ),
        )

    def render(self) -> str:
        """Canonical text form in the shared expression grammar, with the
        monomial generators named by the algebra (``alg.var``)."""
        terms = []
        var, res = self.alg.var, self.alg.codes
        for (p, g, tau), coeff in self.sorted_terms():
            tail = indexed_powers("t", tau) + indexed_powers(var, p) + factors(res[g])
            for rat, zeta in coeff.factor_terms():
                terms.append((rat, zeta + tail))
        return render_terms(terms)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"


def _rebuild_elem(alg_type: type, n: int, ell: int, t_values, terms: dict) -> CrossedElem:
    """An element holding ``terms`` in a new ``alg_type(n, ell, t_values)``,
    which is compatible with the algebra it was pickled from."""
    alg = alg_type(n, ell, t_values)
    return alg.elem_type._new(alg, terms)


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
        self.codes = GroupCodes(n, ell)
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
        if g is not None and not isinstance(g, GroupElem):
            raise TypeError(f"group part must be a GroupElem, got {g!r}")
        return self._term(p, 0 if g is None else self.codes.code(g), coeff)

    def _term(self, p: tuple, code: int, coeff=None):
        """coeff m^p g, unchecked, from the code of g."""
        ring = self.ring
        pairs = ((ring.t_zero, ring.unit),) if coeff is None else ring.split(coeff)
        return self.elem_type._new(self, {(p, code, tau): c for tau, c in pairs})

    def _gen_power(self, i: int, k: int):
        """The monomial m_i^k."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return self.monomial(tuple(k if j == i - 1 else 0 for j in range(self.n)))

    def _accumulate_product(self, out: dict, left, right) -> None:
        """Add (sum of ca t^sigma m^p g)(sum of cb t^tau m^q h) into the term
        map ``out``; ``left`` and ``right`` are sized collections of
        ((exponents, group code, t-exponent), coeff) pairs with no coeff
        zero (canonical term maps, ``_insert`` items, ``ParamRing.split``
        pairs), and each pair adds zeta^z ca cb t^(sigma+tau) m^(p+q) (gh),
        z from ``twist_exp`` against the right term's ``twist_row``, built
        once per right term that is not plain.

        Right terms are the outer loop.  A pair's z and group part are 0 and
        h when g is the identity, 0 and g when the right term is plain (h
        the identity, q the zero vector), else the twist and gh; the
        identity test is exact, as the identity's code 0 is the only false
        one.  Exponents that are ``_zero_p`` are not added, nor t-exponents
        that are the ring's ``t_zero`` (every t-exponent is, the empty
        tuple, when t is specialized), and every coefficient product is one
        of Q(zeta), made by its kernel ``_kernel(ell)``.  With z = 0 no
        product is formed when a factor is the ring's ``unit``.  With z != 0
        one factor is shifted by zeta^z and multiplies the other unless that
        is the unit: the left's when the left has one term, shifted once per
        z for the whole call, else each right term's, once per z for that
        term; a unit is not shifted but the other factor is.  These ``is``
        tests are shortcuts only: a zero vector or a 1 that is another
        object takes the general path, to the same result.  A pair's value
        is nonzero, as Q(zeta) is a field, so it is stored as it is under a
        new key; only a sum with an earlier value is tested, and the key is
        removed when the sum cancels."""
        ring, codes, ell = self.ring, self.codes, self.ell
        one, tz, zero, gmul = ring.unit, ring.t_zero, self._zero_p, codes.mul
        mul = _kernel(ell)
        lone = len(left) == 1
        shifted: dict = {}  # the shifted factor zeta^z by z != 0
        for (q, h, tau), cb in right:
            plain = not h and q is zero
            if shifted and not lone:
                shifted = {}
            row = None if plain else twist_row(q, codes[h])
            for (p, g, sigma), ca in left:
                if not g:
                    z, k = 0, h
                elif plain:
                    z, k = 0, g
                else:
                    z, k = twist_exp(codes[g], row, ell), gmul(g, h)
                r = p if q is zero else q if p is zero else tuple(map(add, p, q))
                s = sigma if tau is tz else tau if sigma is tz else tuple(map(add, sigma, tau))
                if not z:
                    v = cb if ca is one else ca if cb is one else mul(cb, ca)
                else:
                    if lone:
                        f, m = ca, cb
                    else:
                        f, m = cb, ca
                    if f is one:
                        v = m.times_zeta(z)
                    else:
                        fz = shifted.get(z)
                        if fz is None:
                            fz = shifted[z] = f.times_zeta(z)
                        v = fz if m is one else mul(fz, m)
                key = (r, k, s)
                prev = out.get(key)
                if prev is None:
                    out[key] = v
                else:
                    v = prev + v
                    if v:
                        out[key] = v
                    else:
                        del out[key]

    def gen_g(self, i: int):
        return self._term(self._zero_p, self.codes.generator(i))

    def commutator(self, a, b):
        return self.mul(a, b) - self.mul(b, a)
