"""The alpha-twisted crossed product of a monomial ring with G, the part
shared by the Hecke algebra and its Laurent oracle.

Both algebras store elements as finite sums of monomials m^p g with
coefficients in Q(zeta)[t_1..t_n], where m^p is x^p (Hecke, p >= 0) or
y^p (Laurent, p in Z^n).  When the m_i commute, products follow the
crossed-product law

    (m^p g)(m^q h) = char(g, q) alpha(g, h) m^(p+q) (gh),

which is the whole multiplication of the Laurent algebra and the
associated graded multiplication of the Hecke algebra.  This module holds
that law, the sparse element arithmetic around it and the algebra
plumbing; the subclasses add PBW rewriting (Hecke) and theta (Laurent).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coeffring import ParamPoly, ParamRing
from .cyclotomic import (
    Cyclotomic,
    add_sparse,
    indexed_powers,
    power_by_squaring,
    render_terms,
    zeta_power,
)
from .group import GroupElem, action_char_exp, alpha_exp

__all__ = ["Monomial", "CrossedElem", "CrossedAlgebra", "crossed_mul", "exponents_bounded"]


class Monomial(NamedTuple):
    """m_1^(p_1) ... m_n^(p_n) g, with the factors in exactly that order."""

    p: tuple
    g: GroupElem

    @property
    def total_degree(self) -> int:
        # filtration degree: deg(m_i) = 1, deg(g) = 0
        return sum(self.p)


def _mono_sort_key(mono: Monomial):
    # graded-lex, highest degree first; ties broken by exponents then group
    return (-sum(mono.p), tuple(-x for x in mono.p), mono.g.e)


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


class CrossedElem:
    """A finite sum of monomials with ParamPoly coefficients.

    Canonical sparse form: no zero coefficients.  Do not mutate ``terms``;
    all arithmetic builds fresh dictionaries.  Elements of different
    algebra types never mix: arithmetic between them is a TypeError.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "CrossedAlgebra", terms: dict):
        self.alg = alg
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Filtration degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(m.p) for m in self.terms)

    def _compat(self, other: "CrossedElem"):
        if not self.alg.compatible(other.alg):
            raise ValueError("elements from incompatible algebras")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._compat(other)
        return type(self)(self.alg, add_sparse(self.terms, other.terms))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.alg, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            return self.alg.mul(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        coeff = self.alg.as_coeff(other)
        if coeff is None:
            return NotImplemented
        return self.scale(coeff)

    def scale(self, coeff: ParamPoly):
        if coeff.is_zero():
            return type(self)(self.alg, {})
        out = {}
        for m, c in self.terms.items():
            v = c * coeff
            if v:
                out[m] = v
        return type(self)(self.alg, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of an algebra element")
        return power_by_squaring(self, k, self.alg.one())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrossedElem)
            and self.alg.compatible(other.alg)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset((m, hash(c)) for m, c in self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _mono_sort_key(item[0]))

    def _render(self, var: str) -> str:
        """Canonical text form in the shared expression grammar, with the
        monomial generators named ``var``1..``var``n."""
        terms = []
        for mono, coeff in self.sorted_terms():
            tail = indexed_powers(var, mono.p) + mono.g.factors()
            for rat, factors in coeff.factor_terms():
                terms.append((rat, factors + tail))
        return render_terms(terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"


def crossed_mul(alg: "CrossedAlgebra", a: CrossedElem, b: CrossedElem) -> CrossedElem:
    """(m^p g)(m^q h) = char(g,q) alpha(g,h) m^(p+q) (gh), bilinearly."""
    a._compat(b)
    ell = alg.ell
    out: dict = {}
    for (p, g), ca in a.terms.items():
        for (q, h), cb in b.terms.items():
            z = action_char_exp(g, q) + alpha_exp(g, h)
            v = ca * cb
            if z % ell:
                v = v.scale(zeta_power(ell, z))
            mono = Monomial(tuple(x + y for x, y in zip(p, q)), g * h)
            prev = out.get(mono)
            if prev is None:
                if v:
                    out[mono] = v
            else:
                s = prev + v
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return alg.elem_type(alg, out)


class CrossedAlgebra:
    """Configuration (n, ell, t) and the constructors shared by both
    algebras.  A subclass sets ``elem_type`` and defines ``mul``."""

    elem_type: type[CrossedElem]

    def __init__(self, n: int, ell: int, t_values=None):
        if n < 3:
            raise ValueError(f"n must be >= 3, got {n}")
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        self.n = n
        self.ell = ell
        self.ring = ParamRing(n, ell, t_values)
        self.identity_g = GroupElem.identity(n, ell)
        self._zero_p = (0,) * n

    def compatible(self, other: "CrossedAlgebra") -> bool:
        return self is other or (
            type(self) is type(other) and self.ring.same_parameters(other.ring)
        )

    def as_coeff(self, value) -> ParamPoly | None:
        if isinstance(value, ParamPoly):
            if value.n != self.n or value.ell != self.ell:
                raise ValueError("coefficient from an incompatible parameter ring")
            return value
        if isinstance(value, Cyclotomic):
            return self.ring.from_cyclotomic(value)
        if isinstance(value, (int, Fraction)):
            return self.ring.from_rational(value)
        return None

    def zero(self):
        return self.elem_type(self, {})

    def one(self):
        return self.monomial(self._zero_p)

    def scalar(self, value):
        coeff = self.as_coeff(value)
        if coeff is None:
            raise TypeError(f"cannot interpret {value!r} as a coefficient")
        if coeff.is_zero():
            return self.zero()
        return self.elem_type(self, {Monomial(self._zero_p, self.identity_g): coeff})

    def monomial(self, p, g: GroupElem | None = None, coeff=None):
        p = tuple(p)
        if len(p) != self.n:
            raise ValueError(f"exponents must have length {self.n}")
        if g is None:
            g = self.identity_g
        c = self.ring.one() if coeff is None else self.as_coeff(coeff)
        if c is None or c.is_zero():
            return self.zero()
        return self.elem_type(self, {Monomial(p, g): c})

    def _gen_power(self, i: int, k: int):
        """The monomial m_i^k."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return self.monomial(tuple(k if j == i - 1 else 0 for j in range(self.n)))

    def gen_g(self, i: int):
        return self.monomial(self._zero_p, GroupElem.generator(self.n, self.ell, i))

    def commutator(self, a, b):
        return self.mul(a, b) - self.mul(b, a)
