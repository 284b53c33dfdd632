"""The coefficient ring Q(zeta)[t_1, ..., t_n] of deformation parameters.

Sparse multivariate polynomials with Cyclotomic coefficients, indexed by
dense exponent tuples of length n.  A ParamRing holds the configuration
(n, ell) and hands out the distinguished scalars:

* ``t(i)``         -- the i-th deformation parameter,
* ``tau(i)``       -- t_i/(zeta-1), with an extra factor zeta for i = n,
* ``tau_tilde(i)`` -- the ell-th power of tau(i), carrying the sign
                      (-1)^(n(ell-1)) for i = n,
* ``beta()``       -- the scalar in theta(w) = Y + beta Y^(-1), Y = y_1...y_n.

Symbolic t is the default; a ring may instead be constructed with concrete
Q(zeta) values for the t_i, in which case every downstream identity is
checked at that specialization.  An identity that holds symbolically holds
for every complex specialization, so the symbolic mode is the strongest form
of verification available here.

ParamPoly is the type of the ring's scalars (t_i, tau_i, tau~_i, beta and
the coefficients of the center relation) and of the coefficient view
``CrossedElem.monomial_terms``, not of what an algebra element stores: an
element keeps the t-exponent of each term in its key beside m^p and g, so
every stored coefficient is a bare Cyclotomic.  ``split`` turns a ring
scalar into those (t-exponent, Cyclotomic) pairs and ``join`` gathers them
back.  A specialized ring is Q(zeta) itself: every constructor, ``t(i)``
included, hands out a bare Cyclotomic, its t-exponent is the empty tuple,
and the ring is the only place that knows whether t is specialized.
"""

from __future__ import annotations

from math import prod

from .cyclotomic import (
    Cyclotomic,
    SparseSum,
    graded_lex_key,
    indexed_powers,
    is_rational,
    render_terms,
    zeta_power,
)
from .group import check_bounds

__all__ = ["ParamPoly", "ParamRing"]


class ParamPoly(SparseSum):
    """Polynomial in t_1..t_n over Q(zeta): a ``SparseSum`` whose ``terms``
    map exponent tuples to Cyclotomic coefficients."""

    __slots__ = ("n", "ell")
    _mixed = "mixed parameter rings: ({0.n},{0.ell}) vs ({1.n},{1.ell})"

    def __init__(self, n: int, ell: int, terms: dict):
        self.n = n
        self.ell = ell
        super().__init__(terms)

    def __reduce__(self):
        # a slotted class pickles at protocols 0 and 1 only through this
        return ParamPoly, (self.n, self.ell, self.terms)

    def _like(self, terms: dict) -> "ParamPoly":
        new = object.__new__(ParamPoly)
        new.n = self.n
        new.ell = self.ell
        new.terms = terms
        return new

    def _same_space(self, other: "ParamPoly") -> bool:
        return self.n == other.n and self.ell == other.ell

    def _coerce(self, value) -> Cyclotomic | None:
        if isinstance(value, Cyclotomic):
            return value
        if is_rational(value):
            return Cyclotomic.from_rational(self.ell, value)
        return None

    def one(self) -> "ParamPoly":
        return self._like({(0,) * self.n: Cyclotomic.one(self.ell)})

    # bound in this class, so the per-layer tracer can wrap them for
    # ParamPoly alone
    __mul__ = SparseSum.__mul__
    scale = SparseSum.scale

    def specialize(self, values) -> Cyclotomic:
        """Exact evaluation at t = values, n Q(zeta) scalars as a specialized
        ring takes them (``check_t_values``)."""
        values = check_t_values(self.n, self.ell, values)
        acc = Cyclotomic.zero(self.ell)
        for e, c in self.terms.items():
            acc = acc + prod((v**k for v, k in zip(values, e) if k), start=c)
        return acc

    def sorted_terms(self):
        """Terms in graded-lexicographic order, highest degree first."""
        return sorted(self.terms.items(), key=lambda item: graded_lex_key(item[0]))

    def factor_terms(self) -> list:
        """Flatten into ordered (rational, factors) terms for ``render_terms``:
        one per t-monomial and zeta power.

        Every polynomial decomposes uniquely this way because Cyclotomic
        coefficients are reduced against the power basis 1, zeta, ...,
        zeta^(phi(ell)-1).  Used by the shared rendering grammar.
        """
        out = []
        for e, c in self.sorted_terms():
            ts = indexed_powers("t", e)
            for rat, zeta in c.factor_terms():
                out.append((rat, zeta + ts))
        return out

    def render(self) -> str:
        return render_terms(self.factor_terms())

    def __repr__(self) -> str:
        return f"ParamPoly({self.n}, {self.ell}, {self.render()!r})"


def check_t_values(n: int, ell: int, t_values) -> tuple:
    """``t_values`` as a tuple of n Cyclotomic scalars of this ell, the
    specialized t every layer accepts; ValueError otherwise."""
    t_values = tuple(t_values)
    if len(t_values) != n:
        raise ValueError(f"expected {n} parameter values, got {len(t_values)}")
    for v in t_values:
        if not isinstance(v, Cyclotomic) or v.ell != ell:
            raise ValueError("parameter values must be Cyclotomic of matching ell")
    return t_values


class ParamRing:
    """Configuration object for Q(zeta)[t_1..t_n], optionally specialized.

    ``t_values`` is either None (symbolic parameters, ParamPoly values) or a
    sequence of n Cyclotomic scalars substituted for the t_i at construction
    time (Cyclotomic values).  ``t_zero`` is the t-exponent of a constant,
    (0, ..., 0) or () when t is specialized, and ``unit`` the Cyclotomic 1
    that the ring's one holds: the shortcuts of the product loop test both
    with ``is``.
    """

    __slots__ = ("n", "ell", "t_values", "t_zero", "unit", "_one", "_zero", "_zeta")

    def __init__(self, n: int, ell: int, t_values=None):
        check_bounds(n, ell)
        self.n = n
        self.ell = ell
        self.unit = one = Cyclotomic.one(ell)
        if t_values is None:
            self.t_zero = (0,) * n
            self._zero = ParamPoly(n, ell, {})
            self._one = self._zero._like({self.t_zero: one})
        else:
            self.t_zero = ()
            t_values = check_t_values(n, ell, t_values)
            self._one, self._zero = one, Cyclotomic.zero(ell)
        self.t_values = t_values
        self._zeta = zeta_power(ell, 1)

    def zero(self) -> ParamPoly | Cyclotomic:
        return self._zero

    def one(self) -> ParamPoly | Cyclotomic:
        return self._one

    def from_cyclotomic(self, c: Cyclotomic) -> ParamPoly | Cyclotomic:
        if c.ell != self.ell:
            raise ValueError("scalar from a different cyclotomic field")
        if self.t_values is not None:
            return c
        return ParamPoly(self.n, self.ell, {(0,) * self.n: c})

    def from_rational(self, q) -> ParamPoly | Cyclotomic:
        return self.from_cyclotomic(Cyclotomic.from_rational(self.ell, q))

    def zeta(self, k: int = 1) -> ParamPoly | Cyclotomic:
        return self.from_cyclotomic(zeta_power(self.ell, k))

    def coerce(self, value) -> ParamPoly | Cyclotomic | None:
        """``value`` as an element of this ring, or None when it is not a
        scalar.  A ParamPoly is evaluated at the ring's t when t is
        specialized; one from another (n, ell) raises ValueError."""
        if isinstance(value, ParamPoly):
            if value.n != self.n or value.ell != self.ell:
                raise ValueError("coefficient from an incompatible parameter ring")
            return value if self.t_values is None else value.specialize(self.t_values)
        if isinstance(value, Cyclotomic):
            return self.from_cyclotomic(value)
        if is_rational(value):
            return self.from_rational(value)
        return None

    def split(self, value) -> tuple:
        """``value`` as the (t-exponent, Cyclotomic) pairs an element stores
        it as: one per t-monomial, none for zero, with the constant's
        exponent the object ``t_zero``.  TypeError when it is no scalar."""
        if type(value) is Cyclotomic and value.ell == self.ell:
            c = value  # a constant, whether t is specialized or not
        else:
            c = self.coerce(value)
            if c is None:
                raise TypeError(f"cannot interpret {value!r} as a coefficient")
        tz = self.t_zero
        if type(c) is Cyclotomic:
            return ((tz, c),) if c else ()
        return tuple([(e if any(e) else tz, v) for e, v in c.terms.items()])

    def split_t_monomial(self, c: Cyclotomic, indices) -> tuple:
        """``split`` of c t_(i1) ... t_(ik) for the 1-based ``indices``, with
        no ParamPoly product.  Specialized t: the pair (t_zero, product of c
        and the t values), none when that is zero.  Symbolic t: the one pair
        (t-exponent, c), none when c is zero; a 1 on a t-monomial is handed
        out as ``unit``, the coefficient ``t(i)`` holds, so the product
        loop's ``is`` tests see it."""
        if not all(1 <= i <= self.n for i in indices):
            raise ValueError(f"parameter index out of range 1..{self.n} in {indices}")
        e = self.t_zero
        if self.t_values is not None:
            for i in indices:
                c = c * self.t_values[i - 1]
        elif indices:
            e = [0] * self.n
            for i in indices:
                e[i - 1] += 1
            e = tuple(e)
            if c == self.unit:
                c = self.unit
        return ((e, c),) if c else ()

    def join(self, terms: dict) -> ParamPoly | Cyclotomic:
        """The scalar sum of c t^e over {e: c} (no c zero), the inverse of
        ``split``; a ParamPoly holds the map as it is."""
        if self.t_values is not None:
            return terms.get(self.t_zero, self._zero)
        return self._zero._like(terms)

    def t(self, i: int) -> ParamPoly | Cyclotomic:
        """The i-th deformation parameter (1-based), or its specialization."""
        if not 1 <= i <= self.n:
            raise ValueError(f"parameter index {i} out of range 1..{self.n}")
        if self.t_values is not None:
            return self.t_values[i - 1]
        e = tuple(1 if j == i - 1 else 0 for j in range(self.n))
        return self._zero._like({e: self.unit})

    def tau(self, i: int) -> ParamPoly | Cyclotomic:
        """t_i/(zeta - 1) for i < n and zeta*t_n/(zeta - 1) for i = n."""
        inv = (self._zeta - 1).inv()
        if i == self.n:
            inv = inv * self._zeta
        return self.t(i).scale(inv)

    def tau_tilde(self, i: int) -> ParamPoly | Cyclotomic:
        """The ell-th power of tau(i), signed by (-1)^(n(ell-1)) when i = n."""
        p = self.tau(i) ** self.ell
        if i == self.n and (self.n * (self.ell - 1)) % 2:
            p = -p
        return p

    def tau_product(self) -> ParamPoly | Cyclotomic:
        """The product tau_1 * ... * tau_n."""
        return prod(map(self.tau, range(1, self.n + 1)), start=self._one)

    def beta(self) -> ParamPoly | Cyclotomic:
        """(-1)^n zeta^(n-2) tau_1...tau_n: theta(w) = Y + beta Y^(-1) with
        Y = y_1...y_n, so every b-side coefficient of the center relation is
        a multiple of a power of beta."""
        p = self.tau_product().scale(zeta_power(self.ell, self.n - 2))
        return -p if self.n % 2 else p

    def same_parameters(self, other: "ParamRing") -> bool:
        return (
            self.n == other.n and self.ell == other.ell and self.t_values == other.t_values
        )
