"""The coefficient ring Q(zeta)[t_1, ..., t_n] of deformation parameters.

Sparse multivariate polynomials with Cyclotomic coefficients, indexed by
dense exponent tuples of length n.  A ParamRing holds the configuration
(n, ell) and hands out the distinguished scalars:

* ``t(i)``         -- the i-th deformation parameter,
* ``tau(i)``       -- t_i/(zeta-1), with an extra factor zeta for i = n,
* ``tau_tilde(i)`` -- the ell-th power of tau(i), carrying the sign
                      (-1)^(n(ell-1)) for i = n.

Symbolic t is the default; a ring may instead be constructed with concrete
Q(zeta) values for the t_i, in which case ``t(i)`` is a constant and every
downstream identity is checked at that specialization.  An identity that
holds symbolically holds for every complex specialization, so the symbolic
mode is the strongest form of verification available here.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import (
    Cyclotomic,
    add_sparse,
    indexed_powers,
    power_by_squaring,
    render_terms,
    zeta_power,
)

__all__ = ["ParamPoly", "ParamRing"]

MAX_PARAMS = 16


class ParamPoly:
    """Sparse polynomial in t_1..t_n over Q(zeta), in canonical form.

    ``terms`` maps exponent tuples to nonzero Cyclotomic coefficients; no
    zero coefficient is ever stored, so == is structural.  Instances are
    immutable by convention: arithmetic always builds new dictionaries.
    """

    __slots__ = ("n", "ell", "terms")

    def __init__(self, n: int, ell: int, terms: dict, _canonical: bool = False):
        self.n = n
        self.ell = ell
        if not _canonical:
            terms = {e: c for e, c in terms.items() if c}
        self.terms = terms

    def _check(self, other: "ParamPoly"):
        if self.n != other.n or self.ell != other.ell:
            raise ValueError(
                f"mixed parameter rings: ({self.n},{self.ell}) vs ({other.n},{other.ell})"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        self._check(other)
        return ParamPoly(self.n, self.ell, add_sparse(self.terms, other.terms), _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ParamPoly(
            self.n, self.ell, {e: -c for e, c in self.terms.items()}, _canonical=True
        )

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        ((e, c),) = self.terms.items()
        return not any(e) and c._rat == 1

    def __mul__(self, other):
        if isinstance(other, (Cyclotomic, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return ParamPoly(self.n, self.ell, {}, _canonical=True)
        if self.is_one():
            return other
        if other.is_one():
            return self
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                prev = out.get(e)
                if prev is None:
                    out[e] = c
                else:
                    s = prev + c
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
        return ParamPoly(self.n, self.ell, out, _canonical=True)

    def __rmul__(self, other):
        if isinstance(other, (Cyclotomic, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "ParamPoly":
        """Multiply by a scalar from Q(zeta)."""
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(self.ell, c)
        if c.is_zero():
            return ParamPoly(self.n, self.ell, {}, _canonical=True)
        if c._rat == 1:
            return self
        return ParamPoly(
            self.n, self.ell, {e: v * c for e, v in self.terms.items()}, _canonical=True
        )

    def __pow__(self, k: int) -> "ParamPoly":
        if k < 0:
            raise ValueError("negative power of a parameter polynomial")
        one = ParamPoly(
            self.n, self.ell, {(0,) * self.n: Cyclotomic.one(self.ell)}, _canonical=True
        )
        return power_by_squaring(self, k, one)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParamPoly)
            and self.n == other.n
            and self.ell == other.ell
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.ell, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Largest exponent sum, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def specialize(self, values) -> Cyclotomic:
        """Exact evaluation at t = values (a sequence of n Q(zeta) scalars)."""
        values = list(values)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")
        for v in values:
            if not isinstance(v, Cyclotomic) or v.ell != self.ell:
                raise ValueError("specialization values must lie in Q(zeta) for this ell")
        acc = Cyclotomic.zero(self.ell)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term = term * v**k
            acc = acc + term
        return acc

    def sorted_terms(self):
        """Terms in graded-lexicographic order, highest degree first."""
        return sorted(
            self.terms.items(), key=lambda item: (-sum(item[0]), tuple(-x for x in item[0]))
        )

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

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ParamPoly({self.n}, {self.ell}, {self.render()!r})"


class ParamRing:
    """Configuration object for Q(zeta)[t_1..t_n], optionally specialized.

    ``t_values`` is either None (symbolic parameters) or a sequence of n
    Cyclotomic scalars substituted for the t_i at construction time.
    """

    __slots__ = ("n", "ell", "t_values", "_one", "_zero", "_zeta")

    def __init__(self, n: int, ell: int, t_values=None):
        if not 1 <= n <= MAX_PARAMS:
            raise ValueError(f"n must be between 1 and {MAX_PARAMS}, got {n}")
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        self.n = n
        self.ell = ell
        if t_values is not None:
            t_values = tuple(t_values)
            if len(t_values) != n:
                raise ValueError(f"expected {n} parameter values, got {len(t_values)}")
            for v in t_values:
                if not isinstance(v, Cyclotomic) or v.ell != ell:
                    raise ValueError("parameter values must be Cyclotomic of matching ell")
        self.t_values = t_values
        self._one = ParamPoly(n, ell, {(0,) * n: Cyclotomic.one(ell)}, _canonical=True)
        self._zero = ParamPoly(n, ell, {}, _canonical=True)
        self._zeta = zeta_power(ell, 1)

    def zero(self) -> ParamPoly:
        return self._zero

    def one(self) -> ParamPoly:
        return self._one

    def from_cyclotomic(self, c: Cyclotomic) -> ParamPoly:
        if c.ell != self.ell:
            raise ValueError("scalar from a different cyclotomic field")
        if c.is_zero():
            return self._zero
        return ParamPoly(self.n, self.ell, {(0,) * self.n: c}, _canonical=True)

    def from_rational(self, q) -> ParamPoly:
        return self.from_cyclotomic(Cyclotomic.from_rational(self.ell, q))

    def zeta(self, k: int = 1) -> ParamPoly:
        return self.from_cyclotomic(zeta_power(self.ell, k))

    def t(self, i: int) -> ParamPoly:
        """The i-th deformation parameter (1-based), or its specialization."""
        if not 1 <= i <= self.n:
            raise ValueError(f"parameter index {i} out of range 1..{self.n}")
        if self.t_values is not None:
            return self.from_cyclotomic(self.t_values[i - 1])
        e = tuple(1 if j == i - 1 else 0 for j in range(self.n))
        return ParamPoly(self.n, self.ell, {e: Cyclotomic.one(self.ell)}, _canonical=True)

    def tau(self, i: int) -> ParamPoly:
        """t_i/(zeta - 1) for i < n and zeta*t_n/(zeta - 1) for i = n."""
        inv = (self._zeta - 1).inv()
        if i == self.n:
            inv = inv * self._zeta
        return self.t(i).scale(inv)

    def tau_tilde(self, i: int) -> ParamPoly:
        """The ell-th power of tau(i), signed by (-1)^(n(ell-1)) when i = n."""
        p = self.tau(i) ** self.ell
        if i == self.n and (self.n * (self.ell - 1)) % 2:
            p = -p
        return p

    def tau_product(self) -> ParamPoly:
        """The product tau_1 * ... * tau_n."""
        p = self._one
        for i in range(1, self.n + 1):
            p = p * self.tau(i)
        return p

    def same_parameters(self, other: "ParamRing") -> bool:
        return (
            self.n == other.n and self.ell == other.ell and self.t_values == other.t_values
        )
