"""Exact arithmetic in cyclotomic fields Q(zeta).

An element is a residue in Q[z]/(Phi_ell(z)), where Phi_ell is the ell-th
cyclotomic polynomial and z stands for a fixed primitive ell-th root of
unity zeta.  It is stored as FLINT's ``fmpq_poly`` stores a rational
polynomial: a vector of phi(ell) = deg Phi_ell integer numerators over one
positive common denominator, fully reduced against Phi_ell and in lowest
terms (gcd(den, *num) == 1, zero is 0/1).  Equality is therefore structural
and every comparison is exact.  Phi_ell is monic with integer coefficients,
so a product is an integer product of numerators modulo Phi_ell and one gcd,
and Phi_ell itself is computed over Z (``cyclotomic_polynomial``).
A rational coefficient is an int or a ``fractions.Fraction``
(``is_rational``), and the constructors read either through its numerator
and denominator.  So only ``coeffs`` builds Fractions and imports the
``fractions`` module, on first use: building elements and multiplying them
imports no ``fractions``, and ``is_rational`` recognises a Fraction without
importing it, since none can exist before ``fractions`` is loaded.

The product is chosen per ell from Phi_ell on first use (``_kernel``): a
closed form in two or four integers when phi(ell) <= 2, with the gcd
reduction and the new element built in the same call, and otherwise an
integer convolution reduced by the one integer fold, ``_fold``, through
which every other reduction past phi(ell) goes too.

Working modulo Phi_ell rather than modulo z^ell - 1 makes the quotient a
field: every nonzero element has an inverse (its Galois conjugates over its
norm) and primitivity of zeta is built in.  No floating point is used
anywhere.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd, lcm
from operator import add

__all__ = ["Cyclotomic", "SparseSum", "cyclotomic_polynomial", "zeta_power"]


def is_rational(value) -> bool:
    """True for what a coefficient accepts as a rational: an int (bool
    included) or a ``fractions.Fraction``.  Fraction is looked up only when
    the ``fractions`` module is loaded, since otherwise no Fraction exists;
    so the test imports nothing, and an int passes before the ABC check that
    ``isinstance`` makes against Fraction."""
    if isinstance(value, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(ell: int) -> tuple[int, ...]:
    """Integer coefficients of the monic ell-th cyclotomic polynomial,
    ascending.

    Computed over Z by exact division of z^ell - 1 by Phi_d for each proper
    divisor d of ell in turn: every divisor is monic, so each quotient is
    integral.
    """
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    poly = [-1] + [0] * (ell - 1) + [1]
    for d in range(1, ell):
        if ell % d == 0:
            poly = _divide_monic(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _divide_monic(a: list, b: tuple) -> list:
    """The quotient a / b of integer coefficient lists, ascending, for a
    monic b; ArithmeticError when b does not divide a."""
    r = list(a)
    d = len(b) - 1
    q = [0] * (len(r) - d)
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if c:
            q[k - d] = c
            for j in range(d + 1):
                r[k - d + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def _power_table(ell: int) -> tuple[tuple[int, ...], ...]:
    """Reduced integer representatives of z^k mod Phi_ell for 0 <= k < ell;
    z^ell = 1, so row k mod ell stands for every power z^k."""
    phi = cyclotomic_polynomial(ell)
    m = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    for k in range(ell):
        if k < m:
            rows.append(tuple(int(j == k) for j in range(m)))
        else:
            prev = rows[k - 1]
            lead = prev[m - 1]
            rows.append(tuple(a - lead * c for a, c in zip((0,) + prev[: m - 1], phi)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _zeta_table(ell: int) -> tuple["Cyclotomic", ...]:
    """zeta^k as elements for 0 <= k < ell, the right factors of
    ``times_zeta`` when phi(ell) <= 2."""
    return tuple(Cyclotomic._make(ell, row, 1) for row in _power_table(ell))


def _fold(ell: int, v: list) -> list:
    """Reduce the integer coordinates v, ascending in z and of any length,
    modulo Phi_ell in place and return v: each coordinate at z^k with
    k >= phi(ell) folds through the row of z^(k mod ell), and v is cut or
    padded to phi(ell) entries.  Phi_ell is monic over Z, so every row is
    integral."""
    table = _power_table(ell)
    m = len(table[0])
    for k in range(m, len(v)):
        a = v[k]
        if a:
            for j, r in enumerate(table[k % ell]):
                if r:
                    v[j] += a * r
    del v[m:]
    if len(v) < m:
        v += [0] * (m - len(v))
    return v


def _degree(ell: int) -> int:
    return len(cyclotomic_polynomial(ell)) - 1


@lru_cache(maxsize=None)
def _kernel(ell: int):
    """The product of two elements of Q(zeta), (x, y) -> x y in canonical
    form, chosen per ell on first use.  Every product of Q(zeta) goes
    through it: ``Cyclotomic.__mul__`` after coercion, ``times_zeta`` and
    the crossed-product loop directly.

    phi(ell) >= 3: ``Cyclotomic._convolve``.  phi(ell) = 1 (ell = 1, 2):
    Q(zeta) = Q and the product is a0 b0 in lowest terms.  phi(ell) = 2
    (ell = 3, 4, 6): with Phi_ell = c0 + c1 z + z^2, z^2 = -c0 - c1 z, so
    (a0 + a1 z)(b0 + b1 z) = a0 b0 - c0 h + (a0 b1 + a1 b0 - c1 h) z with
    h = a1 b1, whose gcd with the denominator is divided out in the same
    call, which also builds the new element."""
    phi = cyclotomic_polynomial(ell)
    m = len(phi) - 1
    if m > 2:
        return Cyclotomic._convolve
    if m == 1:
        return lambda x, y: Cyclotomic._make(
            ell, *_lowest_terms((x.num[0] * y.num[0],), x.den * y.den)
        )
    c0, c1 = phi[:2]
    new = object.__new__

    def product(x, y):
        a0, a1 = x.num
        b0, b1 = y.num
        h = a1 * b1
        u = a0 * b0 - c0 * h
        v = a0 * b1 + a1 * b0 - c1 * h
        den = x.den * y.den
        if den != 1:
            g = gcd(den, u, v)
            if g != 1:
                u //= g
                v //= g
                den //= g
        z = new(Cyclotomic)
        z.ell = ell
        z.num = (u, v)
        z.den = den
        return z

    return product


def product_matches_fold(ell: int) -> bool:
    """True when ``_kernel(ell)``, the product of Q(zeta), agrees with
    ``_fold`` of the integer convolution on every basis pair zeta^i,
    zeta^j with i, j < phi(ell), and also on (zeta^i / 2)(2 zeta^j), whose
    numerator and denominator have the common factor 2 that the canonical
    form divides out.

    The closed forms of ``_kernel`` and the convolution are bilinear in the
    two numerators, so agreement on the basis pairs gives agreement on every
    pair of numerators, and the product divides by the same denominator
    either way.  The halved pairs are an agreement test of that last step,
    the reduction to lowest terms."""
    m = _degree(ell)
    kernel = _kernel(ell)
    for i in range(m):
        x = zeta_power(ell, i)
        x_half = Cyclotomic._make(ell, x.num, 2)
        for j in range(m):
            y = zeta_power(ell, j)
            y_two = Cyclotomic._make(ell, tuple([2 * a for a in y.num]), 1)
            conv = tuple(_fold(ell, [int(k == i + j) for k in range(2 * m - 1)]))
            for got in (kernel(x, y), kernel(x_half, y_two)):
                if (got.num, got.den) != (conv, 1):
                    return False
    return True


class Cyclotomic:
    """An element of Q(zeta) for a fixed primitive ell-th root of unity zeta.

    ``num / den`` in the power basis 1, zeta, ..., zeta^(phi(ell)-1), with
    ``num`` a tuple of ints and ``den`` a positive int in lowest terms.
    Values are immutable and always stored in this canonical form, so they
    may be shared freely and compared with ==.
    """

    __slots__ = ("ell", "num", "den")

    def __init__(self, ell: int, coeffs):
        """Build from a sequence of rationals (``is_rational``) for ascending
        powers of zeta; the input is reduced modulo Phi_ell."""
        if ell < 1:
            raise ValueError(f"ell must be a positive integer, got {ell}")
        coeffs = list(coeffs)
        for c in coeffs:
            if not is_rational(c):
                raise TypeError(f"a rational must be an int or a Fraction, got {c!r}")
        den = lcm(*(c.denominator for c in coeffs))
        num = _fold(ell, [c.numerator * (den // c.denominator) for c in coeffs])
        self.ell = ell
        self.num, self.den = _lowest_terms(num, den)

    def __reduce__(self):
        # a slotted class pickles at protocols 0 and 1 only through this
        return Cyclotomic, (self.ell, self.coeffs)

    @classmethod
    def _make(cls, ell: int, num: tuple, den: int) -> "Cyclotomic":
        # fast path for a numerator already reduced mod Phi_ell and in lowest terms
        self = object.__new__(cls)
        self.ell = ell
        self.num = num
        self.den = den
        return self

    @classmethod
    def zero(cls, ell: int) -> "Cyclotomic":
        return cls._make(ell, (0,) * _degree(ell), 1)

    @classmethod
    def one(cls, ell: int) -> "Cyclotomic":
        return cls._make(ell, _power_table(ell)[0], 1)

    @classmethod
    def from_rational(cls, ell: int, value) -> "Cyclotomic":
        """The rational ``value``, an int or a Fraction (``is_rational``)."""
        if type(value) is int:
            num, den = value, 1
        elif is_rational(value):
            num, den = value.numerator, value.denominator
        else:
            raise TypeError(f"a rational must be an int or a Fraction, got {value!r}")
        return cls._make(ell, (num,) + (0,) * (_degree(ell) - 1), den)

    @property
    def coeffs(self) -> tuple:
        """The rational coordinates num[k]/den, ascending in zeta, as
        Fractions."""
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.ell != self.ell:
                raise ValueError(f"mixed cyclotomic orders {self.ell} and {other.ell}")
            return other
        if is_rational(other):
            return Cyclotomic.from_rational(self.ell, other)
        return None

    def __add__(self, other):
        if type(other) is not Cyclotomic or other.ell != self.ell:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _signed_sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Cyclotomic or other.ell != self.ell:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _signed_sum(self, other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _signed_sum(o, self, -1)

    def __neg__(self):
        return Cyclotomic._make(self.ell, tuple([-a for a in self.num]), self.den)

    def __mul__(self, other):
        # an exact type test first: Fraction is an ABC, so isinstance is slow
        if type(other) is not Cyclotomic or other.ell != self.ell:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _kernel(self.ell)(self, other)

    __rmul__ = __mul__

    def _convolve(self, o: "Cyclotomic") -> "Cyclotomic":
        """The product when phi(ell) >= 3: an integer convolution folded by
        ``_fold``, over the product of the denominators in lowest terms, so
        a zero product is 0/1 like every other zero."""
        a, b = self.num, o.num
        m = len(a)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    conv[j] += x * y
        num = _fold(self.ell, conv)
        return Cyclotomic._make(self.ell, *_lowest_terms(num, self.den * o.den))

    def scale(self, c) -> "Cyclotomic":
        """Multiply by a scalar from Q(zeta), as ``ParamPoly.scale`` does, so
        either serves as a ring scalar."""
        return self * c

    def times_zeta(self, k: int) -> "Cyclotomic":
        """self * zeta^k.  zeta^k is a unit of Z[zeta], so the numerator's
        gcd with den is unchanged and stays 1.  For phi(ell) <= 2 it is the
        kernel's product by zeta^k, taken from ``_zeta_table``, whose one
        gcd (when den != 1) costs less than the calls that would skip it;
        for larger phi(ell) the numerator rotates k places, from z^j to
        z^((j+k) mod ell) since z^ell = 1, only the places from phi(ell) to
        ell - 1 fold, and no gcd is formed."""
        ell, num = self.ell, self.num
        k %= ell
        if not k:
            return self
        if len(num) <= 2:  # phi(ell) <= 2
            return _kernel(ell)(self, _zeta_table(ell)[k])
        v = [0] * k
        v += num
        wrap = len(v) - ell
        if wrap > 0:
            # the places past z^(ell-1) move to the front, where v is zero
            v[:wrap] = v[ell:]
            del v[ell:]
        return Cyclotomic._make(ell, tuple(_fold(ell, v)), self.den)

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        With a = den * self in Z[zeta], the product c of the conjugates
        sigma_k(a) = sum a_j zeta^(jk) over the units k != 1 of Z/ell makes
        N = a c the norm of a, a nonzero integer, and self^-1 = den c / N."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        ell, num = self.ell, self.num
        conj = Cyclotomic.one(ell)
        for k in range(2, ell):
            if gcd(k, ell) == 1:
                v = [0] * (k * (len(num) - 1) + 1)
                v[::k] = num
                conj = conj * Cyclotomic._make(ell, tuple(_fold(ell, v)), 1)
        norm = (Cyclotomic._make(ell, num, 1) * conj).num[0]
        scale = self.den if norm > 0 else -self.den
        return Cyclotomic._make(ell, *_lowest_terms([scale * c for c in conj.num], abs(norm)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, k: int) -> "Cyclotomic":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        return power_by_squaring(self, k, Cyclotomic.one(self.ell))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cyclotomic)
            and self.ell == other.ell
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.ell, self.num, self.den))

    def factor_terms(self) -> list:
        """(rational, [zeta power]) for each nonzero coordinate, ascending;
        the terms ``render_terms`` joins."""
        return [(c, [power("zeta", k)] if k else []) for k, c in enumerate(self.coeffs) if c]

    def __str__(self) -> str:
        return render_terms(self.factor_terms())

    def __repr__(self) -> str:
        return f"Cyclotomic({self.ell}, {self})"


def _signed_sum(x: Cyclotomic, y: Cyclotomic, sign: int) -> Cyclotomic:
    """x + sign*y for sign = 1 or -1, over the common denominator."""
    dx, dy = x.den, y.den
    if dx == dy:
        num = [a + sign * b for a, b in zip(x.num, y.num)]
    else:
        num = [a * dy + sign * b * dx for a, b in zip(x.num, y.num)]
        dx *= dy
    return Cyclotomic._make(x.ell, *_lowest_terms(num, dx))


def _lowest_terms(num: list, den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) divided by gcd(den, *num): the canonical form, in which
    zero is (0, ..., 0)/1.  ``den`` must be positive."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple([a // g for a in num]), den // g
    return tuple(num), den


def zeta_power(ell: int, k: int) -> Cyclotomic:
    """Canonical representative of zeta^(k mod ell)."""
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    return Cyclotomic._make(ell, _power_table(ell)[k % ell], 1)


def format_rational(q) -> str:
    """Render a rational for the shared expression grammar: `2` or `(1/2)`."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q.numerator}/{q.denominator})"


def accumulate(out: dict, key, value) -> None:
    """Add ``value`` at ``key`` of a sparse {key: coefficient} map in place,
    keeping it canonical: a zero is never stored and a sum that cancels
    removes the key."""
    prev = out.get(key)
    if prev is not None:
        value = prev + value
    if value:
        out[key] = value
    elif prev is not None:
        del out[key]


def power_by_squaring(base, k: int, one):
    """``base^k`` for an integer k >= 0 by left-to-right binary powering:
    ``one`` when k = 0, otherwise one squaring per bit below the top bit and
    one product by ``base`` per set bit below it (k = 1 makes no product)."""
    if not k:
        return one
    result = base
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class SparseSum:
    """A finite sum, ``terms`` = {monomial: coefficient}, in canonical form:
    no zero coefficient is ever stored, so == compares the maps.  Values are
    immutable by convention; arithmetic always builds new maps.

    This class holds the vector-space arithmetic and the product of commuting
    monomials (``crossed`` replaces it).  A subclass fixes the space (slots
    beside ``terms``) and supplies ``_like`` (a sum in the same space holding
    a map as it is: the one internal constructor), ``_same_space``,
    ``_coerce`` (a scalar into the coefficient ring, or None), ``one`` and
    ``render``.  The public constructor drops zero coefficients.
    Sums of different types never mix: + and - return NotImplemented, so
    Python raises TypeError.
    """

    __slots__ = ("terms",)
    # ValueError message for operands from different spaces, formatted with
    # the two operands
    _mixed = "operands from different spaces"

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def _same_space(self, other) -> bool:
        return True

    def _check(self, other) -> None:
        if not self._same_space(other):
            raise ValueError(self._mixed.format(self, other))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(out, m, c)
        return self._like(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        """The product of commuting monomials: exponents add, coefficients multiply."""
        # an exact type test first: Fraction is an ABC, so isinstance is slow
        if type(other) is not type(self):
            return self.__rmul__(other)
        self._check(other)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                accumulate(out, tuple(map(add, ea, eb)), ca * cb)
        return self._like(out)

    def __rmul__(self, value):
        c = self._coerce(value)
        return NotImplemented if c is None else self.scale(c)

    def scale(self, value):
        """Multiply by a scalar, taken into the coefficient ring by
        ``_coerce``; TypeError where it is no scalar."""
        c = self._coerce(value)
        if c is None:
            raise TypeError(f"cannot interpret {value!r} as a coefficient")
        if not c:
            return self._like({})
        # every coefficient ring here is a domain: no product of nonzeros is zero
        return self._like({m: v * c for m, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of a sparse sum")
        return power_by_squaring(self, k, self.one())

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._same_space(other)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        return self.render()


def power(name: str, k: int) -> str:
    """`name` or `name^k` in the shared expression grammar."""
    return name if k == 1 else f"{name}^{k}"


def indexed_powers(prefix: str, exponents) -> list:
    """`x1`, `x2^3`, ... for the nonzero exponents, in index order."""
    return [power(f"{prefix}{j}", k) for j, k in enumerate(exponents, start=1) if k]


def graded_lex_key(exponents) -> tuple:
    """Sort key for rendering: highest total degree first, then the larger
    exponent vector first."""
    return (-sum(exponents), tuple(-x for x in exponents))


def render_terms(terms) -> str:
    """Render (rational, factors) pairs as a signed sum of products: the
    magnitude is written only when it is not 1 or there are no factors."""
    parts = []
    for rat, factors in terms:
        mag = abs(rat)
        if mag != 1 or not factors:
            factors = [format_rational(mag), *factors]
        parts.append((rat < 0, "*".join(factors)))
    return join_signed_terms(parts)


def join_signed_terms(parts) -> str:
    """Join (negative?, text) additive terms into `a - b + c` form."""
    if not parts:
        return "0"
    out = []
    for i, (neg, text) in enumerate(parts):
        if i == 0:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f" - {text}" if neg else f" + {text}")
    return "".join(out)
