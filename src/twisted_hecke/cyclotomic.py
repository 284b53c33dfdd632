"""Exact arithmetic in cyclotomic fields Q(zeta).

An element is a residue in Q[z]/(Phi_ell(z)), where Phi_ell is the ell-th
cyclotomic polynomial and z stands for a fixed primitive ell-th root of
unity zeta.  Coefficient vectors have length deg Phi_ell = phi(ell) and are
kept fully reduced, so equality is structural and every comparison is exact.

Working modulo Phi_ell rather than modulo z^ell - 1 makes the quotient a
field: every nonzero element has an inverse (computed by the extended
Euclidean algorithm) and primitivity of zeta is built in.  No floating
point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = ["Cyclotomic", "cyclotomic_polynomial", "zeta_power"]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _exact_div(num, den):
    """Quotient num/den in Q[z] (ascending coefficients); remainder must vanish."""
    num = list(num)
    d = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < d:
        raise ArithmeticError("numerator degree below denominator degree")
    quot = [_F0] * (len(num) - d)
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k] / lead
        quot[k - d] = c
        if c:
            for j in range(d + 1):
                num[k - d + j] -= c * den[j]
    if any(num[:d]):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(ell: int) -> tuple[Fraction, ...]:
    """Coefficients of the monic ell-th cyclotomic polynomial, ascending.

    Computed by exact division of z^ell - 1 by the product of Phi_d over
    the proper divisors d of ell.
    """
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    if ell == 1:
        return (Fraction(-1), _F1)
    poly = [_F0] * (ell + 1)
    poly[0] = Fraction(-1)
    poly[ell] = _F1
    for d in range(1, ell):
        if ell % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(ell: int) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced representatives of z^k mod Phi_ell for all k needed by
    products of reduced elements: 0 <= k <= max(2*deg - 2, ell - 1)."""
    phi = cyclotomic_polynomial(ell)
    m = len(phi) - 1
    top = max(2 * m - 2, ell - 1, 0)
    rows: list[tuple[Fraction, ...]] = []
    for k in range(top + 1):
        if k < m:
            rows.append(tuple(_F1 if j == k else _F0 for j in range(m)))
        else:
            prev = rows[k - 1]
            lead = prev[m - 1]
            row = [_F0] + list(prev[: m - 1])
            if lead:
                for j in range(m):
                    row[j] -= lead * phi[j]
            rows.append(tuple(row))
    return tuple(rows)


def _degree(ell: int) -> int:
    return len(cyclotomic_polynomial(ell)) - 1


class Cyclotomic:
    """An element of Q(zeta) for a fixed primitive ell-th root of unity zeta.

    Values are immutable and always stored in reduced canonical form, so they
    may be shared freely and compared with ==.
    """

    __slots__ = ("ell", "coeffs", "_rat")

    def __init__(self, ell: int, coeffs):
        """Build from any coefficient sequence for ascending powers of zeta;
        the input is reduced modulo Phi_ell."""
        if ell < 1:
            raise ValueError(f"ell must be a positive integer, got {ell}")
        table = _power_table(ell)
        m = _degree(ell)
        acc = [_F0] * m
        for k, c in enumerate(coeffs):
            if not c:
                continue
            if not isinstance(c, Fraction):
                c = Fraction(c)
            row = table[k] if k < len(table) else table[k % ell]
            for j in range(m):
                if row[j]:
                    acc[j] += c * row[j]
        self.ell = ell
        self.coeffs = tuple(acc)
        self._rat = acc[0] if not any(acc[1:]) else None

    @classmethod
    def _make(cls, ell: int, coeffs: tuple) -> "Cyclotomic":
        # fast path for coefficient tuples already reduced mod Phi_ell
        self = object.__new__(cls)
        self.ell = ell
        self.coeffs = coeffs
        self._rat = coeffs[0] if not any(coeffs[1:]) else None
        return self

    @classmethod
    def zero(cls, ell: int) -> "Cyclotomic":
        return cls._make(ell, (_F0,) * _degree(ell))

    @classmethod
    def one(cls, ell: int) -> "Cyclotomic":
        return cls.from_rational(ell, _F1)

    @classmethod
    def from_rational(cls, ell: int, value) -> "Cyclotomic":
        if not isinstance(value, Fraction):
            value = Fraction(value)
        m = _degree(ell)
        return cls._make(ell, (value,) + (_F0,) * (m - 1))

    def is_zero(self) -> bool:
        return self._rat is not None and not self._rat

    def is_rational(self) -> bool:
        return self._rat is not None

    def rational_value(self) -> Fraction:
        if self._rat is None:
            raise ValueError("element is not rational")
        return self._rat

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.ell != self.ell:
                raise ValueError(f"mixed cyclotomic orders {self.ell} and {other.ell}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.ell, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._make(self.ell, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._make(self.ell, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyclotomic._make(self.ell, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._rat is not None:
            r = self._rat
            if not r:
                return self
            if r == 1:
                return o
            return Cyclotomic._make(self.ell, tuple(r * b for b in o.coeffs))
        if o._rat is not None:
            r = o._rat
            if not r:
                return o
            if r == 1:
                return self
            return Cyclotomic._make(self.ell, tuple(r * a for a in self.coeffs))
        a, b = self.coeffs, o.coeffs
        m = len(a)
        conv = [_F0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        table = _power_table(self.ell)
        acc = list(conv[:m])
        for k in range(m, 2 * m - 1):
            c = conv[k]
            if c:
                row = table[k]
                for j in range(m):
                    if row[j]:
                        acc[j] += c * row[j]
        return Cyclotomic._make(self.ell, tuple(acc))

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self._rat is not None:
            return Cyclotomic.from_rational(self.ell, 1 / self._rat)
        a = _trim(list(self.coeffs))
        b = list(cyclotomic_polynomial(self.ell))
        g, u = _poly_xgcd(a, b)
        # Phi_ell is irreducible over Q, so the gcd is a nonzero constant
        scale = 1 / g[0]
        return Cyclotomic(self.ell, [c * scale for c in u])

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
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ell, self.coeffs))

    def factor_terms(self) -> list:
        """(rational, [zeta power]) for each nonzero coordinate, ascending;
        the terms ``render_terms`` joins."""
        return [(c, [power("zeta", k)] if k else []) for k, c in enumerate(self.coeffs) if c]

    def __str__(self) -> str:
        return render_terms(self.factor_terms())

    def __repr__(self) -> str:
        return f"Cyclotomic({self.ell}, {self})"


def zeta_power(ell: int, k: int) -> Cyclotomic:
    """Canonical representative of zeta^(k mod ell)."""
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    return Cyclotomic._make(ell, _power_table(ell)[k % ell])


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_divmod(a, b):
    """Division with remainder in Q[z] on trimmed ascending coefficient lists."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    q = [_F0] * max(len(r) - d, 0)
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k] / lead
        if c:
            q[k - d] = c
            for j in range(d + 1):
                r[k - d + j] -= c * b[j]
    return q, _trim(r)


def _poly_xgcd(a, b):
    """Return (g, u) with u*a = g modulo b, for trimmed nonzero a."""
    r0, r1 = list(a), list(b)
    u0, u1 = [_F1], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        u = _poly_sub(u0, _poly_mul(q, u1))
        r0, r1 = r1, r
        u0, u1 = u1, u
    return r0, u0


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a, b):
    out = [_F0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def format_rational(q: Fraction) -> str:
    """Render a rational for the shared expression grammar: `2` or `(1/2)`."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q.numerator}/{q.denominator})"


def add_sparse(a: dict, b: dict) -> dict:
    """Sum of two sparse {key: coefficient} maps; zero sums are dropped."""
    out = dict(a)
    for key, c in b.items():
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            s = prev + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def power_by_squaring(base, k: int, one):
    """``one * base^k`` for an integer k >= 0, by repeated squaring."""
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def power(name: str, k: int) -> str:
    """`name` or `name^k` in the shared expression grammar."""
    return name if k == 1 else f"{name}^{k}"


def indexed_powers(prefix: str, exponents) -> list:
    """`x1`, `x2^3`, ... for the nonzero exponents, in index order."""
    return [power(f"{prefix}{j}", k) for j, k in enumerate(exponents, start=1) if k]


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
