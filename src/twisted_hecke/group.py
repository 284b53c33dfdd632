"""The homocyclic group G = (Z/ell)^(n-1) inside SL_n and its cocycle twist.

G is the group of diagonal matrices g with g^ell = 1 and determinant 1; the
generator g_i scales the i-th coordinate by zeta and the (i+1)-st by
zeta^(-1) (indices mod n).  Elements are stored as exponent vectors of
g_1, ..., g_(n-1); the dependent generator g_n is rewritten into this basis
on construction, so representations are unique.

The 2-cocycle twisting all crossed products here is

    alpha(g^e, g^f) = zeta^(-(e_1 f_2 + e_2 f_3 + ... + e_(n-2) f_(n-1)))

evaluated on canonical residues; well-definedness modulo ell is a tested
property rather than an assumption.  ``action_char`` gives the scalar by
which a group element acts on a monomial with a given exponent vector.
"""

from __future__ import annotations

import itertools
import random

from .cyclotomic import Cyclotomic, indexed_powers, zeta_power

__all__ = [
    "GroupElem",
    "alpha",
    "alpha_exp",
    "action_char",
    "action_char_exp",
    "star_mul",
    "star_power",
    "all_elements",
    "cocycle_identity_holds",
]


class GroupElem:
    """An element of (Z/ell)^(n-1), as residues of exponents of g_1..g_(n-1)."""

    __slots__ = ("n", "ell", "e", "_hash")

    def __init__(self, n: int, ell: int, e):
        if n < 3:
            raise ValueError(f"n must be >= 3, got {n}")
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        e = tuple(x % ell for x in e)
        if len(e) != n - 1:
            raise ValueError(f"expected {n - 1} exponents, got {len(e)}")
        self.n = n
        self.ell = ell
        self.e = e
        self._hash = hash((n, ell, e))

    @classmethod
    def identity(cls, n: int, ell: int) -> "GroupElem":
        return cls(n, ell, (0,) * (n - 1))

    @classmethod
    def generator(cls, n: int, ell: int, i: int) -> "GroupElem":
        """g_i for 1 <= i <= n; g_n is the inverse of the product g_1...g_(n-1)."""
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        if i == n:
            return cls(n, ell, (ell - 1,) * (n - 1))
        return cls(n, ell, tuple(1 if j == i - 1 else 0 for j in range(n - 1)))

    def _check(self, other: "GroupElem"):
        if self.n != other.n or self.ell != other.ell:
            raise ValueError("group elements from different groups")

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        ell = self.ell
        return GroupElem(self.n, ell, tuple((a + b) % ell for a, b in zip(self.e, other.e)))

    def __pow__(self, k: int) -> "GroupElem":
        ell = self.ell
        return GroupElem(self.n, ell, tuple((a * k) % ell for a in self.e))

    def inverse(self) -> "GroupElem":
        return self ** (-1)

    def is_identity(self) -> bool:
        return not any(self.e)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElem)
            and self._hash == other._hash
            and self.e == other.e
            and self.n == other.n
            and self.ell == other.ell
        )

    def __hash__(self) -> int:
        return self._hash

    def factors(self) -> list:
        """`g3^2`, `g1`, ...: the nonzero exponents, highest index first.

        The cocycle vanishes on descending products, so re-evaluating the
        rendered text in any twisted module gives back exactly this
        element, with no alpha correction.
        """
        return indexed_powers("g", self.e)[::-1]

    def render(self) -> str:
        return "*".join(self.factors()) or "1"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GroupElem(n={self.n}, ell={self.ell}, {self.render()})"


def alpha_exp(g: GroupElem, h: GroupElem) -> int:
    """Exponent of zeta in the cocycle alpha(g, h), from canonical residues."""
    g._check(h)
    e, f = g.e, h.e
    return -sum(e[k] * f[k + 1] for k in range(len(e) - 1))


def alpha(g: GroupElem, h: GroupElem) -> Cyclotomic:
    return zeta_power(g.ell, alpha_exp(g, h))


def action_char_exp(g: GroupElem, p) -> int:
    """Exponent of zeta by which g acts on a monomial with exponent vector p."""
    e = g.e
    return sum(e[k] * (p[k] - p[k + 1]) for k in range(len(e)))


def action_char(g: GroupElem, p) -> Cyclotomic:
    if len(p) != g.n:
        raise ValueError(f"exponent vector must have length {g.n}")
    return zeta_power(g.ell, action_char_exp(g, p))


def star_mul(g: GroupElem, h: GroupElem):
    """The product in the twisted group algebra: (alpha(g, h), g*h)."""
    return alpha(g, h), g * h


def star_power(g: GroupElem, m: int):
    """m-fold twisted product g * g * ... * g, folded left to right."""
    scalar = Cyclotomic.one(g.ell)
    acc = GroupElem.identity(g.n, g.ell)
    for _ in range(m):
        scalar = scalar * alpha(acc, g)
        acc = acc * g
    return scalar, acc


def all_elements(n: int, ell: int):
    """All ell^(n-1) group elements, in lexicographic order of exponents."""
    for e in itertools.product(range(ell), repeat=n - 1):
        yield GroupElem(n, ell, e)


EXHAUSTIVE_LIMIT = 10_000


def cocycle_identity_holds(n: int, ell: int, seed: int = 0, samples: int = 4000) -> bool:
    """Check alpha(g,h)*alpha(gh,k) == alpha(h,k)*alpha(g,hk).

    Exhaustive over all triples when the group order ell^(n-1) is at most
    EXHAUSTIVE_LIMIT (the pair table is built through ``alpha_exp`` and the
    triple sweep is vectorized); otherwise a seeded random sample of triples
    is tested directly.
    """
    order = ell ** (n - 1)
    if order <= EXHAUSTIVE_LIMIT:
        import numpy as np

        exps = np.array(
            list(itertools.product(range(ell), repeat=n - 1)), dtype=np.int64
        )
        size = order
        if size <= 256:
            # desk scale: build the whole pair table through alpha_exp itself
            elems = [GroupElem(n, ell, tuple(e)) for e in exps]
            pair = np.empty((size, size), dtype=np.int64)
            for a, ga in enumerate(elems):
                for b, gb in enumerate(elems):
                    pair[a, b] = alpha_exp(ga, gb)
        else:
            # vectorized table, spot-validated against alpha_exp
            pair = -(exps[:, :-1] @ exps[:, 1:].T)
            rng = random.Random(seed)
            for _ in range(512):
                a, b = rng.randrange(size), rng.randrange(size)
                ga = GroupElem(n, ell, tuple(exps[a]))
                gb = GroupElem(n, ell, tuple(exps[b]))
                if pair[a, b] != alpha_exp(ga, gb):
                    return False
        weights = np.array([ell**j for j in range(n - 1)], dtype=np.int64)
        index = np.empty(size, dtype=np.int64)
        index[exps @ weights] = np.arange(size)
        prod = np.empty((size, size), dtype=np.int32)
        for a in range(size):
            prod[a] = index[((exps[a] + exps) % ell) @ weights]
        for a in range(size):
            lhs = pair[a][:, None] + pair[prod[a], :]
            rhs = pair + pair[a][prod]
            if ((lhs - rhs) % ell).any():
                return False
        return True

    rng = random.Random(seed)
    elems = None
    for _ in range(samples):
        g, h, k = (
            GroupElem(n, ell, tuple(rng.randrange(ell) for _ in range(n - 1)))
            for _ in range(3)
        )
        lhs = alpha_exp(g, h) + alpha_exp(g * h, k)
        rhs = alpha_exp(h, k) + alpha_exp(g, h * k)
        if (lhs - rhs) % ell:
            return False
    return True
