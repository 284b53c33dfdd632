"""The homocyclic group G = (Z/ell)^(n-1) inside SL_n and its cocycle twist.

G is the group of diagonal matrices g with g^ell = 1 and determinant 1; the
generator g_i scales the i-th coordinate by zeta and the (i+1)-st by
zeta^(-1) (indices mod n).  An element (``GroupElem``, a plain value) is
its residues of exponents of g_1, ..., g_(n-1), g_n rewritten into them.
Inside the algebras it is an integer code (``GroupCodes``): the identity is
0, equality and hashing are an int's, and a product is a sum and a carry fix.

The 2-cocycle twisting all crossed products here is

    alpha(g^e, g^f) = zeta^(-(e_1 f_2 + e_2 f_3 + ... + e_(n-2) f_(n-1)))

evaluated on residues; well-definedness modulo ell is a tested property.
``action_char`` gives the scalar by which g acts on a monomial x^p.  The
twist of a product (m^p g)(m^q h), action_char_exp(g, q) + alpha_exp(g, h)
mod ell, is linear in g's residues e: it is e . r with r = ``twist_row(q,
h.e)``, the right factor's row, which a product computes once per right
term; ``twist_exp(e, r, ell)`` is that sum for each left term.
``check_twist_rows`` reads the twist through the same two functions: it
checks the generators' twists against the formulas and every element's
against the sum of the generators' it is built from, which makes the twist
bilinear.
"""

from __future__ import annotations

import itertools
from operator import add, mul

from .cyclotomic import Cyclotomic, indexed_powers, zeta_power

__all__ = [
    "GroupElem", "GroupCodes", "alpha", "alpha_exp", "action_char", "action_char_exp",
    "twist_row", "twist_exp", "star_mul", "star_power", "all_elements", "check_twist_rows",
    "cocycle_identity_holds", "check_bounds", "factors",
]

# the largest n: the number of deformation parameters t_1..t_n
MAX_PARAMS = 16


def check_bounds(n: int, ell: int) -> None:
    """The configurations every layer accepts: integers 3 <= n <= MAX_PARAMS
    and ell >= 2."""
    if not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not isinstance(ell, int):
        raise ValueError(f"ell must be an integer, got {ell!r}")
    if not 3 <= n <= MAX_PARAMS:
        raise ValueError(f"n must be between 3 and {MAX_PARAMS}, got {n}")
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")


class GroupElem:
    """An element of (Z/ell)^(n-1), as residues of exponents of g_1..g_(n-1);
    a value: two are equal, with equal hashes, when group and residues are."""

    __slots__ = ("n", "ell", "e")

    def __init__(self, n: int, ell: int, e):
        check_bounds(n, ell)
        e = tuple(e)
        if len(e) != n - 1:
            raise ValueError(f"expected {n - 1} exponents, got {len(e)}")
        if not all(isinstance(x, int) for x in e):
            raise ValueError(f"group exponents must be integers, got {e}")
        self.n, self.ell, self.e = n, ell, tuple([x % ell for x in e])

    def __reduce__(self):
        # a slotted class pickles at protocols 0 and 1 only through this
        return GroupElem, (self.n, self.ell, self.e)

    def __eq__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return (self.e, self.n, self.ell) == (other.e, other.n, other.ell)

    def __hash__(self) -> int:
        return hash((self.n, self.ell, self.e))

    @classmethod
    def identity(cls, n: int, ell: int) -> "GroupElem":
        return cls(n, ell, (0,) * (n - 1))

    @classmethod
    def generator(cls, n: int, ell: int, i: int) -> "GroupElem":
        """g_i for 1 <= i <= n; g_n is the inverse of the product g_1...g_(n-1)."""
        return cls(n, ell, _generator_exponents(n, i))

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        if not isinstance(other, GroupElem):
            return NotImplemented
        _same_group(self, other)
        return GroupElem(self.n, self.ell, map(add, self.e, other.e))

    def __pow__(self, k: int) -> "GroupElem":
        if not isinstance(k, int):
            return NotImplemented
        return GroupElem(self.n, self.ell, [a * k for a in self.e])

    def inverse(self) -> "GroupElem":
        return self ** (-1)

    def is_identity(self) -> bool:
        return not any(self.e)

    def render(self) -> str:
        return "*".join(factors(self.e)) or "1"

    __str__ = render

    def __repr__(self) -> str:
        return f"GroupElem(n={self.n}, ell={self.ell}, {self.render()})"


def _same_group(a, b) -> None:
    """Raise unless a and b (elements or codes) belong to one group."""
    if (a.n, a.ell) != (b.n, b.ell):
        raise ValueError("group elements from different groups")


def _generator_exponents(n: int, i: int, k: int = 1) -> tuple:
    """Exponents (not reduced) of g_i^k for 1 <= i <= n, g_n = (g_1...g_(n-1))^(-1)."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    if i == n:
        return (-k,) * (n - 1)
    return tuple(k if j == i - 1 else 0 for j in range(n - 1))


def factors(e) -> list:
    """`g3^2`, `g1`, ...: the nonzero residues e, highest index first.  The
    cocycle vanishes on descending products, so the text reads back exactly."""
    return indexed_powers("g", e)[::-1]


class GroupCodes(dict):
    """The integer codes of one group's elements, the group parts of term
    keys; each algebra owns one, and nothing else knows the format.  The code
    of g^e holds e_k in bits (k-1)w to kw-1, w = ell.bit_length() + 1.  A
    field of a sum of two codes is below 2 ell <= 2^w, so none carries;
    adding bias = 2^(w-1) - ell to every field sets its top bit exactly where
    it reached ell, and one shift turns those bits into the ells to take off.
    As a dict it maps a code to its residues, decoded on first use (<= |G|)."""

    __slots__ = ("n", "ell", "width", "bias", "high")

    def __init__(self, n: int, ell: int):
        self.n, self.ell = n, ell
        self.width = w = ell.bit_length() + 1
        ones = sum(1 << (w * k) for k in range(n - 1))
        self.bias = ((1 << (w - 1)) - ell) * ones
        self.high = ones << (w - 1)

    def __missing__(self, code: int) -> tuple:
        w, mask = self.width, (1 << self.width) - 1
        e = self[code] = tuple([(code >> (w * k)) & mask for k in range(self.n - 1)])
        return e

    def encode(self, e) -> int:
        """The code of the residues e (each in 0..ell-1)."""
        w = self.width
        return sum([x << (w * k) for k, x in enumerate(e)])

    def code(self, g: GroupElem) -> int:
        """The code of an element of this group."""
        _same_group(self, g)
        return self.encode(g.e)

    def generator(self, i: int, k: int = 1) -> int:
        """The code of g_i^k."""
        return self.encode([x % self.ell for x in _generator_exponents(self.n, i, k)])

    def mul(self, a: int, b: int) -> int:
        """The code of the product of the elements with codes a and b."""
        s = a + b
        return s - (((s + self.bias) & self.high) >> (self.width - 1)) * self.ell

    def elem(self, code: int) -> GroupElem:
        return GroupElem(self.n, self.ell, self[code])


def alpha_exp(g: GroupElem, h: GroupElem) -> int:
    """Exponent of zeta in the cocycle alpha(g, h), from canonical residues."""
    _same_group(g, h)
    return -sum(g.e[k] * h.e[k + 1] for k in range(g.n - 2))


def alpha(g: GroupElem, h: GroupElem) -> Cyclotomic:
    return zeta_power(g.ell, alpha_exp(g, h))


def action_char_exp(g: GroupElem, p) -> int:
    """Exponent of zeta by which g acts on a monomial with exponent vector p."""
    e = g.e
    return sum(e[k] * (p[k] - p[k + 1]) for k in range(len(e)))


def twist_row(q, f) -> tuple:
    """The twist row r of a right factor m^q h, from q and the residues f of
    h: r_k = q_k - q_(k+1) - f_(k+1) (f_n = 0), so that the twist of
    (m^p g)(m^q h), the zeta exponent of char(g, q) alpha(g, h), is
    ``twist_exp(e, r, ell)`` for the residues e of g.  Read by every
    product and by ``check_twist_rows``."""
    return tuple([a - b - c for a, b, c in zip(q, q[1:], (*f[1:], 0))])


def twist_exp(e, row, ell: int) -> int:
    """The twist sum_k e_k r_k mod ell of a left factor with residues e
    against the row r of a right factor (``twist_row``)."""
    return sum(map(mul, e, row)) % ell


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
    check_bounds(n, ell)
    for e in itertools.product(range(ell), repeat=n - 1):
        yield GroupElem(n, ell, e)


def check_twist_rows(n: int, ell: int, part: str):
    """Check the char part or the alpha part of the twist every product
    reads; returns (ok, witness, cases).  ``part`` is "char" or "alpha".
    The row of g is its twists against the probes, read as the products
    read them, through ``twist_row`` and ``twist_exp``: against m^(e_j) 1
    (char) or m^0 g_l (alpha), each probe's twist row built once.

    (G) on g_1..g_(n-1) the entries equal the formulas, C_kj =
        action_char_exp(g_k, e_j) (n(n-1) entries) or A_kl =
        alpha_exp(g_k, g_l) ((n-1)^2 entries);
    (L) the row of every g = g_1^(e_1)...g_(n-1)^(e_(n-1)), g_n included, is
        sum_k e_k row(g_k) mod ell: |G| rows.

    So every product reads z(g, q, h) = sum e_k q_j C_kj + sum e_k f_l A_kl
    mod ell.  char(g, q) is bilinear in (g, q), which gives char(g, p+q) =
    char(g, p) char(g, q) and char(gh, p) = char(g, p) char(h, p); and
    alpha = zeta^B with B bilinear, and any bilinear B satisfies

        B(g,h) + B(gh,k) = B(g,h) + B(g,k) + B(h,k) = B(h,k) + B(g,hk),

    which is the cocycle identity on all |G|^3 triples.
    """
    gens = [GroupElem.generator(n, ell, k) for k in range(1, n)]
    if part == "char":
        args, formula = [tuple(int(i == j) for i in range(n)) for j in range(n)], action_char_exp
        probes = [twist_row(q, (0,) * (n - 1)) for q in args]
    elif part == "alpha":
        args, formula = gens, alpha_exp
        probes = [twist_row((0,) * n, h.e) for h in gens]
    else:
        raise ValueError(f"part must be 'char' or 'alpha', got {part!r}")
    cases = len(gens) * len(args) + ell ** (n - 1)

    def read(e):
        return [twist_exp(e, r, ell) for r in probes]

    rows = [read(g.e) for g in gens]
    for g, row in zip(gens, rows):
        for a, z in zip(args, row):
            if (z - formula(g, a)) % ell:
                witness = f"{part}({g}, {a}) is {formula(g, a) % ell}, the row reads {z}"
                return False, witness, cases
    cols = list(zip(*rows))
    for e in itertools.product(range(ell), repeat=n - 1):
        if read(e) != [sum(map(mul, e, col)) % ell for col in cols]:
            witness = f"the row of {GroupElem(n, ell, e)} is not the sum of its generators' rows"
            return False, witness, cases
    return True, None, cases


def cocycle_identity_holds(n: int, ell: int) -> bool:
    """Check alpha(g,h)*alpha(gh,k) == alpha(h,k)*alpha(g,hk) on all of G,
    exactly, through the twist rows the products read (``check_twist_rows``)."""
    return check_twist_rows(n, ell, "alpha")[0]
