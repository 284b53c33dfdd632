"""The homocyclic group G = (Z/ell)^(n-1) inside SL_n and its cocycle twist.

G is the group of diagonal matrices g with g^ell = 1 and determinant 1; the
generator g_i scales the i-th coordinate by zeta and the (i+1)-st by
zeta^(-1) (indices mod n).  Elements are stored as exponent vectors of
g_1, ..., g_(n-1); the dependent generator g_n is rewritten into this basis
on construction, so representations are unique.

Each element of each group is one live object: every way of building an
element returns the object already live for its exponents, so equality and
hashing are those of the object, and the product loop tests for the identity
with ``is``.  The live elements of a group are held weakly, so an element
is freed with its last reference and sweeping all |G| elements keeps one
at a time.  Besides its exponent vector, an element carries an integer
code with one bit field per exponent; a product adds the two codes, takes
ell off each field that reached it and looks the result up, with no tuple
built.

The 2-cocycle twisting all crossed products here is

    alpha(g^e, g^f) = zeta^(-(e_1 f_2 + e_2 f_3 + ... + e_(n-2) f_(n-1)))

evaluated on canonical residues; well-definedness modulo ell is a tested
property rather than an assumption.  ``action_char`` gives the scalar by
which a group element acts on a monomial with a given exponent vector.

Both exponents are linear in the second argument, so each element g has a
twist row: the linear map (q, h) -> action_char_exp(g, q) + alpha_exp(g, h),
which ``twist_exp`` evaluates mod ell straight from g's exponent vector.
The crossed product's one product loop reads the exponent of every term
pair from it.  ``check_twist_rows`` checks the rows from the generators: their
rows against the formulas, and every row against the sum of the generator
rows it is built from, which makes the twist every product reads bilinear.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from operator import mul, sub

from .cyclotomic import Cyclotomic, indexed_powers, zeta_power

__all__ = [
    "GroupElem",
    "alpha",
    "alpha_exp",
    "action_char",
    "action_char_exp",
    "twist_exp",
    "star_mul",
    "star_power",
    "all_elements",
    "check_twist_rows",
    "cocycle_identity_holds",
    "check_bounds",
]

# the largest n: the number of deformation parameters t_1..t_n
MAX_PARAMS = 16


def check_bounds(n: int, ell: int) -> None:
    """The configurations every layer accepts: 3 <= n <= MAX_PARAMS, ell >= 2."""
    if not 3 <= n <= MAX_PARAMS:
        raise ValueError(f"n must be between 3 and {MAX_PARAMS}, got {n}")
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")


class _Group:
    """The live elements of one group (Z/ell)^(n-1), one object each, keyed
    by code and held weakly: an element no one references is freed, and
    its entry with it.  Each element holds its group, so a group and its
    table live exactly as long as one of its elements does.

    The code of g^e holds e_k in bits (k-1)w to kw-1, with w =
    ell.bit_length() + 1.  A field of the sum of two codes is below
    2 ell <= 2^w, so no field carries into the next; adding bias =
    2^(w-1) - ell to every field sets a field's top bit exactly where the
    field reached ell, and one shift turns those top bits into the number
    of ells to take off each field."""

    __slots__ = ("n", "ell", "width", "bias", "high", "live", "_drop", "__weakref__")

    def __init__(self, n: int, ell: int):
        self.n, self.ell = n, ell
        self.width = w = ell.bit_length() + 1
        ones = sum(1 << (w * k) for k in range(n - 1))
        self.bias = ((1 << (w - 1)) - ell) * ones
        self.high = ones << (w - 1)
        self.live: dict = {}  # code -> weakref.KeyedRef to the element
        group = weakref.ref(self)  # the callback must not keep the group alive

        def drop(ref):
            live = group().live  # the dying element still holds its group
            with _LOCK:
                if live.get(ref.key) is ref:  # not an element made since
                    del live[ref.key]

        self._drop = drop

    def code(self, e: tuple) -> int:
        w, code = self.width, 0
        for x in reversed(e):
            code = (code << w) | x
        return code

    def elem(self, code: int, e: tuple | None = None) -> "GroupElem":
        """The live element with this code (exponents ``e``, decoded from the
        code when not given), made if there is none."""
        with _LOCK:
            ref = self.live.get(code)
            if ref is not None:
                g = ref()
                if g is not None:
                    return g
            if e is None:
                w = self.width
                mask = (1 << w) - 1
                e = tuple([(code >> (w * k)) & mask for k in range(self.n - 1)])
            g = object.__new__(GroupElem)
            g.n, g.ell, g.e, g._code, g._group = self.n, self.ell, e, code, self
            self.live[code] = weakref.KeyedRef(g, self._drop, code)
            return g


_GROUPS = weakref.WeakValueDictionary()  # (n, ell) -> _Group
# Held wherever a table entry is made or removed, so that two threads never
# make two objects for one element; reentrant, because a collection inside
# the lock may run a removal callback in the same thread.
_LOCK = threading.RLock()


def _group(n: int, ell: int) -> _Group:
    group = _GROUPS.get((n, ell))
    if group is None:
        with _LOCK:
            group = _GROUPS.get((n, ell))
            if group is None:
                group = _GROUPS[n, ell] = _Group(n, ell)
    return group


class GroupElem:
    """An element of (Z/ell)^(n-1), as residues of exponents of g_1..g_(n-1).

    There is one live object per element: the constructor, ``_make``,
    ``identity``, ``generator``, ``*``, ``**``, ``inverse``, copies and
    unpickling all return the object already live for those residues, so
    ``==`` and ``hash`` are the object's own and equal elements are the
    same object.  Besides ``e``, an element carries its integer code (see
    ``_Group``), so a product is one integer sum and one lookup."""

    __slots__ = ("n", "ell", "e", "_code", "_group", "__weakref__")

    def __new__(cls, n: int, ell: int, e):
        check_bounds(n, ell)
        e = tuple(e)
        if len(e) != n - 1:
            raise ValueError(f"expected {n - 1} exponents, got {len(e)}")
        if not all(isinstance(x, int) for x in e):
            raise ValueError(f"group exponents must be integers, got {e}")
        return cls._make(n, ell, tuple([x % ell for x in e]))

    def __init__(self, n: int, ell: int, e):
        # every public construction passes here; __new__ did the work
        pass

    @classmethod
    def _make(cls, n: int, ell: int, e: tuple) -> "GroupElem":
        # no checks: (n, ell) already checked, residues in 0..ell-1
        group = _group(n, ell)
        return group.elem(group.code(e), e)

    def __reduce__(self):
        # copies and unpickled elements are the live element
        return GroupElem, (self.n, self.ell, self.e)

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
        if self._group is not other._group:
            raise ValueError("group elements from different groups")

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        if not isinstance(other, GroupElem):
            return NotImplemented
        group = self._group
        if other._group is not group:
            raise ValueError("group elements from different groups")
        s = self._code + other._code
        s -= (((s + group.bias) & group.high) >> (group.width - 1)) * group.ell
        # the hit path of group.elem, inlined: nearly every product is live
        ref = group.live.get(s)
        if ref is not None:
            g = ref()
            if g is not None:
                return g
        return group.elem(s)

    def __pow__(self, k: int) -> "GroupElem":
        if not isinstance(k, int):
            return NotImplemented
        ell = self.ell
        return self._make(self.n, ell, tuple([(a * k) % ell for a in self.e]))

    def inverse(self) -> "GroupElem":
        return self ** (-1)

    def is_identity(self) -> bool:
        return not self._code

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


def twist_exp(g: GroupElem, q, h: GroupElem) -> int:
    """Exponent of zeta in char(g, q) alpha(g, h), reduced to 0..ell-1: the
    twist of the term pair (m^p g)(m^q h), evaluated as
    sum_k e_k (q_k - q_(k+1)) - sum_k e_k f_(k+1) from g = g^e and h = g^f.
    Read by the one product loop, ``CrossedAlgebra._accumulate_product``,
    and by ``check_twist_rows``; g and h must lie in the same group."""
    e = g.e
    return (sum(map(mul, e, map(sub, q, q[1:]))) - sum(map(mul, e, h.e[1:]))) % g.ell


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
    """All ell^(n-1) group elements, in lexicographic order of exponents.
    The residues are in range, so each is made unchecked, as by ``_make``,
    with its code summed from one shifted field per exponent."""
    check_bounds(n, ell)
    group = _group(n, ell)
    fields = [[x << (group.width * k) for x in range(ell)] for k in range(n - 1)]
    codes = map(sum, itertools.product(*fields))
    for e, code in zip(itertools.product(range(ell), repeat=n - 1), codes):
        yield group.elem(code, e)


def check_twist_rows(n: int, ell: int, part: str):
    """Check the char part or the alpha part of the twist rows every product
    reads; returns (ok, witness, cases).  ``part`` is "char" or "alpha".

    The row of g is the linear map twist_exp(g, ., .), and its entries are
    read as the products read them: the char entry at e_j is
    twist_exp(g, e_j, 1) and the alpha entry at g_l is twist_exp(g, 0, g_l).

    (G) on the generators g_1..g_(n-1), the entries equal the formulas,
        C_kj = action_char_exp(g_k, e_j) (n(n-1) entries) or
        A_kl = alpha_exp(g_k, g_l) ((n-1)^2 entries);
    (L) the row of every g = g_1^(e_1)...g_(n-1)^(e_(n-1)), g_n included, is
        sum_k e_k row(g_k) mod ell: |G| rows.

    Together they make the exponent every product reads
    z(g, q, h) = sum e_k q_j C_kj + sum e_k f_l A_kl mod ell.  So char(g, q)
    is bilinear in (g, q), which gives char(g, p+q) = char(g, p) char(g, q)
    and char(gh, p) = char(g, p) char(h, p) for all g, h, p, q; and
    alpha = zeta^B with B bilinear, and any bilinear B satisfies

        B(g,h) + B(gh,k) = B(g,h) + B(g,k) + B(h,k) = B(h,k) + B(g,hk),

    which is the cocycle identity on all |G|^3 triples.
    """
    gens = [GroupElem.generator(n, ell, k) for k in range(1, n)]
    if part == "char":
        args, formula = [tuple(int(i == j) for i in range(n)) for j in range(n)], action_char_exp
        probes = [(q, GroupElem.identity(n, ell)) for q in args]
    elif part == "alpha":
        args, formula = gens, alpha_exp
        probes = [((0,) * n, h) for h in gens]
    else:
        raise ValueError(f"part must be 'char' or 'alpha', got {part!r}")
    cases = len(gens) * len(args) + ell ** (n - 1)

    def read(g):
        return [twist_exp(g, q, h) for q, h in probes]

    rows = [read(g) for g in gens]
    for g, row in zip(gens, rows):
        for a, z in zip(args, row):
            if (z - formula(g, a)) % ell:
                witness = f"{part}({g}, {a}) is {formula(g, a) % ell}, the row reads {z}"
                return False, witness, cases
    cols = list(zip(*rows))
    for g in all_elements(n, ell):
        if read(g) != [sum(map(mul, g.e, col)) % ell for col in cols]:
            return False, f"the row of {g} is not the sum of its generators' rows", cases
    return True, None, cases


def cocycle_identity_holds(n: int, ell: int) -> bool:
    """Check alpha(g,h)*alpha(gh,k) == alpha(h,k)*alpha(g,hk) on all of G,
    exactly, through the twist rows the products read (``check_twist_rows``)."""
    return check_twist_rows(n, ell, "alpha")[0]
