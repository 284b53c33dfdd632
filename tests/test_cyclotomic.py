"""Exactness and field structure of the cyclotomic arithmetic."""

import numbers
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_hecke.coeffring import ParamRing
from twisted_hecke import cyclotomic
from twisted_hecke.cyclotomic import (
    Cyclotomic,
    accumulate,
    cyclotomic_polynomial,
    is_rational,
    product_matches_fold,
    power_by_squaring,
    zeta_power,
)

F = Fraction

# hand-checked small cyclotomic polynomials, ascending coefficients
KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("ell,coeffs", sorted(KNOWN.items()))
def test_cyclotomic_polynomial_known_values(ell, coeffs):
    assert cyclotomic_polynomial(ell) == coeffs
    assert all(type(c) is int for c in cyclotomic_polynomial(ell))


def ref_cyclotomic_polynomial(ell):
    """Phi_ell in Fractions: z^ell - 1 divided with remainder in Q[z] by the
    reference Phi_d of each proper divisor d of ell."""
    poly = [F(-1)] + [F(0)] * (ell - 1) + [F(1)]
    for d in range(1, ell):
        if ell % d == 0:
            poly, rem = ref_divmod(poly, ref_cyclotomic_polynomial(d))
            assert not rem
    return poly


def test_integer_cyclotomic_polynomial_matches_fraction_division():
    # Phi_ell is computed over Z, dividing by monic integer divisors only;
    # the division in Q[z] it replaced must give the same coefficients
    for ell in range(1, 65):
        got = cyclotomic_polynomial(ell)
        assert all(type(c) is int for c in got)
        assert list(got) == ref_cyclotomic_polynomial(ell)


@pytest.mark.parametrize("ell", range(1, 17))
def test_product_over_divisors_is_power_minus_one(ell):
    # z^ell - 1 == product of Phi_d over all divisors d of ell
    prod = [F(1)]
    for d in range(1, ell + 1):
        if ell % d == 0:
            prod = ref_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [F(0)] * (ell + 1)
    expected[0], expected[ell] = F(-1), F(1)
    assert prod == expected


def test_a_coefficient_accepts_exactly_ints_and_fractions():
    # what the coercions accepted as (int, Fraction) before they stopped
    # importing fractions; another numbers.Rational, such as sympy's, stays
    # out, and so does everything else
    class OtherRational:
        pass

    numbers.Rational.register(OtherRational)
    assert all(map(is_rational, (0, -3, True, F(1, 2), F(4))))
    others = (0.5, Decimal(1), "1", OtherRational(), zeta_power(3, 1), None)
    assert not any(map(is_rational, others))
    x = zeta_power(5, 1)
    assert x * 2 == x + x and x * F(1, 2) + x * F(1, 2) == x
    for value in others[:4]:
        with pytest.raises(TypeError):
            x * value
    # the constructors take the same rationals and raise a one-line TypeError
    # on the rest, a float, a Decimal or a str included
    assert Cyclotomic(3, [True, F(1, 2), 2]) == Cyclotomic(3, [F(-1), F(-3, 2)])
    assert Cyclotomic.from_rational(5, True) == Cyclotomic.one(5)
    assert Cyclotomic.from_rational(5, F(-3, 6)) == Cyclotomic(5, [F(-1, 2)])
    builders = (
        lambda v: Cyclotomic(3, [1, v]),
        lambda v: Cyclotomic.from_rational(3, v),
        ParamRing(3, 3).from_rational,
        ParamRing(3, 3, [Cyclotomic.one(3)] * 3).from_rational,
    )
    for value in others:
        for build in builders:
            with pytest.raises(TypeError, match=r"^a rational must be an int or a Fraction, got "):
                build(value)


def test_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        Cyclotomic(-3, [1])


def test_zeta_power_examples():
    assert zeta_power(3, 0) == Cyclotomic.one(3)
    # zeta^-1 = zeta^2 = -1 - zeta in Q(zeta_3)
    assert zeta_power(3, -1) == Cyclotomic(3, [-1, -1])
    assert zeta_power(3, -1) == zeta_power(3, 2)
    # for ell = 2 the root is -1 itself
    assert zeta_power(2, 1) == Cyclotomic.from_rational(2, -1)


def test_additive_and_multiplicative_identities():
    z = zeta_power(5, 1)
    assert z + Cyclotomic.zero(5) == z
    assert z * zeta_power(5, 4) == Cyclotomic.one(5)
    assert zeta_power(2, 1) * zeta_power(2, 1) == Cyclotomic.one(2)


def test_inverse_examples():
    assert Cyclotomic.one(7).inv() == Cyclotomic.one(7)
    # ell = 2: zeta - 1 = -2, a plain rational inversion
    a = zeta_power(2, 1) - 1
    assert a.inv() == Cyclotomic.from_rational(2, F(-1, 2))
    # ell = 4: 1/(zeta - 1) = (-1 - zeta)/2
    b = zeta_power(4, 1) - 1
    assert b.inv() == Cyclotomic(4, [F(-1, 2), F(-1, 2)])
    assert b * b.inv() == Cyclotomic.one(4)


@pytest.mark.parametrize("ell", [15, 16, 20, 24, 30])
def test_inverse_through_many_conjugates(ell):
    # phi(ell) = 8 at each of these orders, so the norm multiplies seven
    # Galois conjugates, and Phi_ell has coefficients other than 0 and 1
    one = Cyclotomic.one(ell)
    z = zeta_power(ell, 1)
    samples = [
        z - 1,
        z + F(1, 3),
        Cyclotomic(ell, [F(1, 2), -3, 0, F(5, 7), 1, 0, 0, -2]),
        Cyclotomic(ell, [F(k - 4, k + 1) for k in range(ell + 2)]),
        (z + 2) * zeta_power(ell, 5) * F(-6, 11),
    ]
    for x in samples:
        assert x
        inv = assert_canonical(x.inv())
        assert assert_canonical(x * inv) == one
        assert inv.inv() == x


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(6).inv()


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 12])
def test_primitivity(ell):
    one = Cyclotomic.one(ell)
    for k in range(1, ell):
        assert zeta_power(ell, k) != one
    assert zeta_power(ell, ell) == one


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11])
def test_full_period_sum_vanishes_for_prime_order(ell):
    total = Cyclotomic.zero(ell)
    for k in range(ell):
        total = total + zeta_power(ell, k)
    assert total.is_zero()


ells = st.sampled_from([2, 3, 4, 5, 6, 12])
rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def elements(ell):
    size = len(cyclotomic_polynomial(ell)) - 1
    return st.lists(rationals, min_size=size, max_size=size).map(
        lambda cs: Cyclotomic(ell, cs)
    )


@given(ells.flatmap(lambda ell: st.tuples(elements(ell), elements(ell), elements(ell))))
@settings(max_examples=150, deadline=None)
def test_field_axioms_on_random_samples(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inv() == Cyclotomic.one(a.ell)


@given(
    ells,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_zeta_power_is_a_character(ell, k, m):
    assert zeta_power(ell, k) * zeta_power(ell, m) == zeta_power(ell, k + m)
    assert zeta_power(ell, k) == zeta_power(ell, k % ell)


def test_power_operator_handles_negative_exponents():
    z = zeta_power(12, 1) + 1
    assert z**0 == Cyclotomic.one(12)
    assert z**3 * z**-3 == Cyclotomic.one(12)


def test_string_rendering():
    assert str(Cyclotomic.zero(4)) == "0"
    assert str(Cyclotomic.one(4)) == "1"
    assert str(zeta_power(4, 1)) == "zeta"
    assert str(Cyclotomic(4, [F(1), F(-1, 2)])) == "1 - (1/2)*zeta"


_RING = ParamRing(3, 3)
_ZETA = zeta_power(3, 1)


# (zero, a, b) in each coefficient type that sparse maps store
@pytest.mark.parametrize(
    "zero,a,b",
    [
        (F(0), F(2), F(-5, 3)),
        (Cyclotomic.zero(3), _ZETA, Cyclotomic.one(3) + _ZETA),
        (_RING.zero(), _RING.t(1), _RING.t(2).scale(_ZETA)),
    ],
    ids=["fraction", "cyclotomic", "parampoly"],
)
def test_accumulate_never_stores_a_zero(zero, a, b):
    out = {}
    accumulate(out, "k", zero)
    assert out == {}  # a zero at a new key is not stored
    accumulate(out, "k", a)
    accumulate(out, "j", b)
    accumulate(out, "k", -a)
    assert out == {"j": b}  # a cancelling sum deletes the key
    accumulate(out, "j", a)
    assert out == {"j": b + a}  # a nonzero sum replaces the old value
    accumulate(out, "k", a)
    assert list(out) == ["j", "k"]  # a deleted key comes back at the end


# -- the integer-numerator representation against a Fraction-vector reference

# Phi_6, Phi_10 and Phi_12 have negative coefficients; ell = 1 makes zeta = 1;
# phi(ell) is 1 at ell = 1, 2 and 2 at ell = 3, 4, 6, where the products are
# closed forms, and at least 4 at the rest, where they are convolutions
REF_ELLS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]


def ref_divmod(a, b):
    """Division with remainder in Q[z] on ascending coefficient lists; the
    remainder is trimmed of its zero leading coefficients."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    q = [F(0)] * max(len(r) - d, 0)
    for k in range(len(r) - 1, d - 1, -1):
        c = F(r[k]) / lead
        if c:
            q[k - d] = c
            for j in range(d + 1):
                r[k - d + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return q, r


def ref_reduce(ell, coeffs):
    """Fraction coordinates of a polynomial in z reduced mod Phi_ell."""
    phi = list(cyclotomic_polynomial(ell))
    _, rem = ref_divmod([F(c) for c in coeffs], phi)
    return tuple(rem) + (F(0),) * (len(phi) - 1 - len(rem))


def ref_mul(a, b):
    conv = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return conv


def ref_one(ell):
    return ref_reduce(ell, [1])


def assert_canonical(x):
    m = len(cyclotomic_polynomial(x.ell)) - 1
    assert len(x.num) == m and all(type(a) is int for a in x.num)
    assert type(x.den) is int and x.den >= 1
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.num == (0,) * m and x.den == 1
    return x


def ref_elements(ell):
    # lists longer than phi(ell) also exercise the constructor's reduction
    return st.lists(rationals, min_size=0, max_size=ell + 3)


@given(
    st.sampled_from(REF_ELLS).flatmap(
        lambda ell: st.tuples(st.just(ell), ref_elements(ell), ref_elements(ell))
    ),
    st.integers(min_value=-3, max_value=4),
)
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_fraction_vector_reference(case, k):
    ell, ca, cb = case
    a, b = assert_canonical(Cyclotomic(ell, ca)), assert_canonical(Cyclotomic(ell, cb))
    ra, rb = ref_reduce(ell, ca), ref_reduce(ell, cb)
    assert a.coeffs == ra and b.coeffs == rb
    assert assert_canonical(a + b).coeffs == ref_reduce(ell, [x + y for x, y in zip(ra, rb)])
    assert assert_canonical(a - b).coeffs == ref_reduce(ell, [x - y for x, y in zip(ra, rb)])
    assert assert_canonical(-a).coeffs == tuple(-x for x in ra)
    assert assert_canonical(a * b).coeffs == ref_reduce(ell, ref_mul(ra, rb))
    for q in (F(0), F(1), F(-3, 2)):
        expected = tuple(q * x for x in ra)
        assert assert_canonical(a * q).coeffs == expected
        assert assert_canonical(q * a).coeffs == expected
        assert assert_canonical(a + q).coeffs == ref_reduce(ell, [ra[0] + q, *ra[1:]])
    if a:
        inv = assert_canonical(a.inv())
        assert ref_reduce(ell, ref_mul(ra, inv.coeffs)) == ref_one(ell)
    if k >= 0 or a:
        power = ref_one(ell)
        for _ in range(abs(k)):
            power = ref_reduce(ell, ref_mul(power, ra))
        got = assert_canonical(a**k).coeffs
        if k >= 0:
            assert got == power
        else:
            assert ref_reduce(ell, ref_mul(got, power)) == ref_one(ell)


# the primes 7 and 11 have ell - phi(ell) = 1: a shift folds one place
@given(
    st.sampled_from(REF_ELLS + [7, 11]).flatmap(
        lambda ell: st.tuples(st.just(ell), ref_elements(ell), st.integers(-2 * ell, 2 * ell))
    )
)
@settings(max_examples=300, deadline=None)
def test_times_zeta_matches_the_product(case):
    ell, cs, k = case
    x = Cyclotomic(ell, cs)
    assert assert_canonical(x.times_zeta(k)) == x * zeta_power(ell, k)
    assert x.times_zeta(k).coeffs == ref_reduce(ell, [0] * (k % ell) + list(x.coeffs))


@pytest.mark.parametrize("ell", range(1, 31))
def test_product_kernel_matches_the_fold_on_every_basis_pair(ell):
    """The product of Q(zeta), a closed form when phi(ell) <= 2 and a
    convolution otherwise, equals the folded convolution on every pair
    zeta^i, zeta^j with i, j < phi(ell).  Both forms are Q-bilinear in the
    numerators, so agreement on a basis pair of each side gives agreement
    on every pair of elements; the rational shortcut of the convolution
    scales a numerator that is already reduced, as the folded convolution
    by r z^0 does.  Each zeta^i zeta^j also matches the Fraction-vector
    reference."""
    assert product_matches_fold(ell)
    m = len(cyclotomic_polynomial(ell)) - 1
    for i in range(m):
        for j in range(m):
            got = zeta_power(ell, i) * zeta_power(ell, j)
            assert assert_canonical(got).coeffs == ref_reduce(ell, [0] * (i + j) + [1])


def unfolded(a, b):
    """The convolution of two numerators cut at len(a) places, unreduced."""
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            conv[j] += x * y
    return tuple(conv[: len(a)])


def unreduced(x, y):
    """The product of ``Cyclotomic._convolve`` on the two numerators, over
    x.den * y.den with the common factor left in."""
    ell = x.ell
    p = Cyclotomic._convolve(Cyclotomic._make(ell, x.num, 1), Cyclotomic._make(ell, y.num, 1))
    return Cyclotomic._make(ell, p.num, x.den * y.den)


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 6, 7, 12])
def test_a_wrong_product_fails_the_basis_pair_check(ell, monkeypatch):
    # a closed form (phi <= 2) or a convolution (phi >= 4) that drops what
    # lies past phi(ell), or flips the sign when phi(ell) = 1; and a product
    # left out of lowest terms, right on every basis pair, whose
    # denominator is 1, so only the halved pairs of the check see it
    if ell <= 2:
        def wrong(x, y):
            return Cyclotomic._make(ell, (-x.num[0] * y.num[0],), x.den * y.den)
    else:
        def wrong(x, y):
            return Cyclotomic._make(ell, unfolded(x.num, y.num), x.den * y.den)
    basis = [zeta_power(ell, i) for i in range(len(cyclotomic_polynomial(ell)) - 1)]
    assert all(unreduced(x, y) == x * y for x in basis for y in basis)
    for mutant in (wrong, unreduced):
        monkeypatch.setattr(cyclotomic, "_kernel", lambda ell, mutant=mutant: mutant)
        assert not product_matches_fold(ell)


@pytest.mark.parametrize("ell", range(1, 31))
def test_kernel_products_with_denominators_match_the_reference(ell):
    # random elements over denominators up to 6, and each pair again as
    # (x/2)(2y), whose product must come out in lowest terms
    rng = random.Random(ell)
    kernel = cyclotomic._kernel(ell)
    m = len(cyclotomic_polynomial(ell)) - 1
    for _ in range(12):
        cx, cy = ([F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)] for _ in "xy")
        x, y = Cyclotomic(ell, cx), Cyclotomic(ell, cy)
        expected = ref_reduce(ell, ref_mul(cx, cy))
        for a, b in ((x, y), (x * F(1, 2), y * 2), (y * F(1, 2), x * 2)):
            assert assert_canonical(kernel(a, b)).coeffs == expected
            assert assert_canonical(a * b).coeffs == expected


@pytest.mark.parametrize("ell", REF_ELLS)
def test_equal_values_from_different_routes_hash_equal(ell):
    one = Cyclotomic.one(ell)
    half = Cyclotomic.from_rational(ell, F(1, 2))
    z = zeta_power(ell, 1)
    x = Cyclotomic(ell, [F(1, 3), F(-2, 5), 7])
    same_as_one = [
        half + half,
        Cyclotomic(ell, [F(2, 4)]) * 2,
        z * zeta_power(ell, -1),
        zeta_power(ell, ell),
        Cyclotomic(ell, [0] * ell + [1]),  # z^ell = 1
    ]
    if x:
        same_as_one.append(x * x.inv())
    for y in same_as_one:
        assert_canonical(y)
        assert y == one and hash(y) == hash(one)
    zero = Cyclotomic.zero(ell)
    for y in (half - half, x - x, x * 0, Cyclotomic(ell, [F(0), 0])):
        assert assert_canonical(y) == zero and hash(y) == hash(zero)
    # ((1/3)z + (1/6)z)*2 built over two denominators is z
    y = (Cyclotomic(ell, [0, F(1, 3)]) + Cyclotomic(ell, [0, F(1, 6)])) * 2
    assert y == z and hash(y) == hash(z)


def test_products_and_sums_create_no_fraction(monkeypatch):
    x = Cyclotomic(5, [F(1, 2), F(-2, 3), 3, F(5, 7)])
    y = Cyclotomic(5, [F(3, 4), 0, F(-1, 6), 2])
    q = Cyclotomic.from_rational(5, F(-5, 3))
    created = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for a in (x, y, q, zeta_power(5, 3)):
        for b in (x, y, q, zeta_power(5, 2)):
            a * b, a + b, a - b, -a, a == b, hash(a), bool(a), a.times_zeta(3)
    assert created == []


class CountingPower:
    """A stand-in for a ring element that counts the products it makes."""

    products = 0

    def __init__(self, k):
        self.k = k

    def __mul__(self, other):
        CountingPower.products += 1
        return CountingPower(self.k + other.k)


@pytest.mark.parametrize("k,products", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (13, 5)])
def test_power_by_squaring_makes_no_wasted_product(k, products):
    CountingPower.products = 0
    one = CountingPower(0)
    result = power_by_squaring(CountingPower(1), k, one)
    assert result.k == k and CountingPower.products == products
    if k == 0:
        assert result is one


def test_rsub_and_truediv():
    z = zeta_power(3, 1)
    assert 1 - z == Cyclotomic.one(3) - z
    assert str(1 - z) == "1 - zeta"
    assert z / (z - 1) == z * (z - 1).inv()


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
        Cyclotomic.__rsub__,
    ],
)
def test_mixed_orders_raise(op):
    with pytest.raises(ValueError, match=r"^mixed cyclotomic orders 3 and 4$"):
        op(zeta_power(3, 1), zeta_power(4, 1))


def test_non_integer_power_and_order_are_rejected():
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\* or pow\(\)"):
        zeta_power(3, 1) ** 1.5
    with pytest.raises(ValueError, match=r"^ell must be a positive integer, got 0$"):
        zeta_power(0, 1)


def test_arithmetic_with_a_non_number_raises_type_error():
    # +, -, reflected - and / decline what they cannot coerce, so Python
    # raises its own TypeError
    c = Cyclotomic(3, [1, 2])
    for op in (
        lambda: c + "a",
        lambda: c - "a",
        lambda: "a" - c,
        lambda: c / "a",
    ):
        with pytest.raises(TypeError):
            op()
