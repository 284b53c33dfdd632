"""The homocyclic group, its cocycle, and the action characters."""

import copy
import itertools
import pickle
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_hecke import HeckeAlgebra, group
from twisted_hecke.cyclotomic import Cyclotomic, zeta_power
from twisted_hecke.group import (
    GroupCodes,
    GroupElem,
    action_char_exp,
    all_elements,
    alpha_exp,
    check_twist_rows,
    star_power,
)


def gen(n, ell, i):
    return GroupElem.generator(n, ell, i)


def test_generator_exponent_vectors():
    assert gen(4, 3, 2).e == (0, 1, 0)
    assert gen(4, 3, 4).e == (2, 2, 2)
    assert gen(3, 2, 3).e == (1, 1)


def test_generator_index_bounds():
    with pytest.raises(ValueError):
        gen(4, 3, 0)
    with pytest.raises(ValueError):
        gen(4, 3, 5)


def test_non_integer_exponents_are_rejected():
    # g2*g1^0.5 used to be stored and rendered
    with pytest.raises(ValueError, match="^group exponents must be integers"):
        GroupElem(3, 2, (0.5, 1))
    assert GroupElem(3, 2, [3, -1]).e == (1, 1)
    assert GroupElem(3, 2, iter((1, 0))).e == (1, 0)


def test_g_n_is_inverse_of_product_of_others():
    for n, ell in [(3, 2), (4, 3), (5, 4)]:
        acc = GroupElem.identity(n, ell)
        for i in range(1, n):
            acc = acc * gen(n, ell, i)
        assert acc * gen(n, ell, n) == GroupElem.identity(n, ell)


def test_plain_multiplication():
    g = GroupElem(4, 3, (1, 2, 0))
    h = GroupElem(4, 3, (2, 2, 1))
    assert (g * h).e == (0, 1, 1)
    assert g * GroupElem.identity(4, 3) == g
    assert (gen(3, 2, 1) * gen(3, 2, 1)).is_identity()


def test_alpha_examples():
    n, ell = 4, 3
    for h in all_elements(n, ell):
        assert zeta_power(ell, alpha_exp(GroupElem.identity(n, ell), h)) == Cyclotomic.one(ell)
    assert zeta_power(ell, alpha_exp(gen(n, ell, 1), gen(n, ell, 2))) == zeta_power(ell, -1)
    assert zeta_power(ell, alpha_exp(gen(n, ell, 2), gen(n, ell, 1))) == Cyclotomic.one(ell)


def test_alpha_well_defined_on_residues():
    # shifting any raw exponent by ell must not change the value
    n, ell = 4, 3
    raw_g = (4, 7, 2)
    raw_h = (5, 1, 8)
    g = GroupElem(n, ell, raw_g)
    h = GroupElem(n, ell, raw_h)
    raw_exp = -sum(raw_g[k] * raw_h[k + 1] for k in range(n - 2))
    assert zeta_power(ell, alpha_exp(g, h)) == zeta_power(ell, raw_exp)


def test_star_adjacent_generators_skew_commute():
    for n, ell in [(3, 2), (4, 3), (5, 4)]:
        zeta = zeta_power(ell, 1)
        for i in range(1, n + 1):
            j = i % n + 1  # the cyclically next generator
            gi, gj = gen(n, ell, i), gen(n, ell, j)
            assert gj * gi == gi * gj
            assert zeta_power(ell, alpha_exp(gj, gi)) == zeta * zeta_power(ell, alpha_exp(gi, gj))


def test_star_nonadjacent_generators_commute():
    for n, ell in [(4, 3), (5, 2), (5, 4)]:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if abs(i - j) in (0, 1, n - 1):
                    continue
                gi, gj = gen(n, ell, i), gen(n, ell, j)
                assert gi * gj == gj * gi
                assert zeta_power(ell, alpha_exp(gi, gj)) == zeta_power(ell, alpha_exp(gj, gi))


@pytest.mark.parametrize("n,ell", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 4)])
def test_star_power_signs(n, ell):
    for i in range(1, n):
        scal, g = star_power(gen(n, ell, i), ell)
        assert g.is_identity()
        assert scal == Cyclotomic.one(ell)
    scal, g = star_power(gen(n, ell, n), ell)
    assert g.is_identity()
    sign = -1 if (n * (ell - 1)) % 2 else 1
    assert scal == Cyclotomic.from_rational(ell, sign)


def test_action_char_examples():
    n, ell = 4, 3
    e1 = (1, 0, 0, 0)
    e2 = (0, 1, 0, 0)
    delta = (1, 1, 1, 1)
    assert zeta_power(ell, action_char_exp(gen(n, ell, 1), e1)) == zeta_power(ell, 1)
    assert zeta_power(ell, action_char_exp(gen(n, ell, 1), e2)) == zeta_power(ell, -1)
    for g in all_elements(n, ell):
        assert zeta_power(ell, action_char_exp(g, delta)) == Cyclotomic.one(ell)


def test_action_char_of_g_n():
    # g_n scales x_n by zeta and x_1 by zeta^-1
    n, ell = 5, 3
    gn = gen(n, ell, n)
    assert zeta_power(ell, action_char_exp(gn, (0, 0, 0, 0, 1))) == zeta_power(ell, 1)
    assert zeta_power(ell, action_char_exp(gn, (1, 0, 0, 0, 0))) == zeta_power(ell, -1)


def cocycle_holds_on_triples(n, ell):
    """Independent brute force over all |G|^3 triples, through the current
    binding of ``group.alpha_exp``: the reference the pair sweep replaces."""
    a = group.alpha_exp
    elems = list(all_elements(n, ell))
    for g, h, k in itertools.product(elems, repeat=3):
        if (a(g, h) + a(g * h, k) - a(h, k) - a(g, h * k)) % ell:
            return False
    return True


SMALL_GROUPS = [(3, 2), (3, 3), (4, 2), (3, 4)]


def test_cocycle_identity_small_groups_brute_force():
    for n, ell in SMALL_GROUPS:
        assert cocycle_holds_on_triples(n, ell), (n, ell)
        assert check_twist_rows(n, ell, "alpha")[0], (n, ell)


@pytest.mark.parametrize("n,ell", SMALL_GROUPS)
def test_cocycle_checks_reject_a_non_cocycle(n, ell, monkeypatch):
    # alpha_exp plus 1 at (g_1, g_1) alone is no longer a cocycle
    g1 = gen(n, ell, 1)
    real = group.alpha_exp
    monkeypatch.setattr(group, "alpha_exp", lambda g, h: real(g, h) + (g == g1 == h))
    assert not cocycle_holds_on_triples(n, ell)
    assert not check_twist_rows(n, ell, "alpha")[0]


def cocycle_holds_on_pairs(n, ell):
    """The |G|^2 pair sweep the row check replaces, through the current
    bindings: with A_kl = alpha_exp(g_k, g_l), alpha_exp(g^e, g^f) equals
    sum e_k f_l A_kl and the exponent products read, twist_exp of the
    residues of g against the twist row of 0 and h,
    equals alpha_exp(g, h) on every pair (mod ell)."""
    gens = [gen(n, ell, i) for i in range(1, n)]
    gram = [[group.alpha_exp(a, b) for b in gens] for a in gens]
    elems = list(all_elements(n, ell))
    zero = (0,) * n
    for g in elems:
        row = [sum(ek * col[l] for ek, col in zip(g.e, gram)) for l in range(n - 1)]
        for h in elems:
            a = group.alpha_exp(g, h)
            z = group.twist_exp(g.e, group.twist_row(zero, h.e), ell)
            if (a - sum(map(mul, row, h.e))) % ell or (z - a) % ell:
                return False
    return True


def action_laws_hold(n, ell):
    """Exhaustive reference for the action check: for every g, h in G, p in
    {-1, 0, 1}^n and unit vectors q, the exponent products read,
    z(g, p) = twist_exp(g, twist_row(p, 1)), equals action_char_exp(g, p) and satisfies
    z(g, p + q) = z(g, p) + z(g, q) and z(gh, q) = z(g, q) + z(h, q) (mod ell)."""
    one = GroupElem.identity(n, ell)
    elems = list(all_elements(n, ell))
    box = list(itertools.product((-1, 0, 1), repeat=n))
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def z(g, p):
        return group.twist_exp(g.e, group.twist_row(p, one.e), ell)

    for g in elems:
        for p in box:
            if (z(g, p) - group.action_char_exp(g, p)) % ell:
                return False
            for q in units:
                if (z(g, tuple(map(sum, zip(p, q)))) - z(g, p) - z(g, q)) % ell:
                    return False
        for h, q in itertools.product(elems, units):
            if (z(g * h, q) - z(g, q) - z(h, q)) % ell:
                return False
    return True


AGREEMENT_POINTS = SMALL_GROUPS + [(4, 3)]


def twist_verdicts(n, ell):
    return {
        "rows-alpha": check_twist_rows(n, ell, "alpha")[0],
        "pairs": cocycle_holds_on_pairs(n, ell),
        "triples": cocycle_holds_on_triples(n, ell),
        "rows-char": check_twist_rows(n, ell, "char")[0],
        "action": action_laws_hold(n, ell),
    }


@pytest.mark.parametrize("n,ell", AGREEMENT_POINTS)
def test_twist_checks_agree_with_the_references(n, ell):
    assert set(twist_verdicts(n, ell).values()) == {True}
    assert check_twist_rows(n, ell, "alpha")[2] == (n - 1) ** 2 + ell ** (n - 1)
    assert check_twist_rows(n, ell, "char")[2] == n * (n - 1) + ell ** (n - 1)


@pytest.mark.parametrize("n,ell", AGREEMENT_POINTS)
@pytest.mark.parametrize("corruption", ["g1-row", "alpha-g1-g1", "g1g2-row"])
def test_twist_checks_and_references_agree_on_corruptions(n, ell, corruption, monkeypatch):
    g1, g2 = gen(n, ell, 1), gen(n, ell, 2)
    if corruption == "alpha-g1-g1":
        # the formula itself stops being a cocycle; the rows are untouched
        real = group.alpha_exp
        monkeypatch.setattr(group, "alpha_exp", lambda g, h: real(g, h) + (g == g1 == h))
        broken = {"rows-alpha", "pairs", "triples"}
    else:
        # off by the sum of the twist row's entries, q_1 - q_n - f_2 - ... -
        # f_(n-1), which a char probe and an alpha probe both reach, for one
        # left factor: a generator, which (G) sees, or an element only (L)
        # sees; the formulas the triples read are untouched
        target = g1 if corruption == "g1-row" else g1 * g2
        real = group.twist_exp
        monkeypatch.setattr(
            group,
            "twist_exp",
            lambda e, row, ell: real(e, row, ell) + (e == target.e) * sum(row),
        )
        broken = {"rows-alpha", "pairs", "rows-char", "action"}
    verdicts = twist_verdicts(n, ell)
    assert {name for name, ok in verdicts.items() if not ok} == broken
    if corruption == "g1g2-row":
        assert "the row of g2*g1" in check_twist_rows(n, ell, "alpha")[1]
        assert "the row of g2*g1" in check_twist_rows(n, ell, "char")[1]


@pytest.mark.parametrize("part", ["Char", "action", "", "alpha "])
def test_twist_check_rejects_an_unknown_part(part):
    with pytest.raises(ValueError, match="part must be"):
        check_twist_rows(3, 2, part)


@pytest.mark.parametrize("n,ell", [(3, 4), (4, 3), (4, 4), (5, 3), (4, 7)])
def test_cocycle_identity_checker(n, ell):
    assert check_twist_rows(n, ell, "alpha")[0]


exps = st.integers(min_value=-3, max_value=6)


@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(exps, exps, exps, exps),
    st.tuples(exps, exps, exps, exps),
)
@settings(max_examples=150, deadline=None)
def test_action_char_bilinearity(eg, eh, p, q):
    n, ell = 4, 3
    g = GroupElem(n, ell, eg)
    h = GroupElem(n, ell, eh)
    pq = tuple(a + b for a, b in zip(p, q))
    assert action_char_exp(g, pq) == action_char_exp(g, p) + action_char_exp(g, q)

    def char(x):
        return zeta_power(ell, action_char_exp(x, p))

    assert char(g * h) == char(g) * char(h)


def test_render_descending_and_identity():
    assert GroupElem.identity(4, 3).render() == "1"
    assert (gen(4, 3, 1) * gen(4, 3, 3)).render() == "g3*g1"
    assert gen(4, 3, 4).render() == "g3^2*g2^2*g1^2"


def test_group_elements_reject_bad_shapes():
    with pytest.raises(ValueError, match=r"^expected 2 exponents, got 1$"):
        GroupElem(3, 2, (0,))
    with pytest.raises(ValueError, match=r"^group elements from different groups$"):
        GroupElem(3, 2, (0, 1)) * GroupElem(3, 3, (0, 1))


@pytest.mark.parametrize("a,b", [((3, 2), (3, 3)), ((3, 3), (3, 2)), ((4, 3), (3, 4)), ((3, 4), (4, 4))])
def test_mixing_groups_raises(a, b):
    g = GroupElem(a[0], a[1], (1,) * (a[0] - 1))
    h = GroupElem(b[0], b[1], (1,) * (b[0] - 1))
    with pytest.raises(ValueError, match=r"^group elements from different groups$"):
        g * h
    with pytest.raises(ValueError, match=r"^group elements from different groups$"):
        alpha_exp(g, h)


def test_operands_that_are_no_group_elements_raise_type_error():
    g = GroupElem(3, 4, (1, 2))
    with pytest.raises(TypeError):
        g**1.5
    with pytest.raises(TypeError):
        g ** "2"
    with pytest.raises(TypeError):
        g * 2
    with pytest.raises(TypeError):
        2 * g
    with pytest.raises(TypeError):
        g * (1, 2)


def test_every_construction_path_gives_the_live_element():
    # elements are plain values: every path to the element in hand gives
    # one equal to it, with an equal hash
    n, ell = 4, 3
    codes = GroupCodes(n, ell)
    g1, g3 = gen(n, ell, 1), gen(n, ell, 3)
    g = GroupElem(n, ell, (1, 0, 2))
    for same in [
        GroupElem(n, ell, (4, -3, -1)),  # unreduced residues
        GroupElem(n, ell, [1, 0, 2]),
        codes.elem(codes.encode((1, 0, 2))),
        g1 * g3.inverse(),
        g3.inverse() * g1,
        g1 * g3**2,
        g**4,
        g.inverse().inverse(),
        (g**2).inverse(),
        GroupElem.identity(n, ell) * g,
        next(x for x in all_elements(n, ell) if x.e == (1, 0, 2)),
    ]:
        assert same == g and g == same and hash(same) == hash(g)
    assert [x.e for x in all_elements(n, ell)] == list(itertools.product(range(ell), repeat=n - 1))
    assert all(x == GroupElem(n, ell, x.e) for x in all_elements(n, ell))
    ident = GroupElem.identity(n, ell)
    for same in [
        GroupElem(n, ell, (3, -6, 0)),
        codes.elem(0),
        g1**ell,
        g**0,
        g * g.inverse(),
        gen(n, ell, 1) * gen(n, ell, 2) * gen(n, ell, 3) * gen(n, ell, 4),
    ]:
        assert same == ident and hash(same) == hash(ident) and same.is_identity()
    assert gen(n, ell, 2) == GroupElem(n, ell, (0, 1, 0))
    assert gen(n, ell, 4) == GroupElem(n, ell, (-1, -1, -1))
    assert g != GroupElem(n, ell, (1, 0, 1)) and not (g == GroupElem(n, ell, (1, 0, 1)))
    assert g != (1, 0, 2)


def test_products_built_by_make_equal_public_construction():
    # products, powers, inverses and decoded codes against public
    # construction from unreduced exponents
    n, ell = 4, 3
    codes = GroupCodes(n, ell)
    g1 = gen(n, ell, 1)
    h = GroupElem(n, ell, (2, 2, 1))
    for made, public in [
        (g1 * h, GroupElem(n, ell, (3, 2, 1))),
        (GroupElem(n, ell, (1, 2, 0)) * h, GroupElem(n, ell, (3, 4, 1))),
        (GroupElem(n, ell, (1, 2, 0)) ** 5, GroupElem(n, ell, (5, 10, 0))),
        (h.inverse(), GroupElem(n, ell, (-2, -2, -1))),
        (codes.elem(codes.encode((0, 1, 2))), GroupElem(n, ell, (3, 4, 5))),
    ]:
        assert made == public and public == made
        assert hash(made) == hash(public)
        assert made.e == public.e and made.n == n and made.ell == ell
    assert len({GroupElem(n, ell, (1, 2, 0)) * h, GroupElem(n, ell, (0, 1, 1))}) == 1


def test_elements_of_other_groups_are_unequal():
    # the same residues in another group are another element
    for (n, ell), (m, k) in [((3, 2), (3, 3)), ((4, 3), (4, 4)), ((4, 3), (5, 3))]:
        g, h = GroupElem(n, ell, (1,) * (n - 1)), GroupElem(m, k, (1,) * (m - 1))
        assert g != h and h != g and not g == h
        assert len({g, h}) == 2
    assert GroupElem(4, 3, (1, 0, 2)) != GroupElem(5, 3, (1, 0, 2, 0))
    assert GroupElem.identity(3, 2) != GroupElem.identity(3, 3)


def test_copies_and_pickles_give_equal_elements():
    g = GroupElem(5, 4, (1, 2, 3, 0))
    ident = GroupElem.identity(5, 4)
    assert copy.copy(g) == g and copy.deepcopy(g) == g
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for x in (g, ident):
            back = pickle.loads(pickle.dumps(x, protocol))
            assert type(back) is GroupElem and back == x and hash(back) == hash(x)
            assert (back.n, back.ell, back.e) == (x.n, x.ell, x.e)
    assert pickle.loads(pickle.dumps([g, ident]))[1] == ident
    H = HeckeAlgebra(4, 3)
    a = H.mul(H.monomial((1, 0, 2, 1), gen(4, 3, 2)), H.gen_x(3)) + H.gen_g(4)
    b = copy.deepcopy(a)
    assert b == a and a == b
    assert b.terms == a.terms and b.monomial_terms() == a.monomial_terms()


@pytest.mark.parametrize("n,ell", [(3, 2), (5, 4), (16, 7), (16, 1000)])
def test_products_by_code_agree_with_exponent_arithmetic(n, ell):
    # the code object: encode and decode are inverse, the identity is 0,
    # and a product of codes is the code of the residues' sum mod ell
    codes = GroupCodes(n, ell)
    rng = random.Random(f"codes:{n}:{ell}")
    seen = {0}
    assert codes.encode((0,) * (n - 1)) == 0 and codes[0] == (0,) * (n - 1)
    for _ in range(300):
        e = tuple(rng.randrange(ell) for _ in range(n - 1))
        f = tuple(rng.choice((0, ell - 1, rng.randrange(ell))) for _ in range(n - 1))
        a, b = codes.encode(e), codes.encode(f)
        assert codes[a] == e and codes[b] == f
        assert codes.code(GroupElem(n, ell, e)) == a and codes.elem(a) == GroupElem(n, ell, e)
        ab = codes.mul(a, b)
        assert codes[ab] == tuple((x + y) % ell for x, y in zip(e, f))
        assert ab == codes.encode(codes[ab]) and ab == codes.mul(b, a)
        assert (not ab) == (codes[ab] == (0,) * (n - 1))
        seen |= {a, b, ab}
    # the decode cache holds the codes decoded, no more
    assert set(codes) == seen
    for i in range(1, n + 1):
        for k in (-1, 1, 2, ell + 1):
            assert codes[codes.generator(i, k)] == (gen(n, ell, i) ** k).e
    with pytest.raises(ValueError, match=r"^group elements from different groups$"):
        codes.code(GroupElem(n, ell + 1, (0,) * (n - 1)))
