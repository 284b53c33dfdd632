"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Every check is an identity of canonical forms over Q(zeta)[t_1..t_n]; a
criterion passes only on structural equality.  The verification grid is
(n, ell) in {3,4,5} x {2,3,4} with symbolic deformation parameters.
"""

import functools
import random
import time

import pytest

from twisted_hecke.chebyshev import identity_che1, identity_che2, identity_rho, nu
from twisted_hecke.cyclotomic import Cyclotomic
from twisted_hecke.exprs import eval_hecke, eval_laurent
from twisted_hecke.group import GroupElem, check_twist_rows, star_power
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra
from twisted_hecke.suite import (
    parser_roundtrip_samples,
    theta_homomorphism_samples,
)

GRID = [(n, ell) for n in (3, 4, 5) for ell in (2, 3, 4)]


@pytest.fixture(scope="module")
def ctx():
    """Shared algebra instances per grid point, so rewrite caches persist."""
    return {(n, ell): (HeckeAlgebra(n, ell), LaurentAlgebra(n, ell)) for n, ell in GRID}


def criterion(num, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {text}", flush=True)
                raise
            elapsed = time.perf_counter() - start
            print(f"[PASS] criterion {num:2d}: {text} ({elapsed:.1f}s)", flush=True)

        return wrapper

    return decorate


@criterion(1, "center relation F(x_i^ell, w) expands to exactly zero on the grid")
def test_criterion_01_relation_reproduction(ctx):
    start = time.perf_counter()
    for point, (H, _) in ctx.items():
        value = H.evaluate_F()
        assert value.is_zero(), f"F nonzero at {point}: {value.render()}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s, expected well under a minute"


@criterion(2, "closed forms of theta(x_i^ell) and theta(w) hold exactly on the grid")
def test_criterion_02_closed_forms(ctx):
    for point, (H, L) in ctx.items():
        for i in range(1, H.n + 1):
            assert L.theta(H.x_pow_ell(i)) == L.theta_xi_ell_closed(i), (point, i)
        assert L.theta(H.build_w()) == L.theta_w_closed(), point


@criterion(3, "x_i^ell and w are central; x_1 fails with witness t1*g1")
def test_criterion_03_centrality(ctx):
    for point, (H, _) in ctx.items():
        for i in range(1, H.n + 1):
            ok, _ = H.is_central(H.x_pow_ell(i))
            assert ok, (point, i)
        ok, _ = H.is_central(H.build_w())
        assert ok, point
        ok, witness = H.is_central(H.gen_x(1))
        assert not ok, point
        expected = H.monomial(
            (0,) * H.n, GroupElem.generator(H.n, H.ell, 1), H.ring.t(1)
        )
        assert witness == expected, (point, witness.render())


@criterion(4, "theta(a*b) == theta(a)*theta(b) for 200 random sparse pairs per point")
def test_criterion_04_homomorphism_oracle(ctx):
    for point, (H, L) in ctx.items():
        rng = random.Random(f"acceptance-4:{point}")
        ok, witness = theta_homomorphism_samples(H, L, rng, 200)
        assert ok, (point, witness)


@criterion(5, "w at n=3 is x1*x2*x3 + tau1*x3*g1 + tau2*x1*g2 + tau3*x2*g3")
def test_criterion_05_example_golden(ctx):
    for ell in (2, 3, 4):
        H, _ = ctx[(3, ell)]
        ring = H.ring
        expected = (
            H.monomial((1, 1, 1))
            + H.monomial((0, 0, 1), GroupElem.generator(3, ell, 1), ring.tau(1))
            + H.monomial((1, 0, 0), GroupElem.generator(3, ell, 2), ring.tau(2))
            + H.monomial((0, 1, 0), GroupElem.generator(3, ell, 3), ring.tau(3))
        )
        assert H.build_w() == expected, ell
    assert (
        ctx[(3, 2)][0].build_w().render()
        == "x1*x2*x3 - (1/2)*t2*x1*g2 + (1/2)*t3*x2*g2*g1 - (1/2)*t1*x3*g1"
    )


@criterion(6, "at t = 0, w normalizes to x_1...x_n and F reduces to a_1...a_n - b^ell")
def test_criterion_06_undeformed_degeneration():
    for n, ell in GRID:
        zeros = tuple(Cyclotomic.zero(ell) for _ in range(n))
        H0 = HeckeAlgebra(n, ell, zeros)
        assert H0.build_w() == H0.monomial((1,) * n), (n, ell)
        one = H0.ring.one()
        assert H0.center_relation_terms() == {
            ((1,) * n, 0): one,
            ((0,) * n, ell): -one,
        }, (n, ell)
        assert H0.evaluate_F().is_zero(), (n, ell)


@criterion(7, "Chebyshev identities che1/che2/rho hold for ell = 1..16; nu(4,.) = (1,-4,2)")
def test_criterion_07_chebyshev_suite():
    for ell in range(1, 17):
        assert identity_che1(ell), ell
        assert identity_che2(ell), ell
        assert identity_rho(ell), ell
    assert [nu(4, r) for r in range(3)] == [1, -4, 2]


@criterion(8, "cocycle identity exhaustive per grid point; g_n^(*ell) = (-1)^(n(ell-1))")
def test_criterion_08_cocycle_and_signs(ctx):
    for n, ell in GRID:
        assert ell ** (n - 1) <= 10_000
        assert check_twist_rows(n, ell, "alpha")[0], (n, ell)
        scal, g = star_power(GroupElem.generator(n, ell, n), ell)
        assert g.is_identity(), (n, ell)
        sign = -1 if (n * (ell - 1)) % 2 else 1
        assert scal == Cyclotomic.from_rational(ell, sign), (n, ell)


@criterion(9, "left and right summation identities hold exactly on the grid")
def test_criterion_09_summation_identities(ctx):
    for point, (_, L) in ctx.items():
        assert L.leftside_identity_check(), point
        assert L.rightside_identity_check(), point


@criterion(10, "independence evidence at degree 8 (n=3) and triangularity at degree 4")
def test_criterion_10_bounded_independence(ctx):
    assert ctx[(3, 2)][0].pbw_independence_evidence(8)
    assert ctx[(3, 3)][0].pbw_independence_evidence(8)
    for point, (_, L) in ctx.items():
        assert L.injectivity_spotcheck(4), point


@criterion(11, "Sklyanin spot-check phi_i phi_(i+1) - zeta phi_(i+1) phi_i = zeta t_i at n=3")
def test_criterion_11_sklyanin(ctx):
    for ell in (2, 3, 4):
        assert ctx[(3, ell)][0].sklyanin_check(), ell


@criterion(12, "render -> parse -> render is a fixpoint on 100 elements per point")
def test_criterion_12_parser_roundtrip(ctx):
    for point, (H, L) in ctx.items():
        rng = random.Random(f"acceptance-12:{point}")
        ok, witness = parser_roundtrip_samples(H, L, rng, 100)
        assert ok, (point, witness)
        # spot-check through the public entry points as well
        w = H.build_w()
        assert eval_hecke(w.render(), H) == w, point
        img = L.theta_w_closed()
        assert eval_laurent(img.render(), L) == img, point
