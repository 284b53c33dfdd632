"""Verification suite: every identity check for one configuration (n, ell),
plus the default grid and machine-readable JSON reports.

Checks record pass/fail/skipped results with witnesses instead of raising,
are individually seeded from (seed, check name) so the outcome does not
depend on execution order, and exercise both sides of every dual-route
check: the PBW engine against the Laurent-side oracle, the defining
relations verbatim, the closed forms, and the Chebyshev identities.  The
center relation is read on the Laurent side alone: ``theta-relations``
makes theta an algebra map from the presented H, injective by
triangularity, so ``center-relation-F`` expands F at the theta images of
x_i^ell and w instead of expanding w^ell in H.  The engine's own expansion,
``HeckeAlgebra.evaluate_F``, is checked by the tests and in CI.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import chebyshev
from .coeffring import check_t_values
from .crossed import exponents_bounded
from .cyclotomic import Cyclotomic, accumulate, zeta_power
from .exprs import eval_hecke, eval_laurent, parse
from .group import (
    GroupElem, action_char_exp, check_bounds, check_degree_bound, check_twist_rows, star_power,
)
from .hecke import HeckeAlgebra, HeckeElem, enumerate_J, expand_relation, independence_exponents
from .laurent import LaurentAlgebra
from .record import FrozenRecord, Record

__all__ = [
    "Config",
    "CheckResult",
    "run_suite",
    "suite_report",
    "run_grid",
    "all_passed",
    "DEFAULT_GRID",
]

DEFAULT_GRID = tuple((n, ell) for n in (3, 4, 5) for ell in (2, 3, 4))


class Config(FrozenRecord):
    """One verification configuration.

    ``t_values`` is None for symbolic deformation parameters or n Q(zeta)
    scalars of this ell, held as a tuple (``check_t_values``);
    ``degree_bound`` bounds the finite-evidence checks; ``seed`` drives
    every randomized sample.
    """

    __slots__ = ("n", "ell", "t_values", "degree_bound", "seed")

    def __init__(
        self,
        n: int,
        ell: int,
        t_values: tuple | None = None,
        degree_bound: int = 8,
        seed: int = 0,
    ):
        check_bounds(n, ell)
        if t_values is not None:
            t_values = check_t_values(n, ell, t_values)
        check_degree_bound("degree_bound", degree_bound)
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "ell", ell)
        set_field(self, "t_values", t_values)
        set_field(self, "degree_bound", degree_bound)
        set_field(self, "seed", seed)

    def describe(self) -> dict:
        t = "sym" if self.t_values is None else [str(v) for v in self.t_values]
        return {
            "n": self.n,
            "ell": self.ell,
            "t": t,
            "degree_bound": self.degree_bound,
            "seed": self.seed,
        }


class CheckResult(Record):
    """One check's outcome.  ``cases`` is the number of cases the check
    covers: its samples, pairs, monomials, identities or terms (0 when
    skipped).  A failing check stops at its witness, which locates the case;
    a check that would pass with no cases fails with "examined nothing"."""

    __slots__ = ("name", "status", "witness", "ms", "cases")

    def __init__(
        self,
        name: str,
        status: str,  # "pass" | "fail" | "skipped"
        witness: str | None = None,
        ms: float = 0.0,
        cases: int = 0,
    ):
        self.name = name
        self.status = status
        self.witness = witness
        self.ms = ms
        self.cases = cases


def _rng(cfg: Config, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


def random_hecke_elem(
    alg: HeckeAlgebra, rng: random.Random, max_degree: int = 3, max_terms: int = 3
) -> HeckeElem:
    """A random sparse element: few monomials of bounded filtration degree
    with small monomial coefficients (rational times zeta power times t's).
    The terms go straight into one map: the group residues are drawn in
    range, so each is encoded directly, zeta^k is ``times_zeta`` and the ring
    splits the coefficient times its t's with no polynomial product."""
    n, ell, ring = alg.n, alg.ell, alg.ring
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        p = [0] * n
        for _ in range(d):
            p[rng.randrange(n)] += 1
        g = alg.codes.encode([rng.randrange(ell) for _ in range(n - 1)])
        rat = Fraction(rng.choice((1, -1, 2, -2, 1, 3)), rng.choice((1, 1, 2)))
        coeff = Cyclotomic.from_rational(ell, rat).times_zeta(rng.randrange(ell))
        ts = [rng.randint(1, n) for _ in range(rng.randint(0, 2))]
        p = tuple(p)
        for tau, c in ring.split_t_monomial(coeff, ts):
            accumulate(terms, (p, g, tau), c)
    return HeckeElem._new(alg, terms)


def theta_homomorphism_samples(
    H: HeckeAlgebra, L: LaurentAlgebra, rng: random.Random, count: int
):
    """Check theta(a*b) == theta(a)*theta(b) on ``count`` random sparse
    pairs; returns (ok, witness_text)."""
    for k in range(count):
        a = random_hecke_elem(H, rng)
        b = random_hecke_elem(H, rng)
        lhs = L.theta(H.mul(a, b))
        rhs = L.lmul(L.theta(a), L.theta(b))
        if lhs != rhs:
            return False, f"pair #{k}: a = {a.render()}; b = {b.render()}"
    return True, None


def parser_roundtrip_samples(
    H: HeckeAlgebra, L: LaurentAlgebra, rng: random.Random, count: int
):
    """render -> parse -> evaluate -> render must be a fixpoint."""
    half = count // 2
    for k in range(count):
        if k < half:
            elem = random_hecke_elem(H, rng)
            text = elem.render()
            back = eval_hecke(parse(text), H)
        else:
            elem = L.theta(random_hecke_elem(H, rng))
            text = elem.render()
            back = eval_laurent(parse(text), L)
        if back != elem or back.render() != text:
            return False, f"sample #{k}: {text}"
    return True, None


def relation_rhs(alg, i: int, j: int):
    """The right side of H's defining relation [x_i, x_j] in ``alg``, H or
    its Laurent algebra (where g is its own theta image): t_i g_i when j
    follows i on the n-cycle, -t_j g_j when i follows j, else 0."""
    n = alg.n
    if (j - i) % n == 1:
        return alg.gen_g(i).scale(alg.ring.t(i))
    if (i - j) % n == 1:
        return -alg.gen_g(j).scale(alg.ring.t(j))
    return alg.zero()


def theta_relations(H: HeckeAlgebra, L: LaurentAlgebra):
    """(R): theta respects every defining relation of H; returns (ok,
    witness, cases) with n(n-1)/2 + n(n-1) cases.

    - theta(x_i) theta(x_j) - theta(x_j) theta(x_i) = theta of the right
      side of [x_i, x_j] (``relation_rhs``) for every i < j;
    - g_j theta(x_i) = theta(g_j x_i) for j = 1..n-1 and every i, where
      g_j x_i = char(g_j, e_i) x_i g_j in H, with the character read from
      the presentation's formula ``action_char_exp``, and theta(x_i g_j)
      from ``theta``'s right group step.

    The g_1..g_(n-1) generate G and the character is multiplicative in g,
    so these are the relations between the x_i and every g.  theta(g) = g,
    and the group elements multiply by the same crossed-product loop, with
    the same cocycle, in H and in L.  So theta, given on generators, is an
    algebra map from the algebra these relations present, which is H.
    """
    n, ell = H.n, H.ell
    cases = n * (n - 1) // 2 + n * (n - 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = L.commutator(L.theta_x(i), L.theta_x(j))
            if c != relation_rhs(L, i, j):
                return False, f"[theta(x{i}), theta(x{j})] = {c.render()}", cases
    for j in range(1, n):
        g = GroupElem.generator(n, ell, j)
        for i in range(1, n + 1):
            e_i = tuple(int(k == i - 1) for k in range(n))
            char = H.ring.from_cyclotomic(zeta_power(ell, action_char_exp(g, e_i)))
            lhs = L.lmul(L.gen_g(j), L.theta_x(i))
            if lhs != L.theta(H.monomial(e_i, g, char)):
                return False, f"g{j}*theta(x{i}) = {lhs.render()}", cases
    return True, None, cases


def center_relation_through_theta(H: HeckeAlgebra, L: LaurentAlgebra):
    """F(x_1^ell, ..., x_n^ell, w) = 0 in H, read through theta: the terms
    of ``H.center_relation_terms()`` at a_i = theta(x_i^ell) and
    b = theta(w), the images of ``H.x_pow_ell(i)`` and ``H.build_w()``,
    expanded in L by ``expand_relation`` with a list of powers of theta(w)
    of its own, so no power of w is built in H; returns (ok, witness,
    cases), one case per term of F.

    Why the image decides F in H, in every degree at (n, ell):
    - theta is an algebra map from H: ``theta_relations`` (R), with the
      group law the two algebras share;
    - theta is injective: theta(x_i) = y_i + (a term of total degree -1),
      and the leading terms y_i multiply with coefficient 1, so
      theta(x^p g) = y^p g + (terms of lower total degree).  The x^p g span
      H (the rewriting terminates, ``hecke``'s module docstring), and their
      images have distinct leading terms, so no nonzero element of H maps
      to 0.  ``injectivity-spotcheck`` is the agreement test of this step;
    - so theta(F(x^ell, w)) = F(theta(x^ell), theta(w)), which is zero iff
      F(x^ell, w) is.
    H's own expansion, ``HeckeAlgebra.evaluate_F``, builds w^ell with the
    rewriting engine; it checks the engine, not the relation.
    """
    a_img = [L.theta(H.x_pow_ell(i)) for i in range(1, H.n + 1)]
    terms = H.center_relation_terms()
    total = expand_relation(L, terms.items(), a_img, [L.one(), L.theta(H.build_w())])
    ok = total.is_zero()
    return ok, None if ok else f"theta(F) = {total.render()}", len(terms)


def run_suite(cfg: Config) -> list[CheckResult]:
    """Run every check for one configuration.  Failures are recorded with a
    witness, never raised; checks that do not apply are marked skipped."""
    H = HeckeAlgebra(cfg.n, cfg.ell, cfg.t_values)
    L = LaurentAlgebra(cfg.n, cfg.ell, cfg.t_values)
    n, ell = cfg.n, cfg.ell
    results: list[CheckResult] = []

    def check(name: str, fn):
        """Run fn() -> "skip" or (ok, witness, cases) and record the result."""
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # a crash is a failure with the error as witness
            outcome = (False, f"{type(exc).__name__}: {exc}", 0)
        ms = (time.perf_counter() - start) * 1000.0
        if outcome == "skip":
            results.append(CheckResult(name, "skipped", None, ms))
            return
        ok, witness, cases = outcome
        if ok and not cases:
            ok, witness = False, "examined nothing"
        if ok:
            results.append(CheckResult(name, "pass", None, ms, cases))
        else:
            results.append(CheckResult(name, "fail", witness or "(no witness)", ms, cases))

    def cocycle():
        ok, witness, cases = check_twist_rows(n, ell, "alpha")
        if not ok:
            witness = f"cocycle identity violated for (n={n}, ell={ell}): {witness}"
        return ok, witness, cases

    check("cocycle-identity", cocycle)
    check("action-character-laws", lambda: check_twist_rows(n, ell, "char"))

    def relations():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                c = H.commutator(H.gen_x(i), H.gen_x(j))
                if c != relation_rhs(H, i, j):
                    return False, f"[x{i}, x{j}] = {c.render()}", n * n
        return True, None, n * n

    check("defining-relations", relations)
    check("theta-relations", lambda: theta_relations(H, L))

    def star_signs():
        for i in range(1, n + 1):
            scal, g = star_power(GroupElem.generator(n, ell, i), ell)
            if not g.is_identity():
                return False, f"g{i}^(*{ell}) has group part {g}", n
            expected = Cyclotomic.from_rational(ell, -1 if (i == n and (n * (ell - 1)) % 2) else 1)
            if scal != expected:
                return False, f"g{i}^(*{ell}) = {scal}", n
        return True, None, n

    check("star-power-signs", star_signs)

    def associativity():
        rng = _rng(cfg, "associativity-samples")
        samples = 20
        for k in range(samples):
            a = random_hecke_elem(H, rng, max_degree=3, max_terms=2)
            b = random_hecke_elem(H, rng, max_degree=3, max_terms=2)
            c = random_hecke_elem(H, rng, max_degree=3, max_terms=2)
            if H.mul(H.mul(a, b), c) != H.mul(a, H.mul(b, c)):
                witness = f"triple #{k}: a={a.render()}; b={b.render()}; c={c.render()}"
                return False, witness, samples
        return True, None, samples

    check("associativity-samples", associativity)

    def homomorphism():
        rng = _rng(cfg, "theta-homomorphism-samples")
        samples = 200
        return *theta_homomorphism_samples(H, L, rng, samples), samples

    check("theta-homomorphism-samples", homomorphism)

    def closed_x():
        for i in range(1, n + 1):
            lhs = L.theta(H.x_pow_ell(i))
            rhs = L.theta_xi_ell_closed(i)
            if lhs != rhs:
                return False, f"theta(x{i}^{ell}) = {lhs.render()}", n
        return True, None, n

    check("theta-x-ell-closed-form", closed_x)

    def closed_w():
        lhs = L.theta(H.build_w())
        ok = lhs == L.theta_w_closed()
        return ok, None if ok else f"theta(w) = {lhs.render()}", 1

    check("theta-w-closed-form", closed_w)

    def central_x():
        for i in range(1, n + 1):
            ok, witness = H.is_central(H.x_pow_ell(i))
            if not ok:
                return False, f"[x{i}^{ell}, -] = {witness.render()}", n
        return True, None, n

    check("centrality-x-ell", central_x)

    def central_w():
        ok, witness = H.is_central(H.build_w())
        return ok, None if ok else f"[w, -] = {witness.render()}", 1

    check("centrality-w", central_w)

    def x1_witness():
        if not H.ring.t(1):
            return "skip"
        ok, witness = H.is_central(H.gen_x(1))
        if ok:
            return False, "x1 reported central", 1
        expected = H.gen_g(1).scale(H.ring.t(1))
        if witness != expected:
            return False, f"witness = {witness.render()}", 1
        return True, None, 1

    check("x1-noncentral-witness", x1_witness)

    # the two summation identities sum one term per independent set of the
    # n-cycle and one per r = 0..ell/2 respectively
    def leftside():
        return L.leftside_identity_check(), "left summation identity failed", len(enumerate_J(n))

    check("leftside-identity", leftside)

    def rightside():
        return L.rightside_identity_check(), "right summation identity failed", ell // 2 + 1

    check("rightside-identity", rightside)

    def cheb():
        identities = (
            ("che1", chebyshev.identity_che1),
            ("che2", chebyshev.identity_che2),
            ("rho", chebyshev.identity_rho),
        )
        for name, fn in identities:
            if not fn(ell):
                return False, f"{name} failed at ell={ell}", len(identities)
        return True, None, len(identities)

    check("chebyshev-identities", cheb)

    check("center-relation-F", lambda: center_relation_through_theta(H, L))

    def independence():
        ok = H.pbw_independence_evidence(cfg.degree_bound)
        cases = sum(1 for _ in independence_exponents(n, ell, cfg.degree_bound))
        return ok, "independence evidence failed", cases

    check("pbw-independence", independence)

    def injectivity():
        degree = min(4, cfg.degree_bound)
        ok = L.injectivity_spotcheck(degree)
        cases = sum(1 for _ in exponents_bounded(n, degree))
        return ok, "triangularity failed", cases

    check("injectivity-spotcheck", injectivity)

    def sklyanin():
        if n != 3:
            return "skip"
        return H.sklyanin_check(), "Sklyanin relation failed", 3

    check("sklyanin-spotcheck", sklyanin)

    def roundtrip():
        rng = _rng(cfg, "parser-roundtrip")
        samples = 100
        return *parser_roundtrip_samples(H, L, rng, samples), samples

    check("parser-roundtrip", roundtrip)

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.status != "fail" for r in results)


def suite_report(cfg: Config, results: list[CheckResult]) -> dict:
    checks = []
    for r in results:
        entry = {"name": r.name, "status": r.status, "cases": r.cases, "ms": round(r.ms, 3)}
        if r.witness is not None:
            entry["witness"] = r.witness
        checks.append(entry)
    summary = {
        "total": len(results),
        "passed": sum(1 for r in results if r.status == "pass"),
        "failed": sum(1 for r in results if r.status == "fail"),
        "skipped": sum(1 for r in results if r.status == "skipped"),
        "ok": all_passed(results),
    }
    return {"config": cfg.describe(), "checks": checks, "summary": summary}


def run_grid(points=DEFAULT_GRID, degree_bound: int = 8, seed: int = 0) -> dict:
    """Run the suite over a grid of (n, ell) points; combined JSON report.
    Every point is validated (as a ``Config``) before any suite runs, and a
    grid of no points is rejected, since its report would pass having
    examined nothing."""
    configs = [Config(n=n, ell=ell, degree_bound=degree_bound, seed=seed) for n, ell in points]
    if not configs:
        raise ValueError("a grid needs at least one (n, ell) point")
    suites = []
    ok = True
    for cfg in configs:
        results = run_suite(cfg)
        suites.append(suite_report(cfg, results))
        ok = ok and all_passed(results)
    return {
        "grid": [{"n": cfg.n, "ell": cfg.ell} for cfg in configs],
        "suites": suites,
        "summary": {"ok": ok, "points": len(configs)},
    }
