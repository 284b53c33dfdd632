"""Verification suite: every identity check for one configuration (n, ell),
plus the default grid and machine-readable JSON reports.

Checks record pass/fail/skipped results with witnesses instead of raising,
are individually seeded from (seed, check name) so the outcome does not
depend on execution order, and exercise both sides of every dual-route
check: the PBW engine against the Laurent-side oracle, the defining
relations verbatim, the closed forms, the center relation, and the
Chebyshev identities feeding it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import chebyshev
from .cyclotomic import Cyclotomic, zeta_power
from .exprs import eval_hecke, eval_laurent, parse
from .group import (
    GroupElem,
    action_char,
    cocycle_identity_holds,
    star_power,
)
from .hecke import HeckeAlgebra, HeckeElem
from .laurent import LaurentAlgebra

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


@dataclass(frozen=True)
class Config:
    """One verification configuration.

    ``t_values`` is None for symbolic deformation parameters or a tuple of
    n Q(zeta) scalars; ``degree_bound`` bounds the finite-evidence checks;
    ``seed`` drives every randomized sample.
    """

    n: int
    ell: int
    t_values: tuple | None = None
    degree_bound: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")
        if self.t_values is not None and len(self.t_values) != self.n:
            raise ValueError(f"expected {self.n} parameter values")
        if self.degree_bound < 0:
            # a negative bound leaves the finite-evidence checks nothing to examine
            raise ValueError(f"degree_bound must be >= 0, got {self.degree_bound}")

    def describe(self) -> dict:
        t = "sym" if self.t_values is None else [str(v) for v in self.t_values]
        return {
            "n": self.n,
            "ell": self.ell,
            "t": t,
            "degree_bound": self.degree_bound,
            "seed": self.seed,
        }


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witness: str | None = None
    ms: float = 0.0


def _rng(cfg: Config, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


def random_hecke_elem(
    alg: HeckeAlgebra, rng: random.Random, max_degree: int = 3, max_terms: int = 3
) -> HeckeElem:
    """A random sparse element: few monomials of bounded filtration degree
    with small monomial coefficients (rational times zeta power times t's)."""
    n, ell = alg.n, alg.ell
    total = alg.zero()
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        p = [0] * n
        for _ in range(d):
            p[rng.randrange(n)] += 1
        g = GroupElem(n, ell, tuple(rng.randrange(ell) for _ in range(n - 1)))
        rat = Fraction(rng.choice((1, -1, 2, -2, 1, 3)), rng.choice((1, 1, 2)))
        coeff = alg.ring.from_cyclotomic(
            zeta_power(ell, rng.randrange(ell)) * Cyclotomic.from_rational(ell, rat)
        )
        for _ in range(rng.randint(0, 2)):
            coeff = coeff * alg.ring.t(rng.randint(1, n))
        total = total + alg.monomial(tuple(p), g, coeff)
    return total


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


def run_suite(cfg: Config) -> list[CheckResult]:
    """Run every check for one configuration.  Failures are recorded with a
    witness, never raised; checks that do not apply are marked skipped."""
    H = HeckeAlgebra(cfg.n, cfg.ell, cfg.t_values)
    L = LaurentAlgebra(cfg.n, cfg.ell, cfg.t_values)
    n, ell = cfg.n, cfg.ell
    results: list[CheckResult] = []

    def check(name: str, fn):
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # a crash is a failure with the error as witness
            outcome = (False, f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - start) * 1000.0
        if outcome == "skip":
            results.append(CheckResult(name, "skipped", None, ms))
            return
        ok, witness = outcome
        if ok:
            results.append(CheckResult(name, "pass", None, ms))
        else:
            results.append(CheckResult(name, "fail", witness or "(no witness)", ms))

    def cocycle():
        ok = cocycle_identity_holds(n, ell, seed=cfg.seed)
        return ok, None if ok else f"cocycle identity violated for (n={n}, ell={ell})"

    check("cocycle-identity", cocycle)

    def action_laws():
        rng = _rng(cfg, "action-character-laws")
        for k in range(60):
            g = GroupElem(n, ell, tuple(rng.randrange(ell) for _ in range(n - 1)))
            h = GroupElem(n, ell, tuple(rng.randrange(ell) for _ in range(n - 1)))
            p = tuple(rng.randint(-4, 4) for _ in range(n))
            q = tuple(rng.randint(-4, 4) for _ in range(n))
            sum_ok = action_char(g, tuple(a + b for a, b in zip(p, q))) == action_char(
                g, p
            ) * action_char(g, q)
            mul_ok = action_char(g * h, p) == action_char(g, p) * action_char(h, p)
            if not (sum_ok and mul_ok):
                return False, f"sample #{k}: g={g}, h={h}, p={p}, q={q}"
        return True, None

    check("action-character-laws", action_laws)

    def relations():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                c = H.commutator(H.gen_x(i), H.gen_x(j))
                if (j - i) % n == 1:
                    expected = H.monomial(
                        (0,) * n, GroupElem.generator(n, ell, i), H.ring.t(i)
                    )
                elif (i - j) % n == 1:
                    expected = -H.monomial(
                        (0,) * n, GroupElem.generator(n, ell, j), H.ring.t(j)
                    )
                else:
                    expected = H.zero()
                if c != expected:
                    return False, f"[x{i}, x{j}] = {c.render()}"
        return True, None

    check("defining-relations", relations)

    def star_signs():
        for i in range(1, n + 1):
            scal, g = star_power(GroupElem.generator(n, ell, i), ell)
            if not g.is_identity():
                return False, f"g{i}^(*{ell}) has group part {g}"
            expected = Cyclotomic.from_rational(ell, -1 if (i == n and (n * (ell - 1)) % 2) else 1)
            if scal != expected:
                return False, f"g{i}^(*{ell}) = {scal}"
        return True, None

    check("star-power-signs", star_signs)

    def associativity():
        rng = _rng(cfg, "associativity-samples")
        for k in range(20):
            a = random_hecke_elem(H, rng, max_degree=3, max_terms=2)
            b = random_hecke_elem(H, rng, max_degree=3, max_terms=2)
            c = random_hecke_elem(H, rng, max_degree=3, max_terms=2)
            if H.mul(H.mul(a, b), c) != H.mul(a, H.mul(b, c)):
                return False, f"triple #{k}: a={a.render()}; b={b.render()}; c={c.render()}"
        return True, None

    check("associativity-samples", associativity)

    def homomorphism():
        rng = _rng(cfg, "theta-homomorphism-samples")
        return theta_homomorphism_samples(H, L, rng, 200)

    check("theta-homomorphism-samples", homomorphism)

    def closed_x():
        for i in range(1, n + 1):
            lhs = L.theta(H.x_pow_ell(i))
            rhs = L.theta_xi_ell_closed(i)
            if lhs != rhs:
                return False, f"theta(x{i}^{ell}) = {lhs.render()}"
        return True, None

    check("theta-x-ell-closed-form", closed_x)

    def closed_w():
        lhs = L.theta(H.build_w())
        rhs = L.theta_w_closed()
        return lhs == rhs, None if lhs == rhs else f"theta(w) = {lhs.render()}"

    check("theta-w-closed-form", closed_w)

    def central_x():
        for i in range(1, n + 1):
            ok, witness = H.is_central(H.x_pow_ell(i))
            if not ok:
                return False, f"[x{i}^{ell}, -] = {witness.render()}"
        return True, None

    check("centrality-x-ell", central_x)

    def central_w():
        ok, witness = H.is_central(H.build_w())
        return ok, None if ok else f"[w, -] = {witness.render()}"

    check("centrality-w", central_w)

    def x1_witness():
        if cfg.t_values is not None and not H.ring.t(1):
            return "skip"
        ok, witness = H.is_central(H.gen_x(1))
        if ok:
            return False, "x1 reported central"
        expected = H.monomial((0,) * n, GroupElem.generator(n, ell, 1), H.ring.t(1))
        if witness != expected:
            return False, f"witness = {witness.render()}"
        return True, None

    check("x1-noncentral-witness", x1_witness)

    def leftside():
        ok = L.leftside_identity_check()
        return ok, None if ok else "left summation identity failed"

    check("leftside-identity", leftside)

    def rightside():
        ok = L.rightside_identity_check()
        return ok, None if ok else "right summation identity failed"

    check("rightside-identity", rightside)

    def cheb():
        for name, fn in (
            ("che1", chebyshev.identity_che1),
            ("che2", chebyshev.identity_che2),
            ("rho", chebyshev.identity_rho),
        ):
            if not fn(ell):
                return False, f"{name} failed at ell={ell}"
        return True, None

    check("chebyshev-identities", cheb)

    def relation_f():
        value = H.evaluate_F()
        return value.is_zero(), None if value.is_zero() else f"F = {value.render()}"

    check("center-relation-F", relation_f)

    def independence():
        ok = H.pbw_independence_evidence(cfg.degree_bound)
        return ok, None if ok else "independence evidence failed"

    check("pbw-independence", independence)

    def injectivity():
        ok = L.injectivity_spotcheck(min(4, cfg.degree_bound))
        return ok, None if ok else "triangularity failed"

    check("injectivity-spotcheck", injectivity)

    def sklyanin():
        if n != 3:
            return "skip"
        ok = H.sklyanin_check()
        return ok, None if ok else "Sklyanin relation failed"

    check("sklyanin-spotcheck", sklyanin)

    def roundtrip():
        rng = _rng(cfg, "parser-roundtrip")
        return parser_roundtrip_samples(H, L, rng, 100)

    check("parser-roundtrip", roundtrip)

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.status != "fail" for r in results)


def suite_report(cfg: Config, results: list[CheckResult]) -> dict:
    checks = []
    for r in results:
        entry = {"name": r.name, "status": r.status, "ms": round(r.ms, 3)}
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


def run_grid(
    points=DEFAULT_GRID, degree_bound: int = 8, seed: int = 0, t_values=None
) -> dict:
    """Run the suite over a grid of (n, ell) points; combined JSON report."""
    suites = []
    ok = True
    for n, ell in points:
        cfg = Config(n=n, ell=ell, t_values=t_values, degree_bound=degree_bound, seed=seed)
        results = run_suite(cfg)
        suites.append(suite_report(cfg, results))
        ok = ok and all_passed(results)
    return {
        "grid": [{"n": n, "ell": ell} for n, ell in points],
        "suites": suites,
        "summary": {"ok": ok, "points": len(list(points))},
    }
