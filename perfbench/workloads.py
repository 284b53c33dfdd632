"""The benchmark's two workloads, written against the package's public API.

A workload is a fixed tuple of (n, ell) points.  Running a point builds
fresh algebras, runs that point's verdicts and returns one ``Verdict`` per
question answered, each with its wall time, whether it matched the known
answer, and how many cases it examined.  A verdict that examined zero cases
counts as failed, so a check that passes vacuously cannot hide in the
benchmark.  Both workloads time theta-oracle pairs one by one; those
pairs are the samples of the latency percentiles.

Why these two workloads:

* ``grid-sym`` is the end-to-end unit users run (``run_suite`` over the
  default grid, plus the golden digests of w and w^ell and timed theta
  pairs at each point, all with symbolic parameters) and the broadest mix
  of layers; it is the only one that reaches the expression parser.
* ``oracle-spec`` is the theta oracle and injectivity evidence with the
  parameters specialized to constants: Laurent and group work, next to no
  PBW rewriting, and the coefficient layer reduced to single terms.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from math import comb
from pathlib import Path

from twisted_hecke import (
    DEFAULT_GRID,
    Config,
    HeckeAlgebra,
    LaurentAlgebra,
    enumerate_J,
    eval_scalar,
    run_suite,
)
from twisted_hecke.suite import random_hecke_elem

GOLDEN_PATH = Path(__file__).with_name("golden.json")

GRID_DEGREE_BOUND = 8
# Points are visited heaviest first, so that a run which stops mid-cycle has
# timed the slowest points more than once.
GRID_POINTS = tuple(reversed(DEFAULT_GRID))
GRID_PAIRS = 50
ORACLE_POINTS = ((5, 4), (4, 4), (5, 3), (4, 3), (3, 3))
# the CLI's --t example, truncated to n values
ORACLE_T = ("1", "zeta", "1/2", "-2", "zeta^2+1")
ORACLE_PAIRS = 200
ORACLE_INJECTIVITY_DEGREE = 4
# name of the verdict that checks one theta pair
PAIR = "theta-pair"

# Every check run_suite reports, in order.  A check that goes missing is a
# failed verdict: the benchmark must be changed on purpose to drop one.
GRID_CHECKS = (
    "cocycle-identity",
    "action-character-laws",
    "defining-relations",
    "star-power-signs",
    "associativity-samples",
    "theta-homomorphism-samples",
    "theta-x-ell-closed-form",
    "theta-w-closed-form",
    "centrality-x-ell",
    "centrality-w",
    "x1-noncentral-witness",
    "leftside-identity",
    "rightside-identity",
    "chebyshev-identities",
    "center-relation-F",
    "pbw-independence",
    "injectivity-spotcheck",
    "sklyanin-spotcheck",
    "parser-roundtrip",
)


@dataclass
class Verdict:
    name: str
    seconds: float
    ok: bool
    cases: int


class NullTracer:
    """Stands in for ``tracer.Tracer`` when tracing is off."""

    def verdict(self, name: str):
        return nullcontext()


def independence_cases(n: int, ell: int, bound: int) -> int:
    """Number of products x^(ell p) w^m that pbw_independence_evidence
    examines: 0 <= m < ell, m n + ell |p| <= bound."""
    total = 0
    for m in range(ell):
        rest = bound - m * n
        if rest < 0:
            break
        total += comb(rest // ell + n, n)
    return total


def injectivity_cases(n: int, ell: int, degree: int) -> int:
    """Number of monomials x^p g with |p| <= degree that
    injectivity_spotcheck examines."""
    if degree < 0:
        return 0
    return comb(degree + n, n) * ell ** (n - 1)


def grid_check_cases(cfg: Config, name: str) -> int:
    """How many cases each suite check is asked to examine at ``cfg``."""
    n, ell = cfg.n, cfg.ell
    fixed = {
        "cocycle-identity": ell ** (3 * (n - 1)),
        "action-character-laws": 60,
        "defining-relations": n * n,
        "star-power-signs": n,
        "associativity-samples": 20,
        "theta-homomorphism-samples": 200,
        "theta-x-ell-closed-form": n,
        "theta-w-closed-form": 1,
        "centrality-x-ell": n,
        "centrality-w": 1,
        "x1-noncentral-witness": 1,
        "leftside-identity": len(enumerate_J(n)),
        "rightside-identity": ell // 2 + 1,
        "chebyshev-identities": 3,
        "center-relation-F": len(enumerate_J(n)) + ell // 2 + 1,
        "sklyanin-spotcheck": 3 if n == 3 else 0,
        "parser-roundtrip": 100,
    }
    if name == "pbw-independence":
        return independence_cases(n, ell, cfg.degree_bound)
    if name == "injectivity-spotcheck":
        return injectivity_cases(n, ell, min(4, cfg.degree_bound))
    return fixed[name]


def grid_verdicts(cfg: Config, results) -> list[Verdict]:
    """Judge run_suite results: every check passes, except that the
    Sklyanin spot-check is skipped off n = 3; each examines some case."""
    by_name = {r.name: r for r in results}
    out = []
    for name in GRID_CHECKS:
        r = by_name.get(name)
        if r is None:
            out.append(Verdict(name, 0.0, False, 0))
            continue
        cases = grid_check_cases(cfg, name)
        if name == "sklyanin-spotcheck" and cfg.n != 3:
            ok = r.status == "skipped"
        else:
            ok = r.status == "pass" and cases > 0
        out.append(Verdict(name, r.ms / 1000.0, ok, cases))
    return out


def run_grid_point(point, seed: int, tracer, golden: dict):
    """run_suite at one grid point; then, on fresh symbolic algebras, the
    golden digests and GRID_PAIRS timed theta pairs."""
    n, ell = point
    cfg = Config(n, ell, degree_bound=GRID_DEGREE_BOUND, seed=seed)
    with tracer.verdict(f"run_suite({n},{ell})"):
        results = run_suite(cfg)
    out = grid_verdicts(cfg, results)
    H = HeckeAlgebra(n, ell)
    out.append(_timed(tracer, "golden-digests", 2,
                      lambda: golden_digests(H) == golden.get(f"{n},{ell}")))
    out += theta_pairs(tracer, H, LaurentAlgebra(n, ell), seed, GRID_PAIRS)
    return out, {r.name: r.ms / 1000.0 for r in results}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def golden_digests(H: HeckeAlgebra) -> dict:
    """sha256 of the canonical renderings of w and w^ell."""
    return {
        "w": _digest(H.build_w().render()),
        "w_power_ell": _digest(H.w_power(H.ell).render()),
    }


def _timed(tracer, name: str, cases: int, fn) -> Verdict:
    """Time fn() -> bool inside a verdict span."""
    start = time.perf_counter()
    with tracer.verdict(name):
        ok = fn()
    return Verdict(name, time.perf_counter() - start, bool(ok) and cases > 0, cases)


def theta_pairs(tracer, H: HeckeAlgebra, L: LaurentAlgebra, seed: int, count: int):
    """theta(ab) == theta(a) theta(b), one verdict per seeded random pair."""
    rng = random.Random(f"{seed}:{H.n}:{H.ell}")
    out = []
    for _ in range(count):
        a = random_hecke_elem(H, rng)
        b = random_hecke_elem(H, rng)
        out.append(_timed(tracer, PAIR, 1, lambda: (
            L.theta(H.mul(a, b)) == L.lmul(L.theta(a), L.theta(b)))))
    return out


def run_oracle_point(point, seed: int, tracer):
    """theta(ab) == theta(a) theta(b) on seeded random pairs, then the
    injectivity spot-check, with the parameters specialized to constants."""
    n, ell = point
    t_values = tuple(eval_scalar(text, ell) for text in ORACLE_T[:n])
    H = HeckeAlgebra(n, ell, t_values)
    L = LaurentAlgebra(n, ell, t_values)
    out = theta_pairs(tracer, H, L, seed, ORACLE_PAIRS)
    d = ORACLE_INJECTIVITY_DEGREE
    out.append(_timed(tracer, "injectivity-spotcheck", injectivity_cases(n, ell, d),
                      lambda: L.injectivity_spotcheck(d)))
    return out, {}


@dataclass(frozen=True)
class Workload:
    points: tuple
    # run_point(point, seed, tracer) -> (verdicts, {check name: seconds})
    run_point: object
    # whether t is specialized to ORACLE_T rather than symbolic
    specialized: bool = False

    def setup_t(self) -> str:
        """The first point's t for the set-up child: "sym" or ";"-joined scalars."""
        return ";".join(ORACLE_T[: self.points[0][0]]) if self.specialized else "sym"


def make_workloads(golden: dict) -> dict:
    return {
        "grid-sym": Workload(
            GRID_POINTS,
            lambda point, seed, tracer: run_grid_point(point, seed, tracer, golden),
        ),
        "oracle-spec": Workload(ORACLE_POINTS, run_oracle_point, specialized=True),
    }


def cycle_seed(seed: int, cycle: int) -> int:
    """Seed of repetition ``cycle``: the workload seed itself first, then
    fresh inputs for each further repetition."""
    return seed + 1_000_000 * cycle

