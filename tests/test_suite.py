"""The verification suite and the command-line interface."""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import twisted_hecke
from twisted_hecke import chebyshev, crossed, group, hecke, laurent, suite
from twisted_hecke.cli import main
from twisted_hecke.coeffring import ParamRing
from twisted_hecke.cyclotomic import Cyclotomic, zeta_power
from twisted_hecke.group import GroupElem, cocycle_identity_holds
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra
from twisted_hecke.suite import (
    CheckResult,
    Config,
    all_passed,
    run_grid,
    run_suite,
    suite_report,
)

EXPECTED_CHECKS = [
    "cocycle-identity",
    "action-character-laws",
    "defining-relations",
    "theta-relations",
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
]


@pytest.fixture(scope="module")
def results32():
    return run_suite(Config(n=3, ell=2))


def test_suite_all_pass_symbolic(results32):
    assert [r.name for r in results32] == EXPECTED_CHECKS
    assert all(r.status == "pass" for r in results32)


def test_suite_is_deterministic(results32):
    again = run_suite(Config(n=3, ell=2))
    assert [(r.name, r.status, r.witness) for r in again] == [
        (r.name, r.status, r.witness) for r in results32
    ]


NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from twisted_hecke.group import cocycle_identity_holds
from twisted_hecke.suite import Config, run_suite
statuses = {r.status for r in run_suite(Config(n=3, ell=2))}
print(statuses, cocycle_identity_holds(4, 7))
"""


def test_runs_without_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["{'pass'}", "True"]


COLD_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import twisted_hecke, twisted_hecke.cli
sys.exit("dataclasses" in sys.modules)
"""


def test_import_loads_no_dataclasses():
    # -I -S: no environment, user site or .pth preloads, so sys.modules holds
    # only what the interpreter and the package import
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", COLD_IMPORT, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr or "dataclasses was imported"


COLD_KERNELS = """
import sys
sys.path.insert(0, sys.argv[1])
import twisted_hecke, twisted_hecke.cli
from twisted_hecke.cyclotomic import _kernel
sys.exit(_kernel.cache_info().currsize)
"""


def test_import_builds_no_product_kernel():
    # the per-ell products are built on first use, not by importing the
    # package, so a cold start pays for none of them
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", COLD_KERNELS, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr or f"{proc.returncode} kernels built at import"


COLD_BUILD = """
import sys
sys.path.insert(0, sys.argv[1])
import twisted_hecke
def loaded():
    return sorted(k for k in sys.modules if k.startswith("twisted_hecke."))
if loaded():
    sys.exit(f"import twisted_hecke loaded {loaded()}")
missing = set(twisted_hecke.__all__) - set(dir(twisted_hecke))
if missing or loaded():
    sys.exit(f"dir() lacks {sorted(missing)} or loaded {loaded()}")
twisted_hecke.HeckeAlgebra(5, 4)
twisted_hecke.LaurentAlgebra(5, 4)
built = {"twisted_hecke." + m for m in ("cyclotomic", "group", "coeffring", "crossed", "hecke", "laurent")}
if set(loaded()) != built:
    sys.exit(f"building both algebras loaded {loaded()}")
late = [m for m in ("fractions", "decimal", "twisted_hecke.exprs", "twisted_hecke.suite",
                    "twisted_hecke.chebyshev", "twisted_hecke.cli") if m in sys.modules]
if late:
    sys.exit(f"building both algebras loaded {late}")
from twisted_hecke import chebyshev, exprs, group
if (chebyshev.nu, exprs.parse) != (twisted_hecke.nu, twisted_hecke.parse):
    sys.exit("submodules imported by name disagree with the package's names")
"""


def test_import_and_construction_load_only_what_they_use():
    # the package resolves its public names on first use, so importing it
    # loads no submodule, and building both algebras with symbolic t loads
    # their six modules and no rationals, parser, suite or Chebyshev code;
    # warnings are errors, as in the CI cold start
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-I", "-S", "-c", COLD_BUILD, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# the submodule that defines each public name, as the package imported them
# all before it resolved them lazily
PUBLIC_SOURCES = {
    "cyclotomic": ("Cyclotomic", "cyclotomic_polynomial", "zeta_power"),
    "coeffring": ("ParamPoly", "ParamRing"),
    "group": (
        "GroupElem", "alpha", "action_char", "star_mul", "star_power", "all_elements",
        "cocycle_identity_holds",
    ),
    "hecke": ("HeckeAlgebra", "HeckeElem", "enumerate_J"),
    "laurent": ("LaurentAlgebra", "LaurentElem"),
    "chebyshev": (
        "IntPoly", "chebyshev_T", "nu", "identity_che1", "identity_che2", "identity_rho",
    ),
    "exprs": ("parse", "eval_hecke", "eval_laurent", "eval_scalar", "ParseError", "EvalError"),
    "suite": (
        "Config", "CheckResult", "run_suite", "run_grid", "suite_report", "all_passed",
        "DEFAULT_GRID",
    ),
}


def test_public_names_resolve_to_their_definitions():
    expected = {
        name: getattr(importlib.import_module(f"twisted_hecke.{module}"), name)
        for module, names in PUBLIC_SOURCES.items()
        for name in names
    }
    assert twisted_hecke.__all__ == list(expected)
    for name, value in expected.items():
        assert getattr(twisted_hecke, name) is value
    star: dict = {}
    exec("from twisted_hecke import *", star)
    assert {k: v for k, v in star.items() if k != "__builtins__"} == expected
    assert set(expected) <= set(dir(twisted_hecke))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        twisted_hecke.no_such_name


def test_sklyanin_skipped_off_n3():
    results = run_suite(Config(n=4, ell=2))
    assert all_passed(results)
    by_name = {r.name: r for r in results}
    assert by_name["sklyanin-spotcheck"].status == "skipped"


def test_suite_at_t_zero():
    zeros = tuple(Cyclotomic.zero(2) for _ in range(3))
    results = run_suite(Config(n=3, ell=2, t_values=zeros))
    assert all_passed(results)
    by_name = {r.name: r for r in results}
    # x1 is genuinely central in the undeformed algebra, so the
    # noncentrality check does not apply
    assert by_name["x1-noncentral-witness"].status == "skipped"
    assert by_name["center-relation-F"].status == "pass"


def test_suite_at_generic_specialization():
    ring_values = (
        Cyclotomic.one(2),
        Cyclotomic.from_rational(2, 2),
        Cyclotomic.from_rational(2, -1),
    )
    results = run_suite(Config(n=3, ell=2, t_values=ring_values))
    assert all_passed(results)


def test_report_schema(results32):
    cfg = Config(n=3, ell=2)
    report = suite_report(cfg, results32)
    assert set(report) == {"config", "checks", "summary"}
    assert report["config"] == {
        "n": 3,
        "ell": 2,
        "t": "sym",
        "degree_bound": 8,
        "seed": 0,
    }
    for entry in report["checks"]:
        assert {"name", "status", "cases", "ms"} <= set(entry)
        assert set(entry) <= {"name", "status", "cases", "witness", "ms"}
        assert entry["status"] in ("pass", "fail", "skipped")
    assert report["summary"]["ok"] is True
    assert report["summary"]["total"] == len(EXPECTED_CHECKS)
    json.dumps(report)  # must be serializable as-is


def test_every_check_reports_its_cases(results32):
    cases = {r.name: r.cases for r in results32}
    # (n-1)^2 or n(n-1) generator entries, then the |G| rows
    assert cases["cocycle-identity"] == 2**2 + 2**2
    assert cases["action-character-laws"] == 3 * 2 + 2**2
    assert cases["theta-relations"] == 3 + 3 * 2  # i < j commutators, then g_j against x_i
    assert cases["theta-homomorphism-samples"] == 200
    assert cases["pbw-independence"] == 35 + 10  # x^(2p) w^m: 2|p| + 3m <= 8, m < 2
    assert cases["injectivity-spotcheck"] == 35  # |p| <= 4 in three variables
    assert all(c > 0 for c in cases.values())
    skipped = run_suite(Config(n=4, ell=2))[-2]
    assert skipped.name == "sklyanin-spotcheck" and skipped.cases == 0


def test_a_check_that_examines_nothing_fails(monkeypatch):
    # both finite-evidence sweeps and their counts enumerate exponents; with
    # none they would pass vacuously
    def nothing(n, total):
        return iter(())

    for module in (hecke, laurent, suite):
        monkeypatch.setattr(module, "exponents_bounded", nothing)
    by_name = {r.name: r for r in run_suite(Config(n=3, ell=2))}
    for name in ("pbw-independence", "injectivity-spotcheck"):
        r = by_name[name]
        assert (r.status, r.witness, r.cases) == ("fail", "examined nothing", 0)
    assert by_name["cocycle-identity"].status == "pass"


def test_twist_checks_reject_a_corrupted_row(monkeypatch):
    # g1's twist off by the sum of the twist row's entries, which a char
    # probe and an alpha probe both reach, as the twist checks read it
    n, ell = 3, 2
    g1 = GroupElem.generator(n, ell, 1)
    real = group.twist_exp
    monkeypatch.setattr(
        group, "twist_exp", lambda e, row, ell: real(e, row, ell) + (e == g1.e) * sum(row)
    )
    assert not cocycle_identity_holds(n, ell)
    by_name = {r.name: r.status for r in run_suite(Config(n=n, ell=ell))}
    assert by_name["cocycle-identity"] == "fail"
    assert by_name["action-character-laws"] == "fail"


_MUL, _THETA, _INSERT = HeckeAlgebra.mul, LaurentAlgebra.theta, HeckeAlgebra._insert


def _bad_star_group(g, k):
    return Cyclotomic.one(2), g


def _bad_star_scalar(g, k):
    return Cyclotomic.zero(2), GroupElem.identity(3, 2)


def test_failures_carry_witnesses():
    # the first nonzero commutator is the witness of noncentrality; each
    # check's own witness is read in test_a_broken_check_fails_with_its_witness
    H = HeckeAlgebra(3, 2)
    ok, witness = H.is_central(H.gen_x(1))
    assert not ok and witness.render() == "t1*g1"


def _is_central_never(H, z):
    return False, H.zero()


# (check, owner, attribute, replacement, witness prefix), each breaking one
# check at (3, 2) on purpose
BROKEN_CHECKS = [
    ("defining-relations", HeckeAlgebra, "commutator", lambda H, a, b: H.zero(), "[x1, x2] = 0"),
    # the y_i commute, so theta(x_i) = y_i fails the first relation
    (
        "theta-relations",
        LaurentAlgebra,
        "theta_x",
        lambda L, i: L.gen_y(i),
        "[theta(x1), theta(x2)] = 0",
    ),
    ("star-power-signs", suite, "star_power", _bad_star_group, "g1^(*2) has group part g1"),
    ("star-power-signs", suite, "star_power", _bad_star_scalar, "g1^(*2) = 0"),
    # a*b + a is not associative: the two bracketings differ by a*c
    ("associativity-samples", HeckeAlgebra, "mul", lambda H, a, b: _MUL(H, a, b) + a, "triple #"),
    # theta + 1 is not multiplicative
    (
        "theta-homomorphism-samples",
        LaurentAlgebra,
        "theta",
        lambda L, a: _THETA(L, a) + L.one(),
        "pair #0: a = ",
    ),
    (
        "theta-x-ell-closed-form",
        LaurentAlgebra,
        "theta_xi_ell_closed",
        lambda L, i: L.zero(),
        "theta(x1^2) = ",
    ),
    ("centrality-x-ell", HeckeAlgebra, "is_central", _is_central_never, "[x1^2, -] = 0"),
    (
        "x1-noncentral-witness",
        HeckeAlgebra,
        "is_central",
        lambda H, z: (True, None),
        "x1 reported central",
    ),
    ("x1-noncentral-witness", HeckeAlgebra, "is_central", _is_central_never, "witness = 0"),
    ("chebyshev-identities", chebyshev, "identity_che1", lambda ell: False, "che1 failed at ell=2"),
    # F(x^ell, 1) is not zero
    ("center-relation-F", HeckeAlgebra, "build_w", lambda H: H.one(), "theta(F) = "),
    ("parser-roundtrip", suite, "eval_hecke", lambda tree, H: H.zero(), "sample #0: "),
]


@pytest.mark.parametrize("name, owner, attr, broken, prefix", BROKEN_CHECKS)
def test_a_broken_check_fails_with_its_witness(monkeypatch, name, owner, attr, broken, prefix):
    monkeypatch.setattr(owner, attr, broken)
    r = {r.name: r for r in run_suite(Config(n=3, ell=2))}[name]
    assert r.status == "fail"
    assert r.witness.startswith(prefix), r.witness


# -- theta-relations and center-relation-F ---------------------------------


def _failing(cfg):
    return {r.name for r in run_suite(cfg) if r.status == "fail"}


def _extra_t3_in_theta_x2(monkeypatch):
    # theta(x_2) gains t_3 y_3^(-1) g_2 beside its -(zeta t_2/(zeta-1)) term
    real = LaurentAlgebra.__init__

    def init(L, n, ell, t_values=None):
        real(L, n, ell, t_values)
        e2 = tuple(int(k == 1) for k in range(n))
        low = tuple(-1 if k == 2 % n else 0 for k in range(n))
        extra = L._term(low, L.codes.generator(2), L.ring.t(3))
        L._theta_mono[e2] = L._theta_mono[e2] + extra

    monkeypatch.setattr(LaurentAlgebra, "__init__", init)


@pytest.mark.parametrize("n, ell", [(3, 3), (4, 3)])
def test_a_wrong_theta_image_fails_both_theta_side_checks(monkeypatch, n, ell):
    _extra_t3_in_theta_x2(monkeypatch)
    assert {"theta-relations", "center-relation-F"} <= _failing(Config(n, ell))


def test_a_wrong_character_fails_theta_relations(monkeypatch):
    # the character of (R)'s group part is read from the presentation's
    # formula; one power of zeta too many breaks g_j x_i = char x_i g_j
    real = suite.action_char_exp
    monkeypatch.setattr(suite, "action_char_exp", lambda g, p: real(g, p) + 1)
    r = {r.name: r for r in run_suite(Config(3, 3))}["theta-relations"]
    assert r.status == "fail" and r.witness.startswith("g1*theta(x1) = ")


@pytest.mark.parametrize("n, ell", [(3, 2), (4, 3)])
def test_a_wrong_beta_sign_fails_both_routes_of_the_center_relation(monkeypatch, n, ell):
    real = ParamRing.beta
    monkeypatch.setattr(ParamRing, "beta", lambda ring: -real(ring))
    assert "center-relation-F" in _failing(Config(n, ell))
    H, L = HeckeAlgebra(n, ell), LaurentAlgebra(n, ell)
    value = H.evaluate_F()
    assert not value.is_zero()
    # the two routes agree term for term: the theta-side witness is the
    # theta image of the engine's F
    ok, witness, _ = suite.center_relation_through_theta(H, L)
    assert not ok and witness == f"theta(F) = {L.theta(value).render()}"


def _insert_main_term_only(H, i, q):
    return _INSERT(H, i, q)[:1]


def _insert_corrections_times_zeta(H, i, q):
    main, *corrections = _INSERT(H, i, q)
    return (main, *((key, c.times_zeta(1)) for key, c in corrections))


@pytest.mark.parametrize("mutant", [_insert_main_term_only, _insert_corrections_times_zeta])
@pytest.mark.parametrize("n, ell", [(3, 3), (4, 3)])
def test_rewriting_mutants_still_fail_the_engine_checks(monkeypatch, mutant, n, ell):
    # theta-relations and the theta-side F read no rewriting, so the engine
    # checks are what catch a wrong _insert
    monkeypatch.setattr(HeckeAlgebra, "_insert", mutant)
    assert {"defining-relations", "theta-homomorphism-samples"} <= _failing(Config(n, ell))


def test_center_relation_needs_no_power_of_w_in_h(monkeypatch):
    def forbidden(*args):
        raise AssertionError("w^ell built in H")

    monkeypatch.setattr(HeckeAlgebra, "evaluate_F", forbidden)
    monkeypatch.setattr(HeckeAlgebra, "w_power", forbidden)
    r = {r.name: r for r in run_suite(Config(3, 2))}["center-relation-F"]
    assert (r.status, r.cases) == ("pass", 6)  # 4 independent sets, 2 powers of b


@pytest.mark.parametrize("specialised", [False, True])
@pytest.mark.parametrize("n, ell", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_both_routes_of_the_center_relation_agree(n, ell, specialised):
    # the engine's F and the theta-side F both vanish, and theta of the
    # engine's F is the theta-side expansion; theta-relations holds too
    t = tuple(Cyclotomic(ell, [k + 1, -1]) for k in range(n)) if specialised else None
    H, L = HeckeAlgebra(n, ell, t), LaurentAlgebra(n, ell, t)
    assert H.evaluate_F().is_zero()
    assert suite.center_relation_through_theta(H, L)[:2] == (True, None)
    assert suite.theta_relations(H, L) == (True, None, n * (n - 1) // 2 + n * (n - 1))


def test_a_crashing_check_fails_with_the_error_as_witness(monkeypatch):
    def crash(L):
        raise RuntimeError("boom")

    monkeypatch.setattr(LaurentAlgebra, "theta_w_closed", crash)
    cfg = Config(n=3, ell=2)
    results = run_suite(cfg)
    report = suite_report(cfg, results)
    entry = {e["name"]: e for e in report["checks"]}["theta-w-closed-form"]
    assert (entry["status"], entry["witness"], entry["cases"]) == ("fail", "RuntimeError: boom", 0)
    assert report["summary"]["ok"] is False


def test_run_grid_single_point():
    report = run_grid(points=[(3, 2)])
    assert report["summary"]["ok"] is True
    assert report["grid"] == [{"n": 3, "ell": 2}]
    assert len(report["suites"]) == 1


def test_run_grid_checks_every_point_before_running_any(monkeypatch):
    calls = []
    monkeypatch.setattr(suite, "run_suite", lambda cfg: calls.append(cfg) or [])
    with pytest.raises(ValueError, match=r"^n must be between 3 and 16, got 2$"):
        run_grid([(3, 2), (2, 2)])
    assert calls == []


def test_run_grid_takes_points_from_an_iterator():
    report = run_grid(iter([(3, 2)]))
    assert report["grid"] == [{"n": 3, "ell": 2}]
    assert report["summary"] == {"ok": True, "points": 1}


def test_config_validation():
    with pytest.raises(ValueError):
        Config(n=2, ell=2)
    with pytest.raises(ValueError):
        Config(n=17, ell=2)
    with pytest.raises(ValueError):
        Config(n=3, ell=1)
    with pytest.raises(ValueError):
        Config(n=3, ell=2, t_values=(Cyclotomic.zero(2),))
    with pytest.raises(ValueError, match="degree_bound"):
        Config(n=3, ell=2, degree_bound=-1)


def test_config_construction_defaults_and_messages():
    cfg = Config(3, 2)
    assert (cfg.n, cfg.ell, cfg.t_values, cfg.degree_bound, cfg.seed) == (3, 2, None, 8, 0)
    t = tuple(zeta_power(3, k) for k in range(3))
    assert Config(3, 3, t, 4, 7) == Config(seed=7, degree_bound=4, t_values=t, ell=3, n=3)
    assert Config(3, 3, t, 4, 7).t_values is t
    with pytest.raises(TypeError):
        Config(3, 2, None, 8, 0, 1)
    with pytest.raises(TypeError):
        Config(3, 2, bound=8)
    with pytest.raises(TypeError):
        Config(3)
    for args, kwargs, message in (
        ((2, 2), {}, "n must be between 3 and 16, got 2"),
        ((17, 2), {}, "n must be between 3 and 16, got 17"),
        ((3, 1), {}, "ell must be >= 2, got 1"),
        ((3, 2, (Cyclotomic.zero(2),)), {}, "expected 3 parameter values"),
        ((3, 2), {"degree_bound": -1}, "degree_bound must be >= 0, got -1"),
        ((3.0, 2), {}, "n must be an integer, got 3.0"),
        ((3, "2"), {}, "ell must be an integer, got '2'"),
        ((3, 2), {"degree_bound": 2.5}, "degree_bound must be an integer, got 2.5"),
    ):
        with pytest.raises(ValueError) as err:
            Config(*args, **kwargs)
        assert str(err.value) == message


def test_config_is_a_frozen_value():
    cfg = Config(3, 2)
    assert cfg == Config(n=3, ell=2, t_values=None, degree_bound=8, seed=0)
    assert hash(cfg) == hash(Config(3, 2))
    assert cfg != Config(3, 2, seed=1) and cfg != Config(3, 2, degree_bound=7)
    assert cfg != (3, 2, None, 8, 0) and cfg.__eq__((3, 2, None, 8, 0)) is NotImplemented
    assert repr(cfg) == "Config(n=3, ell=2, t_values=None, degree_bound=8, seed=0)"
    t = (zeta_power(3, 1),) * 3
    assert repr(Config(3, 3, t, 4, 7)) == (
        "Config(n=3, ell=3, t_values=(Cyclotomic(3, zeta), Cyclotomic(3, zeta), "
        "Cyclotomic(3, zeta)), degree_bound=4, seed=7)"
    )
    for field in ("n", "seed", "extra"):
        with pytest.raises(AttributeError):
            setattr(cfg, field, 5)
    assert cfg.seed == 0
    assert copy.deepcopy(Config(3, 3, t, 4, 7)) == Config(3, 3, t, 4, 7)
    other = Config(3, 2, None, 4, 7)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(other, protocol)) == other


def test_scalars_and_a_config_with_t_values_pickle_at_every_protocol():
    # Cyclotomic and ParamPoly are slotted, so protocols 0 and 1 need their
    # __reduce__; a Config pickles its t_values with it
    ring = ParamRing(3, 4)
    x = Cyclotomic(4, [Fraction(-2, 3), Fraction(5, 6)])
    p = ring.t(1).scale(x) + ring.t(2) * ring.t(3) + ring.from_cyclotomic(zeta_power(4, 1))
    cfg = Config(3, 3, (zeta_power(3, 1), Cyclotomic(3, [Fraction(1, 2)]), zeta_power(3, 2)))
    for value in (x, zeta_power(7, 3), Cyclotomic.zero(5), p, ring.zero(), cfg):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value
            assert hash(back) == hash(value) and str(back) == str(value)


def test_check_result_is_a_mutable_record():
    r = CheckResult("cocycle-identity", "pass")
    fields = ("cocycle-identity", "pass", None, 0.0, 0)
    assert (r.name, r.status, r.witness, r.ms, r.cases) == fields
    assert r == CheckResult(name="cocycle-identity", status="pass", witness=None, ms=0.0, cases=0)
    assert r != CheckResult("cocycle-identity", "pass", cases=1)
    assert r.__eq__(fields) is NotImplemented
    assert repr(CheckResult("cocycle-identity", "fail", "g1", 1.5, 4)) == (
        "CheckResult(name='cocycle-identity', status='fail', witness='g1', ms=1.5, cases=4)"
    )
    r.status, r.witness, r.cases = "fail", "g1", 4
    assert r == CheckResult("cocycle-identity", "fail", "g1", 0.0, 4)
    with pytest.raises(TypeError):
        hash(r)
    with pytest.raises(TypeError):
        {r}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(r, protocol)) == r


def test_degree_bound_zero_examines_cases(monkeypatch):
    # the smallest accepted bound still leaves both finite-evidence checks
    # a monomial to examine
    examined = []

    def recording(n, total):
        for p in crossed.exponents_bounded(n, total):
            examined.append(p)
            yield p

    monkeypatch.setattr(hecke, "exponents_bounded", recording)
    monkeypatch.setattr(laurent, "exponents_bounded", recording)
    assert HeckeAlgebra(3, 2).pbw_independence_evidence(0)
    assert examined == [(0, 0, 0)]
    assert LaurentAlgebra(3, 2).injectivity_spotcheck(0)
    assert examined == [(0, 0, 0)] * 2
    by_name = {r.name: r.status for r in run_suite(Config(n=3, ell=2, degree_bound=0))}
    assert by_name["pbw-independence"] == by_name["injectivity-spotcheck"] == "pass"


def test_negative_degree_bound_is_rejected_not_passed():
    # a negative bound leaves nothing to examine, so neither method may pass
    with pytest.raises(ValueError, match="max_total_degree"):
        HeckeAlgebra(3, 2).pbw_independence_evidence(-1)
    with pytest.raises(ValueError, match="max_degree"):
        LaurentAlgebra(3, 2).injectivity_spotcheck(-1)


# -- CLI ------------------------------------------------------------------


def test_cli_normalize(capsys):
    assert main(["normalize", "--n", "3", "--ell", "2", "x2*x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1*x2 - t1*g1"


def test_cli_normalize_specialized(capsys):
    assert main(["normalize", "--n", "3", "--ell", "2", "--t", "0,0,0", "x2*x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1*x2"


def test_cli_theta(capsys):
    assert main(["theta", "--n", "3", "--ell", "2", "x1^2"]) == 0
    assert capsys.readouterr().out.strip() == "y1^2 - (1/4)*t1^2*y2^-2"


def test_cli_nu(capsys):
    assert main(["nu", "--ell", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1, -4, 2"


def test_cli_verify(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "--n", "3", "--ell", "2", "--seed", "3", "--json", str(path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  center-relation-F" in out
    report = json.loads(path.read_text())
    assert report["summary"]["ok"] is True


def test_cli_verify_prints_skip_and_fail_lines(capsys, monkeypatch):
    assert main(["verify", "--n", "4", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    assert "SKIP  sklyanin-spotcheck\n" in out
    assert out.endswith("\n19 passed, 0 failed, 1 skipped\n")
    monkeypatch.setattr(chebyshev, "identity_che1", lambda ell: False)
    assert main(["verify", "--n", "3", "--ell", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  chebyshev-identities: che1 failed at ell=2 (" in out
    assert out.endswith("\n19 passed, 1 failed, 0 skipped\n")


def test_cli_grid_with_points(capsys, tmp_path):
    path = tmp_path / "grid.json"
    code = main(["grid", "--points", "3:2", "--json", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["summary"]["ok"] is True
    err = capsys.readouterr().err
    assert "(n=3, ell=2)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--points", "3:x"],
        ["verify", "--n", "2", "--ell", "3"],
        ["normalize", "--n", "3", "--ell", "1", "x1"],
        ["verify", "--n", "3", "--ell", "2", "--t", "1,2"],
        ["normalize", "--n", "3", "--ell", "2", "x9"],
        ["verify", "--n", "3", "--ell", "2", "--degree-bound", "-1"],
        ["grid", "--points", ""],
        # a report path that cannot be opened (under a file), before any check runs
        ["verify", "--n", "3", "--ell", "2", "--json", os.path.join(os.devnull, "r.json")],
        ["grid", "--json", os.path.join(os.devnull, "r.json")],
        ["nu", "--ell", "0"],
    ],
)
def test_cli_bad_input_is_one_line_and_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_grid_checks_every_point_before_writing(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text("kept")
    assert main(["grid", "--points", "3:2,2:2", "--json", str(path)]) == 2
    assert path.read_text() == "kept"
