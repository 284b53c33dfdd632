"""The verification suite and the command-line interface."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from twisted_hecke import chebyshev, crossed, group, hecke, laurent, suite
from twisted_hecke.cli import main
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
    # off by one in both vectors of g1's row, as the twist checks read it
    n, ell = 3, 2
    g1 = GroupElem.generator(n, ell, 1)
    real = group.twist_exp
    monkeypatch.setattr(
        group, "twist_exp", lambda e, q, f, ell: real(e, q, f, ell) + (e == g1.e) * (q[-1] + f[-1])
    )
    assert not cocycle_identity_holds(n, ell)
    by_name = {r.name: r.status for r in run_suite(Config(n=n, ell=ell))}
    assert by_name["cocycle-identity"] == "fail"
    assert by_name["action-character-laws"] == "fail"


_MUL, _THETA = HeckeAlgebra.mul, LaurentAlgebra.theta


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
    ("parser-roundtrip", suite, "eval_hecke", lambda tree, H: H.zero(), "sample #0: "),
]


@pytest.mark.parametrize("name, owner, attr, broken, prefix", BROKEN_CHECKS)
def test_a_broken_check_fails_with_its_witness(monkeypatch, name, owner, attr, broken, prefix):
    monkeypatch.setattr(owner, attr, broken)
    r = {r.name: r for r in run_suite(Config(n=3, ell=2))}[name]
    assert r.status == "fail"
    assert r.witness.startswith(prefix), r.witness


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
    # Cyclotomic pickles at protocols 0 and 1 fail, so these t_values are None
    other = Config(3, 2, None, 4, 7)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(other, protocol)) == other


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
    assert out.endswith("\n18 passed, 0 failed, 1 skipped\n")
    monkeypatch.setattr(chebyshev, "identity_che1", lambda ell: False)
    assert main(["verify", "--n", "3", "--ell", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  chebyshev-identities: che1 failed at ell=2 (" in out
    assert out.endswith("\n18 passed, 1 failed, 0 skipped\n")


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
