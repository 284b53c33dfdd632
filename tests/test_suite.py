"""The verification suite and the command-line interface."""

import json

import pytest

from twisted_hecke import crossed, hecke, laurent
from twisted_hecke.cli import main
from twisted_hecke.cyclotomic import Cyclotomic
from twisted_hecke.hecke import HeckeAlgebra
from twisted_hecke.laurent import LaurentAlgebra
from twisted_hecke.suite import (
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
        assert set(entry) <= {"name", "status", "witness", "ms"}
        assert entry["status"] in ("pass", "fail", "skipped")
    assert report["summary"]["ok"] is True
    assert report["summary"]["total"] == len(EXPECTED_CHECKS)
    json.dumps(report)  # must be serializable as-is


def test_failures_carry_witnesses():
    # break a check on purpose by asking for an impossible configuration:
    # a specialized ring where the noncentrality witness check must fail
    # is not constructible, so instead check the witness plumbing directly
    H = HeckeAlgebra(3, 2)
    ok, witness = H.is_central(H.gen_x(1))
    assert not ok and witness.render() == "t1*g1"


def test_run_grid_single_point():
    report = run_grid(points=[(3, 2)])
    assert report["summary"]["ok"] is True
    assert report["grid"] == [{"n": 3, "ell": 2}]
    assert len(report["suites"]) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        Config(n=2, ell=2)
    with pytest.raises(ValueError):
        Config(n=3, ell=1)
    with pytest.raises(ValueError):
        Config(n=3, ell=2, t_values=(Cyclotomic.zero(2),))
    with pytest.raises(ValueError, match="degree_bound"):
        Config(n=3, ell=2, degree_bound=-1)


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
    ],
)
def test_cli_bad_input_is_one_line_and_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
