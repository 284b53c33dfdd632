"""Command-line interface.

Subcommands:

* ``verify``    -- run the full check suite for one (n, ell) configuration
* ``normalize`` -- canonical PBW form of a Hecke-algebra expression
* ``theta``     -- image of a Hecke-algebra expression in the Laurent algebra
* ``nu``        -- the Chebyshev-derived integer coefficients nu_r
* ``grid``      -- run the default (n, ell) grid, emit a combined JSON report

Exit status is 0 iff every executed check passed, and 2 on bad input,
which is reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chebyshev import nu
from .exprs import eval_hecke, eval_scalar, parse
from .hecke import HeckeAlgebra
from .laurent import LaurentAlgebra
from .suite import (
    DEFAULT_GRID,
    Config,
    all_passed,
    run_grid,
    run_suite,
    suite_report,
)


def _parse_t(text: str, ell: int, n: int):
    if text == "sym":
        return None
    values = [eval_scalar(part.strip(), ell) for part in text.split(",")]
    if len(values) != n:
        raise ValueError(f"--t expects {n} comma-separated scalars or 'sym'")
    return tuple(values)


def _parse_points(text: str):
    points = []
    for chunk in text.split(","):
        n, _, ell = chunk.partition(":")
        if not (n.strip().isdigit() and ell.strip().isdigit()):
            raise ValueError(f"--points expects n:ell pairs, got {chunk!r}")
        points.append((int(n), int(ell)))
    return tuple(points)


def _print_results(results, file=None):
    if file is None:
        file = sys.stdout
    for r in results:
        if r.status == "pass":
            print(f"PASS  {r.name} ({r.ms:.1f} ms)", file=file)
        elif r.status == "skipped":
            print(f"SKIP  {r.name}", file=file)
        else:
            print(f"FAIL  {r.name}: {r.witness} ({r.ms:.1f} ms)", file=file)
    passed = sum(1 for r in results if r.status == "pass")
    failed = sum(1 for r in results if r.status == "fail")
    skipped = sum(1 for r in results if r.status == "skipped")
    print(f"{passed} passed, {failed} failed, {skipped} skipped", file=file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twisted-hecke",
        description="Exact verification of the center structure of twisted "
        "graded Hecke algebras for homocyclic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the check suite for one (n, ell)")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--ell", type=int, required=True)
    p_verify.add_argument(
        "--t",
        default="sym",
        help="'sym' (default) or n comma-separated Q(zeta) scalars, e.g. '0,0,0' or '1,zeta,1/2'",
    )
    p_verify.add_argument("--degree-bound", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", metavar="PATH", help="write a JSON report")

    p_norm = sub.add_parser("normalize", help="canonical PBW form of an expression")
    p_norm.add_argument("--n", type=int, required=True)
    p_norm.add_argument("--ell", type=int, required=True)
    p_norm.add_argument("--t", default="sym")
    p_norm.add_argument("expr")

    p_theta = sub.add_parser("theta", help="image of an expression in the Laurent algebra")
    p_theta.add_argument("--n", type=int, required=True)
    p_theta.add_argument("--ell", type=int, required=True)
    p_theta.add_argument("--t", default="sym")
    p_theta.add_argument("expr")

    p_nu = sub.add_parser("nu", help="the coefficients nu_0..nu_floor(ell/2)")
    p_nu.add_argument("--ell", type=int, required=True)

    p_grid = sub.add_parser("grid", help="run the default grid, emit a JSON report")
    p_grid.add_argument("--degree-bound", type=int, default=8)
    p_grid.add_argument("--seed", type=int, default=0)
    p_grid.add_argument("--json", metavar="PATH", help="write the report to a file")
    p_grid.add_argument(
        "--points",
        help="override the grid, e.g. '3:2,4:3' (pairs n:ell, comma-separated)",
    )

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:  # ParseError and EvalError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "verify":
        t_values = _parse_t(args.t, args.ell, args.n)
        cfg = Config(
            n=args.n,
            ell=args.ell,
            t_values=t_values,
            degree_bound=args.degree_bound,
            seed=args.seed,
        )
        results = run_suite(cfg)
        _print_results(results)
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(suite_report(cfg, results), fh, indent=2)
        return 0 if all_passed(results) else 1

    if args.command == "normalize":
        t_values = _parse_t(args.t, args.ell, args.n)
        alg = HeckeAlgebra(args.n, args.ell, t_values)
        print(eval_hecke(parse(args.expr), alg).render())
        return 0

    if args.command == "theta":
        t_values = _parse_t(args.t, args.ell, args.n)
        H = HeckeAlgebra(args.n, args.ell, t_values)
        L = LaurentAlgebra(args.n, args.ell, t_values)
        print(L.theta(eval_hecke(parse(args.expr), H)).render())
        return 0

    if args.command == "nu":
        if args.ell < 1:
            raise ValueError("--ell must be >= 1")
        values = [nu(args.ell, r) for r in range(args.ell // 2 + 1)]
        print(", ".join(str(v.numerator) for v in values))
        return 0

    if args.command == "grid":
        points = _parse_points(args.points) if args.points else DEFAULT_GRID
        report = run_grid(points, degree_bound=args.degree_bound, seed=args.seed)
        for entry in report["suites"]:
            cfg = entry["config"]
            status = "ok" if entry["summary"]["ok"] else "FAILED"
            print(
                f"(n={cfg['n']}, ell={cfg['ell']}): "
                f"{entry['summary']['passed']} passed, "
                f"{entry['summary']['failed']} failed, "
                f"{entry['summary']['skipped']} skipped -> {status}",
                file=sys.stderr,
            )
        text = json.dumps(report, indent=2)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0 if report["summary"]["ok"] else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
