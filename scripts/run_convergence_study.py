#!/usr/bin/env python3
"""Convergence study over the shipped corpus.

For every shipped (function, center) pair: print the sufficient-condition
report, a thinned convergence table, the limit estimates against the
analytically known asymptote, and a scaled-remainder scan over a dyadic
grid.  Everything runs in exact rational arithmetic.  The scan is the
claim check in ``tests/_oracles.py``, loaded from the checkout by path.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

from invpower.asymptotics import convergence_table, estimate_limits
from invpower.corpus import (SHIPPED_CORPUS, HypothesisReport, describe, hypothesis_radius,
                             known_asymptote, taylor_coeffs)
from invpower.scalar import Scalar

_spec = importlib.util.spec_from_file_location(
    "_oracles", Path(__file__).resolve().parent.parent / "tests" / "_oracles.py")
oracles = sys.modules["_oracles"] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(oracles)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=40)
    ap.add_argument("--tol", default="1e-9")
    ap.add_argument("--digits", type=int, default=12)
    args = ap.parse_args()

    tol = Scalar.parse(args.tol)
    grid = tuple(Scalar.rational(2 ** e) for e in range(4, 21))

    for entry in SHIPPED_CORPUS:
        f, x0 = entry.function, entry.center
        cond = HypothesisReport(x0, hypothesis_radius(f, x0))
        q0_true, q1_true = known_asymptote(f)

        print("=" * 78)
        print(f"{entry.name}: f(x) = {describe(f)}   at x0 = {x0.render_ratio()}")
        print(f"  transplant radius: {cond.radius_text}  "
              f"(sufficient condition > 2: {'met' if cond.satisfied else 'NOT met'})")
        print(f"  true asymptote: q0 = {q0_true.render_ratio()}, q1 = {q1_true.render_ratio()}")

        series = taylor_coeffs(f, x0, args.m_max + 1)
        table = convergence_table(series, args.m_max)
        est = estimate_limits(table, tol)

        shown = sorted({0, 1, 2, 5, 10, 20, args.m_max} & set(range(args.m_max + 1)))
        print(f"  {'m':>4} {'q0_m':>{args.digits + 6}} {'q1_m':>{args.digits + 6}}")
        for m in shown:
            row = table.rows[m]
            q1_text = row.q1.render_decimal(args.digits) if row.q1 is not None else "-"
            print(f"  {m:>4} {row.q0.render_decimal(args.digits):>{args.digits + 6}} "
                  f"{q1_text:>{args.digits + 6}}")

        gap0 = abs(est.q0 - q0_true)
        gap1 = "-" if est.q1 is None else abs(est.q1 - q1_true).render_decimal(3)
        print(f"  estimate at m = {est.m_used}: "
              f"q0 err {gap0.render_decimal(3)}, q1 err {gap1}, "
              f"converged = ({est.q0_converged}, {est.q1_converged})")

        scan = oracles.asymptotic_residual_scan(f, q0_true, q1_true, grid)
        top = scan.points[-1]
        print(f"  remainder scan: x^2 |f - q0 - q1/x| at x = 2^20 is "
              f"{top.residual.render_decimal(6)}; growth flagged: {scan.growth_flagged}")
    print("=" * 78)


if __name__ == "__main__":
    main()
