"""Smoke self-test of the benchmark harness (not part of the test suite).

    python3 perfbench/selftest.py

For each workload it runs the first op of a seeded round, checks that the
output passes its exact check and counts as no failure, then injects one
wrong output (a flow scaled so that lambda is off, a perturbed particular
solution, an extra graph, a failing verify-paper report) and checks that the
harness counts exactly that op as failed.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import worker


def main():
    sys.path.insert(0, worker.SRC)
    import poissonflow as pf
    import workloads

    def wrong_flow(F):
        return F.scale(Fraction(5, 4))

    def wrong_solution(sol):
        shift = pf.Multivector(4, {(1,): pf.Poly.monomial(4, (3, 0, 0, 0))})
        return dataclasses.replace(sol, particular=sol.particular + shift)

    def wrong_graphsum(s):
        return s + pf.GraphSum.single(pf.Graph(6, workloads.NONZERO_6_10[0]))

    def wrong_report(result):
        code, text = result
        return 1, text.replace("PASS  flow-p1", "FAIL  flow-p1")

    perturb = {"flow": wrong_flow, "solve": wrong_solution,
               "graph": wrong_graphsum, "paper": wrong_report}
    problems = []
    for name in workloads.WORKLOADS:
        op = workloads.build(name, 1)[0]
        out = op.run([])
        good = worker.tally([op], [out], worker.check_first([op], [out]), [[out]])
        bad_out = perturb[name](out)
        bad = worker.tally([op], [bad_out], worker.check_first([op], [bad_out]),
                           [[bad_out]])
        # a later round whose output differs from the first also fails
        drift = worker.tally([op], [out], worker.check_first([op], [out]),
                             [[out], [bad_out]])
        ok = not good and bad == [(0, 0)] and drift == [(1, 0)]
        print("%-6s %-12s clean failures %d, injected failures %d, drift %s: %s"
              % (name, op.kind, len(good), len(bad), drift,
                 "ok" if ok else "WRONG"))
        if not ok:
            problems.append(name)
    if problems:
        print("self-test failed for: %s" % ", ".join(problems))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
