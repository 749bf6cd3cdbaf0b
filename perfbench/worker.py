"""One workload in one fresh process: set up, run timed rounds, check outputs.

    python3 perfbench/worker.py --workload flow --seed 1 --seconds 20 --trace 0

Prints ``ready`` as soon as the first op can run (run.py times process start
to this line as set-up), then runs the number of whole rounds that
``--seconds`` buys (workloads.round_count) and, unless ``--probe`` is given,
prints one JSON line
with the per-op times, the failure count, the output digest and, with
``--trace 1``, the per-layer metrics.  run.py is the entry point to use.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

from hostspeed import Speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

FAILED = object()   # stands in for the output of an op that raised


def run_rounds(ops, count):
    """Run ``count`` whole rounds of ``ops``.

    Returns (rounds, times, norm, errors, meter): the outputs of each round;
    each op's wall time, and that time at the nominal host speed, in
    execution order; the (round, index, message) of every op that raised;
    and the Speedometer whose reference samples bracket the ops.
    """
    meter = Speedometer()
    rounds, times, marks, errors = [], [], [], []
    for r in range(count):
        outs = []
        for k, op in enumerate(ops):
            marks.append(meter.tick())
            t0 = perf_counter()
            try:
                out = op.run(outs)
            except Exception as exc:  # an op that raises is a failed op
                out = FAILED
                errors.append((r, k, "%s: %s" % (type(exc).__name__, exc)))
            times.append(perf_counter() - t0)
            outs.append(out)
        rounds.append(outs)
    meter.close()
    norm = [t * meter.factor(i) for t, i in zip(times, marks)]
    return rounds, times, norm, errors, meter


def check_first(ops, outs):
    """Exact check of each op's output; False for raised ops or checks."""
    verdicts = []
    for op, out in zip(ops, outs):
        if out is FAILED:
            verdicts.append(False)
            continue
        try:
            verdicts.append(bool(op.check(out)))
        except Exception:  # a check that cannot run counts the op as failed
            verdicts.append(False)
    return verdicts


def tally(ops, reference, verdicts, rounds):
    """Failed ops over ``rounds``: an op fails if it raised, if the check of
    its first-round output failed, or if its output differs from that one."""
    failed = []
    for r, outs in enumerate(rounds):
        for k, out in enumerate(outs):
            if out is FAILED or not verdicts[k] or (out is not reference[k]
                                                    and out != reference[k]):
                failed.append((r, k))
    return failed


def digest(ops, outs):
    h = hashlib.sha256()
    for op, out in zip(ops, outs):
        text = "<raised>" if out is FAILED else op.render(out)
        h.update(("%s\t%s\n" % (op.kind, text)).encode())
    return h.hexdigest()


def _window_summary(ops, rounds, times, norm, meter):
    return {"rounds": len(rounds), "times": times, "norm_times": norm,
            "reference_s": meter.samples,
            "kinds": [op.kind for op in ops] * len(rounds)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="exit once set-up is done")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import poissonflow
    if not os.path.abspath(poissonflow.__file__).startswith(SRC + os.sep):
        print("poissonflow imported from %s, not from %s"
              % (poissonflow.__file__, SRC), file=sys.stderr)
        return 2
    import workloads
    poissonflow.catalog.load_catalog()
    ops = workloads.build(args.workload, args.seed)
    catalog_s = 0.0
    if tracer is not None:
        catalog_s = tracer.total("catalog.load")
        tracer.restore()
        tracer.reset()
    print("ready", flush=True)
    if args.probe:
        return 0

    gc.collect()
    result = {"workload": args.workload, "seed": args.seed,
              "ops_per_round": len(ops)}
    count = workloads.round_count(args.workload, args.seconds)
    if tracer is None:
        rounds, times, norm, errors, meter = run_rounds(ops, count)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = rss_kb / 1024
        result["window"] = _window_summary(ops, rounds, times, norm, meter)
    else:
        # half the rounds untraced, half traced; the ratio is the overhead
        count = max(1, count // 2)
        rounds, times, norm, errors, meter = run_rounds(ops, count)
        result["window"] = _window_summary(ops, rounds, times, norm, meter)
        tracer.install()
        try:
            t_rounds, t_times, t_norm, t_errors, t_meter = run_rounds(ops, count)
        finally:
            tracer.restore()
        layer = tracer.layer_metrics(sum(t_times), len(t_rounds),
                                     sum(t_norm) / sum(t_times))
        layer["catalog.load.s"] = catalog_s
        result["traced_window"] = _window_summary(ops, t_rounds, t_times, t_norm,
                                                  t_meter)
        result["layer_metrics"] = layer
        result["spans"] = tracer.dump()
        rounds += t_rounds
        errors += [(r + len(rounds) - len(t_rounds), k, msg) for r, k, msg in t_errors]

    verdicts = check_first(ops, rounds[0])
    failed = tally(ops, rounds[0], verdicts, rounds)
    result["attempted"] = len(ops) * len(rounds)
    result["failed"] = len(failed)
    result["failures"] = [{"round": r, "op": k, "kind": ops[k].kind,
                           "check": verdicts[k]} for r, k in failed[:20]]
    result["errors"] = errors[:20]
    result["digest"] = digest(ops, rounds[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
