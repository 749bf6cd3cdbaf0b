"""The poissonflow benchmark.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout holding ``src/poissonflow``.  Each workload
runs in its own fresh single-threaded Python process (perfbench/worker.py),
one after another.  With ``--trace 0`` the run prints every end-to-end
metric with its unit; with ``--trace 1`` it prints the per-layer metrics of
a traced window next to an untraced one.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
A record of the run is written to .perfbench_runs/ in the checkout.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("flow", "solve", "graph", "paper")
SETUP_PROBES = 2          # set-up-only processes before and again after the run
WORKER_TIMEOUT_S = 150    # per process; the whole run must end within 180 s
SETUP_SAMPLE_S = 0.02     # host-speed sample around each process start

E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, trace, probe):
    """Start a worker; return (seconds from start to 'ready', the same at
    the nominal host speed, its result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONHASHSEED="0")
    ref = hostspeed.sample(SETUP_SAMPLE_S)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        ref = (ref + hostspeed.sample(SETUP_SAMPLE_S)) / 2
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError("worker %s failed (exit %s)" % (" ".join(cmd[1:]), code))
    ready_norm = ready * hostspeed.REF_NOMINAL_S / ref
    if probe:
        return ready, ready_norm, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker %s printed no result" % " ".join(cmd[1:]))
    return ready, ready_norm, json.loads(lines[-1])


def tail(times):
    """(value, percentile, sample count): the highest percentile with at
    least 10 samples beyond it; the maximum when there are 10 or fewer."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the program's source and data files."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "poissonflow")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "source_sha256": source_digest()}


def per_kind(window):
    """Median seconds at nominal host speed and count per op kind."""
    by = {}
    for kind, t in zip(window["kinds"], window["norm_times"]):
        by.setdefault(kind, []).append(t)
    return {k: {"n": len(v), "median_s": statistics.median(v)}
            for k, v in sorted(by.items())}


def timing_metrics(times):
    """ops_per_s, op_p50_s and op_tail_s of a list of op times."""
    value, _, _ = tail(times)
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times), "op_tail_s": value}


def run_workload(workload, seed, seconds, trace):
    def probes():
        if trace:
            return []
        return [spawn(workload, seed, seconds, trace, probe=True)[:2]
                for _ in range(SETUP_PROBES)]

    setups = probes()
    ready, ready_norm, res = spawn(workload, seed, seconds, trace, probe=False)
    setups += [(ready, ready_norm)] + probes()
    window = res["window"]
    _, tail_pct, n = tail(window["times"])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment(),
              "ops_per_round": res["ops_per_round"], "rounds": window["rounds"],
              "attempted": res["attempted"], "failed": res["failed"],
              "op_fail_ratio": res["failed"] / res["attempted"],
              "output_sha256": res["digest"],
              "op_tail_percentile": tail_pct, "op_tail_samples": n,
              "host_speed": hostspeed.REF_NOMINAL_S
              / statistics.median(window["reference_s"]),
              "per_kind": per_kind(window),
              "failures": res["failures"], "errors": res["errors"]}
    if trace:
        layer = res["layer_metrics"]
        traced = res["traced_window"]
        untraced_ops_per_s = timing_metrics(window["norm_times"])["ops_per_s"]
        traced_ops_per_s = timing_metrics(traced["norm_times"])["ops_per_s"]
        layer["trace.ops_per_s"] = traced_ops_per_s
        layer["trace.untraced_ops_per_s"] = untraced_ops_per_s
        layer["trace.overhead_ratio"] = untraced_ops_per_s / traced_ops_per_s
        metrics = layer
        record["traced_rounds"] = traced["rounds"]
        record["spans"] = res["spans"]
    else:
        metrics = timing_metrics(window["norm_times"])
        metrics["setup_s"] = statistics.median(norm for _, norm in setups)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        wall = timing_metrics(window["times"])
        wall["setup_s"] = statistics.median(raw for raw, _ in setups)
        record["wall_clock"] = wall
        record["setup_samples_s"] = setups
    record["metrics"] = metrics
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return record


def layer_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_ratio", ".density", ".self_share")):
        return "ratio"
    if name.endswith(".max_bits"):
        return "bits"
    if name.endswith("ops_per_s"):
        return "ops/s"
    return "count"


def print_record(rec):
    print("== %s  seed %d  %d rounds x %d ops  trace %d"
          % (rec["workload"], rec["seed"], rec["rounds"], rec["ops_per_round"],
             rec["trace"]))
    for name, value in rec["metrics"].items():
        unit = E2E_UNITS.get(name) or layer_unit(name)
        print("  %-44s %-22r %s" % (name, value, unit))
    if not rec["trace"]:
        print("  %-44s %-22r %s" % ("op_fail_ratio", rec["op_fail_ratio"], "ratio"))
        for name, value in rec["wall_clock"].items():
            print("  %-44s %-22r %s" % ("wall_clock." + name, value, E2E_UNITS[name]))
        print("  op_tail_s is the p%.1f of %d ops" % (rec["op_tail_percentile"],
                                                    rec["op_tail_samples"]))
    print("  host speed %.3f of nominal; timings not marked wall_clock are "
          "scaled to nominal speed" % rec["host_speed"])
    print("  attempted %d  failed %d  output sha256 %s"
          % (rec["attempted"], rec["failed"], rec["output_sha256"]))
    print("  env %s" % json.dumps(rec["env"], sort_keys=True))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "poissonflow", "__init__.py")):
        print("no src/poissonflow under %s: run from a checkout of the program"
              % ROOT, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names]
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)

    def entries(rec, prefix):
        return {prefix + k: {"value": v, "unit": E2E_UNITS.get(k) or layer_unit(k)}
                for k, v in rec["metrics"].items()}

    if len(records) == 1:
        metrics = entries(records[0], "")
    else:
        metrics = {}
        for rec in records:
            metrics.update(entries(rec, rec["workload"] + "."))
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
