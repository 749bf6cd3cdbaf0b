"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps public functions of each poissonflow module by rebinding
module attributes (and a few class attributes) and restores them afterwards;
no program source changes.  Module-level names are looked up at call time,
so rebinding ``poissonflow.orient.apply_edge`` reaches the call inside
``evaluate``; a name imported into another module is rebound there too,
because every module attribute holding the original function is replaced.

Spans nest (``cohomsolve.trivialize`` -> ``multivec.schouten`` ->
``multivec.wedge`` -> ``ratpoly.mul``).  A span's self time is its duration
minus the durations of its child spans.  Spans are aggregated in memory by
(name, parent name) and written when the run ends.  Counters are updated by
hooks that run after a span closes; their time is kept out of the parent's
self time.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("ratpoly", "multivec", "gracomplex", "orient", "cohomsolve",
          "nambu", "catalog", "verify", "cli")

CHECK_IDENTS = (
    "jacobi-p1", "jacobi-p2", "scale-p1", "scale-p2", "coboundary-p1",
    "coboundary-p2", "flow-p1", "flow-p2", "flow-cocycle-p1", "flow-cocycle-p2",
    "flow-scale-p1", "flow-scale-p2", "vanishing-p1", "vanishing-p2",
    "nambu-cocycle1", "graph-complex", "solver-p1", "solver-p2",
    "property-suites", "linear-vanishing")

# The functions whose self time is the claimed bottleneck of a workload.
DOMINANT = ("orient.apply_edge", "cohomsolve.solve_raw", "gracomplex.canonicalize")


def _mv_terms(mv):
    return sum(len(p.terms) for p in mv.components.values())


def _bits(values):
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.stack = []
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.errors = Counter()
        self.count = Counter()
        self.peak = Counter()

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, spans, errors = self.stack, self.spans, self.errors
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            frame = [name, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                # count an exception once, where it leaves the layer
                if len(stack) < 2 or stack[-2][1] != layer:
                    errors[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dt
                rec = spans[(name, parent[0] if parent else None)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[2]
            if after is not None:
                t1 = perf_counter()
                after(args, out, parent[0] if parent else None)
                if parent is not None:
                    parent[2] += perf_counter() - t1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_generator(self, key, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                count[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the public functions of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module("poissonflow." + layer)
                for layer in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "poissonflow" or name.startswith("poissonflow.")]
        count, peak = self.count, self.peak

        def on_mul(args, out, parent):
            count["ratpoly.mul.terms"] += len(out.terms)

        def on_canonicalize(args, out, parent):
            if out[0] is None:
                count["gracomplex.canonicalize.zero"] += 1

        def on_sum(args, out, parent):
            if parent not in ("gracomplex.bracket", "gracomplex.insert"):
                count["gracomplex.returned_terms"] += len(out.terms)

        def on_sheeted(args, out, parent):
            peak["orient.peak_terms"] = max(peak["orient.peak_terms"], len(out.terms))

        def on_apply_edge(args, out, parent):
            count["orient.apply_edge.terms_in"] += len(args[0].terms)
            on_sheeted(args, out, parent)

        def on_merge(args, out, parent):
            count["orient.merge.terms_in"] += len(args[0].terms)
            count["orient.merge.terms_out"] += _mv_terms(out)

        def on_solve_raw(args, out, parent):
            matrix = args[0]
            rows = len(matrix)
            cols = len(matrix[0]) if matrix else 0
            count["cohomsolve.entries"] += rows * cols
            count["cohomsolve.nonzero"] += sum(1 for row in matrix for x in row if x)
            peak["cohomsolve.rows"] = max(peak["cohomsolve.rows"], rows)
            peak["cohomsolve.cols"] = max(peak["cohomsolve.cols"], cols)
            if out.status == "infeasible":
                count["cohomsolve.infeasible"] += 1
                return
            peak["cohomsolve.rank"] = max(peak["cohomsolve.rank"],
                                          cols - len(out.kernel))
            bits = max(_bits(out.particular), max(map(_bits, out.kernel), default=0))
            peak["cohomsolve.max_bits"] = max(peak["cohomsolve.max_bits"], bits)

        def on_report(args, out, parent):
            for c in out.checks:
                count["verify.check.%s.s" % c.ident] += c.seconds

        table = (
            ("multivec.schouten", mods["multivec"].schouten, None),
            ("multivec.wedge", mods["multivec"].wedge, None),
            ("gracomplex.canonicalize", mods["gracomplex"].canonicalize,
             on_canonicalize),
            ("gracomplex.insert", mods["gracomplex"].insert, on_sum),
            ("gracomplex.bracket", mods["gracomplex"].bracket, on_sum),
            ("gracomplex.differential", mods["gracomplex"].differential, None),
            ("orient.lift", mods["orient"].lift, on_sheeted),
            ("orient.apply_edge", mods["orient"].apply_edge, on_apply_edge),
            ("orient.merge", mods["orient"].merge, on_merge),
            ("orient.evaluate", mods["orient"].evaluate, None),
            ("orient.flow", mods["orient"].flow, None),
            ("orient.directional_flow", mods["orient"].directional_flow, None),
            ("orient.cocycle1", mods["orient"].cocycle1, None),
            ("cohomsolve.assemble", mods["cohomsolve"].assemble, None),
            ("cohomsolve.solve_raw", mods["cohomsolve"].solve_raw, on_solve_raw),
            ("cohomsolve.solve", mods["cohomsolve"].solve, None),
            ("cohomsolve.trivialize", mods["cohomsolve"].trivialize, None),
            ("nambu.tangent_fit", mods["nambu"].tangent_fit, None),
            ("nambu.nambu_bivector", mods["nambu"].nambu_bivector, None),
            ("catalog.load", mods["catalog"].load_catalog, None),
            ("verify.run_checks", mods["verify"].run_checks, on_report),
            ("cli.main", mods["cli"].main, None),
        )
        for name, fn, after in table:
            self._rebind(modules, fn, self._span(name, fn, after))
        gracomplex = mods["gracomplex"]
        self._rebind(modules, gracomplex.insert_terms,
                     self._counted_generator("gracomplex.insert_terms.yielded",
                                             gracomplex.insert_terms))
        # the schouten calls made from cohomsolve get a span of their own
        cohomsolve = mods["cohomsolve"]
        self._patch_attr(cohomsolve, "schouten",
                         self._span("cohomsolve.schouten", cohomsolve.schouten))
        for name, owner, attr, after in (
                ("ratpoly.mul", mods["ratpoly"].Poly, "__mul__", on_mul),
                ("gracomplex.add_term", gracomplex.GraphSum, "add_term", None),
                ("cohomsolve.contains", cohomsolve.Solution, "contains", None)):
            self._patch_attr(owner, attr,
                             self._span(name, owner.__dict__[attr], after))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading ----------------------------------------------------------

    def total(self, name, field=1):
        """Summed calls (field 0), seconds (1) or self seconds (2) of a span."""
        return sum(rec[field] for (n, _), rec in self.spans.items() if n == name)

    def layer_metrics(self, wall, rounds, speed=1.0):
        """Per-layer metrics of ``rounds`` whole traced rounds that took
        ``wall`` seconds of op time.

        Counts and seconds are per round, seconds scaled by ``speed`` to the
        nominal host speed; peaks, ratios and shares are over the window;
        errors are totals.
        """
        count, peak = self.count, self.peak
        per = 1.0 / rounds

        def tot(name, field=1):
            return self.total(name, field) * (speed if field else 1)

        def ratio(a, b):
            return a / b if b else 0.0

        selfcheck = sum(rec[1] for (n, parent), rec in self.spans.items()
                        if n == "cohomsolve.schouten"
                        and parent != "cohomsolve.assemble")
        cli_run_checks = sum(rec[1] for (n, parent), rec in self.spans.items()
                             if n == "verify.run_checks" and parent == "cli.main")
        m = {
            "ratpoly.mul.calls": tot("ratpoly.mul", 0) * per,
            "ratpoly.mul.s": tot("ratpoly.mul") * per,
            "ratpoly.mul.terms": count["ratpoly.mul.terms"] * per,
            "multivec.schouten.calls": tot("multivec.schouten", 0) * per,
            "multivec.schouten.self_s": tot("multivec.schouten", 2) * per,
            "gracomplex.canonicalize.calls": tot("gracomplex.canonicalize", 0) * per,
            "gracomplex.canonicalize.s": tot("gracomplex.canonicalize") * per,
            "gracomplex.canonicalize.zero_ratio": ratio(
                count["gracomplex.canonicalize.zero"],
                tot("gracomplex.canonicalize", 0)),
            "gracomplex.insert_terms.yielded":
                count["gracomplex.insert_terms.yielded"] * per,
            "gracomplex.useful_ratio": ratio(
                count["gracomplex.returned_terms"],
                count["gracomplex.insert_terms.yielded"]),
            "orient.lift.s": tot("orient.lift") * per,
            "orient.apply_edge.calls": tot("orient.apply_edge", 0) * per,
            "orient.apply_edge.s": tot("orient.apply_edge") * per,
            "orient.apply_edge.terms_in": count["orient.apply_edge.terms_in"] * per,
            "orient.merge.s": tot("orient.merge") * per,
            "orient.peak_terms": peak["orient.peak_terms"],
            "orient.merge_ratio": ratio(count["orient.merge.terms_out"],
                                        count["orient.merge.terms_in"]),
            "cohomsolve.assemble.s": tot("cohomsolve.assemble") * per,
            "cohomsolve.solve_raw.calls": tot("cohomsolve.solve_raw", 0) * per,
            "cohomsolve.solve_raw.s": tot("cohomsolve.solve_raw") * per,
            "cohomsolve.contains.s": tot("cohomsolve.contains") * per,
            "cohomsolve.selfcheck.s": selfcheck * speed * per,
            "cohomsolve.rows": peak["cohomsolve.rows"],
            "cohomsolve.cols": peak["cohomsolve.cols"],
            "cohomsolve.rank": peak["cohomsolve.rank"],
            "cohomsolve.density": ratio(count["cohomsolve.nonzero"],
                                        count["cohomsolve.entries"]),
            "cohomsolve.max_bits": peak["cohomsolve.max_bits"],
            "cohomsolve.infeasible": count["cohomsolve.infeasible"] * per,
            "nambu.tangent_fit.calls": tot("nambu.tangent_fit", 0) * per,
            "nambu.tangent_fit.s": tot("nambu.tangent_fit") * per,
            "cli.overhead.s": (tot("cli.main") - cli_run_checks * speed) * per,
        }
        for ident in CHECK_IDENTS:
            key = "verify.check.%s.s" % ident
            m[key] = count[key] * speed * per
        layer_self = Counter()
        for (n, _), rec in self.spans.items():
            layer_self[n.split(".", 1)[0]] += rec[2]
        for layer in LAYERS:
            m["%s.errors" % layer] = self.errors[layer]
            m["%s.self_share" % layer] = ratio(layer_self[layer], wall)
        for name in DOMINANT:
            m["%s.self_share" % name] = ratio(self.total(name, 2), wall)
        return m

    def dump(self):
        """The aggregated span tree, for the run record."""
        return [{"name": n, "parent": parent, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for (n, parent), rec in sorted(self.spans.items(),
                                               key=lambda kv: -kv[1][1])]
