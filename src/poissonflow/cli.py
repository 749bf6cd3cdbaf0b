"""Command-line front end.

Inputs name catalog entries (``P1``, ``euler``, ``tetrahedron``), files, or
inline text in the package formats; outputs stream to stdout unless
``--output`` is given.  Identical invocations print identical bytes: all
timing goes to stderr.

Every subcommand is a row of ``COMMANDS``: a handler returning
``(text, payload)``, printed as the text or, with ``--format machine``, as
the JSON payload.  Lines a handler queues for stderr follow the result.
Exit status: 0 success, 1 a ``verify-paper`` check failed, 2 bad input or
a failed precondition, 3 an internal self-check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog as _catalog
from .cohomsolve import trivialize
from .errors import ParseError, PreconditionError
from .gracomplex import (GraphSum, bracket, differential, parse_graphsum,
                         render_graphsum)
from .multivec import (Multivector, homogeneity_scale, jacobiator,
                       parse_multivector, render_multivector, schouten)
from .nambu import homogenizing_field_exists, nambu_bivector
from .orient import cocycle1, flow
from .ratpoly import parse_poly
from .verify import run_checks


def _resolve_text(value: str) -> str:
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as f:
            return f.read()
    return value


def load_multivector(value: str, nvars=None) -> Multivector:
    try:
        entry = _catalog.get(value)
    except KeyError:
        pass
    else:
        if isinstance(entry.payload, Multivector):
            return entry.payload
        raise PreconditionError(
            "catalog entry %r is a graph sum, not a multivector" % value)
    return parse_multivector(_resolve_text(value), nvars=nvars)


def load_graphsum(value: str) -> GraphSum:
    try:
        entry = _catalog.get(value)
    except KeyError:
        pass
    else:
        if isinstance(entry.payload, GraphSum):
            return entry.payload
        raise PreconditionError("catalog entry %r is not a graph sum" % value)
    return parse_graphsum(_resolve_text(value))


def _machine(args) -> bool:
    return args.format == "machine"


def _note(args, message: str):
    """A remark for stderr, in text format only."""
    if not _machine(args):
        args.stderr_lines.append("note: " + message)


def _emit(args, text: str, payload):
    """Print the payload as JSON in machine format, otherwise the text.

    A payload of None means the command has no machine form.
    """
    if _machine(args) and payload is not None:
        text = json.dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_schouten(args):
    left = load_multivector(args.left, args.nvars)
    right = load_multivector(args.right, args.nvars)
    text = render_multivector(schouten(left, right))
    return text, {"result": text}


def cmd_jacobi(args):
    jac = jacobiator(load_multivector(args.poisson, args.nvars))
    text = render_multivector(jac)
    return text, {"jacobiator": text, "poisson": jac.is_zero()}


def cmd_scale(args):
    v = load_multivector(args.field, args.nvars)
    p = load_multivector(args.poisson, args.nvars)
    lam = homogeneity_scale(v, p)
    text = "none" if lam is None else str(lam)
    return text, {"scale": text}


def cmd_flow(args):
    gamma = load_graphsum(args.graph)
    p = load_multivector(args.poisson, args.nvars)
    text = render_multivector(flow(gamma, p))
    return text, {"flow": text}


def cmd_cocycle1(args):
    gamma = load_graphsum(args.graph)
    v = load_multivector(args.field, args.nvars)
    p = load_multivector(args.poisson, args.nvars)
    text = render_multivector(cocycle1(gamma, v, p))
    return text, {"cocycle1": text}


def cmd_trivialize(args):
    q = load_multivector(args.target, args.nvars)
    p = load_multivector(args.poisson, args.nvars)
    sol = trivialize(q, p, args.degree)
    payload = {"status": sol.status, "kernel_dim": sol.kernel_dim}
    if sol.status == "solved":
        payload["particular"] = render_multivector(sol.particular)
        lines = ["status: solved",
                 "particular: %s" % payload["particular"],
                 "kernel dimension: %d" % sol.kernel_dim]
        lines += ["kernel[%d]: %s" % (k, render_multivector(b))
                  for k, b in enumerate(sol.kernel_basis)]
    else:
        payload["witness"] = str(sol.witness)
        lines = ["status: infeasible",
                 "inconsistent equation at row %s" % (sol.witness,)]
    return "\n".join(lines), payload


def cmd_graph_d(args):
    d = differential(load_graphsum(args.graph))
    if not d.is_zero():
        _note(args, "not a cocycle under this package's edge-order "
                    "convention; external conventions may differ")
    text = render_graphsum(d)
    return text, {"differential": text, "cocycle": d.is_zero()}


def cmd_graph_bracket(args):
    left = load_graphsum(args.left)
    right = load_graphsum(args.right)
    text = render_graphsum(bracket(left, right))
    return text, {"bracket": text}


def cmd_nambu(args):
    a = parse_poly(args.casimir, 3)
    rho = parse_poly(args.density, 3) if args.density else None
    p = nambu_bivector(a, rho)
    note = ""
    weights = tuple(int(w) for w in args.weights.split(","))
    try:
        wa, exists = homogenizing_field_exists(a, weights)
    except PreconditionError:
        exists = None
    if exists is False and rho is None:
        note = ("no polynomial homogenizing field exists "
                "(weight degree %s equals the weight sum %d)"
                % (wa, sum(weights)))
        _note(args, note)
    text = render_multivector(p)
    return text, {"bivector": text, "note": note}


def cmd_catalog(args):
    if not args.name:
        lines = []
        for name in _catalog.names():
            entry = _catalog.get(name)
            lines.append("%-14s r=%d  %s" % (entry.name, entry.dimension,
                                             entry.note))
        return "\n".join(lines), None
    entry = _catalog.get(args.name)
    payload = entry.payload
    text = (render_multivector(payload) if isinstance(payload, Multivector)
            else render_graphsum(payload))
    return text, {"name": entry.name, "dimension": entry.dimension,
                  "note": entry.note, "payload": text}


def cmd_verify_paper(args):
    t0 = time.perf_counter()
    report = run_checks(fast=args.fast)
    text = report.table()
    if report.outputs:
        text += "\n" + "\n".join("%s = %s" % (k, v)
                                 for k, v in sorted(report.outputs.items()))
    payload = {"status": "pass" if report.passed else "fail",
               "checks": {c.ident: c.passed for c in report.checks}}
    payload.update(report.outputs)
    args.stderr_lines += ["timing: %-18s %.2fs" % (c.ident, c.seconds)
                          for c in report.checks if c.seconds >= 0.05]
    args.stderr_lines.append("verify-paper wall time: %.1fs"
                             % (time.perf_counter() - t0))
    args.exit_code = 0 if report.passed else 1
    return text, payload


_REQUIRED = {"required": True}

# name, help, handler, own arguments as (flag, add_argument keywords)
COMMANDS = (
    ("schouten", "bracket of two multivectors", cmd_schouten,
     (("--left", _REQUIRED), ("--right", _REQUIRED))),
    ("jacobi", "jacobiator of a bivector", cmd_jacobi,
     (("--poisson", _REQUIRED),)),
    ("scale", "homogeneity scale of P along a field", cmd_scale,
     (("--field", _REQUIRED), ("--poisson", _REQUIRED))),
    ("flow", "evaluate a graph sum at copies of P", cmd_flow,
     (("--graph", _REQUIRED), ("--poisson", _REQUIRED))),
    ("cocycle1", "1-vector evaluation with V placed in every slot", cmd_cocycle1,
     (("--graph", _REQUIRED), ("--field", _REQUIRED), ("--poisson", _REQUIRED))),
    ("trivialize", "solve Q = [[Y,P]] exactly", cmd_trivialize,
     (("--target", _REQUIRED), ("--poisson", _REQUIRED),
      ("--degree", {"type": int}))),
    ("graph-d", "graph differential", cmd_graph_d,
     (("--graph", _REQUIRED),)),
    ("graph-bracket", "insertion bracket of graph sums", cmd_graph_bracket,
     (("--left", _REQUIRED), ("--right", _REQUIRED))),
    ("nambu", "determinant bracket from a Casimir", cmd_nambu,
     (("--casimir", _REQUIRED), ("--density", {}),
      ("--weights", {"default": "1,1,1"}))),
    ("catalog", "list or print built-in objects", cmd_catalog,
     (("name", {"nargs": "?"}),)),
    ("verify-paper", "run the full acceptance suite", cmd_verify_paper,
     (("--fast", {"action": "store_true",
                  "help": "skip the flow and solver checks"}),)),
)

# accepted by every subcommand, after its own arguments
COMMON = (
    ("--output", {"help": "write the result to a file"}),
    ("--format", {"choices": ("text", "machine"), "default": "text"}),
    ("--nvars", {"type": int, "help": "dimension for parsed multivectors"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonflow",
        description="exact graph-complex flows on polynomial Poisson bivectors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fn, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments + COMMON:
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.stderr_lines, args.exit_code = [], 0
    try:
        text, payload = args.fn(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    _emit(args, text, payload)
    for line in args.stderr_lines:
        print(line, file=sys.stderr)
    return args.exit_code


if __name__ == "__main__":
    sys.exit(main())
