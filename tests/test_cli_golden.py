"""Golden CLI transcript: stdout, stderr and exit code, byte for byte.

Every subcommand runs in text format with catalog, file and inline inputs
and the error paths, and in machine format on a cheap input; a few cases
write through ``--output``, and a few send stdout and stderr to one stream
to pin their order.  The expected transcript lives in
``golden/cli_transcript.json``.  Stderr timing lines vary from run to run:
the ``timing:`` lines are left out and the wall-time figure is masked.  The
parser's structure (subcommands, options, defaults, help strings) is
compared as well.

Regenerate the transcript, after checking that a change in it is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from poissonflow.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_transcript.json"

# Input files written to a scratch directory; "{dir}" in an argument names it.
FILES = {
    "field.txt": "(x1) xi1 + (x2) xi2 + (x3) xi3 + (x4) xi4\n",
    "stick.txt": "graph{n=2; edges=(1,2); c=1}\n",
    "bad.txt": "(x1 xi1\n",
}

TRIANGLE = "graph{n=3; edges=(1,2)(1,3)(2,3); c=1}"
PATH3 = "graph{n=3; edges=(1,2)(2,3); c=1}"
POINT = "graph{n=1; edges=; c=1}"
STICK = "graph{n=2; edges=(1,2); c=1}"
TETRAHEDRON_HALF = "graph{n=4; edges=(1,2)(1,3)(1,4)(2,3)(2,4)(3,4); c=-1/2}"
K4_MINUS_EDGE = "graph{n=4; edges=(1,2)(1,3)(1,4)(2,3)(2,4); c=1}"

CASES = [
    ["schouten", "--left", "Y1", "--right", "P1"],
    ["schouten", "--left", "(x1) xi2", "--right", "(x2^2) xi1", "--nvars", "3"],
    ["jacobi", "--poisson", "P2"],
    ["jacobi", "--poisson", "(x3) xi1 xi2 + (x1) xi2 xi3"],
    ["scale", "--field", "euler", "--poisson", "P1"],
    ["scale", "--field", "{dir}/field.txt", "--poisson", "gl2kk"],
    ["scale", "--field", "(1) xi1", "--poisson", "(x1*x2 + x3) xi1 xi2",
     "--nvars", "3"],
    ["flow", "--graph", "tetrahedron", "--poisson", "P1"],
    ["flow", "--graph", TRIANGLE, "--poisson", "P2"],
    ["flow", "--graph", "{dir}/stick.txt", "--poisson", "nambu-quartic"],
    ["flow", "--graph", STICK, "--poisson", "(x1^2*x3) xi1 xi2 + (x2) xi2 xi3"],
    ["cocycle1", "--graph", "tetrahedron", "--field", "euler",
     "--poisson", "P1"],
    ["cocycle1", "--graph", "tetrahedron", "--field", "euler",
     "--poisson", "gl2kk"],
    ["trivialize", "--target", "QP1", "--poisson", "P1", "--degree", "4"],
    ["trivialize", "--target", "gl2kk", "--poisson", "gl2kk"],
    ["trivialize", "--target", "nambu-cubic", "--poisson", "nambu-cubic"],
    ["trivialize", "--target", "P1", "--poisson", "P2"],
    ["trivialize", "--target", "0", "--poisson", "P1"],
    ["trivialize", "--target", "0", "--poisson", "P1", "--nvars", "4"],
    ["trivialize", "--target", "0", "--poisson", "gl2kk", "--nvars", "4",
     "--degree", "1"],
    ["trivialize", "--target", "0", "--poisson", "0", "--nvars", "2",
     "--degree", "1"],
    ["graph-d", "--graph", "tetrahedron"],
    ["graph-d", "--graph", POINT],
    ["graph-d", "--graph", PATH3],
    ["graph-bracket", "--left", STICK, "--right", POINT],
    ["graph-bracket", "--left", "{dir}/stick.txt", "--right", TRIANGLE],
    ["graph-bracket", "--left", POINT + "\n" + STICK.replace("c=1", "c=2"),
     "--right", STICK + "\n" + TETRAHEDRON_HALF],
    ["graph-bracket", "--left", K4_MINUS_EDGE, "--right", "tetrahedron"],
    ["nambu", "--casimir", "x3"],
    ["nambu", "--casimir", "1/3*x1^3 + 1/3*x2^3 + 1/3*x3^3"],
    ["nambu", "--casimir", "x1^4 + x2^4 + x3^4", "--density", "x1"],
    ["nambu", "--casimir", "x1^2*x2 + x3", "--weights", "1,2,3"],
    ["nambu", "--casimir", "x1^3 + x2^2", "--weights", "1,1,1"],
    ["catalog"],
    ["catalog", "P1"],
    ["catalog", "tetrahedron"],
    ["catalog", "nambu-cubic"],
    ["catalog", "nope"],
    ["verify-paper"],
    # errors
    ["jacobi", "--poisson", "(x1@) xi1 xi2"],
    ["jacobi", "--poisson", "{dir}/bad.txt"],
    ["graph-d", "--graph", "graph{n=2; edges=(1,1); c=1}"],
    ["graph-d", "--graph", "graph{n=2 edges=(1,2); c=1}"],
    ["flow", "--graph", "tetrahedron", "--poisson", "euler"],
    ["flow", "--graph", "P1", "--poisson", "P1"],
    ["jacobi", "--poisson", "tetrahedron"],
    ["schouten", "--left", "(x1) xi1", "--right", "(x1) xi1", "--nvars", "0"],
    ["trivialize", "--target", "QP1", "--poisson", "P1", "--degree", "2"],
]

# Run with --format machine: each subcommand on a cheap input, the
# infeasible witness, the note cases and the error exits.
MACHINE_CASES = [
    ["schouten", "--left", "(x1) xi2", "--right", "(x2^2) xi1", "--nvars", "3"],
    ["jacobi", "--poisson", "(x3) xi1 xi2 + (x1) xi2 xi3"],
    ["scale", "--field", "euler", "--poisson", "P1"],
    ["flow", "--graph", STICK, "--poisson", "(x1^2*x3) xi1 xi2 + (x2) xi2 xi3"],
    ["cocycle1", "--graph", "tetrahedron", "--field", "euler",
     "--poisson", "gl2kk"],
    ["trivialize", "--target", "gl2kk", "--poisson", "gl2kk"],
    ["trivialize", "--target", "nambu-cubic", "--poisson", "nambu-cubic"],
    ["graph-d", "--graph", POINT],
    ["graph-d", "--graph", PATH3],
    ["graph-bracket", "--left", STICK, "--right", POINT],
    ["nambu", "--casimir", "1/3*x1^3 + 1/3*x2^3 + 1/3*x3^3"],
    ["catalog"],
    ["catalog", "P1"],
    ["catalog", "nope"],
    ["jacobi", "--poisson", "(x1@) xi1 xi2"],
    ["flow", "--graph", "P1", "--poisson", "P1"],
]

# Run as given with stdout and stderr in one stream: notes and timing
# lines follow the result.
MERGED_CASES = [
    ["nambu", "--casimir", "1/3*x1^3 + 1/3*x2^3 + 1/3*x3^3"],
    ["graph-d", "--graph", POINT],
    ["verify-paper", "--format", "machine"],
]


# Run as given only: --output in both formats, and with a stderr note.
OUTPUT_CASES = [
    ["catalog", "P1", "--output", "{dir}/out.txt"],
    ["catalog", "--output", "{dir}/out.txt", "--format", "machine"],
    ["trivialize", "--target", "gl2kk", "--poisson", "gl2kk",
     "--output", "{dir}/out.txt"],
    ["trivialize", "--target", "gl2kk", "--poisson", "gl2kk",
     "--output", "{dir}/out.txt", "--format", "machine"],
    ["graph-d", "--graph", POINT, "--output", "{dir}/out.txt"],
    ["nambu", "--casimir", "1/3*x1^3 + 1/3*x2^3 + 1/3*x3^3",
     "--output", "{dir}/out.txt"],
    ["jacobi", "--poisson", "(x1@) xi1 xi2", "--output", "{dir}/out.txt"],
]


def _invocations():
    """(argv, merged) for every invocation, in transcript order."""
    for argv in CASES:
        yield argv, False
    for argv in MACHINE_CASES:
        yield argv + ["--format", "machine"], False
    for argv in OUTPUT_CASES:
        yield argv, False
    for argv in MERGED_CASES:
        yield argv, True


def _stable(text):
    """Drop the timing lines and mask the wall-time figure."""
    lines = []
    for line in text.splitlines(True):
        if line.startswith("verify-paper wall time: "):
            lines.append("verify-paper wall time: <masked>\n")
        elif not line.startswith("timing: "):
            lines.append(line)
    return "".join(lines)


def run(argv, folder, merged=False):
    """One invocation in-process; returns its transcript record.

    With ``merged`` stdout and stderr share one buffer, recorded as
    ``stdout``, and ``stderr`` is empty.
    """
    real = [a.replace("{dir}", folder) for a in argv]
    out = io.StringIO()
    err = out if merged else io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(real)
        except SystemExit as exc:
            # what the interpreter does with an uncaught SystemExit
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
                code = 1
            else:
                code = exc.code or 0
    record = {
        "argv": argv,
        "code": code,
        "merged": merged,
        "stdout": _stable(out.getvalue()),
        "stderr": "" if merged else _stable(err.getvalue()),
    }
    target = os.path.join(folder, "out.txt")
    if os.path.exists(target):
        with open(target, encoding="utf-8", newline="") as f:
            record["output_file"] = f.read()
        os.remove(target)
    return record


def transcript():
    with tempfile.TemporaryDirectory() as folder:
        for name, text in FILES.items():
            with open(os.path.join(folder, name), "w", encoding="utf-8") as f:
                f.write(text)
        return [run(argv, folder, merged)
                for argv, merged in _invocations()]


def parser_structure():
    """Subcommands with their options, defaults, choices and help text."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    helps = {a.dest: a.help for a in sub._choices_actions}
    out = []
    for name, parser in sub.choices.items():
        options = [[list(a.option_strings), a.dest, a.required, repr(a.default),
                    repr(a.type), repr(a.choices), a.nargs, a.help,
                    type(a).__name__]
                   for a in parser._actions]
        out.append([name, helps[name], options])
    return out


def test_cli_transcript_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = transcript()
    assert [r["argv"] for r in got] == [r["argv"] for r in golden["transcript"]]
    for want, have in zip(golden["transcript"], got):
        assert have == want, " ".join(want["argv"])


def test_cli_parser_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert parser_structure() == golden["parser"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {"transcript": transcript(), "parser": parser_structure()}
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print("wrote %d invocations to %s" % (len(data["transcript"]), GOLDEN))
