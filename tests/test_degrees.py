"""One degree rule: ``common_degree`` and the layers that ask it what a set
of terms shares, and zero inputs through every CLI subcommand."""

import pytest

from poissonflow.cli import main
from poissonflow.cohomsolve import _homdeg
from poissonflow.errors import PreconditionError
from poissonflow.multivec import Multivector, parse_multivector
from poissonflow.nambu import weight_degree
from poissonflow.ratpoly import ANY_DEGREE, Poly, common_degree, parse_poly


def poly3(text):
    return parse_poly(text, 3)


def mv3(text):
    return parse_multivector(text, 3)


# degree of, (zero input, pure input, its degree, mixed input)
CALLERS = {
    "common_degree": (common_degree, ([], [2, 2, 2], 2, [1, 2])),
    "Poly.is_homogeneous": (Poly.is_homogeneous, (
        Poly.zero(3), poly3("x1^2 + x2*x3"), 2, poly3("x1 + x1^2"))),
    "Multivector.degree": (Multivector.degree, (
        Multivector.zero(3), mv3("(x1) xi1 xi2 + (1) xi2 xi3"), 2,
        mv3("(1) + (x1) xi1"))),
    "weight_degree": (lambda p: weight_degree(p, (1, 2, 1)), (
        Poly.zero(3), poly3("x1^2 + x2"), 2, poly3("x1 + x2"))),
}


@pytest.mark.parametrize("degree_of, cases", CALLERS.values(), ids=CALLERS)
def test_common_degree_callers(degree_of, cases):
    zero, pure, degree, mixed = cases
    assert degree_of(zero) is ANY_DEGREE
    assert degree_of(pure) == degree
    assert degree_of(mixed) is None


@pytest.mark.parametrize("text, grades", [
    ("0", {0, 1, 2, 3}),
    ("(x1) xi1 + (x2) xi3", {1}),
    ("(1) + (x1) xi1", set()),
])
def test_is_grade_reads_the_common_degree(text, grades):
    mv = mv3(text)
    assert {k for k in range(4) if mv.is_grade(k)} == grades


@pytest.mark.parametrize("text, message", [
    ("0", "is zero"),
    ("(x1 + x2^2) xi1 xi2", "non-homogeneous coefficients"),
    ("(x1) xi1 xi2 + (x2^2) xi1 xi3", "mixed coefficient degrees"),
])
def test_homdeg_rejects_zero_and_mixed_coefficients(text, message):
    with pytest.raises(PreconditionError, match=message):
        _homdeg(mv3(text), "target")
    assert _homdeg(mv3("(x1^2) xi1 xi2 + (x2*x3) xi1 xi3"), "target") == 2


# -- cli: a zero in every input slot ------------------------------------------------


# subcommand: catalog entries for each input slot
SLOTS = {
    "schouten": {"--left": "P1", "--right": "euler"},
    "jacobi": {"--poisson": "P1"},
    "scale": {"--field": "euler", "--poisson": "P1"},
    "flow": {"--graph": "tetrahedron", "--poisson": "P1"},
    "cocycle1": {"--graph": "tetrahedron", "--field": "euler", "--poisson": "P1"},
    "trivialize": {"--target": "QP1", "--poisson": "P1"},
    "graph-d": {"--graph": "tetrahedron"},
    "graph-bracket": {"--left": "tetrahedron", "--right": "tetrahedron"},
}
GRAPH_INPUT = ("graph-d", "graph-bracket")
ZERO_SLOTS = [(command, slot) for command, slots in SLOTS.items() for slot in slots]


@pytest.mark.parametrize("command, slot", ZERO_SLOTS,
                         ids=["%s%s" % pair for pair in ZERO_SLOTS])
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_cli_zero_input_exits_cleanly(command, slot, fmt, capsys):
    argv = [command, "--format", fmt]
    for flag, entry in SLOTS[command].items():
        argv += [flag, "0" if flag == slot else entry]
    if command not in GRAPH_INPUT:
        argv += ["--nvars", "4"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2), err
    assert (out != "") == (code == 0)
