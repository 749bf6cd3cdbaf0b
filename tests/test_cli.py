"""Command-line surface: parsing, subcommands, determinism, fault injection."""

import json

import pytest

from poissonflow import catalog
from poissonflow.cli import main
from poissonflow.multivec import parse_multivector, render_multivector, schouten
from poissonflow.verify import _run, run_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- catalog integrity -------------------------------------------------------


def test_catalog_poisson_entries_checked(P1, P2, gl2kk, nambu_quartic):
    from poissonflow.multivec import jacobiator
    for p in (P1, P2, gl2kk, nambu_quartic):
        assert jacobiator(p).is_zero()


def test_catalog_triples_consistent(P1, P2, QP1, QP2, Y1, Y2):
    assert schouten(Y1, P1) == QP1
    assert schouten(Y2, P2) == QP2


def test_catalog_round_trip():
    from poissonflow.gracomplex import parse_graphsum, render_graphsum
    from poissonflow.multivec import Multivector
    for name in catalog.names():
        entry = catalog.get(name)
        if isinstance(entry.payload, Multivector):
            text = render_multivector(entry.payload)
            assert parse_multivector(text, nvars=entry.dimension) == entry.payload
        else:
            assert parse_graphsum(render_graphsum(entry.payload)) == entry.payload


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("nope")


# -- subcommands ---------------------------------------------------------------


def test_scale_subcommand(capsys):
    code, out, _ = run_cli(capsys, "scale", "--field", "euler", "--poisson", "P1")
    assert code == 0 and out.strip() == "1"


def test_cocycle1_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cocycle1", "--graph", "tetrahedron",
                           "--field", "euler", "--poisson", "P1")
    assert code == 0 and out.strip() == "0"


def test_flow_subcommand_matches_catalog(capsys, QP1):
    code, out, _ = run_cli(capsys, "flow", "--graph", "tetrahedron",
                           "--poisson", "P1")
    assert code == 0
    assert parse_multivector(out.strip(), nvars=4) == QP1.scale(4)


def test_schouten_subcommand(capsys, QP1):
    code, out, _ = run_cli(capsys, "schouten", "--left", "Y1", "--right", "P1")
    assert code == 0
    assert parse_multivector(out.strip(), nvars=4) == QP1


def test_jacobi_subcommand_machine(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "--poisson", "P2",
                           "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data == {"jacobiator": "0", "poisson": True}


def test_trivialize_subcommand_machine(capsys):
    code, out, _ = run_cli(capsys, "trivialize", "--target", "QP1",
                           "--poisson", "P1", "--degree", "4",
                           "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "solved"
    assert data["kernel_dim"] == 10


def test_graph_d_subcommand(capsys):
    code, out, _ = run_cli(capsys, "graph-d", "--graph", "tetrahedron")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "graph-d", "--graph",
                           "graph{n=1; edges=; c=1}")
    assert code == 0
    assert out.strip() == "graph{n=2; edges=(1,2); c=-1}"


def test_graph_bracket_subcommand(capsys):
    code, out, _ = run_cli(capsys, "graph-bracket",
                           "--left", "graph{n=2; edges=(1,2); c=1}",
                           "--right", "graph{n=1; edges=; c=1}")
    assert code == 0
    assert out.strip() == "graph{n=2; edges=(1,2); c=1}"


def test_nambu_subcommand(capsys):
    code, out, _ = run_cli(capsys, "nambu", "--casimir", "x3")
    assert code == 0 and out.strip() == "(1) xi1 xi2"
    code, out, err = run_cli(capsys, "nambu", "--casimir",
                             "1/3*x1^3 + 1/3*x2^3 + 1/3*x3^3")
    assert code == 0
    assert "no polynomial homogenizing field exists" in err


def test_inline_and_file_inputs(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("(x1) xi1 + (x2) xi2 + (x3) xi3 + (x4) xi4")
    code, out, _ = run_cli(capsys, "scale", "--field", str(path),
                           "--poisson", "P1")
    assert code == 0 and out.strip() == "1"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, _, _ = run_cli(capsys, "catalog", "P1", "--output", str(target))
    assert code == 0
    assert parse_multivector(target.read_text(), nvars=4) is not None


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_output_exits_2(where, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "catalog", "P1", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "jacobi", "--poisson", "(x1@) xi1 xi2")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("argv", [
    ["trivialize", "--target", "QP1", "--poisson", "P1", "--degree", "-1"],
    ["graph-d", "--graph", "graph{n=0; edges=; c=1}"],
    ["graph-d", "--graph", "graph{n=1; edges=; c=1/0}"],
], ids=["negative-degree", "no-vertices", "zero-denominator"])
def test_bad_input_exits_2(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


def test_cli_byte_determinism(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


# -- verify-paper ---------------------------------------------------------------


def test_verify_paper_full_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert "result: all checks passed" in out
    assert "lambda1 = 4" in out and "lambda2 = 4" in out
    assert "kernel_dim = 10" in out


def test_fault_injection_isolates_failures(P1):
    # corrupt one coefficient of P1: its checks fail, unrelated ones survive
    from poissonflow.multivec import Multivector
    from poissonflow.ratpoly import Poly

    bad_comps = dict(P1.components)
    bad_comps[(1, 2)] = bad_comps[(1, 2)] + Poly.monomial(4, (3, 0, 0, 0), 1)
    bad = Multivector(4, bad_comps)
    report = run_checks(objects={"P1": bad})
    # all 20 checks run; the added cubic term keeps both scales, so
    # scale-p1 and flow-scale-p1 pass with every -p2 check and the checks
    # that never read P1
    by_id = {c.ident: c.passed for c in report.checks}
    assert len(by_id) == 20
    assert {ident for ident, passed in by_id.items() if not passed} == {
        "jacobi-p1", "coboundary-p1", "flow-p1", "flow-cocycle-p1",
        "vanishing-p1", "solver-p1", "property-suites"}
    details = {c.ident: c.detail for c in report.checks}
    assert details["flow-p1"] == "lambda=None"
    assert details["vanishing-p1"] == "error: bivector is not Poisson"
    assert details["solver-p1"].startswith("error: target is not a cocycle")
    assert details["property-suites"] == "d_P^2 != 0 on P1"
    assert report.passed is False


def _raise():
    raise ValueError("boom")


@pytest.mark.parametrize("fn, budget, passed, detail", [
    (lambda: (True, ""), None, True, ""),
    (lambda: (True, "x=1"), 0.0, False, "x=1; over time budget"),
    (lambda: (True, ""), 0.0, False, "over time budget"),
    (_raise, None, False, "error: boom"),
], ids=["pass", "over-budget-with-detail", "over-budget", "raises"])
def test_run_contains_failures_and_budgets(fn, budget, passed, detail):
    result = _run("ident", "description", fn, budget=budget)
    assert (result.passed, result.detail) == (passed, detail)
    assert result.seconds >= 0


def test_machine_format_verify(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert all(data["checks"].values())


def test_fixture_files_are_in_rendered_form():
    # data files round-trip byte-exactly: render(parse(file)) == file
    from importlib import resources
    from poissonflow.gracomplex import parse_graphsum, render_graphsum

    folder = resources.files("poissonflow.data")
    for name, dim in (("p1.txt", 4), ("p2.txt", 4), ("q_p1.txt", 4),
                      ("q_p2.txt", 4), ("y1.txt", 4), ("y2.txt", 4),
                      ("euler_r4.txt", 4), ("gl2_linear.txt", 4)):
        text = folder.joinpath(name).read_text().strip()
        assert render_multivector(parse_multivector(text, nvars=dim)) == text
    gtext = folder.joinpath("tetrahedron.txt").read_text().strip()
    assert render_graphsum(parse_graphsum(gtext)) == gtext
