"""The package's public names, and the benchmark tracer's hold on them.

``perfbench/tracer.py`` wraps functions of every layer by name, so renaming
or deleting one of them breaks the benchmark.  The tracer is loaded from its
file as it stands, installed and restored here.  The sorted public names of
``poissonflow`` are pinned, so that a change to them is deliberate.
"""

import importlib
import importlib.util
import pathlib
import sys
from types import ModuleType

import poissonflow

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"

PUBLIC = [
    "ANY_DEGREE", "AnsatzSpec", "AnsatzSystem", "DimensionError", "Graph",
    "GraphSum", "MalformedGraphError", "Multivector", "ParseError", "Poly",
    "PreconditionError", "RunReport", "Solution", "assemble", "bracket",
    "canonicalize", "cocycle1", "default_degree", "differential",
    "directional_flow", "euler_field", "evaluate", "flow",
    "hamiltonian_field", "homogeneity_scale", "homogenizing_field_exists",
    "insert", "is_cocycle", "jacobiator", "lie_derivative", "monomials",
    "nambu_bivector", "parse_graph", "parse_graphsum", "parse_multivector",
    "parse_poly", "point", "poisson_bracket", "render_graph",
    "render_graphsum", "render_multivector", "render_poly", "run_checks",
    "schouten", "schouten_sym", "simple_graph", "solve", "solve_raw",
    "stick", "tangent_fit", "tetrahedron", "trivialize", "wedge",
    "weight_degree",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes():
    """Every attribute of every loaded poissonflow module, by identity."""
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "poissonflow" or name.startswith("poissonflow.")
            for attr, value in vars(mod).items()}


def test_public_names_are_pinned():
    # submodules appear as attributes once anything imports them, so only
    # the names the package itself binds are compared
    names = sorted(name for name, value in vars(poissonflow).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC
    assert isinstance(poissonflow.catalog, ModuleType)


def test_tracer_installs_and_restores_every_wrapped_name():
    module = load_tracer()
    for layer in module.LAYERS:
        importlib.import_module("poissonflow." + layer)
    tracer = module.Tracer()
    before = package_attributes()
    tracer.install()
    try:
        # a name wrapped twice is patched twice; its first patch holds the
        # original function
        originals = {}
        for owner, attr, orig in tracer._patches:
            originals.setdefault((owner, attr), orig)
        for (owner, attr), orig in originals.items():
            assert vars(owner)[attr] is not orig
    finally:
        tracer.restore()
    for (owner, attr), orig in originals.items():
        assert vars(owner)[attr] is orig
    after = package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # the reference pipeline the tracer times lives on in orient
    wrapped = {(owner.__name__, attr) for owner, attr in originals}
    for attr in ("lift", "apply_edge", "merge", "evaluate"):
        assert ("poissonflow.orient", attr) in wrapped
