"""Exact graph-complex flows on polynomial Poisson bivectors.

The package computes with three layers of exact structure: sparse rational
polynomials, odd-variable multivector calculus with the Schouten bracket,
and the edge-ordered graph complex whose elements evaluate on tuples of
multivectors.  On top sit an exact coboundary solver and a catalog of the
cubic R-matrix brackets on R^4 together with their tetrahedral flows.
"""

from .errors import (DimensionError, MalformedGraphError, ParseError,
                     PreconditionError)
from .ratpoly import ANY_DEGREE, Poly, parse_poly, render_poly
from .multivec import (Multivector, euler_field, hamiltonian_field,
                       homogeneity_scale, jacobiator,
                       lie_derivative, parse_multivector, poisson_bracket,
                       render_multivector, schouten, schouten_sym, wedge)
from .gracomplex import (Graph, GraphSum, bracket, canonicalize, differential,
                         insert, is_cocycle, parse_graph, parse_graphsum,
                         point, render_graph, render_graphsum, simple_graph,
                         stick, tetrahedron)
from .orient import cocycle1, directional_flow, evaluate, flow
from .cohomsolve import (AnsatzSpec, AnsatzSystem, Solution, assemble,
                         default_degree, monomials, solve, solve_raw,
                         trivialize)
from .nambu import (homogenizing_field_exists, nambu_bivector, tangent_fit,
                    weight_degree)
from . import catalog
from .verify import RunReport, run_checks

__version__ = "0.1.0"
