"""Exact construction, analysis and cross-verification of k-power graphs.

For a finite group G and an exponent k >= 2, the k-power graph joins
distinct x and y whenever x^k = y or y^k = x.  This package builds the
graphs for several group families, evaluates the known closed forms for
their parameters (edge counts, degrees, connectivity, clique and chromatic
numbers, component structure), and checks every closed form against
independent brute-force computation.
"""

from .analysis import (
    AnalysisReport,
    HalfExponentCertificate,
    TheoremViolation,
    analyze,
    chromatic,
    component_count_cyclic,
    degree_cyclic,
    edge_count_formula,
    is_connected_criterion,
    is_connected_cyclic_pi,
    is_empty_graph,
    theorem16_structure,
)
from .chair import ChairSolution, degree_profile, solve_chairs
from .graphs import (
    ComponentProfile,
    KPowerGraph,
    build_undirected,
    components,
    diameter,
    distances_from,
    to_dot,
    to_json_dict,
)
from .groups import FiniteGroup, GroupSpec, build_group, parse_group_spec
from .numth import (
    divisors,
    euler_phi,
    factorize,
    gcd,
    is_primitive_root,
    multiplicative_order,
    prime_set,
    solve_linear_congruence,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ChairSolution",
    "ComponentProfile",
    "FiniteGroup",
    "GroupSpec",
    "HalfExponentCertificate",
    "KPowerGraph",
    "TheoremViolation",
    "analyze",
    "build_group",
    "build_undirected",
    "chromatic",
    "component_count_cyclic",
    "components",
    "degree_cyclic",
    "degree_profile",
    "diameter",
    "distances_from",
    "divisors",
    "edge_count_formula",
    "euler_phi",
    "factorize",
    "gcd",
    "is_connected_criterion",
    "is_connected_cyclic_pi",
    "is_empty_graph",
    "is_primitive_root",
    "multiplicative_order",
    "parse_group_spec",
    "prime_set",
    "solve_linear_congruence",
    "solve_chairs",
    "theorem16_structure",
    "to_dot",
    "to_json_dict",
]
