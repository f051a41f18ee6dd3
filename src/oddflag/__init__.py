"""Schubert-calculus combinatorics of the odd symplectic flag family.

For n >= 2 the package enumerates the 4n^2 Schubert labels of
IF(1,2;C^(2n+1)), builds the degree-labeled moment graph, computes curve
neighborhoods by budgeted graph search and by closed form, assembles the
curve-neighborhood lattices, constructs the combinatorial quantum Bruhat
graph, and machine-checks the structural claims (closed forms, lattice
distributivity, strong connectivity and cycle gcd) against brute-force
oracles.
"""

from .errors import DomainError, VerificationError
from .weyl import (
    FlagLabel,
    Root,
    bruhat_leq,
    covers,
    down_set,
    enumerate_labels,
    label,
    length,
    parse_label,
    reflect,
    top_label,
)
from .moment import Degree, MomentGraph, build_moment_graph, degree_of_root
from .neighborhoods import (
    SchubertUnion,
    cross_check,
    gamma_bfs,
    gamma_closed_form,
    union_leq,
)
from .lattice import (
    CNLattice,
    build_cn_lattice,
    classify_shape,
    is_distributive,
    is_lattice,
)
from .qbg import (
    ChernData,
    QBGraph,
    build_qbg,
    chern_data,
    moment_discrepancies,
    property_o_verdict,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "CNLattice",
    "ChernData",
    "Degree",
    "DomainError",
    "FlagLabel",
    "MomentGraph",
    "QBGraph",
    "Root",
    "SchubertUnion",
    "VerificationError",
    "bruhat_leq",
    "build_cn_lattice",
    "build_moment_graph",
    "build_qbg",
    "chern_data",
    "classify_shape",
    "covers",
    "cross_check",
    "degree_of_root",
    "down_set",
    "enumerate_labels",
    "gamma_bfs",
    "gamma_closed_form",
    "is_distributive",
    "is_lattice",
    "label",
    "length",
    "moment_discrepancies",
    "parse_label",
    "property_o_verdict",
    "reflect",
    "run_suite",
    "top_label",
    "union_leq",
]
