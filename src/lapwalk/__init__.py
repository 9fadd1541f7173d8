"""Continuous-time quantum walks on graphs relative to the adjacency matrix
and the standard, signless, and normalized Laplacians, with tooling to verify
perfect state transfer constructions, closure identities, and negative
results at small scale.
"""

__version__ = "0.1.0"

from .control import (
    UnicyclicReport,
    WalkMatrix,
    eigenvector_chase_check,
    exact_rank,
    is_controllable,
    spectral_controllability_count,
    unicyclic_no_pst_pipeline,
    walk_matrix,
)
from .graphs import (
    Graph,
    cartesian_product,
    circulant,
    circulant_family,
    complement,
    complete,
    cone_p4_with_pendant,
    cycle,
    disjoint_union,
    empty,
    hypercube,
    join,
    line_graph,
    make_graph,
    odd_unicyclic,
    path,
    weak_product,
)
from .io import graph_from_json, graph_to_json, load_graph, save_graph
from .linegraph import intertwine_check, path_signless_refutation, pst_transfer_to_line
from .operators import (
    Hamiltonian,
    IncidenceMatrix,
    NotBipartiteError,
    OperatorKind,
    adjacency,
    bipartite_signing,
    degree_matrix,
    incidence,
    normalized_laplacian,
    operator,
    signless_laplacian,
    standard_laplacian,
    weighted_p3,
)
from .partitions import (
    NotAlmostEquitableError,
    NotEquitableError,
    Partition,
    QuotientMatrix,
    check_almost_equitable,
    check_equitable,
    coarsest_equitable_refinement,
    lift_check,
    partition_matrix,
    path_cycle_correspondence,
    quotient,
)
from .pst import (
    CycleScreen,
    PstCertificate,
    complement_closure_check,
    connected_double_cone_refutation,
    cycle_pst_screen,
    double_cone_characterization,
    join_necessary_condition,
    normalized_weak_product_walk_check,
    search_pst,
    verify_pst,
    weak_product_closure_1,
    weak_product_closure_2,
)
from .spectral import (
    EigenDecomposition,
    cartesian_walk_check,
    eigendecompose,
    join_cross_entry,
    join_walk_entry,
    p3_alpha_fidelity,
    p3_alpha_pst_condition,
    walk,
)
from .suites import SUITES, SuiteReport, available_suites, run_suite
