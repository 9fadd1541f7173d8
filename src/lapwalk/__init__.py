"""Continuous-time quantum walks on graphs relative to the adjacency matrix
and the standard, signless, and normalized Laplacians, with tooling to verify
perfect state transfer constructions, closure identities, and negative
results at small scale.
"""

__version__ = "0.1.0"

from .control import (
    UnicyclicReport,
    WalkMatrix,
    exact_rank,
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
from .linegraph import intertwine_check, line_identity, pst_transfer_to_line
from .operators import (
    Hamiltonian,
    OperatorKind,
    adjacency,
    incidence,
    normalized_laplacian,
    operator,
    signless_laplacian,
    standard_laplacian,
)
from .partitions import (
    NotAlmostEquitableError,
    NotEquitableError,
    Partition,
    check_almost_equitable,
    check_equitable,
    coarsest_equitable_refinement,
    quotient,
)
from .pst import (
    CycleScreen,
    IdentityReport,
    PstCertificate,
    complement_closure_check,
    complement_identity,
    connected_double_cone_refutation,
    cycle_pst_screen,
    double_cone_characterization,
    join_necessary_condition,
    join_walk_entry,
    normalized_weak_product_walk_check,
    path_cycle_correspondence,
    search_pst,
    verify_pst,
    walk_entries,
    weak_product_closure_1,
    weak_product_identity,
)
from .spectral import (
    EigenDecomposition,
    cartesian_walk_check,
    eigendecompose,
)
from .suites import SUITES, SuiteReport
