"""Entanglement entropy of Gaussian ground states on oscillator networks.

Identical oscillators sit on the vertices of a graph and are coupled along
its edges; the ground state of the quadratic Hamiltonian is a Gaussian pure
state fixed by the potential matrix V = I + 2gL.  This package computes the
bipartite entanglement entropy of that state: a fast whitened-coupling
engine, an independent symplectic-eigenvalue oracle, exact closed forms for
the structured cuts of the binary hypercube, and exhaustive censuses over
all equal bipartitions of small graphs.
"""

from .analytic import (
    analytic_entropy,
    gamma_half_strata,
    gamma_hyperplane_cut,
    gamma_identity_cut,
    gamma_parity_cut,
)
from .census import (
    CensusReport,
    EntropyClass,
    entropy_census,
)
from .errors import (
    ConsistencyError,
    DefinitenessError,
    DomainError,
    EdgeListError,
    GraphSizeError,
    OscnetError,
    SchemeError,
    SingularityError,
)
from .gaussian import (
    Mode,
    ModeSpectrum,
    SchmidtSpectrum,
    coset_cut_oracle,
    coset_cut_spectrum,
    entropy_from_nu,
    entropy_of_bipartition,
    entropy_oracle_symplectic,
    gamma_spectrum,
    nu_from_gamma,
    schmidt_spectrum,
)
from .graph import (
    Bipartition,
    Graph,
    PotentialMatrix,
    graph_from_edge_list,
    graph_from_uri,
    hamming_weights,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)
from .stratify import (
    block_table,
    hypercube_spectrum,
    krawtchouk,
    spin_x_block,
    stratified_adjacency,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CensusReport",
    "ConsistencyError",
    "DefinitenessError",
    "DomainError",
    "EdgeListError",
    "EntropyClass",
    "Graph",
    "GraphSizeError",
    "Mode",
    "ModeSpectrum",
    "OscnetError",
    "PotentialMatrix",
    "SchemeError",
    "SchmidtSpectrum",
    "SingularityError",
    "analytic_entropy",
    "block_table",
    "coset_cut_oracle",
    "coset_cut_spectrum",
    "entropy_census",
    "entropy_from_nu",
    "entropy_of_bipartition",
    "entropy_oracle_symplectic",
    "gamma_half_strata",
    "gamma_hyperplane_cut",
    "gamma_identity_cut",
    "gamma_parity_cut",
    "gamma_spectrum",
    "graph_from_edge_list",
    "graph_from_uri",
    "hamming_weights",
    "hypercube_graph",
    "hypercube_spectrum",
    "krawtchouk",
    "named_bipartition",
    "nu_from_gamma",
    "potential_matrix",
    "schmidt_spectrum",
    "spin_x_block",
    "stratified_adjacency",
    "__version__",
]
