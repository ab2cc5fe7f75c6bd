"""The public surface: every exported name on purpose, removed names gone."""

import oscnet
from oscnet import analytic, census, errors, gaussian, graph

PUBLIC_NAMES = [
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
    "__version__",
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
]


def test_all_is_the_pinned_public_surface():
    assert len(set(oscnet.__all__)) == len(oscnet.__all__)
    for name in oscnet.__all__:
        getattr(oscnet, name)
    assert sorted(oscnet.__all__) == PUBLIC_NAMES


def test_removed_names_stay_removed():
    for module, name in (
        (gaussian, "schur_eliminate"),
        (errors, "EliminationError"),
        (graph, "strata_partition"),
        (census, "extremal_partitions"),
        (analytic, "q_polynomial"),
    ):
        assert not hasattr(module, name)
        assert not hasattr(oscnet, name)
    assert not hasattr(oscnet.PotentialMatrix, "symmetric")
    assert not hasattr(oscnet.Graph, "cut_size")
    assert not hasattr(oscnet.Graph, "to_edge_list")
    v = oscnet.potential_matrix(oscnet.hypercube_graph(1), 0.5)
    assert not hasattr(v, "g")
