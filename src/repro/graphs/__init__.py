"""Graph substrate: generators, structure tests, and quantities from the paper.

Contents
--------
``generators``
    Minor-free graph families (planar grids, triangulations, trees,
    outerplanar, cactus, bounded treewidth) plus ε-far instances (random
    regular expanders) used in the property-testing experiments.
``streaming``
    Edge-block streams (power-law / R-MAT / random-regular) from
    counter-based Philox generators for million-node topologies —
    consumed by ``repro.congest.runtime.compile.compile_edge_stream``.
``minors``
    Planarity / outerplanarity / cactus predicates and a brute-force
    H-minor containment test for small graphs (used by cluster leaders,
    whose local computation is free in the model).
``arboricity``
    Degeneracy orderings, Nash–Williams-style forest decompositions, and
    the Barenboim–Elkin distributed forest-decomposition partition used by
    the paper's error-detection mechanism (Section 6.2).
``conductance``
    Volume / cut / conductance / sparsity (Section 2 definitions), exact
    small-graph conductance, spectral Cheeger bounds, and the minor-free
    degree bound of Lemma 2.7.
``expander_split``
    The expander split G⋄ of Section 2.
``cluster_graph``
    Weighted cluster graphs of vertex partitions (Section 4.1).
"""

from repro.graphs.streaming import (
    QUANTUM,
    materialize_edges,
    stream_powerlaw_edges,
    stream_random_regular_edges,
    stream_rmat_edges,
)
from repro.graphs.generators import (
    bounded_treewidth_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_cactus,
    random_outerplanar,
    random_planar_triangulation,
    random_regular_expander,
    random_tree,
    star_graph,
    subdivide_graph,
    triangulated_grid,
)
from repro.graphs.minors import (
    has_minor,
    is_cactus,
    is_forest,
    is_h_minor_free,
    is_outerplanar,
    is_planar,
)
from repro.graphs.arboricity import (
    acyclic_low_outdegree_orientation,
    barenboim_elkin_partition,
    degeneracy,
    degeneracy_ordering,
    forest_decomposition,
)
from repro.graphs.conductance import (
    conductance,
    conductance_of_set,
    cut_size,
    exact_conductance,
    is_phi_expander,
    minor_free_max_degree_lower_bound,
    mixing_time_bound,
    spectral_conductance_bounds,
    sparsity_of_set,
    volume,
)
from repro.graphs.expander_split import ExpanderSplit, constant_degree_expander
from repro.graphs.cluster_graph import build_cluster_graph
from repro.graphs.cache import PerGraphCache, invalidate_graph_caches
from repro.graphs.stats import GraphStats

__all__ = [
    "QUANTUM",
    "materialize_edges",
    "stream_powerlaw_edges",
    "stream_random_regular_edges",
    "stream_rmat_edges",
    "bounded_treewidth_graph",
    "cycle_graph",
    "grid_graph",
    "path_graph",
    "random_cactus",
    "random_outerplanar",
    "random_planar_triangulation",
    "random_regular_expander",
    "random_tree",
    "star_graph",
    "subdivide_graph",
    "triangulated_grid",
    "has_minor",
    "is_cactus",
    "is_forest",
    "is_h_minor_free",
    "is_outerplanar",
    "is_planar",
    "acyclic_low_outdegree_orientation",
    "barenboim_elkin_partition",
    "degeneracy",
    "degeneracy_ordering",
    "forest_decomposition",
    "conductance",
    "conductance_of_set",
    "cut_size",
    "exact_conductance",
    "is_phi_expander",
    "minor_free_max_degree_lower_bound",
    "mixing_time_bound",
    "spectral_conductance_bounds",
    "sparsity_of_set",
    "volume",
    "ExpanderSplit",
    "constant_degree_expander",
    "build_cluster_graph",
    "GraphStats",
    "PerGraphCache",
    "invalidate_graph_caches",
]
