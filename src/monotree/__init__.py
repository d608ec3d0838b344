"""Covering 3-edge-coloured graphs with at most three monochromatic trees.

Library surface: seeded graph sampling and colourings, single-colour
component structure, the connectivity closure and its independence
trichotomy, the tripartite component hypergraph with exact cover/matching
numbers and bipartite matching machinery, the constructive cover solver
with proof traces, regularity diagnostics, and a deterministic experiment
harness.  The `monotree` CLI exposes the same pipeline on text-format
instances.
"""

from .components import (
    AlphaClass,
    ComponentLabelling,
    alpha_class,
    monochromatic_components,
    shortcut_graph,
)
from .experiment import (
    CSV_HEADER,
    CellSummary,
    ExperimentConfig,
    TrialRecord,
    probe_threshold,
    run_trial,
)
from .graphs import (
    COLOURS,
    Colour,
    ColouredGraph,
    GraphFormatError,
    SimpleGraph,
    colour_random,
    colour_three_stars,
    dumps,
    first_nonadjacent_triple,
    generate_gnp,
    load,
    loads,
    store,
)
from .hypergraph import (
    BipartiteGraph,
    CompRef,
    ComponentHypergraph,
    build_component_hypergraph,
    konig_cover,
    link_union,
    max_matching_bipartite,
    nu_exact,
    tau_exact,
)
from .pseudorandom import (
    CheckOutcome,
    CheckReport,
    PseudorandomConfig,
    check_common_neighbourhoods,
    check_degrees,
    check_edge_density,
)
from .rng import SplitMix64, derive_seed
from .solver import (
    BRANCHES,
    TraceReport,
    Tree,
    TreeCover,
    components_to_trees,
    egp_partition_search,
    solve_cover,
    strategy_alpha2,
    strategy_alpha_ge3,
    verify_cover,
)

__version__ = "0.1.0"
