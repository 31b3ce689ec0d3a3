"""Co-spectral radii of subgroups from Schreier-graph data.

Core objects: reduced words and wreath normal forms (words), Stallings core
automata (stallings), coset oracles and ball windows (schreier), co-spectral
lower bounds and the cogrowth formula (spectral), finite measure-preserving
graphings (graphing), random subgroup samplers (irs), and the experiment
driver (experiments, cli).
"""

from .errors import BallCapExceeded, ResourceCapError, ValidationError, WindowExceeded
from .words import (
    Word,
    WreathElement,
    parse_word,
    reduce_word,
    wreath_from_word,
)
from .stallings import (
    CogrowthResult,
    EdgeListGraph,
    StallingsAutomaton,
    build_automaton,
    cogrowth_rate,
    fold,
    intersect_automata,
    membership,
    subgroup_index,
)
from .schreier import (
    ComponentSet,
    DoubleCosetEntry,
    ProductOracle,
    SchreierBall,
    StallingsOracle,
    SubgroupOracle,
    count_reduced_returns,
    enumerate_double_cosets,
    folner_defect,
    folner_defect_ids,
    folner_search,
    generate_ball,
    interior_boundary,
    product_oracle,
    reroot,
    trivial_subgroup_oracle,
    whole_group_oracle,
)
from .spectral import (
    SpectralEstimate,
    critical_exponent,
    dirichlet_lower_bound,
    grigorchuk_rho,
)
from .graphing import (
    Graphing,
    OrbitDecomposition,
    PartialMap,
    RokhlinPartition,
    TestFunction,
    embedded_spectral_radius,
    graphing_from_text,
    graphing_to_text,
    mtp_check,
    orbit_decomposition,
    product_test_function,
    rokhlin_partition,
)
from .irs import (
    PercolationSample,
    kernel_to_Z_oracle,
    permutation_stabilizer_oracle,
    sample_bernoulli_percolation,
    sample_to_json,
    wreath_percolation_oracle,
)
from .experiments import (
    ExperimentConfig,
    export,
    load_config,
    parse_oracle_spec,
    run_experiment,
)

__version__ = "0.1.0"
