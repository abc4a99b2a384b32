"""Valley decomposition and metastable aggregation of finite energy landscapes."""

from .aggregation import (
    ExponentMatrix,
    HoldingTimeLaw,
    JumpChainLimit,
    MBReport,
    MetastateSpace,
    StoppingTimes,
    asymptotic_jump_chain,
    escape_exponents,
    exact_jump_distribution,
    exact_valley_transition,
    find_metabasins,
    metastate_space,
    project_trajectory,
    reciprocating_order_test,
    semi_markov_kernel,
    transition_exponents,
    valley_transition_limits,
)
from .chain import (
    HittingQuery,
    TransitionModel,
    build_metropolis,
    expected_hitting_time,
    gamma_beta,
    hitting_probability,
    occupation_distribution,
)
from .filtration import Filtration, local_minima, scoppola_filtration
from .landscape import (
    Landscape,
    LandscapeError,
    ValidationReport,
    canonical,
    gen_random_landscape,
    load_landscape,
    save_landscape,
    validate,
)
from .saddles import (
    PathRecord,
    SaddleTable,
    activation_energy,
    essential_saddle,
    saddle_table,
    sublevel_connected,
    uphill_downhill_path,
)
from .valleys import (
    ValleyDecomposition,
    ValleyTree,
    attracted,
    build_tree,
    connectivity_params,
    decompose_all,
    strict_basin,
)

__version__ = "0.1.0"
