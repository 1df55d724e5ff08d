"""Rate regions for multiparty quantum distributed compression.

Inner-bound polyhedra from entropic constants, outer bounds from
numerically estimated multiparty squashed entanglement, and a Monte
Carlo decoupling simulator, with a CLI front end.
"""

__version__ = "0.1.0"

from .qstate import (  # noqa: F401
    MultipartyState,
    MixtureBranch,
    StateError,
    build_state,
    entropy,
    multiparty_info,
    random_pure_state,
    reduced_state,
)
from .region import (  # noqa: F401
    Membership,
    RatePoint,
    RegionConstants,
    RegionError,
    VRegion,
    check_supermodular,
    corner_point,
    corner_set,
    enumerate_vertices,
    greedy_minimize,
    membership,
    reconstruct_chain,
    region_constants,
)
from .esq import (  # noqa: F401
    EsqBudget,
    EsqEstimate,
    ExtensionChannel,
    binary_entropy,
    classify_rate_point,
    conditional_info_with_extension,
    epsilon_prime,
    esq_upper_bound,
    eta,
    f1,
    outer_bound_constants,
)
from .sim import (  # noqa: F401
    DecouplingCurve,
    decoupling_curve,
    haar_unitary,
    typical_projection,
)
from .statespec import SpecError, StateSpec, parse_state_spec  # noqa: F401
from .hrep import export_h_representation, parse_h_representation  # noqa: F401
