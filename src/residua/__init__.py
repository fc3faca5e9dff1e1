"""Residual derivatives, cores, boundary posets and CB layers on effective lattices."""

from .errors import (
    BoundTooSmall,
    CycleDetected,
    DimensionMismatch,
    InvalidGroup,
    LatticeIntegrityError,
    NoBottom,
    NotALattice,
    NotBelow,
    NotT1,
    PreconditionFailed,
    ResiduaError,
    TooLarge,
    UnknownElement,
    UnstableVerdict,
)
from .lattice import (
    FiniteLattice,
    FinitePoset,
    as_lattice,
    build_poset,
    canonical_json,
    join_of_set,
    lattice_from_json,
    meet_of_set,
    poset_from_json,
)
from .laws import LawId, LawReport, REGISTRY, all_pass, run_all, run_law
from .residual import (
    OMEGA,
    RankValue,
    ResidualProfile,
    classify_t,
    co_heyting_sub,
    delta_plus,
    maximal_subelements,
    mu_iterates,
    outcasts,
    relative_strata,
    residual_derivative,
    residual_profile,
)
from .testbed import INF, OrdinalCoframe, fmt_vec, parse_vec
from .topology import (
    CBSequence,
    FiniteTopology,
    cb_sequence,
    check_order_compatible,
    dual_lawson,
    residual_equals_cb_closedsets,
)

__version__ = "0.1.0"
