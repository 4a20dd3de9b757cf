"""Exact counting and enumeration of separation-constrained k-subsets.

Counts k-subsets of n objects on a line or a circle such that no two
chosen objects have exactly m-1, 2m-1, ..., pm-1 objects between them
(equivalently: no pairwise distance is m, 2m, ..., pm; on the circle both
arcs count).  Everything is exact integer/rational arithmetic, every
formula is cross-checked against a brute-force oracle, and an audit
subsystem sweeps each identity over parameter grids.
"""

from .binomials import binom_gen, binom_nat, falling_factorial
from .counting import (
    CountQuery,
    SeparationParams,
    Topology,
    count_query,
    g_closed,
    g_alternating,
    g_composition,
    g_from_h,
    g_recurrence,
    g_series,
    h_closed_1,
    h_closed_2,
    h_closed_3,
    h_composition,
    h_composition_row,
    h_from_g,
    h_recurrence,
    h_series,
)
from .omega_phi import (
    OmegaQuery,
    SingularTermError,
    compositions,
    gould_check,
    hwang_wei_check,
    omega_closed_1,
    omega_closed_2,
    omega_closed_3,
    omega_direct,
    phi_closed,
    phi_direct,
)
from .oracle import (
    DEFAULT_CAP,
    EnumerationCapError,
    count_brute,
    count_brute_row,
    is_separate_circle,
    is_separate_line,
    kernel_backend,
    list_brute,
)
from .series import PowerSeries, phi_residue
from .audit import (
    AuditReport,
    GridSpec,
    IdentityId,
    bijection_count_check,
    run_audit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "binom_nat",
    "binom_gen",
    "falling_factorial",
    "PowerSeries",
    "phi_residue",
    "h_series",
    "g_series",
    "Topology",
    "SeparationParams",
    "CountQuery",
    "compositions",
    "count_query",
    "h_composition",
    "h_composition_row",
    "h_closed_1",
    "h_closed_2",
    "h_closed_3",
    "g_closed",
    "g_composition",
    "g_from_h",
    "OmegaQuery",
    "SingularTermError",
    "omega_direct",
    "omega_closed_1",
    "omega_closed_2",
    "omega_closed_3",
    "phi_direct",
    "phi_closed",
    "hwang_wei_check",
    "gould_check",
    "DEFAULT_CAP",
    "EnumerationCapError",
    "count_brute",
    "count_brute_row",
    "list_brute",
    "is_separate_line",
    "is_separate_circle",
    "kernel_backend",
    "IdentityId",
    "GridSpec",
    "AuditReport",
    "run_audit",
    "h_recurrence",
    "g_recurrence",
    "g_alternating",
    "h_from_g",
    "bijection_count_check",
]
