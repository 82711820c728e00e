"""Latin hypercubes with restricted transversals: constructions, deviation
analysis, exact search, dimension boosting and order dilation."""

from .groups import AbelianGroup, cyclic_group, parse_group
from .hypercube import (
    Diagonal,
    Entry,
    FormatError,
    Hypercube,
    LatinValidationError,
    PlaneSpec,
    apply_isotopy,
    cyclic,
    is_latin,
    line,
    load,
    parse,
    save,
    serialize,
    subcube,
)
from .delta import DeltaProfile, delta, delta_sum, is_suitable, profile, suitable_target
from .search import (
    BudgetExhausted,
    Census,
    SearchBudget,
    bachelor_cells,
    count_diagonals,
    count_transversals,
    enumerate_diagonals,
    enumerate_transversals,
    hill_climb_decomposition,
    hitting_set_check,
    max_disjoint_transversals,
    transversal_through,
)
from .extension import (
    ExtensionMap,
    Quasigroup,
    constant_to_transversal_fibre,
    fibre,
    g_extension,
    hall_pair,
    iterated_decomposition,
    iterated_hypercube,
    lift_diagonal,
    lift_family,
    project,
    quasi_extend,
    symbol_classes,
    transversal_through_fibre,
    transversal_to_constant_fibre,
)
from .dilation import dilate, dilrect_condition, extend_partial_in_support, psi, transfer_hitting_set

__version__ = "0.1.0"
