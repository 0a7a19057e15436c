"""netclear: demand, competitive equilibria, and structural verification for
trading networks with imperfectly transferable utility and frictions."""

from .model import (
    PriceVector,
    Trade,
    TradeNetwork,
    build_network,
    net_index,
    partition_bundle,
    terminal_roles,
)
from .utility import (
    INFEASIBLE,
    FirmUtility,
    UtilityProfile,
    check_monotonicity,
    endowment_transform,
    make_quasilinear,
    make_unit_demand,
)
from .expr import parse_expr
from .demand import (
    DemandResult,
    demand_set,
    indirect_utility,
    nib_witness,
)
from .equilibrium import (
    EquilibriumRecord,
    EquilibriumSet,
    extremal_equilibria,
    find_equilibria,
    is_equilibrium,
    lattice_pairs,
    rural_pairs,
    surplus,
    verify_lattice_pair,
    verify_rural_hospitals_pair,
)
from .properties import (
    PropertyReport,
    check_aggregate_law,
    check_bounds,
    check_cross_side,
    check_full_substitutability,
    check_monotone_substitutability,
    check_nib,
    check_same_side,
    check_single_improvement,
    exhaustive_pattern_pairs,
    grid_pattern_pairs,
)
from .mechanisms import (
    MechanismOutcome,
    SearchConfig,
    buyer_optimal_mechanism,
    manipulation_search,
    truncation_reports,
    uplift_reports,
)
from .adapters import (
    ExchangeEconomy,
    MatchingMarket,
    economy_demand,
    economy_equilibrium_check,
    induce_from_exchange,
    induce_from_matching,
    uniform_price_lift,
    uniform_price_project,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
