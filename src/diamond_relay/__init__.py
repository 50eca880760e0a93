"""Rates and outer bounds for the half-duplex diamond relay channel.

A source talks to a destination through two half-duplex relays; there is no
direct source-destination link and no relay-relay link. This package computes
the rate of the alternating (successive) relaying schedule, solves the
half-duplex cut-set bound as a small linear program, and checks the algebraic
condition under which the two coincide so the capacity of an instance is known
exactly.
"""

from .channel_model import (
    ChannelSpec,
    LinkCapacities,
    derive_capacities,
    gain_for_capacity,
    induced_capacities,
    link_capacity,
)
from .cutset_lp import CutSetSolution, cut_values, solve_bound
from .errors import (
    ConditionError,
    DegenerateDenominatorError,
    DiamondRelayError,
    DomainError,
    FeasibilityError,
    HypothesisError,
    InvariantError,
    NegativeGapError,
)
from .experiments import (
    Conditioning,
    ExponentialUnitMean,
    LogUniform,
    SweepConfig,
    SweepRecord,
    iter_records,
    run_sweep,
    sample_instance,
    summarize,
    write_records_csv,
    write_summary_json,
)
from .optimality import (
    LemmaCase,
    OptimalityReport,
    PerturbationSpec,
    certify,
    certify_capacities,
    classify,
    perturbation_check,
    predicted_rate,
    product_condition_holds,
    t_star,
)
from .sr_rate import (
    SrRateResult,
    Winner,
    normalized_form,
    sr_rate_closed_form,
    sr_rate_min_form,
    time_fractions,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "ConditionError",
    "Conditioning",
    "CutSetSolution",
    "DegenerateDenominatorError",
    "DiamondRelayError",
    "DomainError",
    "ExponentialUnitMean",
    "FeasibilityError",
    "HypothesisError",
    "InvariantError",
    "LemmaCase",
    "LinkCapacities",
    "LogUniform",
    "NegativeGapError",
    "OptimalityReport",
    "PerturbationSpec",
    "SrRateResult",
    "SweepConfig",
    "SweepRecord",
    "Winner",
    "certify",
    "certify_capacities",
    "classify",
    "cut_values",
    "derive_capacities",
    "gain_for_capacity",
    "induced_capacities",
    "iter_records",
    "link_capacity",
    "normalized_form",
    "perturbation_check",
    "predicted_rate",
    "product_condition_holds",
    "run_sweep",
    "sample_instance",
    "solve_bound",
    "sr_rate_closed_form",
    "sr_rate_min_form",
    "summarize",
    "t_star",
    "time_fractions",
    "write_records_csv",
    "write_summary_json",
    "__version__",
]
