"""Quantifies how fragmenting exposure to heavy-tailed errors reduces expected
harm under convex loss, and applies the model to data-center fabrics
(3-tier vs spine-leaf) via fault-domain simulation, growth curves, and cost
comparison."""

__version__ = "0.1.0"

from .harm import FragmentWeights, HarmParams, fragmented_harm, harm, jensen_gap, survival_comparison
from .pareto import (
    ParetoParams,
    degradation_curve,
    degradation_ratio,
    fragment_harm_density,
    mc_tail_mean,
    pareto_density,
    pareto_quantile,
    pareto_sample,
    tail_mean,
)
from .topology import (
    Device,
    FailureModel,
    Topology,
    affected_fraction,
    build_spine_leaf,
    build_three_tier,
    failure_harm_mc,
    hop_histogram,
    inject_failures,
    parse_topology,
    serialize_topology,
)
from .growth import GrowthSpec, capacity_at, crossover, erf_value
from .costing import CostAssumptions, compare_designs
from .report import ScenarioReport

__all__ = [
    "HarmParams",
    "FragmentWeights",
    "harm",
    "fragmented_harm",
    "jensen_gap",
    "survival_comparison",
    "ParetoParams",
    "pareto_density",
    "pareto_quantile",
    "pareto_sample",
    "fragment_harm_density",
    "tail_mean",
    "mc_tail_mean",
    "degradation_ratio",
    "degradation_curve",
    "Device",
    "Topology",
    "FailureModel",
    "build_three_tier",
    "build_spine_leaf",
    "hop_histogram",
    "inject_failures",
    "affected_fraction",
    "failure_harm_mc",
    "serialize_topology",
    "parse_topology",
    "GrowthSpec",
    "erf_value",
    "capacity_at",
    "crossover",
    "CostAssumptions",
    "compare_designs",
    "ScenarioReport",
]
