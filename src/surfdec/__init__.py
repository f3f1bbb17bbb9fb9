"""Surface-code decoding laboratory.

Builds the planar surface code, simulates circuit-level depolarizing noise,
derives space-time decoding graphs with correlated-edge conditional
probabilities from first-principles fault enumeration, and decodes with
standard and iteratively reweighted minimum-weight perfect matching.
"""

from .pauli import PauliOperator, commutation_parity, multiply, weight
from .code import (
    CodeLayout,
    SECircuit,
    build_layout,
    build_se_circuit,
    ideal_syndrome,
)
from .noise import (
    FaultEvent,
    FaultTable,
    NoiseParams,
    SyndromeHistory,
    enumerate_single_faults,
    sample_faults,
    simulate,
)
from .graph import (
    DecodingGraph,
    build_code_capacity_pair,
    build_decoder_graphs,
    build_graph,
    derive_correlations,
)
from .matcher import (
    MatchingResult,
    brute_force_matching,
    events_to_nodes,
    matching_to_correction,
    mwpm,
    shortest_paths,
)
from .irmwpm import (
    IterationTrace,
    MonotonicityError,
    correction_weight,
    decode,
    reweight,
    stopping_criterion,
)
from .experiments import (
    FitParams,
    RateEstimate,
    SimConfig,
    estimate_lifetime,
    estimate_rate,
    fit_scaling,
    run_lifetime_trial,
    run_memory_trial,
    threshold_scan,
    wilson_interval,
)
from .verify import run_verification

__all__ = [
    "PauliOperator",
    "commutation_parity",
    "multiply",
    "weight",
    "CodeLayout",
    "SECircuit",
    "build_layout",
    "build_se_circuit",
    "ideal_syndrome",
    "FaultEvent",
    "FaultTable",
    "NoiseParams",
    "SyndromeHistory",
    "enumerate_single_faults",
    "sample_faults",
    "simulate",
    "DecodingGraph",
    "build_code_capacity_pair",
    "build_decoder_graphs",
    "build_graph",
    "derive_correlations",
    "MatchingResult",
    "brute_force_matching",
    "events_to_nodes",
    "matching_to_correction",
    "mwpm",
    "shortest_paths",
    "IterationTrace",
    "MonotonicityError",
    "correction_weight",
    "decode",
    "reweight",
    "stopping_criterion",
    "FitParams",
    "RateEstimate",
    "SimConfig",
    "estimate_lifetime",
    "estimate_rate",
    "fit_scaling",
    "run_lifetime_trial",
    "run_memory_trial",
    "threshold_scan",
    "wilson_interval",
    "run_verification",
]
