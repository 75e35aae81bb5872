"""usynth: optimal probabilistic mixing of unitaries.

Computes best convex mixtures of gate-sequence unitaries approximating a
target unitary channel (half-diamond distance, via SDP), synthesizes
single-qubit unitaries probabilistically with quadratically reduced error,
and evaluates/certifies tight worst-case error bounds.
"""

from .bounds import BoundPoint, axial_optimal, curve_sweep, lower_family, theorem1_bounds, upper_family
from .channels import (
    ChoiOperator,
    choi,
    choi_mixture,
    diamond_distance,
    fidelity,
    optimal_mix,
    trace_distance,
    unitary_distance,
)
from .qubit1 import (
    cap_covering,
    distance_1q,
    magic_embed,
    magic_unembed,
    mix_distance_1q,
    optimal_mix_1q,
    sphere_covering,
    support_filter,
)
from .synth import (
    GateSequence,
    GateSet,
    SynthesisResult,
    campbell_mix,
    det_synth,
    enumerate_sequences,
    prob_synth,
    sample,
    standard_gate_set,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPoint",
    "ChoiOperator",
    "GateSequence",
    "GateSet",
    "SynthesisResult",
    "axial_optimal",
    "campbell_mix",
    "cap_covering",
    "choi",
    "choi_mixture",
    "curve_sweep",
    "det_synth",
    "diamond_distance",
    "distance_1q",
    "enumerate_sequences",
    "fidelity",
    "lower_family",
    "magic_embed",
    "magic_unembed",
    "mix_distance_1q",
    "optimal_mix",
    "optimal_mix_1q",
    "prob_synth",
    "sample",
    "sphere_covering",
    "standard_gate_set",
    "support_filter",
    "theorem1_bounds",
    "trace_distance",
    "unitary_distance",
    "upper_family",
]
