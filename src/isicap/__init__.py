"""Capacity and achievable rates for 1-bit output-quantized ISI channels.

The channel model is a circular convolution followed by a sign quantizer
with threshold margin delta.  The package computes the exact per-pattern
minimum transmit energies, the Gibbs maximum-entropy capacity under an
average power constraint, the rates of a zero-forcing Markov signaling
scheme, and a Monte-Carlo validation of the noisy-channel error bound.
"""

from .channel import (
    ChannelOperators,
    ChannelSpec,
    apply_channel,
    apply_inverse,
    build_operators,
    frequency_response,
    quantize,
)
from .energy import (
    EnergyProfile,
    EnergySolution,
    analytic_energy,
    code_from_pattern,
    energy,
    enumerate_profile,
    mean_energy_trace,
    pattern_from_code,
    solve_energy_qp,
)
from .exceptions import (
    DimensionMismatch,
    InfeasiblePower,
    IsicapError,
    NoConvergence,
    NotDiagonallyDominant,
    QuadratureFailure,
    SingularChannel,
    TooLarge,
)
from .gibbs import (
    GibbsSolution,
    Regime,
    avg_energy,
    capacity,
    capacity_curve,
    log_partition,
    solve_beta,
)
from .markov import (
    MarkovScheme,
    achievable_rate,
    achievable_rate_detail,
    correlation,
    entropy_rate_bits,
    power_asymptotic,
    power_finite_n,
    power_two_tap_closed_form,
    rate_two_tap_closed_form,
)
from .simulate import (
    NoisySimConfig,
    SimReport,
    q_function,
    simulate_zero_forcing,
)
from .spectral import (
    inverse_spectrum_coeffs,
    pbar_asymptotic,
    pbar_two_tap,
    pmin_two_tap,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelOperators",
    "ChannelSpec",
    "DimensionMismatch",
    "EnergyProfile",
    "EnergySolution",
    "GibbsSolution",
    "InfeasiblePower",
    "IsicapError",
    "MarkovScheme",
    "NoConvergence",
    "NoisySimConfig",
    "NotDiagonallyDominant",
    "QuadratureFailure",
    "Regime",
    "SimReport",
    "SingularChannel",
    "TooLarge",
    "achievable_rate",
    "achievable_rate_detail",
    "analytic_energy",
    "apply_channel",
    "apply_inverse",
    "avg_energy",
    "build_operators",
    "capacity",
    "capacity_curve",
    "code_from_pattern",
    "correlation",
    "energy",
    "entropy_rate_bits",
    "enumerate_profile",
    "frequency_response",
    "inverse_spectrum_coeffs",
    "log_partition",
    "mean_energy_trace",
    "pattern_from_code",
    "pbar_asymptotic",
    "pbar_two_tap",
    "pmin_two_tap",
    "power_asymptotic",
    "power_finite_n",
    "power_two_tap_closed_form",
    "q_function",
    "quantize",
    "rate_two_tap_closed_form",
    "simulate_zero_forcing",
    "solve_beta",
    "solve_energy_qp",
]
