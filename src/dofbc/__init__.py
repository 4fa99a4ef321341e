"""DoF analysis and verified transmission schemes for the two-user broadcast
channel in which only k of the M transmit antennas hold perfect CSI.

The package computes the exact DoF region and sum-DoF bounds, constructs the
achievability schemes as explicit linear transmission plans, and certifies
them with exact generic-rank decodability checks over a prime field plus
finite-SNR rate-slope simulation.
"""

from .channel import (
    ChannelDistribution,
    ChannelRealization,
    field_channel,
    sample_channel,
)
from .config import SystemConfig, normalize_config
from .errors import (
    CapabilityExceededError,
    InvalidConfigError,
    RegimeError,
    ResampleRequiredError,
)
from .precoding import apzf_precoder
from .region import (
    DofPoint,
    LinearConstraint,
    achievable_region,
    analogy_gap,
    pd_sum_dof,
    region_constraints,
    region_vertices,
    sum_dof_lower,
    sum_dof_upper,
)
from .schemes import (
    SymbolRegistry,
    TransmissionPlan,
    build_scheme_6331,
    select_scheme,
)
from .verifier import (
    CertificationResult,
    DecodabilityReport,
    ObservationSystem,
    RateSimConfig,
    achieved_dof,
    csit_compliance,
    decodability_check,
    rate_slope_estimate,
    realize_plan,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityExceededError",
    "CertificationResult",
    "ChannelDistribution",
    "ChannelRealization",
    "DecodabilityReport",
    "DofPoint",
    "InvalidConfigError",
    "LinearConstraint",
    "ObservationSystem",
    "RateSimConfig",
    "RegimeError",
    "ResampleRequiredError",
    "SymbolRegistry",
    "SystemConfig",
    "TransmissionPlan",
    "achievable_region",
    "achieved_dof",
    "analogy_gap",
    "apzf_precoder",
    "build_scheme_6331",
    "csit_compliance",
    "decodability_check",
    "field_channel",
    "normalize_config",
    "pd_sum_dof",
    "rate_slope_estimate",
    "realize_plan",
    "region_constraints",
    "region_vertices",
    "sample_channel",
    "select_scheme",
    "sum_dof_lower",
    "sum_dof_upper",
]
