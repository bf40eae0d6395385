"""Design search for single-arm trials with K correlated normal outcomes.

Rejection of the null requires m of the K outcomes to show promise
simultaneously. The package calibrates stopping boundaries and finds
minimal sample sizes by seeded Monte Carlo simulation for two design
families: group-sequential m-of-K designs, with the composite-outcome
design (``GSDesignSpec(composite=True)``) as their comparator, and a
two-stage drop-the-loser design that stops measuring poorly performing
outcomes at the interim.
"""

from .analysis import (
    EffectGrid,
    RatioCurve,
    correlation_sweep,
    effect_grid,
    identified_power,
    search_design,
)
from .dtl import (
    DtLDesignSpec,
    DtLOperatingCharacteristics,
    DtLRealisation,
    calibrate_r,
    conditional_power,
    estimate_dtl_oc,
    invert_cp_boundaries,
    search_dtl_design,
)
from .errors import (
    CalibrationError,
    ConfigError,
    InfeasibleDesignError,
    InvalidCorrelationError,
    TrialDesignError,
)
from .gs import (
    DesignRealisation,
    GSOperatingCharacteristics,
    calibrate_c,
    composite_transform,
    estimate_gs_oc,
    search_gs_design,
)
from .model import (
    Boundaries,
    GSDesignSpec,
    OutcomeModel,
    StageSchedule,
    assemble_covariance,
    lfc_effects,
    lfc_working_indices,
    wang_tsiatis_boundaries,
)
from .simulate import (
    SimConfig,
    StatisticBlock,
    cholesky_factor,
    mean_shift_vector,
    null_blocks,
    simulate_null_block,
)

__version__ = "0.1.0"
