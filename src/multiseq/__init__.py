"""Design search for single-arm trials with K correlated normal outcomes.

Rejection of the null requires m of the K outcomes to show promise
simultaneously. The package calibrates stopping boundaries and finds
minimal sample sizes by seeded Monte Carlo simulation for two design
families: group-sequential m-of-K designs, with the composite-outcome
design (``GSDesignSpec(composite=True)``) as their comparator, and a
two-stage drop-the-loser design that stops measuring poorly performing
outcomes at the interim.
"""

from .errors import (
    CalibrationError,
    ConfigError,
    InfeasibleDesignError,
    TrialDesignError,
)
from .gs import GSDesignSpec, search_gs_design
from .model import OutcomeModel
from .simulate import SimConfig, null_blocks

__version__ = "0.1.0"
