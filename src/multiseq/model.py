"""Domain types: outcome model, stage schedules, stopping boundaries and
least favourable configurations.

A trial measures K correlated normal outcomes on every participant. At
analysis j the standardized statistic for outcome k is the running mean
scaled by the square root of its information N_j / sigma_k**2, so under
the null every statistic is standard normal and the joint distribution
over stages and outcomes is multivariate normal: the outcomes'
correlation within a stage, and independent increments across stages
(``simulate.simulate_null_block`` draws it that way).

Statistics are laid out stage-major throughout the package: column
(j - 1) * K + (k - 1) holds outcome k at stage j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "OutcomeModel",
    "StageSchedule",
    "Boundaries",
    "wang_tsiatis_boundaries",
    "lfc_effects",
    "lfc_working_indices",
]

# Eigenvalues above this (negative) floor are treated as rounding noise;
# anything below means the correlation matrix is genuinely invalid.
_PSD_TOL = 1e-8


def _as_vector(x, k: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-d sequence")
    if arr.size == 1 and k > 1:
        arr = np.repeat(arr, k)
    if arr.size != k:
        raise ValueError(f"{name} must have length {k}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_spec(spec) -> None:
    """The m, error-rate and effect checks of a spec of either design
    family; stores delta0 and delta1 as tuples of K floats."""
    if not 1 <= spec.n_promising <= spec.n_outcomes:
        raise ValueError("n_promising must satisfy 1 <= m <= K")
    if not 0.0 < spec.alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < spec.beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    d0 = tuple(_as_vector(spec.delta0, spec.n_outcomes, "delta0"))
    d1 = tuple(_as_vector(spec.delta1, spec.n_outcomes, "delta1"))
    if any(hi < lo for lo, hi in zip(d0, d1)):
        raise ValueError("delta1 must be >= delta0 elementwise")
    object.__setattr__(spec, "delta0", d0)
    object.__setattr__(spec, "delta1", d1)


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """True means, standard deviations and correlation of the K outcomes.

    ``rho`` may be a scalar (shared correlation between all pairs) or a
    full K x K matrix. Instances are immutable and safe to share across
    workers.
    """

    sigma: Any
    rho: Any

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        k = sigma.size
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ValueError("sigma must be strictly positive and finite")
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim == 0:
            full = np.full((k, k), float(rho))
            np.fill_diagonal(full, 1.0)
            rho = full
        if rho.shape != (k, k):
            raise ValueError(f"rho must be {k}x{k}, got {rho.shape}")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise ValueError("rho must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
            raise ValueError("rho must have unit diagonal")
        off = rho[~np.eye(k, dtype=bool)]
        if off.size and (off.min() < -1.0 or off.max() > 1.0):
            raise ValueError("off-diagonal correlations must lie in [-1, 1]")
        if k > 1 and np.linalg.eigvalsh(rho).min() < -_PSD_TOL:
            raise ValueError("rho must be positive semidefinite")
        for name, arr in (("sigma", sigma), ("rho", rho)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_outcomes(self) -> int:
        return self.sigma.size

    @classmethod
    def equicorrelated(cls, n_outcomes: int, rho: float, sigma: Any = 1.0) -> "OutcomeModel":
        return cls(sigma=_as_vector(sigma, n_outcomes, "sigma"), rho=float(rho))


@dataclass(frozen=True)
class StageSchedule:
    """Per-stage sample sizes and their cumulative totals.

    The design search always uses equal stage sizes; general sizes are
    accepted so the drawn increments can be tested against them.
    """

    stage_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.stage_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("stage sizes must be positive integers")
        object.__setattr__(self, "stage_sizes", sizes)

    @classmethod
    def equal(cls, n: int, n_stages: int) -> "StageSchedule":
        return cls(stage_sizes=(int(n),) * int(n_stages))

    @property
    def n_stages(self) -> int:
        return len(self.stage_sizes)

    @property
    def cumulative(self) -> np.ndarray:
        """Cumulative sample sizes N_j, strictly increasing."""
        return np.cumsum(np.asarray(self.stage_sizes, dtype=float))


@dataclass(frozen=True)
class Boundaries:
    """Lower (futility) and upper (efficacy) stopping boundaries per stage.

    The final lower boundary equals the final upper boundary so that a
    decision is forced at the last stage.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lower = tuple(float(x) for x in self.lower)
        upper = tuple(float(x) for x in self.upper)
        if len(lower) != len(upper) or not lower:
            raise ValueError("lower and upper must have equal positive length")
        if any(lo > up for lo, up in zip(lower, upper)):
            raise ValueError("lower boundary must not exceed upper boundary")
        if lower[-1] != upper[-1]:
            raise ValueError("final-stage boundaries must coincide")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_stages(self) -> int:
        return len(self.upper)


def wang_tsiatis_boundaries(constant: float, n_stages: int, wt_delta: float = 0.0) -> Boundaries:
    """Boundaries e_j = C * j**(delta - 0.5), f_j = -e_j, with f_J = e_J."""
    if constant <= 0:
        raise ValueError("constant must be positive")
    j = np.arange(1, n_stages + 1, dtype=float)
    upper = constant * j ** (wt_delta - 0.5)
    lower = -upper
    lower[-1] = upper[-1]
    return Boundaries(lower=tuple(lower), upper=tuple(upper))


def lfc_working_indices(spec, mode: str = "first-m", sigma=None) -> tuple:
    """Indices (0-based) of the m outcomes of a spec of either design family
    placed at their greater effect."""
    m = spec.n_promising
    if mode == "first-m":
        return tuple(range(m))
    if mode == "smallest-standardized":
        sigma = np.ones(spec.n_outcomes) if sigma is None else \
            _as_vector(sigma, spec.n_outcomes, "sigma")
        standardized = np.asarray(spec.delta1) / sigma
        # stable sort breaks ties toward the lower outcome index
        order = np.argsort(standardized, kind="stable")
        return tuple(sorted(int(i) for i in order[:m]))
    raise ValueError(f"unknown LFC mode: {mode!r}")


def lfc_effects(spec, mode: str = "first-m", sigma=None) -> np.ndarray:
    """Least favourable configuration: exactly m outcomes at their greater
    anticipated effect, the rest at their lower anticipated effect."""
    working = lfc_working_indices(spec, mode, sigma)
    effects = np.asarray(spec.delta0, dtype=float).copy()
    d1 = np.asarray(spec.delta1, dtype=float)
    for i in working:
        effects[i] = d1[i]
    return effects
