"""Two-stage drop-the-loser design driven by conditional power.

At the single interim analysis each outcome's conditional power is the
probability of its final statistic clearing the shared rejection
boundary r, given the interim statistic and the greater anticipated
effect. Outcomes below the lower threshold are dropped; the trial stops
early for no-go when too few outcomes could still deliver m successes,
stops early for go when m outcomes are already above the upper
threshold, and otherwise carries at most ``max_retained`` of the most
promising outcomes into the second stage.

The final boundary r is calibrated per candidate sample size (unlike the
group-sequential constant, it depends on n through the information), and
the smallest adequate per-stage n is found by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import ndtr, ndtri

from .model import OutcomeModel, StageSchedule, _as_vector, lfc_effects
from .optimize import smallest_passing, solve_decreasing
from .simulate import SimConfig, StatisticBlock, mean_shift_vector, simulate_null_block

__all__ = [
    "DtLDesignSpec",
    "DtLOperatingCharacteristics",
    "DtLRealisation",
    "conditional_power",
    "invert_cp_boundaries",
    "estimate_dtl_oc",
    "calibrate_r",
    "search_dtl_design",
    "cp_lookup",
]

N_STAGES = 2
DEFAULT_BRACKET = (0.3, 12.0)
DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class DtLDesignSpec:
    """Parameters of the two-stage drop-the-loser design (stages fixed at 2)."""

    n_outcomes: int
    n_promising: int
    max_retained: int
    cp_lower: float
    cp_upper: float
    alpha: float
    beta: float
    delta0: Any
    delta1: Any

    def __post_init__(self):
        if self.n_outcomes < 2:
            raise ValueError("n_outcomes must be >= 2 (one outcome leaves nothing to drop)")
        if not 1 <= self.n_promising <= self.n_outcomes:
            raise ValueError("n_promising must satisfy 1 <= m <= K")
        if not 1 <= self.max_retained < self.n_outcomes:
            raise ValueError("max_retained must satisfy 1 <= K_max < K")
        if not 0.0 <= self.cp_lower < self.cp_upper <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= cp_lower < cp_upper <= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        d0 = tuple(_as_vector(self.delta0, self.n_outcomes, "delta0"))
        d1 = tuple(_as_vector(self.delta1, self.n_outcomes, "delta1"))
        if any(hi < lo for lo, hi in zip(d0, d1)):
            raise ValueError("delta1 must be >= delta0 elementwise")
        object.__setattr__(self, "delta0", d0)
        object.__setattr__(self, "delta1", d1)


@dataclass(frozen=True)
class DtLOperatingCharacteristics:
    """Rejection probability, early-termination probability, ESS and ENM.

    ENM counts n measurements per outcome per stage: all K outcomes in
    stage one, the retained outcomes in stage two.
    """

    p_reject: float
    pet: float
    ess: float
    enm: float


@dataclass(frozen=True, eq=False)
class DtLRealisation:
    spec: DtLDesignSpec
    n: int
    n_total: int
    r: float
    alpha_star: float
    power_star: float
    oc_null: DtLOperatingCharacteristics | None = None
    oc_lfc: DtLOperatingCharacteristics | None = None

    kind = "dtl"
    n_stages = N_STAGES

    @property
    def constant(self) -> float:
        return self.r

    def evaluate(self, block: StatisticBlock, model: OutcomeModel,
                 shift: np.ndarray) -> DtLOperatingCharacteristics:
        """Operating characteristics on a two-stage null block at a
        per-column mean shift."""
        return estimate_dtl_oc(block, self.spec, model, self.r, self.n, shift=shift)


def conditional_power(z, r, info_interim, info_final, effect):
    """Probability of the final statistic exceeding r given the interim
    statistic z and anticipated effect, at the given information levels.

    Broadcasts over array inputs.
    """
    i1 = np.asarray(info_interim, dtype=float)
    i2 = np.asarray(info_final, dtype=float)
    if np.any(i2 <= i1) or np.any(i1 <= 0):
        raise ValueError("information must satisfy 0 < info_interim < info_final")
    z = np.asarray(z, dtype=float)
    gap = i2 - i1
    arg = (z * np.sqrt(i1) - np.asarray(r) * np.sqrt(i2) + gap * np.asarray(effect)) / np.sqrt(gap)
    out = ndtr(arg)
    return float(out) if out.ndim == 0 else out


def invert_cp_boundaries(cp_lower: float, cp_upper: float, r: float,
                         info_interim: float, info_final: float,
                         effect: float) -> tuple:
    """Interim boundaries on the statistic scale whose conditional power
    equals the thresholds.

    A threshold of 0 or 1 maps to -inf / +inf, signalling that the
    corresponding early exit is disabled.
    """
    if not 0.0 <= cp_lower < cp_upper <= 1.0:
        raise ValueError("thresholds must satisfy 0 <= cp_lower < cp_upper <= 1")
    i1, i2 = float(info_interim), float(info_final)
    if not 0 < i1 < i2:
        raise ValueError("information must satisfy 0 < info_interim < info_final")
    gap = i2 - i1

    def bound(threshold: float) -> float:
        # ndtri maps 0 -> -inf and 1 -> +inf, which propagates cleanly
        return float((np.sqrt(gap) * ndtri(threshold) + r * np.sqrt(i2)
                      - gap * effect) / np.sqrt(i1))

    return bound(cp_lower), bound(cp_upper)


def _information(n: int, model: OutcomeModel):
    i1 = n / model.sigma ** 2
    return i1, 2.0 * i1


class _Prepared:
    """Shift-applied block split for repeated evaluation at many r."""

    __slots__ = ("cp_core_sorted", "z2_sorted", "cp_scale", "k", "m",
                 "k_max", "cp_lower", "cp_upper", "nsims")

    def __init__(self, block: StatisticBlock, spec: DtLDesignSpec,
                 model: OutcomeModel, n: int, shift, max_retained):
        if block.n_stages != N_STAGES:
            raise ValueError("drop-the-loser blocks must have exactly two stages")
        if block.n_outcomes != spec.n_outcomes:
            raise ValueError("block and spec disagree on the number of outcomes")
        k = spec.n_outcomes
        values = block.values if shift is None else block.values + np.asarray(shift)[None, :]
        z1, z2 = values[:, :k], values[:, k:]
        i1, i2 = _information(n, model)
        gap = i2 - i1
        # conditional power is ndtr(core - scale * r); with equal stage
        # sizes the scale sqrt(I2)/sqrt(I2-I1) is the same for every
        # outcome, so the CP ranking does not depend on r
        core = (z1 * np.sqrt(i1) + gap * np.asarray(spec.delta1)) / np.sqrt(gap)
        scale = np.sqrt(i2 / gap)
        assert np.allclose(scale, scale[0])
        order = np.argsort(-core, axis=1, kind="stable")
        self.cp_core_sorted = np.take_along_axis(core, order, axis=1)
        self.z2_sorted = np.take_along_axis(z2, order, axis=1)
        self.cp_scale = float(scale[0])
        self.k = k
        self.m = spec.n_promising
        self.k_max = spec.max_retained if max_retained is None else int(max_retained)
        self.cp_lower = spec.cp_lower
        self.cp_upper = spec.cp_upper
        self.nsims = values.shape[0]

    def evaluate(self, r: float) -> DtLOperatingCharacteristics:
        cp = ndtr(self.cp_core_sorted - self.cp_scale * r)
        dropped = (cp < self.cp_lower).sum(axis=1)
        nogo1 = dropped >= (self.k - self.m + 1)
        go1 = ~nogo1 & ((cp > self.cp_upper).sum(axis=1) >= self.m)
        cont = ~(nogo1 | go1)
        eligible = (cp > self.cp_lower).sum(axis=1)
        retained = np.minimum(self.k_max, eligible)
        # columns are sorted by descending CP, so the retained outcomes
        # occupy the leading positions
        in_front = np.arange(self.k)[None, :] < retained[:, None]
        go2 = cont & (((self.z2_sorted > r) & in_front).sum(axis=1) >= self.m)
        pet = float((go1 | nogo1).mean())
        return DtLOperatingCharacteristics(
            p_reject=float((go1 | go2).mean()),
            pet=pet,
            ess=pet + 2.0 * (1.0 - pet),  # in units of n; rescaled by caller
            enm=self.k + float((retained * cont).sum()) / self.nsims,
        )


def _scaled(oc: DtLOperatingCharacteristics, n: int) -> DtLOperatingCharacteristics:
    return DtLOperatingCharacteristics(p_reject=oc.p_reject, pet=oc.pet,
                                       ess=n * oc.ess, enm=n * oc.enm)


def estimate_dtl_oc(block: StatisticBlock, spec: DtLDesignSpec, model: OutcomeModel,
                    r: float, n: int, shift=None,
                    max_retained: int | None = None) -> DtLOperatingCharacteristics:
    """Operating characteristics of the design on a two-stage block.

    ``shift`` is an optional per-column mean shift (length 2K), as
    produced by ``mean_shift_vector`` for the two-stage schedule.
    ``max_retained`` overrides the design's cap; passing K disables dropping,
    which is useful for reduction checks against single-stage designs.
    """
    prep = _Prepared(block, spec, model, n, shift, max_retained)
    return _scaled(prep.evaluate(r), n)


def calibrate_r(null_block: StatisticBlock, spec: DtLDesignSpec, model: OutcomeModel,
                n: int, bracket: tuple = DEFAULT_BRACKET, tol: float = DEFAULT_TOL,
                strict: bool = False) -> tuple:
    """Final rejection boundary hitting the target type-I error rate.

    Unlike the group-sequential constant, r depends on the per-stage n
    through the interim information, so it is recalibrated for every
    candidate n during the sample-size search.
    """
    prep = _Prepared(null_block, spec, model, n, None, None)
    return solve_decreasing(lambda r: prep.evaluate(r).p_reject, spec.alpha,
                            bracket=bracket, tol=tol, strict=strict)


def search_dtl_design(spec: DtLDesignSpec, model: OutcomeModel, cfg: SimConfig,
                      nmin: int, nmax: int, threads: int = 1,
                      lfc_mode: str = "first-m",
                      strict: bool = False) -> DtLRealisation:
    """Smallest per-stage n in [nmin, nmax] meeting the target power.

    Bisection over n after a probe at nmax, recalibrating r at every
    probe and evaluating power at the least favourable configuration on
    the shared block. Power is assumed monotone in n; if the recorded
    probes contradict that (shared-seed jitter), a warning reports both powers.
    """
    if model.n_outcomes != spec.n_outcomes:
        raise ValueError("model and spec disagree on the number of outcomes")
    if not 1 <= nmin < nmax:
        raise ValueError("require 1 <= nmin < nmax")
    block = simulate_null_block(StageSchedule.equal(1, N_STAGES), model, cfg,
                                threads=threads)
    effects = lfc_effects(spec, mode=lfc_mode, sigma=model.sigma)
    probes: dict = {}  # per-stage size -> (r, OC at the LFC)

    def power_at(n: int) -> float:
        r, _ = calibrate_r(block, spec, model, n, strict=strict)
        shift = mean_shift_vector(effects, StageSchedule.equal(n, N_STAGES), model)
        probes[n] = (r, _scaled(_Prepared(block, spec, model, n, shift, None).evaluate(r), n))
        return probes[n][1].p_reject

    n = smallest_passing(power_at, 1.0 - spec.beta, nmin, nmax)
    r, oc_lfc = probes[n]
    oc_null = estimate_dtl_oc(block, spec, model, r, n)
    return DtLRealisation(spec=spec, n=n, n_total=2 * n, r=r,
                          alpha_star=oc_null.p_reject, power_star=oc_lfc.p_reject,
                          oc_null=oc_null, oc_lfc=oc_lfc)


def cp_lookup(spec: DtLDesignSpec, model: OutcomeModel, r: float, n: int,
              z_values) -> list:
    """(outcome, interim statistic, conditional power) rows for reporting.

    Gives investigators the mapping they need at the interim to identify
    which outcomes fall below or above the thresholds.
    """
    i1, i2 = _information(n, model)
    rows = []
    for k in range(spec.n_outcomes):
        for z in np.asarray(z_values, dtype=float):
            cp = conditional_power(float(z), r, i1[k], i2[k], spec.delta1[k])
            rows.append((k + 1, float(z), cp))
    return rows
