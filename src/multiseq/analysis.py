"""Comparisons of two designs: correlation sweeps and true-effect grids.

Grids and tables evaluate fixed design realisations at many true effect
vectors on the caller's null blocks, one per stage count of one model
(``simulate.null_blocks``); effects enter as mean shifts, so a 49-point
grid costs no simulation and all points share common random numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import TrialDesignError
from .model import OutcomeModel, StageSchedule
from .simulate import SimConfig, StatisticBlock, mean_shift_vector, null_blocks

__all__ = [
    "EffectGrid",
    "RatioCurve",
    "evaluate_at_effects",
    "compare_at_effects",
    "effect_grid",
    "correlation_sweep",
]


@dataclass(frozen=True, eq=False)
class EffectGrid:
    """Rejection probability, ESS and ENM of two designs over a grid of
    true effect vectors, plus the A/B ratios."""

    points: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    ess_a: np.ndarray
    ess_b: np.ndarray
    enm_a: np.ndarray
    enm_b: np.ndarray

    @property
    def ess_ratio(self) -> np.ndarray:
        return self.ess_a / self.ess_b

    @property
    def enm_ratio(self) -> np.ndarray:
        return self.enm_a / self.enm_b


@dataclass(frozen=True, eq=False)
class RatioCurve:
    """ESS and ENM ratios of design A over design B under the LFC, per
    correlation value. Failed search points are marked invalid."""

    rho_values: tuple
    ess_a: np.ndarray
    ess_b: np.ndarray
    enm_a: np.ndarray
    enm_b: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    constant_a: np.ndarray
    constant_b: np.ndarray
    valid: np.ndarray
    errors: tuple

    @property
    def ess_ratio(self) -> np.ndarray:
        return self.ess_a / self.ess_b

    @property
    def enm_ratio(self) -> np.ndarray:
        return self.enm_a / self.enm_b


def evaluate_at_effects(realisation, block: StatisticBlock, model: OutcomeModel,
                        mu, threads: int = 1) -> tuple:
    """(p_reject, ess, enm) of a fixed realisation at true effects mu, in
    one block pass shared by ``threads`` workers."""
    schedule = StageSchedule.equal(realisation.n, realisation.n_stages)
    oc = realisation.evaluate(block, model, mean_shift_vector(mu, schedule, model),
                              threads=threads)
    return oc.p_reject, oc.ess, oc.enm


def compare_at_effects(realisation_a, realisation_b, model: OutcomeModel,
                       mus: Sequence, blocks: Mapping[int, StatisticBlock],
                       threads: int = 1) -> dict:
    """Evaluate both realisations at each effect vector; ``blocks`` maps a
    stage count to the model's null block, so equal stage counts share one."""
    cols = {name: [] for name in ("p_a", "p_b", "ess_a", "ess_b", "enm_a", "enm_b")}
    for mu in mus:
        for tag, realisation in (("a", realisation_a), ("b", realisation_b)):
            p, ess, enm = evaluate_at_effects(realisation, blocks[realisation.n_stages],
                                              model, mu, threads)
            cols[f"p_{tag}"].append(p)
            cols[f"ess_{tag}"].append(ess)
            cols[f"enm_{tag}"].append(enm)
    return {name: np.asarray(vals) for name, vals in cols.items()}


def effect_grid(realisation_a, realisation_b, axes, model: OutcomeModel,
                blocks: Mapping[int, StatisticBlock], threads: int = 1) -> EffectGrid:
    """Cartesian grid of true effects evaluated for two fixed realisations
    on ``blocks`` (stage count -> the model's null block).

    ``axes`` holds one sequence of candidate effect values per outcome;
    rows of the result enumerate the product in row-major order.
    """
    axes = tuple(tuple(float(v) for v in axis) for axis in axes)
    if len(axes) != model.n_outcomes:
        raise ValueError("need one grid axis per outcome")
    points = np.array(list(itertools.product(*axes)), dtype=float)
    cols = compare_at_effects(realisation_a, realisation_b, model, points, blocks,
                              threads=threads)
    assert np.all(cols["ess_b"] > 0) and np.all(cols["enm_b"] > 0)
    return EffectGrid(points=points, **cols)


def correlation_sweep(spec_a, spec_b, rho_values, cfg: SimConfig,
                      sigma=1.0, threads: int = 1, nmin: int | None = None,
                      nmax: int = 400, lfc_mode: str = "first-m",
                      strict: bool = False) -> RatioCurve:
    """Search both designs at each shared correlation and record the ESS
    and ENM ratios under the LFC; ``sigma`` is a scalar or per outcome.

    Each correlation's null blocks are drawn once, shared by both
    searches and dropped before the next correlation. A failed search
    marks that point invalid (NaN) instead of aborting the sweep.
    """
    rho_values = tuple(float(r) for r in rho_values)
    shape = (len(rho_values),)
    out = {name: np.full(shape, np.nan) for name in
           ("ess_a", "ess_b", "enm_a", "enm_b", "n_a", "n_b",
            "constant_a", "constant_b")}
    valid = np.zeros(shape, dtype=bool)
    errors = []

    def search_both(rho: float) -> list:
        model = OutcomeModel.equicorrelated(spec_a.n_outcomes, rho, sigma)
        blocks = null_blocks((spec_a.n_stages, spec_b.n_stages), model, cfg, threads)
        return [spec.search(model, blocks[spec.n_stages], nmin, nmax, threads=threads,
                            lfc_mode=lfc_mode, strict=strict) for spec in (spec_a, spec_b)]

    for i, rho in enumerate(rho_values):
        try:
            real_a, real_b = search_both(rho)
        except TrialDesignError as exc:
            errors.append((rho, str(exc)))
            continue
        for tag, real in (("a", real_a), ("b", real_b)):
            out[f"ess_{tag}"][i] = real.oc_lfc.ess
            out[f"enm_{tag}"][i] = real.oc_lfc.enm
            out[f"n_{tag}"][i] = real.n
            out[f"constant_{tag}"][i] = real.constant
        valid[i] = True
    return RatioCurve(rho_values=rho_values, valid=valid, errors=tuple(errors), **out)
