"""Comparisons of two designs: correlation sweeps and true-effect grids.

Grids and tables evaluate fixed design realisations at many true effect
vectors on the caller's null blocks, one per stage count of one model
(``simulate.null_blocks``); effects enter as mean shifts, so a 49-point
grid costs no simulation and all points share common random numbers.
Every evaluation is a realisation's ``evaluate_grid``: a grid costs one
block pass per realisation, whatever its size; a table of arbitrary
effect vectors, each a grid of one point, costs one pass per vector and
realisation. Each driver returns the engine's own records: the operating
characteristics of every evaluation and the realisations of every search.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Sequence

from .errors import TrialDesignError
from .model import OutcomeModel
from .optimize import DEFAULT_NMAX
from .simulate import SimConfig, StatisticBlock, null_blocks

__all__ = [
    "Sweep",
    "evaluate_at_effects",
    "compare_at_effects",
    "effect_grid",
    "correlation_sweep",
]


class Sweep(NamedTuple):
    """Both searched realisations (A, B) per correlation value; a point is
    None where a search failed, and ``errors`` holds (rho, message) of each."""

    rho_values: tuple
    points: list
    errors: list


def evaluate_at_effects(realisation, block: StatisticBlock, model: OutcomeModel, mu):
    """Operating characteristics of a fixed realisation at true effects mu:
    its effect grid of one point, in one pass over the block."""
    return realisation.evaluate_grid(block, model, [(mu_k,) for mu_k in mu])[0]


def compare_at_effects(realisation_a, realisation_b, model: OutcomeModel,
                       mus: Sequence, blocks: Mapping[int, StatisticBlock]) -> list:
    """(oc_a, oc_b) at each effect vector; ``blocks`` maps a stage count to
    the model's null block, so equal stage counts share one."""
    return [tuple(evaluate_at_effects(real, blocks[real.n_stages], model, mu)
                  for real in (realisation_a, realisation_b)) for mu in mus]


def effect_grid(realisation_a, realisation_b, axes, model: OutcomeModel,
                blocks: Mapping[int, StatisticBlock]) -> list:
    """Cartesian grid of true effects evaluated for two fixed realisations
    on ``blocks`` (stage count -> the model's null block).

    ``axes`` holds one sequence of candidate effect values per outcome;
    the result holds one (point, oc_a, oc_b) per point of the product, in
    row-major order. Each realisation evaluates the whole grid in one
    block pass (``evaluate_grid``).
    """
    axes = tuple(tuple(float(v) for v in axis) for axis in axes)
    if len(axes) != model.n_outcomes:
        raise ValueError("need one grid axis per outcome")
    ocs = [real.evaluate_grid(blocks[real.n_stages], model, axes)
           for real in (realisation_a, realisation_b)]
    return list(zip(itertools.product(*axes), *ocs))


def correlation_sweep(spec_a, spec_b, rho_values, cfg: SimConfig,
                      sigma=1.0, threads: int = 1, nmin: int | None = None,
                      nmax: int = DEFAULT_NMAX, lfc_mode: str = "first-m",
                      strict: bool = False) -> Sweep:
    """Search both designs at each shared correlation; ``sigma`` is a
    scalar or per outcome.

    Each correlation's null blocks are drawn once on ``threads`` workers,
    which also run every pass over them; both searches share the blocks,
    which are dropped before the next correlation. A failed search
    leaves that point None and records its error instead of aborting
    the sweep.
    """
    rho_values = tuple(float(r) for r in rho_values)
    points, errors = [], []

    def search_both(rho: float) -> tuple:
        model = OutcomeModel.equicorrelated(spec_a.n_outcomes, rho, sigma)
        blocks = null_blocks((spec_a.n_stages, spec_b.n_stages), model, cfg, threads)
        return tuple(spec.search(model, blocks[spec.n_stages], nmin=nmin, nmax=nmax,
                                 lfc_mode=lfc_mode, strict=strict)
                     for spec in (spec_a, spec_b))

    for rho in rho_values:
        try:
            points.append(search_both(rho))
        except TrialDesignError as exc:
            points.append(None)
            errors.append((rho, str(exc)))
    return Sweep(rho_values, points, errors)
