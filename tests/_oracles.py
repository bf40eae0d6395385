"""Independent estimators and scalar reference evaluators used as
oracles by the test suite.

The estimators avoid the package's simulation path: a different
generator family (PCG64 vs SFC64), a different factorization (SVD vs
Cholesky), and direct counting. The row evaluators and
``covariance_entry`` work one trial or one entry at a time, as checks on
the package's vectorised code; ``linear_scan_n`` probes every sample
size in turn, as a check on the bracketed sample-size search;
``decide_rows`` applies the group-sequential rule row-wise with axis
sums over a (rows, J, K) view, as a check on the column-wise count
kernel. ``DtLBlockRule`` applies the drop-the-loser rule through
conditional power at one r over a shifted copy of the whole block, as a
check on the exact go-limit calibration and the chunked drop-the-loser
pass. ``cp_lookup_rows`` computes the
conditional-power lookup one (outcome, z) at a time, as a check on the
per-outcome array call in ``dtl.cp_lookup``. ``invert_cp_boundaries``
maps the conditional-power thresholds of one outcome to interim
boundaries on the statistic scale, as a check on the thresholds in r
that ``dtl._Rule`` derives. ``sorted_go_limits`` derives each row's go
limit with a stable row-wise sort, as a check on the column-wise
go-limit kernel of ``dtl._Rule``; ``oc_from_limits`` turns those limits
into the operating characteristics at one r, as a check on its count
kernel at ties. ``bisection_n`` probes nmax and then bisects, as a check
on the interpolating sample-size search. ``rows_at_least`` and
``rows_at_most`` find a row count for a rate by stepping from a rounded
guess, as checks on ``optimize.row_count``.
``step_boundary`` evaluates the rejection
rate on every step between event values by direct counting, as a check
on the exact interval calibration. ``increment_null_block`` correlates
each chunk's stage increments in stacked multiplies and sums them with
``np.cumsum``, as a check on the running sums of ``simulate_null_block``;
``assemble_covariance`` gives the J*K covariance that its rows estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from scipy.special import ndtr, ndtri

from multiseq.dtl import DtLDesignSpec, DtLOperatingCharacteristics, conditional_power
from multiseq.gs import GSDesignSpec, estimate_gs_oc
from multiseq.model import Boundaries, OutcomeModel, StageSchedule
from multiseq.simulate import (
    SUB_BLOCK_ROWS,
    SimConfig,
    cholesky_factor,
    mean_shift_vector,
    simulate_null_block,
)


def direct_rejection_estimate(mean, corr, threshold, m, nsims, seed,
                              chunk=250_000):
    """P(at least m coordinates of MVN(mean, corr) exceed threshold),
    estimated by streaming direct simulation."""
    mean = np.asarray(mean, dtype=float)
    corr = np.asarray(corr, dtype=float)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < nsims:
        size = min(chunk, nsims - done)
        draws = rng.multivariate_normal(mean, corr, size=size, method="svd")
        hits += int(((draws > threshold).sum(axis=1) >= m).sum())
        done += size
    return hits / nsims


def engine_empirical_covariance(schedule: StageSchedule, model: OutcomeModel,
                                nsims_total, seed, block_size=1_000_000):
    """Empirical covariance of engine-simulated statistics, accumulated
    over independently seeded blocks so arbitrarily many replications
    never materialise at once."""
    dim = schedule.n_stages * model.n_outcomes
    acc = np.zeros((dim, dim))
    done = 0
    i = 0
    while done < nsims_total:
        size = min(block_size, nsims_total - done)
        block = simulate_null_block(schedule, model,
                                    SimConfig(seed=seed + i, nsims=size))
        acc += block.values.T @ block.values
        done += size
        i += 1
    return acc / done


def increment_null_block(schedule: StageSchedule, model: OutcomeModel,
                         cfg: SimConfig) -> np.ndarray:
    """The null block built from its stage increments in whole arrays.

    Chunk c draws the SFC64 stream keyed by (cfg.seed, c) in the worker's
    order: per sub-block of SUB_BLOCK_ROWS rows, one (J, K, rows) array, the
    J stages' (K, rows) normals in turn. One stacked multiply per sub-block
    gives every stage's increment, and np.cumsum over the stages, scaled by
    1/sqrt(N_j), gives the statistics."""
    k, stages = model.n_outcomes, schedule.n_stages
    factors = np.sqrt(np.asarray(schedule.stage_sizes, dtype=float))[:, None, None] \
        * cholesky_factor(model.rho)
    scales = 1.0 / np.sqrt(schedule.cumulative)
    out = np.empty((cfg.nsims, stages * k))
    for start in range(0, cfg.nsims, cfg.chunk_size):
        rows = min(cfg.chunk_size, cfg.nsims - start)
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(start // cfg.chunk_size,))
        rng = np.random.Generator(np.random.SFC64(seq))
        increments = np.empty((stages, k, rows))
        for a in range(0, rows, SUB_BLOCK_ROWS):
            b = min(a + SUB_BLOCK_ROWS, rows)
            increments[:, :, a:b] = factors @ rng.standard_normal((stages, k, b - a))
        z = np.cumsum(increments, axis=0) * scales[:, None, None]
        out[start:start + rows] = z.reshape(stages * k, rows).T
    return out


def participant_level_statistics(model: OutcomeModel, schedule: StageSchedule,
                                 mu, n_trials, seed):
    """Standardized statistics built from simulated participant responses.

    Returns an (n_trials, J*K) stage-major array: for each trial the
    running outcome means at the cumulative sample sizes, scaled by
    sqrt(N_j) / sigma_k.
    """
    rng = np.random.default_rng(seed)
    cov = model.rho * np.outer(model.sigma, model.sigma)
    total = int(schedule.cumulative[-1])
    x = rng.multivariate_normal(np.asarray(mu, dtype=float), cov,
                                size=(n_trials, total), method="svd")
    out = np.empty((n_trials, schedule.n_stages * model.n_outcomes))
    running = x.cumsum(axis=1)
    for j, n_j in enumerate(schedule.cumulative):
        n_j = int(n_j)
        means = running[:, n_j - 1, :] / n_j
        cols = slice(j * model.n_outcomes, (j + 1) * model.n_outcomes)
        out[:, cols] = means * np.sqrt(n_j) / model.sigma[None, :]
    return out


def assemble_covariance(schedule: StageSchedule, model: OutcomeModel) -> np.ndarray:
    """Full (J*K) x (J*K) covariance of the statistics, stage-major layout:
    rho[k, k'] * sqrt(N_min / N_max) between outcome k at one stage and k'
    at another."""
    cum = schedule.cumulative
    stage_part = np.sqrt(np.minimum.outer(cum, cum) / np.maximum.outer(cum, cum))
    return np.kron(stage_part, model.rho)


def analytic_covariance(schedule: StageSchedule, model: OutcomeModel):
    return assemble_covariance(schedule, model)


@dataclass(frozen=True)
class TrialPath:
    """Reduced outcome of one simulated trial."""

    decision: Literal["go", "nogo"]
    stop_stage: int


def evaluate_gs_row(row, boundaries: Boundaries, n_promising: int) -> TrialPath:
    """Scan one row of stage-major statistics to its earliest decision.

    Comparisons are strict: a statistic equal to a boundary counts as
    neither above nor below. The final stage forces go when m statistics
    exceed the shared boundary and no-go otherwise.
    """
    row = np.asarray(row, dtype=float)
    n_stages = boundaries.n_stages
    if row.size % n_stages:
        raise ValueError("row length is not a multiple of the stage count")
    k = row.size // n_stages
    m = n_promising
    stages = row.reshape(n_stages, k)
    for j in range(n_stages):
        above = int((stages[j] > boundaries.upper[j]).sum())
        if j == n_stages - 1:
            return TrialPath("go" if above >= m else "nogo", j + 1)
        if above >= m:
            return TrialPath("go", j + 1)
        below = int((stages[j] < boundaries.lower[j]).sum())
        if below >= k - m + 1:
            return TrialPath("nogo", j + 1)
    raise AssertionError("unreachable: final stage forces a decision")


def evaluate_dtl_row(stage1, stage2, spec: DtLDesignSpec, r: float,
                     info_interim, info_final,
                     max_retained: int | None = None) -> tuple:
    """Trace one simulated trial through the interim and final rules.

    Returns (decision, retained_count) where decision is one of
    "nogo-interim", "go-interim", "go-final", "nogo-final" and
    retained_count is the stage-two outcome count (0 on an early stop).
    No-go is checked before go at the interim; the two cannot co-occur
    while cp_lower < cp_upper.
    """
    k = spec.n_outcomes
    m = spec.n_promising
    k_max = spec.max_retained if max_retained is None else max_retained
    stage1 = np.asarray(stage1, dtype=float)
    stage2 = np.asarray(stage2, dtype=float)
    if stage1.size != k or stage2.size != k:
        raise ValueError(f"stage statistics must have length {k}")
    cp = conditional_power(stage1, r, info_interim, info_final,
                           np.asarray(spec.delta1))
    if int((cp < spec.cp_lower).sum()) >= k - m + 1:
        return "nogo-interim", 0
    if int((cp > spec.cp_upper).sum()) >= m:
        return "go-interim", 0
    eligible = cp > spec.cp_lower
    retained_count = min(k_max, int(eligible.sum()))
    # stable sort on -cp: largest conditional power first, ties to the
    # lower outcome index
    order = np.argsort(-cp, kind="stable")
    retained = order[:retained_count]
    hits = int((stage2[retained] > r).sum())
    return ("go-final" if hits >= m else "nogo-final"), retained_count


def cp_lookup_rows(spec: DtLDesignSpec, model: OutcomeModel, r: float, n: int,
                   z_values) -> list:
    """(outcome, z, conditional power) rows, one scalar call per row."""
    i1 = n / np.asarray(model.sigma) ** 2
    i2 = 2.0 * i1
    rows = []
    for k in range(spec.n_outcomes):
        for z in np.asarray(z_values, dtype=float):
            cp = conditional_power(float(z), r, i1[k], i2[k], spec.delta1[k])
            rows.append((k + 1, float(z), cp))
    return rows


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


def sorted_go_limits(rule, rows) -> tuple:
    """(t_go, e, U) of each row of ``rows`` under a ``dtl._Rule``, with e
    sorted by descending core: a stable row-wise argsort of the cores,
    then M_j as an ``np.partition`` of the first j stage-two statistics."""
    k, m = rule.k, rule.m
    core = (rows[:, :k] * rule.sqrt_i1 + rule.drift) / rule.sqrt_gap
    order = np.argsort(-core, axis=1, kind="stable")
    e = np.take_along_axis(core, order, axis=1)
    z2 = np.take_along_axis(rows[:, k:], order, axis=1)
    t_go = (e[:, m - 1] - rule.q_upper) / rule.scale
    e -= rule.q_lower
    e /= rule.scale
    limit = t_go
    for j in range(m, rule.k_max + 1):
        m_j = np.partition(z2[:, :j], j - m, axis=1)[:, j - m]
        limit = np.maximum(limit, np.minimum(m_j, e[:, j - 1]))
    return t_go, e, limit


def oc_from_limits(rule, r, t_go, e, limit):
    """The OC at r derived from each row's (t_go, e, U), as
    ``sorted_go_limits`` gives them: p_reject is #{U > r} / N."""
    stop = (t_go > r) | (e[:, rule.m - 1] < r)
    retained = int((e[~stop, :rule.k_max] > r).sum())
    nsims = rule.block.nsims
    pet = int(stop.sum()) / nsims
    return DtLOperatingCharacteristics(
        p_reject=int((limit > r).sum()) / nsims, pet=pet,
        ess=rule.n * (pet + 2.0 * (1.0 - pet)), enm=rule.n * (rule.k + retained / nsims))


def bisection_n(power, target: float, nmin: int, nmax: int) -> int:
    """Smallest n in [nmin, nmax] with power(n) >= target: a probe at
    nmax, then bisection of the (failing, passing] bracket. Raises
    ValueError when power at nmax falls short."""
    lo, hi = nmin - 1, nmax
    if power(hi) < target:
        raise ValueError("power at nmax falls short")
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        if power(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def rows_at_least(target: float, nrows: int) -> int:
    """Smallest row count k with k / nrows >= target, stepping from
    ceil(target * nrows) in floats."""
    k = int(np.ceil(target * nrows))
    while (k - 1) / nrows >= target:
        k -= 1
    while k / nrows < target:
        k += 1
    return k


def rows_at_most(target: float, nrows: int) -> int:
    """Largest row count k with k / nrows <= target: floor(target * nrows),
    corrected by one either way in floats."""
    k = int(np.floor(target * nrows))
    if (k + 1) / nrows <= target:
        k += 1
    elif k / nrows > target:
        k -= 1
    return k


def covariance_entry(stage_a: int, stage_b: int, outcome_a: int, outcome_b: int,
                     schedule: StageSchedule, model: OutcomeModel) -> float:
    """Covariance of the statistics at (stage_a, outcome_a) and (stage_b, outcome_b).

    Indices are 1-based and stage_a <= stage_b is required; the value is
    symmetric in its arguments so callers order the pair.
    """
    j = schedule.n_stages
    k = model.n_outcomes
    if not (1 <= stage_a <= stage_b <= j):
        raise IndexError("require 1 <= stage_a <= stage_b <= number of stages")
    if not (1 <= outcome_a <= k and 1 <= outcome_b <= k):
        raise IndexError("outcome index out of range")
    cum = schedule.cumulative
    same_stage = stage_a == stage_b
    same_outcome = outcome_a == outcome_b
    if same_stage and same_outcome:
        return 1.0
    if same_stage:
        return float(model.rho[outcome_a - 1, outcome_b - 1])
    ratio = float(np.sqrt(cum[stage_a - 1] / cum[stage_b - 1]))
    if same_outcome:
        return ratio
    return float(model.rho[outcome_a - 1, outcome_b - 1]) * ratio


def linear_scan_n(block, boundaries: Boundaries, spec: GSDesignSpec,
                  model: OutcomeModel, effects, nmin: int, nmax: int):
    """First per-stage size in [nmin, nmax] whose power at ``effects``
    reaches 1 - beta, found by evaluating every size in turn.

    Returns (n, power, alpha) at that size, or None when no size up to
    nmax passes.
    """
    for n in range(nmin, nmax + 1):
        schedule = StageSchedule.equal(n, spec.n_stages)
        power = estimate_gs_oc(block, boundaries, spec, schedule,
                               shift=mean_shift_vector(effects, schedule, model)).p_reject
        if power >= 1.0 - spec.beta:
            return n, power, estimate_gs_oc(block, boundaries, spec, schedule).p_reject
    return None


def decide_rows(values, n_stages: int, n_outcomes: int, m: int, lower, upper):
    """Group-sequential decisions of each row: (go?, stop stage index
    0-based), from per-stage counts summed over the outcome axis."""
    z = np.asarray(values).reshape(-1, n_stages, n_outcomes)
    go = (z > np.asarray(upper)[None, :, None]).sum(axis=2) >= m
    nogo = (z < np.asarray(lower)[None, :, None]).sum(axis=2) >= (n_outcomes - m + 1)
    nogo[:, -1] = ~go[:, -1]
    stop = (go | nogo).argmax(axis=1)
    return go[np.arange(z.shape[0]), stop], stop


class DtLBlockRule:
    """The drop-the-loser rule evaluated at one boundary r at a time.

    The block is shifted and split once; ``decisions`` applies the
    interim and final rules at r through conditional power, row by row
    in vectorised form. ``evaluate`` aggregates them; its ESS and ENM
    are in units of the per-stage n.
    """

    def __init__(self, block, spec: DtLDesignSpec, model: OutcomeModel, n: int,
                 shift=None, max_retained=None):
        k = spec.n_outcomes
        values = block.values if shift is None else block.values + np.asarray(shift)[None, :]
        z1, z2 = values[:, :k], values[:, k:]
        i1 = n / model.sigma ** 2
        i2 = 2.0 * i1
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

    def decisions(self, r: float) -> tuple:
        """Per-row (interim go, interim no-go, final go, retained count)."""
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
        return go1, nogo1, go2, retained

    def evaluate(self, r: float) -> DtLOperatingCharacteristics:
        go1, nogo1, go2, retained = self.decisions(r)
        cont = ~(nogo1 | go1)
        pet = float((go1 | nogo1).mean())
        return DtLOperatingCharacteristics(
            p_reject=float((go1 | go2).mean()),
            pet=pet,
            ess=pet + 2.0 * (1.0 - pet),
            enm=self.k + float((retained * cont).sum()) / self.nsims,
        )


@dataclass(frozen=True)
class StepAnswer:
    boundary: float
    alpha: float
    warns: bool


def step_boundary(starts, ends, nrows: int, target: float, strict: bool = False):
    """The calibrated boundary found by brute force: alpha on each step
    between neighbouring event values is counted at the step's midpoint
    as the number of intervals [start, end) holding it. Returns None
    when alpha(0+) <= target."""
    starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
    values = np.unique(np.concatenate([starts, ends]))
    values = values[values > 0]
    edges = np.concatenate([[0.0], values, [values[-1] + 2.0 if values.size else 2.0]])
    mids = [0.5 * (lo + hi) for lo, hi in zip(edges[:-1], edges[1:])]
    alphas = [int(np.count_nonzero((starts <= c) & (c < ends))) / nrows for c in mids]
    if alphas[0] <= target:
        return None
    last_over = max(i for i, a in enumerate(alphas) if a > target)
    low, high = last_over + 1, last_over
    pick = low
    if not strict and (target - alphas[high]) ** 2 < (target - alphas[low]) ** 2:
        pick = high
    warns = any(a <= target for a in alphas[:last_over])
    return StepAnswer(float(mids[pick]), alphas[pick], warns)
