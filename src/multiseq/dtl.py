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
the smallest adequate per-stage n is found by a bracketed search that
interpolates the probit of power in sqrt(n) (``optimize.smallest_passing``).
Calibration is exact: a trial goes exactly when r is below its go limit
U, so r is an order statistic of U, found in one threaded block pass with
no bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from ._normal import ndtr, ndtri
from .model import OutcomeModel, StageSchedule, _check_spec, lfc_effects
from .optimize import DEFAULT_NMAX, exceedance_boundary, smallest_passing
from .simulate import (
    ShiftGrid,
    StatisticBlock,
    axis_shifts,
    carve,
    mean_shift_vector,
)

__all__ = [
    "DtLDesignSpec",
    "DtLOperatingCharacteristics",
    "DtLRealisation",
    "conditional_power",
    "estimate_dtl_oc",
    "calibrate_r",
    "search_dtl_design",
    "cp_lookup",
]

N_STAGES = 2
# bytes of statistics per row chunk of a block pass, 4 bytes each, read in place.
# A chunk's float64 working arrays take 2.3-3.8 times its size in a go-limit pass
# and 2.6-2.9 in a one-point count pass (K = 3-10, tracemalloc), so a
# single-threaded pass peaks below 2 MB whatever the block size, besides a
# go-limit pass's nsims-long result. A count pass works in slices of twice this
# many bytes of (point, row) cells (``ShiftGrid.width``). 1 MB chunks measure
# faster, but overrun both bounds of test_dtl.py's TestChunkedPass. A 500k-row
# block's go-limit pass / one-point count pass, in ms (medians of 9, OpenBLAS on
# one thread):
#   K = 3, 1 thread:  10.1 / 14.7 at 256 kB, 8.9 / 12.5 at 512 kB, 8.8 / 12.3 at 1 MB;
#   K = 6, 1 thread:  28.4 / 40.1 at 256 kB, 25.1 / 30.0 at 512 kB, 23.2 / 27.7 at 1 MB;
#   K = 6, 2 threads: 29.4 / 41.0 at 256 kB, 26.0 / 31.7 at 512 kB, 20.7 / 24.6 at 1 MB.
CHUNK_BYTES = 1 << 19


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

    n_stages = N_STAGES
    default_nmin = 2  # per-stage size a search starts from unless told otherwise

    def __post_init__(self):
        if self.n_outcomes < 2:
            raise ValueError("n_outcomes must be >= 2 (one outcome leaves nothing to drop)")
        if not 1 <= self.max_retained < self.n_outcomes:
            raise ValueError("max_retained must satisfy 1 <= K_max < K")
        if not 0.0 <= self.cp_lower < self.cp_upper <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= cp_lower < cp_upper <= 1")
        _check_spec(self)

    def search(self, model: OutcomeModel, block: StatisticBlock, nmin: int | None = None,
               **options) -> DtLRealisation:
        """``search_dtl_design`` on the model's null block; nmin defaults to default_nmin."""
        nmin = self.default_nmin if nmin is None else nmin
        return search_dtl_design(self, model, block, nmin=nmin, **options)


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
    symbol = "r"  # the constant's name in a report
    boundary_rows = ()  # r is the design's only boundary
    n_stages = N_STAGES

    @property
    def constant(self) -> float:
        return self.r

    def evaluate_grid(self, block: StatisticBlock, model: OutcomeModel,
                      axes) -> list:
        """Operating characteristics at every point of
        ``itertools.product(*axes)`` (one sequence of effects per outcome),
        in row-major order, from one pass over the block."""
        schedule = StageSchedule.equal(self.n, N_STAGES)
        return _Rule(block, self.spec, model, self.n).grid_oc(
            self.r, axis_shifts(axes, schedule, model))

    def table(self, model: OutcomeModel, cp_grid) -> tuple:
        """(file name, header, rows) of the report table: CP on the cp_grid (lo, hi, step)."""
        lo, hi, step = cp_grid
        rows = cp_lookup(self.spec, model, self.r, self.n, np.arange(lo, hi + step / 2, step))
        return "cp_lookup.csv", ("outcome", "z", "cp"), rows


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


def _information(n: int, model: OutcomeModel):
    i1 = n / model.sigma ** 2
    return i1, 2.0 * i1


class _Rule:
    """The drop-the-loser rule of a spec at one per-stage n, applied to a
    two-stage null block in row chunks.

    CP is ndtr(core - s * r) with one s for every outcome, so the CP
    ranking does not depend on r. With a row's outcomes sorted by
    descending core c(1) >= ... >= c(K) and q = ndtri(threshold), outcome
    j is eligible exactly when r < e_j = (c(j) - q_l) / s; the interim
    no-go holds exactly when r > e_m, the interim go exactly when
    r < t_go = (c(m) - q_u) / s < e_m, and with j outcomes retained the
    final go exactly when r < M_j, the m-th largest stage-two statistic
    of the first j. So a row goes exactly when r < U = max(t_go, max over
    m <= j <= K_max of min(M_j, e_j)), and alpha(r) is the fraction of
    rows with U > r. The test oracle ``invert_cp_boundaries`` gives e_j and
    t_go for one outcome on the interim-statistic scale.

    At a fixed r the count kernel (``grid_oc``, whose one-point grid is
    ``oc``) needs counts, not U. With
    e_i = (core_i - q_l) / s and t_i = (core_i - q_u) / s per outcome
    (rounding is monotone, so the m-th largest t_i is t_go): the interim
    go holds when #{t_i > r} >= m, the no-go when #{e_i >= r} < m, the
    trial retains j* = min(#{e_i > r}, K_max) outcomes, and the final go
    holds when at least m of the j* top-ranked have a stage-two statistic
    above r, ranked by descending core with ties to the lower index.

    A pass runs a kernel on each row chunk of CHUNK_BYTES on the block's
    workers and combines the results in row order. Each kernel reads the
    chunk's float32 columns in place, widens them to float64 before any
    arithmetic, and writes the cores (and the count kernel the shifted
    statistics) into the chunk's own workspaces, so no
    block-sized copy is made and the result does not depend on the thread
    count.
    """

    def __init__(self, block: StatisticBlock, spec: DtLDesignSpec, model: OutcomeModel,
                 n: int, max_retained: int | None = None):
        if block.n_stages != N_STAGES:
            raise ValueError("drop-the-loser blocks must have exactly two stages")
        if block.n_outcomes != spec.n_outcomes:
            raise ValueError("block and spec disagree on the number of outcomes")
        i1, i2 = _information(n, model)
        gap = i2 - i1
        self.sqrt_i1, self.sqrt_gap = np.sqrt(i1), np.sqrt(gap)
        self.drift = gap * np.asarray(spec.delta1)
        self.scale = float(np.sqrt(i2[0] / gap[0]))
        # ndtri maps a disabled threshold (0 or 1) to -inf / +inf
        self.q_lower, self.q_upper = ndtri(spec.cp_lower), ndtri(spec.cp_upper)
        self.k, self.m = spec.n_outcomes, spec.n_promising
        self.k_max = spec.max_retained if max_retained is None else int(max_retained)
        self.block, self.n = block, n

    def _limits(self, rows: np.ndarray) -> np.ndarray:
        """U of each row of a chunk, read from its columns in place.

        Only the top max(m, K_max) cores of a row matter. Place p keeps
        the p-th largest core seen so far and the index of its outcome.
        Outcome i enters at the bottom and moves up past every core it
        strictly exceeds, so tied cores keep the lower index first, as a
        stable descending sort does. The values used are then read back
        by index, and M_j keeps the top m of the first j stage-two
        statistics by max/min insertion. The cores are computed in float64
        from the widened stage-one statistics, and a stage-two statistic
        read back by index is widened as it lands in its row. Every working
        array is a row of one workspace allocation (``carve``): the places'
        rows are free rows, and once the places are ranked, the statistics
        read back by index take them.
        """
        k, m, k_max = self.k, self.m, self.k_max
        nrows, places = len(rows), max(m, k_max)
        index = np.min_scalar_type(k)
        # free rows: the places and a swap row, then e, t_go, and with m <= K_max the
        # top m of M_j and, when a read may move down past them, a swap row
        reads = 2 + (m + (k_max > 1) if m <= k_max else 0)
        core, free, outcome, swap, up, at, gathered = carve(
            ((k, nrows), float), ((max(places + 1, reads), nrows), float),
            ((places, nrows), index), ((nrows,), index), ((nrows,), bool), ((nrows,), np.intp),
            ((nrows,), rows.dtype))
        free, outcome = list(free), list(outcome)
        cols = rows.T
        np.copyto(core, cols[:k])  # widened, then the cores in place
        core *= self.sqrt_i1[:, None]
        core += self.drift[:, None]
        core /= self.sqrt_gap[:, None]
        top = []
        for i in range(k):
            if len(top) < places:
                top.append(free.pop())
                top[-1][...] = core[i]
                outcome[len(top) - 1][...] = i
            else:  # the bottom place keeps the larger core; the other drops out
                np.greater(core[i], top[-1], out=up)
                np.maximum(top[-1], core[i], out=top[-1])
                np.bitwise_xor(outcome[-1], i, out=swap)
                outcome[-1] ^= np.multiply(swap, up, out=swap)
            for p in range(len(top) - 1, 0, -1):
                np.greater(top[p], top[p - 1], out=up)
                higher = np.maximum(top[p - 1], top[p], out=free.pop())
                np.minimum(top[p - 1], top[p], out=top[p])
                free.append(top[p - 1])
                top[p - 1] = higher
                np.multiply(np.bitwise_xor(outcome[p - 1], outcome[p], out=swap), up, out=swap)
                outcome[p - 1] ^= swap
                outcome[p] ^= swap
        free += top  # only the outcome order is read from here on

        # the cores are one contiguous array, and the stage-two columns one strided
        # run: a flat gather from either is 2.4 times faster than a 2-d index
        stage_two = cols[k:]
        across, down = (stride // stage_two.itemsize for stride in stage_two.strides)
        start = np.arange(nrows)
        sources = ((core.ravel(), nrows, start),
                   (np.lib.stride_tricks.as_strided(
                       stage_two, ((k - 1) * across + (nrows - 1) * down + 1,),
                       (stage_two.itemsize,), writeable=False),
                    across, start if down == 1 else start * down))

        def value(p: int, stage: int) -> np.ndarray:
            """The stage's statistic (the core at stage 0) of place p's outcome,
            widened into a free row."""
            flat, outcome_step, row_steps = sources[stage]
            np.multiply(outcome[p], outcome_step, out=at, dtype=np.intp)
            np.add(at, row_steps, out=at)
            # mode="raise" would gather into a buffered copy of the row
            if not stage:
                return np.take(flat, at, out=free.pop(), mode="clip")
            # take casts nothing: a stored statistic is gathered as it is, then widened
            out = free.pop()
            np.copyto(out, np.take(flat, at, out=gathered, mode="clip"))
            return out

        e = value(m - 1, 0)  # e_m, used up at j = m
        limit = np.subtract(e, self.q_upper, out=free.pop())
        limit /= self.scale  # t_go
        kept = []  # the top m stage-two statistics of the first j; U = t_go when m > K_max
        for j in range(1, k_max + 1 if m <= k_max else 0):
            z2 = value(j - 1, 1)
            for p in range(len(kept)):
                higher = np.maximum(kept[p], z2, out=free.pop())
                np.minimum(kept[p], z2, out=z2)
                free.append(kept[p])
                kept[p] = higher
            if len(kept) < m:
                kept.append(z2)
            else:  # the least of m + 1 drops out
                free.append(z2)
            if j >= m:
                if j > m:
                    e = value(j - 1, 0)
                e -= self.q_lower
                e /= self.scale
                np.maximum(limit, np.minimum(kept[m - 1], e, out=e), out=limit)
                free.append(e)
        return limit

    def go_limits(self) -> np.ndarray:
        """Each row's U: the row goes exactly when r < U."""
        return self.block.each_row(self._limits, CHUNK_BYTES)

    def oc(self, r: float, shift=None) -> DtLOperatingCharacteristics:
        """Operating characteristics at boundary r (ESS and ENM in subjects)
        at one per-column mean shift (none by default): ``grid_oc`` on the
        grid with one value per outcome."""
        size = N_STAGES * self.k
        shift = np.zeros(size) if shift is None else np.asarray(shift, dtype=float)
        if shift.shape != (size,):
            raise ValueError(f"shift must have length J * K = {size}, got shape {shift.shape}")
        return self.grid_oc(r, shift.reshape(N_STAGES, self.k).T[:, None, :])[0]

    def grid_oc(self, r: float, shifts) -> list:
        """Operating characteristics at boundary r at every point of the
        ``ShiftGrid`` of per-outcome ``shifts`` (``axis_shifts``), in row-major
        order, from one pass: the rule's one count kernel. Each chunk reads
        its columns in place in slices of ``ShiftGrid.width`` rows; each
        stage of a slice is shifted once for every outcome and value, and
        the cores, their t_i, e_i and stage-two flags are counted over the
        grid, all into the chunk's ``ShiftGrid.workspace``. With K_max < K
        each unordered pair of outcomes is compared once, core_l >= core_i
        for l < i, into a (values, values, rows) array that adds to the rank
        of i; its complement adds to the rank of l. A slice's go and stop
        flags and retained outcomes add into one tally per (point, row)
        cell, which ``ShiftGrid.slices`` reduces once per chunk into each
        point's go, stop and retained counts."""
        k, m, k_max = self.k, self.m, self.k_max
        grid = ShiftGrid(shifts, N_STAGES)
        points, width = grid.points, grid.width(2 * CHUNK_BYTES)
        ranked = ("ranks", "pairs") if k_max < k else ()
        step = min(k, k_max)  # the most outcomes a row retains

        def counts(rows: np.ndarray) -> np.ndarray:
            cols = rows.T.reshape(N_STAGES, k, 1, len(rows))
            cut = grid.workspace(min(width, len(rows)), "shifted", "shifted", "widened", "flags",
                                 "flags", "counts", "marks", "marks", "marks", *ranked,
                                 tallies=3, step=step)
            total = np.zeros((3, points), dtype=np.intp)  # go, stop, retained
            for a in grid.slices(len(rows), width, cut()[-1], total, step):
                (core, z, wide, eligible, hits, count, go, stop, mark, *ranks,
                 (gone, stopped, kept)) = cut(min(width, len(rows) - a))
                grid.shift(cols[0, ..., a:a + width], 0, core, wide)
                core *= self.sqrt_i1[:, None, None]
                core += self.drift[:, None, None]
                core /= self.sqrt_gap[:, None, None]
                np.subtract(core, self.q_upper, out=z)
                z /= self.scale  # t_i
                grid.count(np.greater(z, r, out=eligible), out=count)
                np.greater_equal(count, m, out=go)
                np.subtract(core, self.q_lower, out=z)
                z /= self.scale  # e_i
                grid.count(np.greater_equal(z, r, out=eligible), out=count)
                np.less(count, m, out=stop)
                stop |= go
                np.greater(z, r, out=eligible)
                grid.shift(cols[1, ..., a:a + width], 1, z, wide)
                np.greater(z, r, out=hits)
                hits &= eligible
                if k_max < k:  # retain the K_max top-ranked eligible outcomes
                    rank, pairs = ranks
                    core = [c[:v] for c, v in zip(core, grid.lengths)]
                    # rank[i]: the outcomes ranked above outcome i, ties to the lower
                    # index; its first pair, (0, i) or (0, 1) for outcome 0, assigns it
                    for l, i in itertools.combinations(range(k), 2):
                        ahead = np.greater_equal(core[l][:, None], core[i][None, :],
                                                 out=pairs[:len(core[l]), :len(core[i])])
                        _add(rank[i], grid.place(ahead, (l, i)), first=l == 0)
                        _add(rank[l], grid.place(np.invert(ahead, out=ahead), (l, i)),
                             first=i == 1)
                    for i in range(k):
                        np.less(rank[i], k_max, out=mark)
                        mark &= grid.place(hits[i, :grid.lengths[i]], (i,))
                        _add(count, mark, first=i == 0)
                else:
                    grid.count(hits, out=count)
                go |= np.greater_equal(count, m, out=mark)
                retained = np.minimum(grid.count(eligible, out=count), k_max, out=count)
                # a multiply; a masked assignment is 30 times slower
                retained *= np.invert(stop, out=mark)
                gone += go.view(np.uint8)
                stopped += stop.view(np.uint8)
                kept += retained
            return total

        total = sum(self.block.each_chunk(counts, CHUNK_BYTES))
        return self._oc(*total)

    def _oc(self, go: np.ndarray, stops: np.ndarray, retained: np.ndarray) -> list:
        """Operating characteristics (ESS and ENM in subjects) of every point
        from its go and stop counts and the retained outcomes summed over
        its rows going on."""
        nsims = self.block.nsims
        pet = stops / nsims
        columns = (go / nsims, pet, self.n * (pet + 2.0 * (1.0 - pet)),
                   self.n * (self.k + retained / nsims))
        return [DtLOperatingCharacteristics(*values)
                for values in zip(*(column.tolist() for column in columns))]


def _add(out: np.ndarray, flags: np.ndarray, first: bool) -> None:
    """Assigns boolean flags to a count array if first, else adds them to it
    (as uint8, which adds without a cast from bool)."""
    if first:
        np.copyto(out, flags)
    else:
        np.add(out, flags.view(np.uint8), out=out)


def estimate_dtl_oc(block: StatisticBlock, spec: DtLDesignSpec, model: OutcomeModel,
                    r: float, n: int, shift=None,
                    max_retained: int | None = None) -> DtLOperatingCharacteristics:
    """Operating characteristics of the design on a two-stage block.

    ``shift`` is an optional per-column mean shift (length 2K), as
    produced by ``mean_shift_vector`` for the two-stage schedule.
    ``max_retained`` overrides the design's cap; passing K disables dropping,
    which is useful for reduction checks against single-stage designs.
    """
    return _Rule(block, spec, model, n, max_retained).oc(r, shift)


def calibrate_r(null_block: StatisticBlock, spec: DtLDesignSpec, model: OutcomeModel,
                n: int, strict: bool = False) -> tuple:
    """Final rejection boundary hitting the target type-I error rate.

    Returns (r, achieved alpha). Unlike the group-sequential constant, r
    depends on the per-stage n through the interim information, so it is
    recalibrated for every candidate n during the sample-size search.
    It is exact, with no bracket: one block pass gives each row's go
    limit U, and r is read off the order statistics of U
    (``optimize.exceedance_boundary``; ``strict`` keeps achieved alpha
    <= target, and CalibrationError means no r > 0 reaches it).
    """
    limits = _Rule(null_block, spec, model, n).go_limits()
    return exceedance_boundary(limits, spec.alpha, strict=strict)


def search_dtl_design(spec: DtLDesignSpec, model: OutcomeModel, block: StatisticBlock,
                      nmin: int, nmax: int = DEFAULT_NMAX, lfc_mode: str = "first-m",
                      strict: bool = False) -> DtLRealisation:
    """Smallest per-stage n in [nmin, nmax] meeting the target power.

    ``optimize.smallest_passing`` probes nmax first, then interpolates
    the probit of power in sqrt(n) from the design's alpha at n -> 0,
    with powers of 0 and 1 clipped by the block's row count,
    recalibrating r at every probe and evaluating power at the least
    favourable configuration on ``block``, the model's two-stage null
    block. Each probe is a go-limit pass and a count pass; the null OC at
    the answer is one more. Power is assumed monotone in n; if the
    recorded probes contradict that (shared-seed jitter), a warning
    reports both powers.
    """
    if model.n_outcomes != spec.n_outcomes:
        raise ValueError("model and spec disagree on the number of outcomes")
    effects = lfc_effects(spec, mode=lfc_mode, sigma=model.sigma)
    probes: dict = {}  # per-stage size -> (r, OC at the LFC)

    def power_at(n: int) -> float:
        r, _ = calibrate_r(block, spec, model, n, strict=strict)
        shift = mean_shift_vector(effects, StageSchedule.equal(n, N_STAGES), model)
        probes[n] = (r, _Rule(block, spec, model, n).oc(r, shift))
        return probes[n][1].p_reject

    n = smallest_passing(power_at, 1.0 - spec.beta, nmin, nmax, spec.alpha, block.nsims)
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
    z = np.asarray(z_values, dtype=float)
    rows = []
    for k in range(spec.n_outcomes):
        cp = conditional_power(z, r, i1[k], i2[k], spec.delta1[k])
        rows.extend(zip([k + 1] * len(z), z.tolist(), cp.tolist()))
    return rows
