"""Group-sequential m-of-K designs and the composite-outcome comparator.

A simulated trial is scanned stage by stage: it stops for a go decision
as soon as at least m statistics strictly exceed the upper boundary,
stops for a no-go decision as soon as at least K - m + 1 statistics fall
strictly below the lower boundary, and is forced to a decision at the
final stage where the boundaries coincide.

The boundary constant is calibrated exactly on a null block: one block
pass gives the constants at which each simulated trial goes, and the
constant is read off them so the rejection probability hits the target
type-I error rate. The per-stage sample size is then the smallest n
whose mean-shifted block reaches the target power at the least
favourable configuration. When m = 1 or m = K and every LFC effect is
>= 0, one more pass gives each trial the smallest n at which it goes,
and n is read off them; probes at n - 1 and n confirm it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .model import (
    Boundaries,
    OutcomeModel,
    StageSchedule,
    _check_spec,
    lfc_effects,
    wang_tsiatis_boundaries,
)
from .optimize import DEFAULT_NMAX, exceedance_boundary, row_count, smallest_passing
from .simulate import (
    ShiftGrid,
    StatisticBlock,
    axis_shifts,
    mean_shift_vector,
)

__all__ = [
    "GSDesignSpec",
    "GSOperatingCharacteristics",
    "DesignRealisation",
    "estimate_gs_oc",
    "calibrate_c",
    "composite_transform",
    "search_gs_design",
]

# bytes of statistics per row chunk of a block pass. A kernel reads its chunk's
# columns in place and holds only its workspaces (0.25-0.40 times the chunk in a
# one-point count pass, which shifts the chunk in slices of a quarter of this;
# K = 2-10, tracemalloc). Fewer rows per chunk mean more numpy calls per row,
# which two workers contend for. A 500k-row K = 10, m = 5, J = 5 block's interval
# pass / one-point count pass, in ms (medians of 9, OpenBLAS on one thread):
#   1 thread:  133 / 80 at 1 MB, 101 / 45 at 2 MB, 92 / 42 at 4 MB, 90 / 47 at 8 MB,
#              100 / 57 at 16 MB;
#   2 threads: 290 / 99 at 1 MB, 186 / 61 at 2 MB, 122 / 44 at 4 MB, 75 / 35 at 8 MB,
#              64 / 33 at 16 MB.
CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class GSDesignSpec:
    """Parameters of a group-sequential (or composite) m-of-K design.

    ``n_promising`` is the number of outcomes that must simultaneously
    clear the upper boundary for the null to be rejected. ``delta0`` and
    ``delta1`` are the lower and greater anticipated effect sizes per
    outcome; ``wt_delta`` is the Wang-Tsiatis boundary shape (0 gives
    O'Brien-Fleming style boundaries, 0.5 gives Pocock).
    """

    n_outcomes: int
    n_promising: int
    n_stages: int
    alpha: float
    beta: float
    delta0: Any
    delta1: Any
    wt_delta: float = 0.0
    composite: bool = False

    default_nmin = 1  # per-stage size a search starts from unless told otherwise

    def __post_init__(self):
        if self.n_outcomes < 1:
            raise ValueError("n_outcomes must be >= 1")
        if self.n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if not np.isfinite(self.wt_delta):
            raise ValueError("wt_delta must be finite")
        _check_spec(self)

    def search(self, model: OutcomeModel, block: StatisticBlock, nmin: int | None = None,
               **options) -> DesignRealisation:
        """``search_gs_design`` on the model's null block; nmin defaults to default_nmin."""
        nmin = self.default_nmin if nmin is None else nmin
        return search_gs_design(self, model, block, nmin=nmin, **options)


@dataclass(frozen=True)
class GSOperatingCharacteristics:
    p_reject: float
    ess: float
    enm: float
    expected_stages: float


@dataclass(frozen=True, eq=False)
class DesignRealisation:
    """A calibrated design: boundary constant, sample size and achieved
    operating characteristics under the global null and under the LFC.

    ``constant`` is reported on the final-stage scale (it equals the
    final boundary e_J); ``kind`` is "gs" or "composite".
    """

    kind: str
    spec: GSDesignSpec
    n: int
    n_total: int
    constant: float
    boundaries: Boundaries
    alpha_star: float
    power_star: float
    oc_null: Any = field(repr=False, default=None)
    oc_lfc: Any = field(repr=False, default=None)

    symbol = "C"  # the constant's name in a report

    @property
    def n_stages(self) -> int:
        return self.spec.n_stages

    @property
    def boundary_rows(self) -> tuple:
        return ("f", self.boundaries.lower), ("e", self.boundaries.upper)

    def evaluate_grid(self, block: StatisticBlock, model: OutcomeModel,
                      axes) -> list:
        """Operating characteristics at every point of
        ``itertools.product(*axes)`` (one sequence of effects per outcome),
        in row-major order, from one pass over the block."""
        schedule = StageSchedule.equal(self.n, self.n_stages)
        rule = _Rule(block, self.spec)
        return rule.grid_oc(self.boundaries, schedule, rule.axis_shifts(schedule, model, axes))

    def table(self, model: OutcomeModel, cp_grid) -> tuple:
        """(file name, header, rows) of the report table: the boundaries per stage."""
        cum = StageSchedule.equal(self.n, self.n_stages).cumulative
        rows = [(j + 1, int(cum[j]), self.boundaries.lower[j], self.boundaries.upper[j])
                for j in range(self.n_stages)]
        return "boundaries.csv", ("stage", "n_cumulative", "lower", "upper"), rows


class _Rule:
    """The m-of-K rule of a spec, applied to one null block.

    This is the one place that reads ``spec.composite``: a composite
    design sums the K statistics at each stage and compares the sum with
    the boundary (one outcome, m = 1). The block is summed once; a shift
    is summed on its own and then added to the summed block. A pass runs
    a kernel on each row chunk of CHUNK_BYTES on the block's workers and
    combines the results in row order; a kernel reads its chunk's columns
    in place and writes only its own workspaces (a count kernel adds the
    shift into one), so no pass copies a chunk or the block. Every
    count pass (``oc``, and so the searches' probes, and effect grids)
    runs the one count kernel of ``grid_oc``; ``oc`` is its one-point grid.
    """

    def __init__(self, block: StatisticBlock, spec: GSDesignSpec):
        self.summed = spec.composite
        if self.summed:
            block = composite_transform(block)  # an already summed block passes through
            self.kind, self.k, self.m = "composite", 1, 1
        else:
            self.kind, self.k, self.m = "gs", spec.n_outcomes, spec.n_promising
        if block.n_outcomes != self.k or block.n_stages != spec.n_stages:
            raise ValueError("block shape does not match the design spec")
        self.block, self.spec = block, spec

    def _columns(self, shift) -> np.ndarray:
        """A per-column vector of the spec's statistics as one per column of
        the rule's block: summed over the outcomes of each stage if composite."""
        shift = np.asarray(shift, dtype=float)
        size = self.spec.n_stages * self.spec.n_outcomes
        if shift.shape != (size,):
            raise ValueError(f"shift must have length J * K = {size}, got shape {shift.shape}")
        return shift.reshape(self.spec.n_stages, -1).sum(axis=1) if self.summed else shift

    def go_intervals(self) -> tuple:
        """(starts, ends): each row goes exactly when the final-stage
        constant C lies in one of its intervals [start, end).

        Let W_j be the m-th largest statistic at stage j, which is also
        the (K - m + 1)-th smallest, so it decides both go and no-go, and
        let +-C * a_j be the stage-j boundaries. A row stops at the first
        stage with |W_j| > C * a_j and goes there when W_j > C * a_j, so
        it goes exactly when C is in some [T_j, W_j / a_j), where T_j is
        the largest |W_i| / a_i over i < j and T_1 = 0. The intervals are
        disjoint; only non-empty ones are kept.

        Each chunk reads its columns in place, stage by stage: W_j by
        ``_order_statistic`` over the stage's K columns, and T_j as a
        running max. A chunk lists its intervals stage by stage, so their
        order depends on the chunk size, but their multiset (all that
        calibration reads) does not, and for one chunk size neither does
        the order depend on the thread count.
        """
        n_stages, k, m = self.spec.n_stages, self.k, self.m
        a = np.asarray(_final_scale_boundaries(1.0, n_stages, self.spec.wt_delta).upper)

        def intervals(rows: np.ndarray) -> tuple:
            cols = rows.T.reshape(n_stages, k, len(rows))
            pool = []  # the chunk's row-length workspaces
            t, w = np.zeros(len(rows)), np.empty(len(rows))
            keep = np.empty(len(rows), dtype=bool)
            starts, ends = [], []
            for j in range(n_stages):
                np.divide(_order_statistic(cols[j], k - m, pool), a[j], out=w)
                kept = np.flatnonzero(np.greater(w, t, out=keep))  # faster than a mask
                starts.append(t.take(kept))
                ends.append(w.take(kept))
                if j < n_stages - 1:
                    np.maximum(t, np.abs(w, out=w), out=t)
            return np.concatenate(starts), np.concatenate(ends)

        starts, ends = zip(*self.block.each_chunk(intervals, CHUNK_BYTES))
        starts = np.concatenate(starts)  # drops the start pieces before the ends join
        return starts, np.concatenate(ends)

    def go_thresholds(self, boundaries: Boundaries, slope) -> np.ndarray:
        """t* of every row: with the columns shifted by t * slope (slope >= 0,
        so t = sqrt(n) and slope = the shift at n = 1 give the shift at n),
        the row goes exactly when t > t*. Needs m = 1 or m = K.

        A statistic z with slope c > 0 passes above the edge e at the
        crossing t = (e - z) / c; with c = 0 the crossing is -inf when z is
        already past e (above u_j, or not below l_j) and +inf otherwise.
        The row goes at stage j when t > g_j, the m-th smallest crossing of
        u_j (the min when m = 1, the max when m = K), and stops for no-go
        when t < h_j, the (K - m + 1)-th largest crossing of l_j (the same
        min or max). So t* = min_j max(g_j, max_{i<j} h_i). Float rounding
        may decide a row with t = t* either way. Each chunk reads its
        columns in place and writes only row-length workspaces; t* depends
        on neither the chunk size nor the thread count.
        """
        n_stages, k = self.spec.n_stages, self.k
        if self.m not in (1, k):
            raise ValueError("go thresholds need m = 1 or m = K")
        pick = np.minimum if self.m == 1 else np.maximum
        lower, upper = np.asarray(boundaries.lower), np.asarray(boundaries.upper)
        slope = self._columns(slope).reshape(n_stages, k)

        def crossing(edge: float, z: np.ndarray, c: np.ndarray, past, out: np.ndarray):
            # the min (m = 1) or max (m = K) crossing of the edge over the K rows of z
            step = np.empty_like(out)
            for i, (zk, ck) in enumerate(zip(z, c)):
                each = step if i else out
                if ck > 0:
                    np.divide(np.subtract(edge, zk, out=each), ck, out=each)
                else:
                    each[:] = np.where(past(zk, edge), -np.inf, np.inf)
                if i:
                    pick(out, each, out=out)
            return out

        def thresholds(rows: np.ndarray) -> np.ndarray:
            size = len(rows)
            cols = rows.T.reshape(n_stages, k, size)
            # t*, the stage's go crossing, and max_{i<j} h_i
            t, go, nogo = np.full(size, np.inf), np.empty(size), np.full(size, -np.inf)
            for j, (z, c) in enumerate(zip(cols, slope)):
                crossing(upper[j], z, c, np.greater, go)
                np.minimum(t, np.maximum(go, nogo, out=go), out=t)
                if j < n_stages - 1:
                    np.maximum(nogo, crossing(lower[j], z, c, np.greater_equal, go), out=nogo)
            return t

        return self.block.each_row(thresholds, CHUNK_BYTES)

    def oc(self, boundaries: Boundaries, schedule: StageSchedule,
           shift=None) -> GSOperatingCharacteristics:
        """Operating characteristics at one per-column mean shift (none by
        default): ``grid_oc`` on the grid with one value per axis."""
        shift = np.zeros(self.spec.n_stages * self.k) if shift is None else self._columns(shift)
        return self.grid_oc(boundaries, schedule,
                            shift.reshape(self.spec.n_stages, self.k).T[:, None, :])[0]

    def axis_shifts(self, schedule: StageSchedule, model: OutcomeModel, axes) -> list:
        """``grid_oc``'s shifts for the effect grid ``itertools.product(*axes)``:
        ``simulate.axis_shifts``, or for a summed rule one axis holding each
        point's summed shift, since a composite shift does not split by outcome."""
        if not self.summed:
            return axis_shifts(axes, schedule, model)
        summed = [self._columns(mean_shift_vector(point, schedule, model))
                  for point in itertools.product(*axes)]
        return [np.array(summed).reshape(-1, self.spec.n_stages)]

    def grid_oc(self, boundaries: Boundaries, schedule: StageSchedule, shifts) -> list:
        """Operating characteristics at every point of the ``ShiftGrid`` of
        ``shifts`` (one (values, J) array per column of the rule's block), in
        row-major order, from one pass: the rule's one count kernel. Each
        chunk reads its columns in place in slices of ``ShiftGrid.width``
        rows; per stage a slice is shifted once for every column and value,
        compared with each boundary and counted over the grid, all into the
        chunk's ``ShiftGrid.workspace``. Its go rows and its rows still open
        after each stage but the last add into one tally per (point, row)
        cell, which ``ShiftGrid.slices`` reduces once per chunk into each
        point's go count and stop-stage histogram."""
        n_stages, k, m, nsims = self.spec.n_stages, self.k, self.m, self.block.nsims
        lower, upper = np.asarray(boundaries.lower), np.asarray(boundaries.upper)
        grid = ShiftGrid(shifts, n_stages)
        points, width = grid.points, grid.width(CHUNK_BYTES // 4)

        def counts(rows: np.ndarray) -> np.ndarray:
            cols = rows.T.reshape(n_stages, k, 1, len(rows))
            cut = grid.workspace(min(width, len(rows)), "shifted", "flags", "counts", "counts",
                                 "marks", "marks", tallies=n_stages)
            # row 0: go rows; row j + 1: rows still open after stage j
            total = np.zeros((n_stages, points), dtype=np.intp)
            for a in grid.slices(len(rows), width, cut()[-1], total):
                z, flags, over, below, went, still_open, (gone, *opened) = \
                    cut(min(width, len(rows) - a))
                for j in range(n_stages):
                    grid.shift(cols[j, ..., a:a + width], j, out=z)
                    grid.count(np.greater(z, upper[j], out=flags), out=over)
                    np.greater_equal(over, m, out=went)
                    if j:
                        went &= still_open
                    gone += went.view(np.uint8)  # a row goes at one stage: 1 a slice
                    if j == n_stages - 1:  # decides every open row: no lower test
                        break
                    if j:
                        still_open &= np.less(over, m, out=went)
                    else:
                        np.less(over, m, out=still_open)
                    grid.count(np.less(z, lower[j], out=flags), out=below)
                    still_open &= np.less_equal(below, k - m, out=went)
                    opened[j] += still_open.view(np.uint8)
            return total

        total = sum(self.block.each_chunk(counts, CHUNK_BYTES))
        opened = np.vstack([np.full(points, nsims), total[1:], np.zeros(points, np.intp)])
        return self._oc(total[0], opened[:-1] - opened[1:], schedule)

    def _oc(self, go: np.ndarray, stops: np.ndarray, schedule: StageSchedule) -> list:
        """Operating characteristics of every point from its go count and its
        column of the (J, points) stop-stage histogram: every mean is an
        exact integer sum over nsims (its terms are integers below 2^53)."""
        stages = np.arange(1, self.spec.n_stages + 1)
        p_reject, ess, expected_stages = (np.vstack(
            [go, schedule.cumulative @ stops, stages @ stops]) / self.block.nsims).tolist()
        k = self.spec.n_outcomes  # ENM counts all K measured outcomes, composite or not
        return [GSOperatingCharacteristics(p, e, k * e, s)
                for p, e, s in zip(p_reject, ess, expected_stages)]


def estimate_gs_oc(block: StatisticBlock, boundaries: Boundaries,
                   spec: GSDesignSpec, schedule: StageSchedule,
                   shift: np.ndarray | None = None) -> GSOperatingCharacteristics:
    """Aggregate rejection probability, expected stages, ESS and ENM.

    ``shift`` is an optional per-column mean shift (length J * K) applied
    on the fly, so power at any effect vector reuses the shared null block.
    """
    if block.n_stages != boundaries.n_stages or block.n_stages != schedule.n_stages:
        raise ValueError("block, boundaries and schedule stage counts differ")
    return _Rule(block, spec).oc(boundaries, schedule, shift)


def composite_transform(block: StatisticBlock) -> StatisticBlock:
    """Sum the K statistics at each stage into one composite statistic.

    No re-standardisation: the calibrated constant absorbs the variance
    of the correlated sum. With K = 1 the block passes through unchanged;
    the summed block keeps the block's workers.

    The sum is taken column by column, in row chunks, into a column-major
    block, in the order of numpy's ``np.add.reduce`` over a contiguous row
    of a stage's statistics (its identity 0.0 plus their pairwise sum), so
    the summed values do not depend on the block's layout.
    """
    if block.n_outcomes == 1:
        return block
    n_stages, k = block.n_stages, block.n_outcomes
    cols = block.values.T.reshape(n_stages, k, block.nsims)
    summed = np.empty((n_stages, block.nsims))
    step = max(1, CHUNK_BYTES // (k * 8))
    for a in range(0, block.nsims, step):
        for j in range(n_stages):
            summed[j, a:a + step] = _pairwise_sum(cols[j, :, a:a + step])
    summed += 0.0  # numpy's identity: turns -0.0 into 0.0
    return replace(block, values=summed.T, n_outcomes=1)


def _pairwise_sum(cols) -> np.ndarray:
    """numpy's pairwise summation of n >= 1 contiguous values, applied to
    columns: fewer than 8 are added in turn; up to 128 go into 8 running
    sums, combined as a tree, and the rest are added in turn; more split
    in two at a multiple of 8."""
    n = len(cols)
    if n < 8:
        total = cols[0].copy()  # numpy starts from -0.0, and -0.0 + x is x
        for col in cols[1:]:
            total += col
        return total
    if n <= 128:
        whole = n - n % 8
        r = [functools.reduce(np.add, cols[i:whole:8]) for i in range(8)]
        return functools.reduce(np.add, cols[whole:], ((r[0] + r[1]) + (r[2] + r[3]))
                                + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(cols[:half]) + _pairwise_sum(cols[half:])


@functools.cache
def _selection_network(k: int, rank: int) -> tuple:
    """Comparators (i, j, low, high) that put the rank-th smallest (from 0)
    of k values on wire ``rank``: Batcher's odd-even merge sort of k wires
    (Knuth, TAOCP vol. 3, 5.3.4), pruned backwards to the comparators
    whose outputs wire ``rank`` reads. A comparator puts the min of wires
    i < j on i and the max on j; ``low`` and ``high`` say whether its min
    and its max are read later. The min (rank 0) or the max (rank k - 1)
    is a chain of k - 1 one-sided comparators instead: a column min or max."""
    if rank == 0:
        return tuple((i, i + 1, True, False) for i in reversed(range(k - 1)))
    if rank == k - 1:
        return tuple((i, i + 1, False, True) for i in range(k - 1))
    pairs, p = [], 1
    while p < k:
        step = p
        while step:
            for j in range(step % p, k - step, 2 * step):
                pairs += [(i, i + step) for i in range(j, j + min(step, k - j - step))
                          if i // (2 * p) == (i + step) // (2 * p)]
            step //= 2
        p *= 2
    read, network = {rank}, []
    for i, j in reversed(pairs):
        if i in read or j in read:
            network.append((i, j, i in read, j in read))
            read |= {i, j}
    return tuple(reversed(network))


def _order_statistic(cols, rank: int, pool: list) -> np.ndarray:
    """The rank-th smallest (from 0) of the columns, element by element,
    by ``_selection_network``: exactly the value ``np.partition`` puts at
    ``rank`` along each row. Reads the columns and writes only row-length
    workspaces taken from ``pool``, which gets back every one but the
    result's (with one column, the result is that column)."""
    wires, owned = list(cols), [False] * len(cols)

    def spare(*candidates: int) -> np.ndarray:
        # the first owned buffer among the wires, else a pooled or new one
        for w in candidates:
            if owned[w]:
                owned[w] = False
                return wires[w]
        return pool.pop() if pool else np.empty_like(cols[0])

    def release(w: int) -> None:
        if owned[w]:
            pool.append(wires[w])
            owned[w] = False

    for i, j, low, high in _selection_network(len(wires), rank):
        a, b = wires[i], wires[j]
        if low and high:
            lo = np.minimum(a, b, out=spare())
            wires[j] = np.maximum(a, b, out=spare(j, i))
            release(i)
            wires[i], owned[i], owned[j] = lo, True, True
        else:  # one output is read later; the other wire is dead
            kept, dead = (i, j) if low else (j, i)
            wires[kept] = (np.minimum if low else np.maximum)(a, b, out=spare(kept, dead))
            release(dead)
            owned[kept] = True
    owned[rank] = False
    for w in range(len(wires)):
        release(w)
    return wires[rank]


def _final_scale_boundaries(final: float, n_stages: int, wt_delta: float) -> Boundaries:
    # the reported constant is the final boundary e_J; rescale to the
    # raw Wang-Tsiatis constant e_1
    return wang_tsiatis_boundaries(final * n_stages ** (0.5 - wt_delta),
                                   n_stages, wt_delta)


def calibrate_c(null_block: StatisticBlock, spec: GSDesignSpec,
                strict: bool = False) -> tuple:
    """Boundary constant hitting the target type-I error rate on a null block.

    Returns (constant, achieved alpha). The constant is on the
    final-stage scale (equal to e_J); for composite specs the block is
    reduced with ``composite_transform`` before calibration. It is
    exact, with no bracket: one block pass gives each row's go intervals
    in C, and the constant is read off their sorted starts and ends
    (``optimize.exceedance_boundary``). By default it sits on the step of
    alpha(C) nearest the target; ``strict`` takes the first step from
    which alpha stays at or below the target. CalibrationError means
    alpha at C -> 0+ is already at or below the target.
    """
    starts, ends = _Rule(null_block, spec).go_intervals()
    return exceedance_boundary(ends, spec.alpha, strict=strict, starts=starts,
                               nrows=null_block.nsims, symbol="C")


def _threshold_size(rule: _Rule, boundaries: Boundaries, slope: np.ndarray,
                    target: float, nmin: int) -> float:
    """The smallest per-stage size >= nmin at which at least a target
    fraction of rows go, by ``_Rule.go_thresholds``: a row goes at n
    exactly when sqrt(n) > t*, so from n* = floor(t*^2) + 1 on (1 when
    t* < 0), and the size is an order statistic of n*. inf when too few
    rows ever go."""
    nstar = rule.go_thresholds(boundaries, slope)  # t*, turned into n* in place
    np.maximum(nstar, 0.0, out=nstar)
    np.square(nstar, out=nstar)
    np.floor(nstar, out=nstar)
    nstar += 1.0
    k = row_count(target, nstar.size)
    nstar.partition(k - 1)
    return max(float(nmin), nstar[k - 1])


def search_gs_design(spec: GSDesignSpec, model: OutcomeModel, block: StatisticBlock,
                     nmin: int = 1, nmax: int = DEFAULT_NMAX,
                     lfc_mode: str = "first-m",
                     strict: bool = False) -> DesignRealisation:
    """Smallest design meeting the target error rates.

    ``block`` is the model's null block with the spec's stage count (the
    null statistics do not depend on n, so it serves the whole search).
    Calibrates the boundary constant once on it. With LFC effects >= 0
    power on the shared block is exactly non-decreasing in n. If also
    m = 1 or m = K (a composite design is m = 1 on the summed statistic),
    one threshold pass gives each row the smallest size at which it goes,
    and n is read off them. ``smallest_passing`` then opens with probes at
    n - 1 (which must fail, unless n = nmin) and n (which must pass): 5
    block passes with the null OC. When the pass finds no size up to
    ``nmax``, the one probe at nmax raises InfeasibleDesignError; when a
    probe disagrees (float rounding at a row's threshold), the search goes
    on in the bracket that the probes leave. Other designs open with a
    gallop up from ``nmin`` (nmin - 1 + 1, 2, 4, ...), about log2(n)
    probes, and interpolate in the bracket below the first pass; with a
    negative effect that search warns if its probes show power falling.
    Both searches take the spec's alpha as the power at n -> 0. Specs
    with ``composite=True`` search on the summed statistic; ``strict``
    keeps achieved alpha <= target.
    """
    if model.n_outcomes != spec.n_outcomes:
        raise ValueError("model and spec disagree on the number of outcomes")
    if not 1 <= nmin < nmax:  # before the calibration pass, not after it
        raise ValueError("require 1 <= nmin < nmax")
    rule = _Rule(block, spec)
    # the rule's block is already summed, so calibrate_c sums nothing again
    constant, _ = calibrate_c(rule.block, spec, strict=strict)
    boundaries = _final_scale_boundaries(constant, spec.n_stages, spec.wt_delta)
    effects = lfc_effects(spec, mode=lfc_mode, sigma=model.sigma)
    target = 1.0 - spec.beta
    oc_lfc = {}  # per-stage size -> OC at the LFC, one entry per probe

    def power_at(n: int) -> float:
        schedule = StageSchedule.equal(n, spec.n_stages)
        oc_lfc[n] = rule.oc(boundaries, schedule, mean_shift_vector(effects, schedule, model))
        return oc_lfc[n].p_reject

    if rule.m in (1, rule.k) and effects.min() >= 0.0:
        # the LFC shift at n is sqrt(n) times the shift at n = 1
        slope = mean_shift_vector(effects, StageSchedule.equal(1, spec.n_stages), model)
        n = _threshold_size(rule, boundaries, slope, target, nmin)
        opening = () if n > nmax else (int(n),) if n == nmin else (int(n) - 1, int(n))
    else:
        opening = tuple(nmin - 1 + 2 ** i for i in range((nmax - nmin).bit_length()))
    n = smallest_passing(power_at, target, nmin, nmax, spec.alpha, block.nsims, opening)
    oc_null = rule.oc(boundaries, StageSchedule.equal(n, spec.n_stages))
    return DesignRealisation(
        kind=rule.kind,
        spec=spec,
        n=n,
        n_total=n * spec.n_stages,
        constant=constant,
        boundaries=boundaries,
        alpha_star=oc_null.p_reject,
        power_star=oc_lfc[n].p_reject,
        oc_null=oc_null,
        oc_lfc=oc_lfc[n],
    )
