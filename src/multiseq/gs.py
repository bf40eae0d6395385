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

# bytes of statistics per row chunk of a block pass, 4 bytes each. A kernel reads
# its chunk's columns in place and holds only its workspaces (0.15-0.06 times the
# chunk in a one-point count pass, which compares the chunk with float32 thresholds
# in slices of a quarter of this; K = 2-10, tracemalloc). Fewer rows per chunk mean
# more numpy calls per row, which two workers contend for. A 500k-row K = 10, m = 5,
# J = 5 block's interval pass / one-point count pass, in ms (medians of 9, OpenBLAS
# on one thread; the count pass shifted its statistics in float64 then, and at 8 MB
# on 2 threads it now takes 11-16 ms):
#   1 thread:  66 / 63 at 1 MB, 55 / 43 at 2 MB, 51 / 37 at 4 MB, 50 / 40 at 8 MB,
#              52 / 42 at 16 MB;
#   2 threads: 64 / 69 at 1 MB, 77 / 38 at 2 MB, 45 / 27 at 4 MB, 36 / 25 at 8 MB,
#              36 / 30 at 16 MB.
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
        # the boundaries are rescaled by J^(0.5 - wt_delta) and by its
        # reciprocal; neither may overflow or fall below the normal floats
        with np.errstate(over="ignore", under="ignore"):
            scales = float(self.n_stages) ** np.array([0.5 - self.wt_delta, self.wt_delta - 0.5])
        if not np.all((scales >= np.finfo(float).tiny) & (scales < np.inf)):
            limit = 1022 * np.log(2) / np.log(self.n_stages)
            raise ValueError(f"wt_delta must be within about {limit:.4g} of 0.5 at J = "
                             f"{self.n_stages}, got {self.wt_delta!r}")
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
    is summed on its own and then added to the summed block. Both sums
    follow ``_outcome_sum``: 0.0 plus the K outcomes in order. A pass runs
    a kernel on each row chunk of CHUNK_BYTES on the block's workers and
    combines the results in row order; a kernel reads its chunk's float32
    columns in place, widens them to float64 before any arithmetic, and
    writes only its own workspaces, so no pass copies a chunk or the
    block. Every count pass (``oc``, and so the searches' probes, and
    effect grids) runs the one count kernel of ``grid_oc``; ``oc`` is its
    one-point grid. It only compares, so it does no arithmetic: it
    compares the float32 columns with float32 thresholds that decide
    exactly as the shifted float64 statistics would.
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
        the rule's block: if composite, each stage's K entries summed in
        outcome order by ``_outcome_sum``."""
        shift = np.asarray(shift, dtype=float)
        size = self.spec.n_stages * self.spec.n_outcomes
        if shift.shape != (size,):
            raise ValueError(f"shift must have length J * K = {size}, got shape {shift.shape}")
        stages = shift.reshape(self.spec.n_stages, -1)
        return _outcome_sum(stages.T, np.empty(len(stages))) if self.summed else shift

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

        Each chunk reads its columns in place, stage by stage, and writes
        only row-length arrays: W_j by ``_order_statistic`` over the stage's
        K columns (a stored value, widened as it is divided by a_j), and T_j
        as a running max. A chunk lists its intervals stage by stage, so
        their order depends on the chunk size, but their multiset (all that
        calibration reads) does not, and for one chunk size neither does the
        order depend on the thread count.
        """
        n_stages, k, m = self.spec.n_stages, self.k, self.m
        a = np.asarray(_final_scale_boundaries(1.0, n_stages, self.spec.wt_delta).upper)

        def intervals(rows: np.ndarray) -> tuple:
            cols = rows.T.reshape(n_stages, k, len(rows))
            t, w = np.zeros(len(rows)), np.empty(len(rows))
            keep = np.empty(len(rows), dtype=bool)
            starts, ends = [], []
            for j in range(n_stages):
                np.divide(_order_statistic(cols[j], k - m), a[j], out=w)  # widened: W_j / a_j
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

        def crossing(edge: float, z: np.ndarray, c: float, past, out: np.ndarray):
            # the crossing of the edge by the widened statistics z with slope c
            if c > 0:
                return np.divide(np.subtract(edge, z, out=out), c, out=out)
            out[:] = np.where(past(z, edge), -np.inf, np.inf)
            return out

        def thresholds(rows: np.ndarray) -> np.ndarray:
            size = len(rows)
            cols = rows.T.reshape(n_stages, k, size)
            # t*, g_j, h_j and max_{i<j} h_i; a widened column and its two crossings
            t, go, stop, nogo = (np.full(size, np.inf), np.empty(size), np.empty(size),
                                 np.full(size, -np.inf))
            z, up, down = np.empty(size), np.empty(size), np.empty(size)
            for j, (zs, cs) in enumerate(zip(cols, slope)):
                last = j == n_stages - 1
                for i, (zk, ck) in enumerate(zip(zs, cs)):
                    np.copyto(z, zk)  # widened once for both edges
                    crossing(upper[j], z, ck, np.greater, up if i else go)
                    if not last:
                        crossing(lower[j], z, ck, np.greater_equal, down if i else stop)
                    if i:  # the min (m = 1) or max (m = K) over the stage's K columns
                        pick(go, up, out=go)
                        if not last:
                            pick(stop, down, out=stop)
                np.minimum(t, np.maximum(go, nogo, out=go), out=t)
                if not last:
                    np.maximum(nogo, stop, out=nogo)
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
        point's summed shift, since a composite shift does not split by
        outcome: outcome i's shifts, placed on grid axis i, summed over the
        whole grid at once by ``_outcome_sum``, as ``_columns`` sums a point."""
        shifts = axis_shifts(axes, schedule, model)
        if not self.summed:
            return shifts
        k = len(shifts)
        placed = [np.expand_dims(s, [a for a in range(k) if a != i]) for i, s in enumerate(shifts)]
        grid = np.empty([len(s) for s in shifts] + [self.spec.n_stages])
        return [_outcome_sum(placed, grid).reshape(-1, self.spec.n_stages)]

    def grid_oc(self, boundaries: Boundaries, schedule: StageSchedule, shifts) -> list:
        """Operating characteristics at every point of the ``ShiftGrid`` of
        ``shifts`` (one (values, J) array per column of the rule's block), in
        row-major order, from one pass: the rule's one count kernel. The
        pass takes ``ShiftGrid.thresholds`` of the boundaries once: a
        stage's stored statistics z shifted pass above the upper boundary
        exactly when z > above[stage], and below the lower one exactly when
        z < below[stage], float32 against float32. Each chunk reads its
        columns in place in slices of ``ShiftGrid.width`` rows; per stage a
        slice is compared with both thresholds of every column and value
        and counted over the grid, all into the chunk's
        ``ShiftGrid.workspace``. Its go rows and its rows still open
        after each stage but the last add into one tally per (point, row)
        cell, of a type that holds one per slice of the chunk, which
        ``ShiftGrid.total`` reduces once per chunk into each point's go
        count and stop-stage histogram."""
        n_stages, k, m, nsims = self.spec.n_stages, self.k, self.m, self.block.nsims
        grid = ShiftGrid(shifts, n_stages)
        points, width = grid.points, grid.width(CHUNK_BYTES // 4)
        above, below = grid.thresholds(boundaries.upper, boundaries.lower)

        def counts(rows: np.ndarray) -> np.ndarray:
            cols = rows.T.reshape(n_stages, k, 1, len(rows))
            most = -(-len(rows) // width)  # the slices: each adds at most 1 to a cell
            cut = grid.workspace(min(width, len(rows)), "flags", "counts", "counts", "marks",
                                 "marks", tallies=n_stages, most=most)
            # row 0: go rows; row j + 1: rows still open after stage j
            for a in range(0, len(rows), width):
                flags, over, under, went, still_open, (gone, *opened) = \
                    cut(min(width, len(rows) - a))
                for j in range(n_stages):
                    z = cols[j, ..., a:a + width]
                    grid.count(np.greater(z, above[j], out=flags), out=over)
                    np.greater_equal(over, m, out=went)
                    if j:
                        went &= still_open
                    gone += went.view(np.uint8)  # a row goes at one stage: 1 a slice
                    if j == n_stages - 1:  # decides every open row: no lower test
                        break
                    if j:  # went holds only open rows: drop them
                        still_open ^= went
                    else:
                        np.less(over, m, out=still_open)
                    grid.count(np.less(z, below[j], out=flags), out=under)
                    still_open &= np.less_equal(under, k - m, out=went)
                    opened[j] += still_open.view(np.uint8)
            return grid.total(cut()[-1], most)

        total = sum(self.block.each_chunk(counts, CHUNK_BYTES))
        opened = np.vstack([np.full(points, nsims), total[1:], np.zeros(points, np.intp)])
        return self._oc(total[0], opened[:-1] - opened[1:], schedule)

    def _oc(self, go: np.ndarray, stops: np.ndarray, schedule: StageSchedule) -> list:
        """Operating characteristics of every point from its go count and its
        column of the (J, points) stop-stage histogram: every mean is an
        exact integer sum over nsims (its terms are integers below 2^53)."""
        nsims = self.block.nsims
        k = self.spec.n_outcomes  # ENM counts all K measured outcomes, composite or not
        ess, stages = schedule.cumulative @ stops, np.arange(1, self.spec.n_stages + 1) @ stops
        return [GSOperatingCharacteristics(g / nsims, e / nsims, k * (e / nsims), s / nsims)
                for g, e, s in zip(go.tolist(), ess.tolist(), stages.tolist())]


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

    The sum is taken in row chunks, each stage by ``_outcome_sum`` (0.0
    plus outcomes 1 ... K in order, column by column) in float64 on the
    widened statistics, and each summed value is rounded to float32 once
    as the chunk is stored into a column-major block. So the summed
    values do not depend on the block's layout.
    """
    if block.n_outcomes == 1:
        return block
    n_stages, k, nsims = block.n_stages, block.n_outcomes, block.nsims
    outcomes = block.values.T.reshape(n_stages, k, nsims).swapaxes(0, 1)
    summed = np.empty((n_stages, nsims), dtype=block.values.dtype)
    step = min(nsims, max(1, CHUNK_BYTES // (n_stages * k * 8)))
    chunk_sum = np.empty((n_stages, step))
    for a in range(0, nsims, step):
        rows = min(step, nsims - a)
        summed[:, a:a + rows] = _outcome_sum(outcomes[..., a:a + rows], chunk_sum[:, :rows])
    return replace(block, values=summed.T, n_outcomes=1)


def _outcome_sum(terms, out: np.ndarray) -> np.ndarray:
    """The composite sum, into ``out``: 0.0 plus each outcome's term (which
    broadcasts against ``out``), added in outcome order."""
    out[...] = 0.0
    for term in terms:
        out += term
    return out


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


def _order_statistic(cols, rank: int) -> np.ndarray:
    """The rank-th smallest (from 0) of the columns, element by element,
    by ``_selection_network``: exactly the value ``np.partition`` puts at
    ``rank`` along each row. Reads the columns in place; each comparator
    writes the outputs read later into new row-length arrays (with one
    column, the result is that column)."""
    wires = list(cols)
    for i, j, low, high in _selection_network(len(wires), rank):
        a, b = wires[i], wires[j]
        if low:
            wires[i] = np.minimum(a, b)
        if high:
            wires[j] = np.maximum(a, b)
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
