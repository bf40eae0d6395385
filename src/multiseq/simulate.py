"""Seedable generation of correlated standardized test statistics.

Blocks of nsims x (J*K) statistics are drawn from the joint null
distribution in independent chunks. Each chunk owns an SFC64 substream
derived from (seed, chunk index), so the assembled block is bit-identical
for a given SimConfig no matter how many worker threads are used. A
worker draws its chunk in sub-blocks of SUB_BLOCK_ROWS rows, stage by
stage: each stage's independent increment is K normals per row times the
K x K Cholesky factor of the outcomes' correlation (``model.factor``),
added to a running sum that is scaled into the stage's columns of the
block. The draw, the products and the running sums are float64; each
statistic is rounded to float32 once, as it is written, so a block holds
4 bytes per statistic (a rounding changes a value by at most 2^-24 of
it, far below the Monte Carlo error). So a draw holds three float64
buffers of K x SUB_BLOCK_ROWS values per worker and no chunk-sized
temporary; it checks each sub-block's statistics finite while they are
in cache, so the drawn block is not scanned again. A drawn block is
stored column-major: every column of statistics is contiguous, and a
block pass reads a chunk's columns in place. Kernels widen what they
read to float64 before any arithmetic; the gs count kernel, which only
compares shifted statistics with the boundaries, compares the stored
values with float32 thresholds instead, which decide exactly as the
float64 sums would (``float32_thresholds``).

Calibration and power evaluation share one null block: effects are added
as mean shifts instead of resimulating, which keeps design comparisons on
common random numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .model import OutcomeModel, StageSchedule

__all__ = [
    "SimConfig",
    "StatisticBlock",
    "simulate_null_block",
    "null_blocks",
    "mean_shift_vector",
    "axis_shifts",
]

SUB_BLOCK_ROWS = 4_096  # 320 kB of normals at K = 10
CHECK_BYTES = 1 << 18  # rows checked for finiteness at a time: a 64 kB flag temporary
STATISTIC = np.dtype(np.float32)  # what a block stores; its arithmetic is float64


@dataclass(frozen=True)
class SimConfig:
    """Replication count and seeding; identical configs give identical blocks."""

    seed: int
    nsims: int = 100_000
    chunk_size: int = 65_536

    def __post_init__(self):
        if self.nsims < 1:
            raise ValueError("nsims must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        object.__setattr__(self, "seed", int(self.seed) % 2**64)


@dataclass(frozen=True, eq=False)
class StatisticBlock:
    """nsims x (J*K) standardized statistics, stage-major columns, immutable;
    every pass over the block runs on its ``threads`` workers.

    ``values`` is float32, whatever was wrapped: any other array is
    rounded to float32 once, and the finiteness check reads the rounded
    values, so a float64 value beyond the float32 range is rejected.
    ``simulate_null_block`` stores ``values`` column-major (F-ordered), so
    the transpose of a chunk's rows, ``values[a:b].T``, is one contiguous
    run per column and costs nothing. A C- or F-contiguous float32 array
    is kept as it is (no copy); a rounded copy keeps a C- or F-contiguous
    array's order, and any other array is copied C-contiguous. Kernels
    work for either order, fastest on columns."""

    values: np.ndarray
    n_stages: int
    n_outcomes: int
    threads: int = 1
    _drawn: InitVar[bool] = False  # simulate_null_block's workers checked every row

    def __post_init__(self, _drawn: bool):
        values = np.asarray(self.values)
        if values.dtype != STATISTIC or not (values.flags.c_contiguous
                                             or values.flags.f_contiguous):
            with np.errstate(over="ignore"):  # beyond the float32 range: inf, rejected below
                values = values.astype(STATISTIC, order="F" if values.flags.f_contiguous else "C")
        if values.ndim != 2 or values.shape[1] != self.n_stages * self.n_outcomes:
            raise ValueError("values must be 2-d with n_stages * n_outcomes columns")
        if len(values) < 1:  # a pass combines the results of at least one chunk
            raise ValueError("values must hold at least one row")
        if not _drawn:
            _require_finite(values)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def nsims(self) -> int:
        return self.values.shape[0]

    def each_chunk(self, fn, chunk_bytes: int) -> list:
        """One pass: [fn(rows) for the read-only view of each row chunk of at
        most chunk_bytes (at least one row)] in row order, on the block's workers."""
        row_bytes = self.values.shape[1] * self.values.itemsize
        return run_chunks(lambda a, b: fn(self.values[a:b]), self.nsims,
                          max(1, chunk_bytes // row_bytes), self.threads)

    def each_row(self, fn, chunk_bytes: int) -> np.ndarray:
        """One ``each_chunk`` pass whose kernel gives one float per row: each
        worker copies fn(rows) into its chunk's own rows of one nsims-length
        array, placed by where the chunk's view starts in the block."""
        out = np.empty(self.nsims)
        first_row, row_bytes = self.values.ctypes.data, self.values.strides[0]

        def fill(rows: np.ndarray) -> None:
            a = (rows.ctypes.data - first_row) // row_bytes
            out[a:a + len(rows)] = fn(rows)

        self.each_chunk(fill, chunk_bytes)
        return out


def _require_finite(values: np.ndarray) -> None:
    """ValueError unless every value is finite, checked CHECK_BYTES of rows at a time."""
    step = max(1, CHECK_BYTES // (values.shape[1] * values.itemsize))
    if not all(np.isfinite(values[a:a + step]).all() for a in range(0, len(values), step)):
        raise ValueError("statistics must be finite in float32")


def run_chunks(fn, nrows: int, chunk_rows: int, threads: int = 1) -> list:
    """[fn(start, stop) for each chunk of rows [0, nrows)], in row order.

    With threads > 1 the chunks run on a per-call pool of at most
    min(threads, chunks) workers; every call's result is read, so a
    worker's exception reaches the caller.
    """
    ranges = [(a, min(a + chunk_rows, nrows)) for a in range(0, nrows, chunk_rows)]
    if threads > 1 and len(ranges) > 1:
        # imported here so that a single-threaded run never loads it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, len(ranges))) as pool:
            return [fut.result() for fut in [pool.submit(fn, a, b) for a, b in ranges]]
    return [fn(a, b) for a, b in ranges]


def float32_thresholds(edges, shifts) -> np.ndarray:
    """float32 t of each (edge, shift) pair (broadcast together) such that,
    for every finite float32 z, float64(z) + shift > edge exactly when
    z > t. So a count kernel compares stored statistics with t and never
    adds the shift; the comparison is exact, not approximate. As rounding
    to nearest is odd, float64(z) + shift < edge exactly when z < -t' for
    t' = float32_thresholds(-edge, -shift).

    Such a t exists because float rounding is monotone: the statistics
    that pass form an upper set of the float32 ordering, and t is the
    largest float32 below it (-inf when every finite statistic passes,
    the largest finite float32 when none does). t starts as float32(edge
    - shift); it or its lower neighbour is the answer unless the
    subtraction lost more than a step, as when a large shift absorbs a
    small edge - shift (edge = 1 + 2^-52, shift = 1), which
    ``_bisect_thresholds`` then settles."""
    edges, shifts = np.asarray(edges, dtype=float), np.asarray(shifts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # beyond the float32 range: inf
        t = np.subtract(edges, shifts).astype(STATISTIC)
        passing = _passes(t, edges, shifts)
        # t passes: it is one step high unless its lower neighbour passes too;
        # t does not: it is the answer if its upper neighbour passes
        step = np.where(passing, np.nextafter(t, -np.inf), np.nextafter(t, np.inf))
        unsettled = _passes(step, edges, shifts) == passing
    t = np.where(passing, step, t)
    if unsettled.any():
        t[unsettled] = _bisect_thresholds(np.broadcast_to(edges, t.shape)[unsettled],
                                          np.broadcast_to(shifts, t.shape)[unsettled])
    return t


def _passes(z: np.ndarray, edges: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """float64(z) + shift > edge for float32 z: the add and compare that a
    threshold stands for. -inf never passes; +inf fails at an edge of
    +inf, and then settles no threshold, so ``_bisect_thresholds`` (whose
    upper bound +inf is taken to pass) finds it."""
    return np.greater(z.astype(float) + shifts, edges)


def _bisect_thresholds(edges: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``float32_thresholds`` of 1-d pairs by bisection over the float32
    ordering (about 32 steps on the integer keys of ``_order_keys``). The
    bounds start at -inf, taken not to pass, and +inf, taken to pass, and
    only finite values between them are tried."""
    lo = np.full(edges.shape, _order_keys(np.array(-np.inf, STATISTIC)))
    hi = np.full(edges.shape, _order_keys(np.array(np.inf, STATISTIC)))
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        with np.errstate(invalid="ignore"):  # an infinite shift or edge: nan, which fails
            passing = _passes(_order_keys(mid, inverse=True), edges, shifts)
        hi, lo = np.where(passing, mid, hi), np.where(passing, lo, mid)
    return _order_keys(lo, inverse=True)


def _order_keys(values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """int64 keys of float32 values that increase with them, -0 just below
    +0, neighbours one apart; or with ``inverse``, the float32 values of
    such keys. A negative float's bits, as int32, grow with its magnitude,
    so they are reflected; the reflection is its own inverse."""
    bits = values.astype(np.int64) if inverse else values.view(np.int32).astype(np.int64)
    keys = np.where(bits < 0, -(1 << 31) - 1 - bits, bits)
    return keys.astype(np.int32).view(STATISTIC) if inverse else keys


class ShiftGrid:
    """The Cartesian grid of a count pass: shifts[i] is a (values, stages)
    array of column i's shifts, stacked into one (stages, columns, V, 1)
    array zero-padded to the longest axis V. Grid arrays are (V_1, ..., V_A,
    rows) without the axes of one value, so a one-point grid is (rows,).
    The gs count kernel compares statistics with ``thresholds`` of the
    shifts; the drop-the-loser one, which computes with the shifted
    statistics, adds the shifts (``shift``)."""

    def __init__(self, shifts, n_stages: int):
        self.lengths = [len(s) for s in shifts]
        self.points = math.prod(self.lengths)
        self.stacked = np.zeros((n_stages, len(shifts), max(self.lengths), 1))
        for i, s in enumerate(shifts):
            self.stacked[:, i, :len(s), 0] = s.T
        self.live = [a for a, v in enumerate(self.lengths) if v != 1]

    def thresholds(self, upper, lower) -> tuple:
        """(above, below): ``float32_thresholds`` of every shift, each
        (stages, columns, V, 1) like ``stacked``, at each stage's upper and
        lower edge, from one call. A stage's stored (columns, 1, rows)
        statistics z shifted pass above the upper edge exactly when
        ``z > above[stage]``, and below the lower edge exactly when
        ``z < below[stage]``. A pass takes them once, before its chunks
        run."""
        edges = np.concatenate([np.ravel(upper), np.negative(lower)])
        t = float32_thresholds(edges.reshape(-1, 1, 1, 1),
                               np.concatenate([self.stacked, np.negative(self.stacked)]))
        return t[:len(self.stacked)], np.negative(t[len(self.stacked):])

    def width(self, chunk_bytes: int) -> int:
        """Rows of a slice holding at most chunk_bytes / 8 (point, row) cells
        and shifted statistics of one stage."""
        return max(1, chunk_bytes // (8 * max(self.points, self.stacked[0].size, 1)))

    def workspace(self, width: int, *kinds: str, tallies: int = 0, step: int = 1):
        """Arrays for the slices of a chunk, at most ``width`` rows each, one
        per kind: "shifted" statistics (columns, V, rows) and their "flags",
        the "widened" statistics of ``shift`` (columns, 1, rows; empty when
        V = 1), grid arrays of "counts" and boolean "marks", "ranks" (one
        count grid array per column) and "pairs" of columns' flags (V, V,
        rows). With ``tallies``, one more array, last: that many zeroed grid
        arrays of the smallest unsigned type that holds ``step``, the most a
        slice adds to one of their cells (see ``slices``). Returns
        cut(rows=width): views of each array's first ``rows`` rows, all in
        one allocation (``carve``)."""
        columns, values, count = len(self.lengths), self.stacked.shape[2], \
            np.min_scalar_type(len(self.lengths))
        grid = tuple(self.lengths[a] for a in self.live)
        layout = {"shifted": ((columns, values), float), "flags": ((columns, values), bool),
                  "widened": ((columns, int(values > 1)), float),
                  "counts": (grid, count), "marks": (grid, bool),
                  "ranks": ((columns,) + grid, count), "pairs": ((values, values), bool)}
        shapes = [(layout[kind][0] + (width,), layout[kind][1]) for kind in kinds]
        if tallies:
            shapes.append(((tallies,) + grid + (width,), np.min_scalar_type(step)))
        arrays = carve(*shapes)
        if tallies:
            arrays[-1][...] = 0
        return lambda rows=width: [a[..., :rows] for a in arrays]

    def shift(self, z: np.ndarray, stage: int, out: np.ndarray,
              widened: np.ndarray) -> np.ndarray:
        """(columns, V, rows) into ``out``: a stage's (columns, 1, rows)
        statistics, each widened to float64 once, plus each of its shifts.
        With one value per column, the add widens as it reads. Otherwise
        the statistics are widened first into ``widened``, a "widened"
        array of ``workspace``: an add that broadcast float32 statistics
        over V values would cast them again for every value (about 3 times
        slower at V = 7 and 49)."""
        if out.shape[1] > 1:
            np.copyto(widened, z)
            z = widened
        return np.add(z, self.stacked[stage], out=out, dtype=float)

    def place(self, values: np.ndarray, axes: tuple) -> np.ndarray:
        """View of ``values``, one length per grid axis in ``axes``
        (increasing) then one per row, that broadcasts against grid arrays."""
        shape = [1] * len(self.live) + [values.shape[-1]]
        for axis, length in zip(axes, values.shape):
            if axis in self.live:
                shape[self.live.index(axis)] = length
        return values.reshape(shape)

    def count(self, flags: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Number of true flags at each grid point and row, into ``out``, a
        "counts" array of ``workspace``: flags is (columns, V, rows), padded
        as the shifts are. A one-point grid is counted by one reduction over
        the columns."""
        flags = flags.view(np.uint8)  # adds without a cast from bool
        if self.points == 1:
            return np.add.reduce(flags[:, 0], axis=0, dtype=out.dtype, out=out)
        out[...] = self.place(flags[0, :self.lengths[0]], (0,))
        for axis in range(1, len(flags)):
            out += self.place(flags[axis, :self.lengths[axis]], (axis,))
        return out

    def slices(self, nrows: int, width: int, tallies: np.ndarray, total: np.ndarray,
               step: int = 1):
        """Start of each ``width``-row slice of a chunk of nrows rows. Each
        slice adds at most ``step`` to a cell of ``tallies``, the (tallies,
        *grid, width) array of ``workspace``. Their counts are added into
        ``total`` (tallies, points) after the last slice, and also every
        max // step slices, before a cell could overflow. So a slice adds in
        place, and a chunk reduces over its rows once."""
        every, added = np.iinfo(tallies.dtype).max // step, 0
        for a in range(0, nrows, width):
            if added == every:
                self._flush(tallies, total, added * step)
                tallies[...] = 0
                added = 0
            added += 1
            yield a
        self._flush(tallies, total, added * step)

    def _flush(self, tallies: np.ndarray, total: np.ndarray, most: int) -> None:
        """Adds the tallies' counts over their rows to total. No cell exceeds
        ``most``, so the sum takes the smallest type that holds a row of
        them: the narrower, the faster the cast from uint8."""
        cells = tallies.reshape(len(tallies), self.points, tallies.shape[-1])
        total += np.add.reduce(cells, axis=-1, dtype=np.min_scalar_type(most * cells.shape[-1]))


def carve(*shapes) -> list:
    """Arrays of the given (shape, dtype) pairs, 64-byte aligned in one
    allocation. Freeing it raises glibc's trim threshold to twice its size,
    so the next pass gets the same pages back instead of faulting them in
    again; separate arrays of the same total would not."""
    shapes = [(shape, np.dtype(dtype)) for shape, dtype in shapes]
    sizes = [-(-math.prod(shape) * dtype.itemsize // 64) * 64 for shape, dtype in shapes]
    space = np.empty(sum(sizes), dtype=np.uint8)
    return [np.ndarray(shape, dtype, space, start) for (shape, dtype), start
            in zip(shapes, itertools.accumulate(sizes, initial=0))]


def simulate_null_block(schedule: StageSchedule, model: OutcomeModel,
                        cfg: SimConfig, threads: int = 1) -> StatisticBlock:
    """Draw cfg.nsims independent rows of the joint null statistics, stored
    column-major.

    The statistics have independent increments: with n_j new participants
    at stage j and N_j in total, Z_j = (S_1 + ... + S_j) / sqrt(N_j) for
    independent S_i ~ N(0, n_i R), where R is the outcomes' correlation
    (Jennison & Turnbull 2000; the random-walk construction of
    Glasserman 2004, §3.1). Chunk c uses the SFC64 stream keyed by
    (cfg.seed, c) and draws it in sub-blocks of SUB_BLOCK_ROWS rows (the
    last may be shorter), in order. Within a sub-block, stage by stage, it
    draws a (K, rows) array of normals, multiplies it by sqrt(n_j) times
    ``model.factor``, the K x K Cholesky factor of R, adds that to a
    running sum, and writes the sum times 1/sqrt(N_j), rounded once to
    float32, straight into stage j's columns. Assembly order is fixed, so
    output does not depend on the thread count.
    """
    if threads < 1:  # before the draw, not after it
        raise ValueError("threads must be >= 1")
    k, stages = model.n_outcomes, schedule.n_stages
    factors = np.sqrt(np.asarray(schedule.stage_sizes, dtype=float))[:, None, None] * model.factor
    scales = 1.0 / np.sqrt(schedule.cumulative)
    columns = np.empty((stages * k, cfg.nsims), dtype=STATISTIC)  # row i: the block's column i
    out = columns.T  # column-major

    def fill(start: int, stop: int) -> None:
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(start // cfg.chunk_size,))
        rng = np.random.Generator(np.random.SFC64(seq))
        width = min(SUB_BLOCK_ROWS, stop - start)
        normals, running, step = np.empty(k * width), np.empty((k, width)), np.empty((k, width))
        for a in range(start, stop, width):
            rows = min(width, stop - a)
            draw, total = normals[:k * rows].reshape(k, rows), running[:, :rows]
            for j, factor in enumerate(factors):
                rng.standard_normal(out=draw)
                if j:
                    total += np.matmul(factor, draw, out=step[:, :rows])
                else:
                    np.matmul(factor, draw, out=total)
                # scaled in float64, then rounded once as it is stored: a cast
                # copy, where a ufunc writing float32 would cast through a buffer
                np.copyto(columns[j * k:(j + 1) * k, a:a + rows],
                          np.multiply(total, scales[j], out=step[:, :rows]))
            _require_finite(out[a:a + rows])  # on this worker, while the rows are in cache

    run_chunks(fill, cfg.nsims, cfg.chunk_size, threads)
    return StatisticBlock(values=out, n_stages=schedule.n_stages, n_outcomes=model.n_outcomes,
                          threads=threads, _drawn=True)


def null_blocks(stage_counts, model: OutcomeModel, cfg: SimConfig,
                threads: int = 1) -> dict:
    """Null block of one model for each distinct stage count, each drawn
    once; stage count -> block (the null statistics do not depend on the
    stage size, so every search and grid on that model can share them).
    ``threads`` workers draw each block and run every pass over it."""
    return {j: simulate_null_block(StageSchedule.equal(1, j), model, cfg, threads=threads)
            for j in sorted(set(stage_counts))}


def mean_shift_vector(mu, schedule: StageSchedule, model: OutcomeModel) -> np.ndarray:
    """Per-column mean mu_k * sqrt(N_j) / sigma_k as a length J*K vector."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size != model.n_outcomes:
        raise ValueError(f"mu must have length {model.n_outcomes}, got {mu.size}")
    shift = mu[None, :] * np.sqrt(schedule.cumulative)[:, None] / model.sigma[None, :]
    return shift.ravel()


def axis_shifts(axes, schedule: StageSchedule, model: OutcomeModel) -> list:
    """Per outcome k, a (len(axes[k]), J) array whose row v holds the shifts
    that ``mean_shift_vector`` gives outcome k's J columns at mu_k =
    axes[k][v], as the same float expression."""
    if len(axes) != model.n_outcomes:
        raise ValueError(f"need {model.n_outcomes} effect axes, got {len(axes)}")
    root = np.sqrt(schedule.cumulative)
    return [np.asarray(axis, dtype=float).reshape(-1, 1) * root[None, :] / sigma
            for axis, sigma in zip(axes, model.sigma)]
