"""Seedable generation of correlated standardized test statistics.

Blocks of nsims x (J*K) statistics are drawn from the joint null
distribution in independent chunks. Each chunk owns an SFC64 substream
derived from (seed, chunk index), so the assembled block is bit-identical
for a given SimConfig no matter how many worker threads are used. A
worker draws its chunk in sub-blocks of SUB_BLOCK_ROWS rows, stage by
stage: each stage's independent increment is K normals per row times the
K x K Cholesky factor of the outcomes' correlation, added to a running
sum that is scaled into the stage's columns of the block. So a draw holds
three buffers of K x SUB_BLOCK_ROWS values per worker and no chunk-sized
temporary; it checks each sub-block's statistics finite while they are
in cache, so the drawn block is not scanned again. A drawn block is
stored column-major: every column of statistics is contiguous, and a
block pass reads a chunk's columns in place.

Calibration and power evaluation share one null block: effects are added
as mean shifts instead of resimulating, which keeps design comparisons on
common random numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InvalidCorrelationError
from .model import OutcomeModel, StageSchedule

__all__ = [
    "SimConfig",
    "StatisticBlock",
    "cholesky_factor",
    "simulate_null_block",
    "null_blocks",
    "mean_shift_vector",
    "axis_shifts",
]

_CHOLESKY_JITTER = 1e-10
SUB_BLOCK_ROWS = 4_096  # 320 kB of normals at K = 10
CHECK_BYTES = 1 << 18  # rows checked for finiteness at a time: a 32 kB flag temporary


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

    ``simulate_null_block`` stores ``values`` column-major (F-ordered), so
    the transpose of a chunk's rows, ``values[a:b].T``, is one contiguous
    run per column and costs nothing. A wrapped array keeps its order when
    it is C- or F-contiguous (no copy); any other array is copied
    C-contiguous. Kernels work for either order, fastest on columns."""

    values: np.ndarray
    n_stages: int
    n_outcomes: int
    threads: int = 1
    _drawn: InitVar[bool] = False  # simulate_null_block's workers checked every row

    def __post_init__(self, _drawn: bool):
        values = np.asarray(self.values, dtype=float)
        if not values.flags.f_contiguous:
            values = np.ascontiguousarray(values)  # a C-contiguous array passes through
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
        raise ValueError("statistics must be finite")


def cholesky_factor(cov: np.ndarray, jitter: float = _CHOLESKY_JITTER) -> np.ndarray:
    """Lower-triangular L with L @ L.T == cov.

    A single diagonal jitter pass rescues matrices that are PSD up to
    rounding; anything still failing is rejected rather than repaired.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError:
        raise InvalidCorrelationError(
            "covariance is not positive semidefinite; check the correlation matrix"
        ) from None


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


class ShiftGrid:
    """The Cartesian grid of a count pass: shifts[i] is a (values, stages)
    array of column i's shifts, stacked into one (stages, columns, V, 1)
    array zero-padded to the longest axis V. Grid arrays are (V_1, ..., V_A,
    rows) without the axes of one value, so a one-point grid is (rows,)."""

    def __init__(self, shifts, n_stages: int):
        self.lengths = [len(s) for s in shifts]
        self.points = math.prod(self.lengths)
        self.stacked = np.zeros((n_stages, len(shifts), max(self.lengths), 1))
        for i, s in enumerate(shifts):
            self.stacked[:, i, :len(s), 0] = s.T
        self.live = [a for a, v in enumerate(self.lengths) if v != 1]

    def width(self, chunk_bytes: int) -> int:
        """Rows of a slice holding at most chunk_bytes / 8 (point, row) cells
        and shifted statistics of one stage."""
        return max(1, chunk_bytes // (8 * max(self.points, self.stacked[0].size, 1)))

    def workspace(self, width: int, *kinds: str, tallies: int = 0, step: int = 1):
        """Arrays for the slices of a chunk, at most ``width`` rows each, one
        per kind: "shifted" statistics (columns, V, rows) and their "flags",
        grid arrays of "counts" and boolean "marks", "ranks" (one count grid
        array per column) and "pairs" of columns' flags (V, V, rows). With
        ``tallies``, one more array, last: that many zeroed grid arrays of
        the smallest unsigned type that holds ``step``, the most a slice adds
        to one of their cells (see ``slices``). Returns cut(rows=width):
        views of each array's first ``rows`` rows, all in one allocation
        (``carve``)."""
        columns, values, count = len(self.lengths), self.stacked.shape[2], \
            np.min_scalar_type(len(self.lengths))
        grid = tuple(self.lengths[a] for a in self.live)
        layout = {"shifted": ((columns, values), float), "flags": ((columns, values), bool),
                  "counts": (grid, count), "marks": (grid, bool),
                  "ranks": ((columns,) + grid, count), "pairs": ((values, values), bool)}
        shapes = [(layout[kind][0] + (width,), layout[kind][1]) for kind in kinds]
        if tallies:
            shapes.append(((tallies,) + grid + (width,), np.min_scalar_type(step)))
        arrays = carve(*shapes)
        if tallies:
            arrays[-1][...] = 0
        return lambda rows=width: [a[..., :rows] for a in arrays]

    def shift(self, z: np.ndarray, stage: int, out: np.ndarray) -> np.ndarray:
        """(columns, V, rows) into ``out``: a stage's (columns, 1, rows)
        statistics plus each of its shifts."""
        return np.add(z, self.stacked[stage], out=out)

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
    sizes = [math.prod(shape) * dtype.itemsize for shape, dtype in shapes]
    starts = list(itertools.accumulate((-(-size // 64) * 64 for size in sizes), initial=0))
    space = np.empty(starts[-1], dtype=np.uint8)
    return [space[a:a + size].view(dtype).reshape(shape)
            for (shape, dtype), a, size in zip(shapes, starts, sizes)]


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
    the K x K Cholesky factor of R, adds that to a running sum, and writes
    the sum times 1/sqrt(N_j) straight into stage j's columns. Assembly
    order is fixed, so output does not depend on the thread count.
    """
    if threads < 1:  # before the draw, not after it
        raise ValueError("threads must be >= 1")
    k, stages = model.n_outcomes, schedule.n_stages
    factors = np.sqrt(np.asarray(schedule.stage_sizes, dtype=float))[:, None, None] \
        * cholesky_factor(model.rho)
    scales = 1.0 / np.sqrt(schedule.cumulative)
    columns = np.empty((stages * k, cfg.nsims))  # row i is the block's column i
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
                np.multiply(total, scales[j], out=columns[j * k:(j + 1) * k, a:a + rows])
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
