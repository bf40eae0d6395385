import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import _oracles
import multiseq.simulate as simulate_module
from conftest import random_correlation
from multiseq import OutcomeModel, SimConfig
from _oracles import assemble_covariance
from multiseq.model import StageSchedule
from multiseq.gs import composite_transform
from multiseq.simulate import (
    StatisticBlock,
    mean_shift_vector,
    simulate_null_block,
)


class TestSimConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, nsims=0)
        with pytest.raises(ValueError):
            SimConfig(seed=1, nsims=10, chunk_size=0)

    def test_seed_reduced_to_64_bits(self):
        assert SimConfig(seed=-1, nsims=1).seed == 2**64 - 1


class TestCholesky:
    """The outcome model's factor, which every null block is drawn through."""

    def test_identity(self):
        model = OutcomeModel(sigma=np.ones(3), rho=np.eye(3))
        np.testing.assert_array_equal(model.factor, np.eye(3))

    def test_closed_form_2x2(self):
        factor = OutcomeModel.equicorrelated(2, 0.5).factor
        np.testing.assert_allclose(factor, [[1.0, 0.0], [0.5, 0.8660254]], atol=1e-7)

    def test_reconstruction_of_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = int(rng.integers(1, 8))
            corr = random_correlation(rng, dim)
            factor = OutcomeModel(sigma=np.ones(dim), rho=corr).factor
            assert np.abs(factor @ factor.T - corr).max() < 1e-8

    def test_jitter_rescues_singular_psd(self):
        # perfectly correlated pair: PSD but singular
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor = OutcomeModel(sigma=[1.0, 1.0], rho=corr).factor
        assert np.abs(factor @ factor.T - corr).max() < 1e-8

    def test_rejects_indefinite_matrix(self):
        # every correlation in [-1, 1], but 1 + 2 * rho = -0.2 is an eigenvalue
        with pytest.raises(ValueError, match="rho must be positive semidefinite"):
            OutcomeModel.equicorrelated(3, -0.6)


class TestStatisticBlock:
    def test_rejects_fewer_than_one_worker(self, monkeypatch, two_outcome_model):
        with pytest.raises(ValueError, match="threads"):
            StatisticBlock(values=np.zeros((3, 2)), n_stages=1, n_outcomes=2, threads=0)
        monkeypatch.setattr(simulate_module, "run_chunks", None)  # nothing is drawn
        with pytest.raises(ValueError, match="threads"):
            simulate_null_block(StageSchedule.equal(1, 2), two_outcome_model,
                                SimConfig(seed=96, nsims=50), threads=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_value_in_any_check_slice(self, bad):
        step = simulate_module.CHECK_BYTES // 8  # rows of one check slice of 2 float32 columns
        nrows = 3 * step + 5
        StatisticBlock(values=np.zeros((nrows, 2)), n_stages=1, n_outcomes=2)
        for row in (0, step - 1, step, 2 * step - 1, 2 * step, nrows - 1):
            values = np.zeros((nrows, 2))
            values[row, row % 2] = bad
            with pytest.raises(ValueError, match="finite"):
                StatisticBlock(values=values, n_stages=1, n_outcomes=2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_draw_checks_each_row_once_on_its_workers(self, monkeypatch, two_outcome_model,
                                                        threads):
        checked = []  # (thread, address, copy) of the rows of every finiteness check
        check = simulate_module._require_finite

        def spy(values):
            checked.append((threading.get_ident(), values.ctypes.data, values.copy()))
            check(values)

        monkeypatch.setattr(simulate_module, "_require_finite", spy)
        sub = simulate_module.SUB_BLOCK_ROWS
        cfg = SimConfig(seed=99, nsims=5 * sub + 7, chunk_size=2 * sub + 3)
        block = simulate_null_block(StageSchedule.equal(1, 2), two_outcome_model, cfg,
                                    threads=threads)
        assert len(checked) == 8  # one check per sub-block: 3 + 3 + 2
        assert sum(len(rows) for *_, rows in checked) == block.nsims  # none scanned again
        row_bytes = block.values.strides[0]
        starts = []
        for _, address, rows in checked:  # each saw its rows after every stage was written
            a = (address - block.values.ctypes.data) // row_bytes
            np.testing.assert_array_equal(rows, block.values[a:a + len(rows)])
            starts.append(a)
        assert sorted(starts) == [0, sub, 2 * sub, 2 * sub + 3, 3 * sub + 3, 4 * sub + 3,
                                  4 * sub + 6, 5 * sub + 6]  # every row once
        if threads > 1:
            assert threading.get_ident() not in {thread for thread, *_ in checked}
        with pytest.raises(ValueError, match="finite"):  # an outside array is checked
            replace(block, values=np.full_like(block.values, np.nan))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_drawn_non_finite_value_is_rejected(self, threads):
        # outcome 2's increments are infinite, and their sum over two stages
        # is infinite or nan (inf - inf)
        model = OutcomeModel.equicorrelated(2, 0.0)
        object.__setattr__(model, "factor", np.diag([1.0, np.inf]))
        cfg = SimConfig(seed=100, nsims=3 * simulate_module.SUB_BLOCK_ROWS, chunk_size=5_000)
        with pytest.raises(ValueError, match="statistics must be finite"):
            simulate_null_block(StageSchedule.equal(1, 2), model, cfg, threads=threads)

    def test_wrapping_an_array_allocates_no_block_sized_temporary(self):
        values = np.zeros((1_000_000, 4), dtype=np.float32)  # 16 MB
        tracemalloc.start()
        try:
            block = StatisticBlock(values=values, n_stages=2, n_outcomes=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.values is values
        assert peak < 1 << 20

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_float64_array_is_rounded_once_into_its_own_order(self, order):
        values = np.asarray(np.arange(4_000_000.0).reshape(1_000_000, 4) / 3.0, order=order)
        tracemalloc.start()
        try:
            block = StatisticBlock(values=values, n_stages=2, n_outcomes=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.values.dtype == np.float32 and block.values.nbytes == 4 * values.size
        assert block.values.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(block.values, values.astype(np.float32))  # nearest, each once
        assert peak < block.values.nbytes + (1 << 20)  # the rounded copy, no temporary
        strided = StatisticBlock(values=values[::2], n_stages=2, n_outcomes=2)
        assert strided.values.flags.c_contiguous
        assert np.array_equal(strided.values, values[::2].astype(np.float32))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_block_stores_float32(self, threads):
        # a drawn block, a summed composite block and a wrapped float64 array
        model = OutcomeModel.equicorrelated(3, 0.3)
        drawn = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=101, nsims=5_000, chunk_size=1_500),
                                    threads=threads)
        summed = composite_transform(drawn)
        wrapped = StatisticBlock(values=np.ones((7, 6)), n_stages=2, n_outcomes=3,
                                 threads=threads)
        for block in (drawn, summed, wrapped):
            assert block.values.dtype == np.float32
            assert block.values.nbytes == 4 * block.nsims * block.n_stages * block.n_outcomes
        assert summed.n_outcomes == 1

    @pytest.mark.parametrize("big", [3.5e38, -1e39, 1e300])
    def test_a_value_beyond_the_float32_range_is_rejected(self, big):
        top = float(np.finfo(np.float32).max)
        values = np.full((5, 2), top)  # the largest float32 is kept as it is
        assert StatisticBlock(values=values, n_stages=1, n_outcomes=2).values.max() == top
        values[3, 1] = big
        with pytest.raises(ValueError, match="statistics must be finite in float32"):
            StatisticBlock(values=values, n_stages=1, n_outcomes=2)

    def test_rejects_a_block_without_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            StatisticBlock(values=np.zeros((0, 2)), n_stages=1, n_outcomes=2)

    def test_null_blocks_carry_their_workers(self, two_outcome_model):
        blocks = simulate_module.null_blocks([1, 3], two_outcome_model,
                                             SimConfig(seed=97, nsims=50), threads=2)
        assert [block.threads for block in blocks.values()] == [2, 2]

    @pytest.mark.parametrize("chunk_bytes, ranges", [  # a row is four 4-byte statistics
        (1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # smaller than a row: one row each
        (2 * 16, [(0, 2), (2, 4), (4, 5)]),
        (3 * 16 - 1, [(0, 2), (2, 4), (4, 5)]),  # rounds down to whole rows
        (5 * 16, [(0, 5)]),
    ])
    def test_each_chunk_sizes_chunks_in_whole_rows(self, chunk_bytes, ranges):
        # row i holds (i, i, i, i), so a chunk's first and last values give its rows
        values = np.repeat(np.arange(5.0)[:, None], 4, axis=1)
        block = StatisticBlock(values=values, n_stages=2, n_outcomes=2)
        got = block.each_chunk(lambda rows: (int(rows[0, 0]), int(rows[-1, 0]) + 1),
                               chunk_bytes)
        assert got == ranges

    @pytest.mark.parametrize("threads", [1, 3])
    def test_each_chunk_returns_kernel_results_in_row_order(self, threads):
        block = StatisticBlock(values=np.arange(40.0).reshape(20, 2), n_stages=2,
                               n_outcomes=1, threads=threads)

        def kernel(rows):
            if rows[0, 0] < 10:  # the first chunks finish last
                time.sleep(0.002)
            return rows

        def failing(rows):
            if rows[0, 0] == 26:
                raise ZeroDivisionError("row 13")
            return rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave as often as they can
        try:
            got = block.each_chunk(kernel, 8)  # one 8-byte row per chunk
            with pytest.raises(ZeroDivisionError, match="row 13"):
                block.each_chunk(failing, 8)
        finally:
            sys.setswitchinterval(interval)
        assert [rows.tolist() for rows in got] == [[[2.0 * i, 2.0 * i + 1]] for i in range(20)]
        # each kernel reads a read-only view of the block's own rows
        assert all(np.shares_memory(rows, block.values) for rows in got)
        assert not any(rows.flags.writeable for rows in got)


    @pytest.mark.parametrize("threads", [1, 3])
    def test_each_row_fills_each_chunk_into_its_own_rows(self, threads):
        block = StatisticBlock(values=np.arange(40.0).reshape(20, 2), n_stages=2,
                               n_outcomes=1, threads=threads)
        chunks = []

        def kernel(rows):
            chunks.append(len(rows))
            if rows[0, 0] < 10:  # the first chunks finish last
                time.sleep(0.002)
            return rows[:, 0]

        got = block.each_row(kernel, 3 * 8)  # 3-row chunks
        assert sorted(chunks) == [2] + [3] * 6
        np.testing.assert_array_equal(got, block.values[:, 0])
        assert not np.shares_memory(got, block.values)


class TestNullBlocks:
    def test_one_block_per_distinct_stage_count(self, monkeypatch, two_outcome_model):
        cfg = SimConfig(seed=98, nsims=3_000, chunk_size=1_000)
        drawn = []
        simulate = simulate_module.simulate_null_block

        def counted(schedule, model, cfg, threads=1):
            drawn.append((schedule.n_stages, threads))
            return simulate(schedule, model, cfg, threads=threads)

        monkeypatch.setattr(simulate_module, "simulate_null_block", counted)
        blocks = simulate_module.null_blocks([2, 1, 2, 3], two_outcome_model, cfg,
                                             threads=2)
        assert drawn == [(1, 2), (2, 2), (3, 2)]
        assert list(blocks) == [1, 2, 3]
        for j, block in blocks.items():
            expected = simulate(StageSchedule.equal(1, j), two_outcome_model, cfg)
            assert block.n_stages == j
            assert np.array_equal(block.values, expected.values)


class TestSimulateNullBlock:
    def test_same_config_is_bit_identical(self, two_outcome_model):
        schedule = StageSchedule.equal(1, 3)
        cfg = SimConfig(seed=99, nsims=5_000, chunk_size=1_024)
        a = simulate_null_block(schedule, two_outcome_model, cfg)
        b = simulate_null_block(schedule, two_outcome_model, cfg)
        assert np.array_equal(a.values, b.values)

    def test_thread_count_does_not_change_output(self, two_outcome_model):
        schedule = StageSchedule.equal(1, 2)
        cfg = SimConfig(seed=4, nsims=10_000, chunk_size=777)
        base = simulate_null_block(schedule, two_outcome_model, cfg, threads=1)
        for threads in (2, 3, 7):
            other = simulate_null_block(schedule, two_outcome_model, cfg,
                                        threads=threads)
            assert np.array_equal(base.values, other.values)

    def test_pool_asks_for_no_more_workers_than_chunks(self, monkeypatch,
                                                       two_outcome_model):
        asked = []

        class InlineExecutor:
            """Records max_workers and runs each call at submit time."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", InlineExecutor)
        before = threading.active_count()
        cfg = SimConfig(seed=4, nsims=30, chunk_size=10)
        block = simulate_null_block(StageSchedule.equal(1, 2), two_outcome_model, cfg,
                                    threads=10_000)
        calls = simulate_module.run_chunks(lambda *c: c, 7, 3, threads=10_000)
        assert asked == [3, 3]
        assert calls == [(0, 3), (3, 6), (6, 7)]
        assert threading.active_count() == before
        monkeypatch.undo()
        unthreaded = simulate_null_block(StageSchedule.equal(1, 2), two_outcome_model, cfg)
        assert np.array_equal(block.values, unthreaded.values)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_chunk_draws_its_own_stream(self, two_outcome_model, threads):
        # 10 rows in 3-row chunks: chunk c draws rows [3c, 3c + 3) from the
        # SFC64 stream keyed by (seed, c), one (K, rows) array per stage,
        # and Z_2 = (X_1 + X_2) / sqrt(2) for its two correlated increments;
        # each statistic is computed in float64 and rounded once on store
        schedule = StageSchedule.equal(1, 2)
        cfg = SimConfig(seed=45, nsims=10, chunk_size=3)
        block = simulate_null_block(schedule, two_outcome_model, cfg, threads=threads)
        np.testing.assert_array_equal(
            block.values,
            _oracles.increment_null_block(schedule, two_outcome_model, cfg).astype(np.float32))
        factor = two_outcome_model.factor
        for c in range(4):
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(c,))
            x_1, x_2 = factor @ np.random.Generator(np.random.SFC64(seq)).standard_normal(
                (2, 2, min(3, 10 - 3 * c)))
            np.testing.assert_array_equal(
                block.values[3 * c:3 * c + 3],
                np.vstack([x_1, (x_1 + x_2) / np.sqrt(2.0)]).T.astype(np.float32))

    @pytest.mark.parametrize("stages, outcomes", [  # J * K = 1, 2, 3, 4, 6, 9, 12, 30, 50
        (1, 1), (2, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (3, 10), (5, 10)])
    @pytest.mark.parametrize("chunk_size", [2 * simulate_module.SUB_BLOCK_ROWS + 5,
                                            SimConfig(seed=0).chunk_size])
    def test_sub_blocks_match_one_multiply_per_chunk(self, stages, outcomes, chunk_size):
        # the oracle multiplies all stages of a sub-block at once and sums
        # each chunk's increments with np.cumsum, in float64; the block holds
        # its statistics rounded once to float32
        sub = simulate_module.SUB_BLOCK_ROWS
        schedule = StageSchedule.equal(1, stages)
        model = OutcomeModel.equicorrelated(outcomes, 0.3)
        for nsims in (1, sub - 1, sub, sub + 1, 2 * sub - 1, 2 * sub + 1,
                      chunk_size - 1, chunk_size + 1, chunk_size + sub + 1):
            cfg = SimConfig(seed=nsims, nsims=nsims, chunk_size=chunk_size)
            want = _oracles.increment_null_block(schedule, model, cfg).astype(np.float32)
            for threads in (1, 2, 3):
                got = simulate_null_block(schedule, model, cfg, threads=threads).values
                assert np.array_equal(got, want), (nsims, threads)

    @pytest.mark.parametrize("sizes", [(1, 2, 4), (3, 1, 2)])
    def test_unequal_stages_match_the_increment_oracle(self, sizes):
        schedule = StageSchedule(stage_sizes=sizes)
        model = OutcomeModel.equicorrelated(3, -0.2)
        cfg = SimConfig(seed=47, nsims=3 * simulate_module.SUB_BLOCK_ROWS + 11,
                        chunk_size=2 * simulate_module.SUB_BLOCK_ROWS + 5)
        want = _oracles.increment_null_block(schedule, model, cfg).astype(np.float32)
        for threads in (1, 2):
            got = simulate_null_block(schedule, model, cfg, threads=threads).values
            assert np.array_equal(got, want), threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_whole_chunks_are_a_prefix_of_a_larger_block(self, threads):
        # chunk c keeps its stream and its sub-blocks whatever nsims is, so a
        # block grows by whole chunks; each chunk ends in a 5-row sub-block
        schedule = StageSchedule.equal(1, 3)
        model = OutcomeModel.equicorrelated(3, 0.3)
        chunk = 2 * simulate_module.SUB_BLOCK_ROWS + 5
        small = simulate_null_block(schedule, model,
                                    SimConfig(seed=48, nsims=2 * chunk, chunk_size=chunk),
                                    threads=threads).values
        for nsims in (3 * chunk, 4 * chunk + 10):
            large = simulate_null_block(schedule, model,
                                        SimConfig(seed=48, nsims=nsims, chunk_size=chunk),
                                        threads=threads).values
            assert np.array_equal(large[:2 * chunk], small), nsims

    @pytest.mark.parametrize("sizes, outcomes, rho", [
        ((1, 1, 1), 3, 0.3),
        ((1, 2, 4), 3, [[1.0, -0.4, 0.2], [-0.4, 1.0, 0.5], [0.2, 0.5, 1.0]]),
        ((3, 1), 2, 0.6),
        ((1,) * 5, 10, 0.3),
    ])
    def test_sample_covariance_within_four_standard_errors(self, sizes, outcomes, rho):
        # every entry c of the J*K covariance, from 1M rows: the mean of
        # products of two unit-variance normals has variance (1 + c^2) / N
        schedule = StageSchedule(stage_sizes=sizes)
        model = OutcomeModel(sigma=np.ones(outcomes), rho=rho)
        nsims = 1_000_000
        emp = _oracles.engine_empirical_covariance(schedule, model, nsims_total=nsims,
                                                   seed=49, block_size=250_000)
        analytic = assemble_covariance(schedule, model)
        assert np.all(np.abs(emp - analytic) < 4.0 * np.sqrt((1.0 + analytic ** 2) / nsims))

    @pytest.mark.parametrize("chunk_size", [65_536, 200_000])
    def test_draw_holds_a_few_sub_blocks_per_worker(self, chunk_size):
        # 200,000 rows of J * K = 50: an 80 MB block, drawn on 2 threads
        schedule = StageSchedule.equal(1, 5)
        model = OutcomeModel.equicorrelated(10, 0.3)
        cfg = SimConfig(seed=46, nsims=200_000, chunk_size=chunk_size)
        sub_block_bytes = simulate_module.SUB_BLOCK_ROWS * 50 * 8
        tracemalloc.start()
        try:
            block = simulate_null_block(schedule, model, cfg, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= block.values.nbytes + 4 * 2 * sub_block_bytes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_draw_peaks_at_the_block_and_its_sub_block_buffers(self, threads):
        # 100,000 rows of J * K = 50: a 20 MB float32 block. Each worker's
        # sub-block buffers are three float64 (K, SUB_BLOCK_ROWS) arrays (the
        # normals, the running sum and the increment) and the flags of one
        # finiteness check slice, well within CHECK_BYTES
        schedule = StageSchedule.equal(1, 5)
        model = OutcomeModel.equicorrelated(10, 0.3)
        cfg = SimConfig(seed=50, nsims=100_000, chunk_size=25_000)
        buffers = threads * (3 * 10 * simulate_module.SUB_BLOCK_ROWS * 8
                             + simulate_module.CHECK_BYTES)
        tracemalloc.start()
        try:
            block = simulate_null_block(schedule, model, cfg, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.values.nbytes == 4 * 100_000 * 50
        assert peak <= block.values.nbytes + buffers

    def test_chunking_affects_stream_but_not_shape(self, two_outcome_model):
        schedule = StageSchedule.equal(1, 2)
        a = simulate_null_block(schedule, two_outcome_model,
                                SimConfig(seed=4, nsims=1_000, chunk_size=100))
        b = simulate_null_block(schedule, two_outcome_model,
                                SimConfig(seed=4, nsims=1_000, chunk_size=64))
        assert a.values.shape == b.values.shape == (1_000, 4)

    def test_values_are_read_only(self, two_outcome_model):
        block = simulate_null_block(StageSchedule.equal(1, 1), two_outcome_model,
                                    SimConfig(seed=1, nsims=10))
        with pytest.raises(ValueError):
            block.values[0, 0] = 0.0

    def test_standard_normal_moments(self):
        model = OutcomeModel.equicorrelated(1, 0.0)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=2024, nsims=1_000_000))
        col = block.values[:, 0]
        assert abs(col.mean()) < 0.004
        assert abs(col.var() - 1.0) < 0.01

    def test_cross_outcome_correlation(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=17, nsims=1_000_000))
        emp = np.corrcoef(block.values[:, 0], block.values[:, 1])[0, 1]
        assert abs(emp - 0.3) < 0.004

    def test_empirical_covariance_matches_analytic(self):
        schedule = StageSchedule.equal(1, 3)
        model = OutcomeModel.equicorrelated(2, 0.3)
        nsims = 1_000_000
        block = simulate_null_block(schedule, model, SimConfig(seed=31, nsims=nsims))
        emp = block.values.T @ block.values / nsims
        analytic = assemble_covariance(schedule, model)
        assert np.abs(emp - analytic).max() < 4.0 * np.sqrt(2.0 / nsims)

    def test_cross_stage_cross_outcome_entry_high_replicates(self):
        # cov(Z_11, Z_32) with rho = 0.5 equals 0.5 * sqrt(1/3)
        schedule = StageSchedule.equal(1, 3)
        model = OutcomeModel.equicorrelated(2, 0.5)
        emp = _oracles.engine_empirical_covariance(schedule, model,
                                                   nsims_total=10_000_000, seed=500)
        assert abs(emp[0, 5] - 0.2886751) < 0.003


class TestMeanShift:
    def test_zero_shift_returns_same_block(self, two_outcome_model):
        schedule = StageSchedule.equal(10, 2)
        block = simulate_null_block(schedule, two_outcome_model,
                                    SimConfig(seed=6, nsims=100))
        shift = mean_shift_vector([0.0, 0.0], schedule, two_outcome_model)
        np.testing.assert_array_equal(block.values + shift[None, :], block.values)

    def test_single_column_shift_value(self):
        model = OutcomeModel.equicorrelated(1, 0.0)
        schedule = StageSchedule.equal(25, 1)
        shift = mean_shift_vector([0.4], schedule, model)
        np.testing.assert_allclose(shift, [2.0])

    def test_third_stage_shift_value(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        schedule = StageSchedule.equal(19, 3)
        shift = mean_shift_vector([0.4, 0.2], schedule, model)
        assert shift[4] == pytest.approx(3.0199338, abs=1e-7)  # stage 3, outcome 1
        assert shift.shape == (6,)

    def test_sigma_scales_shift(self):
        model = OutcomeModel(sigma=[2.0], rho=0.0)
        shift = mean_shift_vector([0.4], StageSchedule.equal(25, 1), model)
        np.testing.assert_allclose(shift, [1.0])

    def test_shift_adds_to_columns(self, two_outcome_model):
        schedule = StageSchedule.equal(4, 2)
        block = simulate_null_block(schedule, two_outcome_model,
                                    SimConfig(seed=8, nsims=50))
        shifted = block.values + mean_shift_vector([0.3, -0.1], schedule,
                                                   two_outcome_model)[None, :]
        # stage-major columns: (stage j, outcome k) gains mu_k * sqrt(N_j) / sigma_k
        for j, n_j in enumerate((4, 8)):
            for k, mu in enumerate((0.3, -0.1)):
                np.testing.assert_allclose(shifted[:, 2 * j + k] - block.values[:, 2 * j + k],
                                           mu * np.sqrt(n_j), atol=1e-12)

    def test_dimension_mismatch_rejected(self, two_outcome_model):
        schedule = StageSchedule.equal(4, 2)
        block = simulate_null_block(schedule, two_outcome_model,
                                    SimConfig(seed=8, nsims=10))
        with pytest.raises(ValueError):
            block.values + mean_shift_vector([0.1, 0.2, 0.3], schedule,
                                             two_outcome_model)[None, :]


class TestParticipantLevelAgreement:
    def test_statistics_match_participant_simulation(self):
        # end-to-end: running means of raw responses give statistics with
        # the analytic mean vector and covariance
        model = OutcomeModel(sigma=[1.0, 2.0], rho=0.4)
        schedule = StageSchedule.equal(6, 2)
        mu = [0.3, -0.2]
        n_trials = 150_000
        stats = _oracles.participant_level_statistics(model, schedule, mu,
                                                      n_trials, seed=44)
        expected_mean = mean_shift_vector(mu, schedule, model)
        tol_mean = 5.0 / np.sqrt(n_trials)
        assert np.abs(stats.mean(axis=0) - expected_mean).max() < tol_mean
        emp_cov = np.cov(stats.T)
        analytic = assemble_covariance(schedule, model)
        assert np.abs(emp_cov - analytic).max() < 5.0 * np.sqrt(2.0 / n_trials)


def float32_steps(t: np.ndarray, count: int) -> np.ndarray:
    """(2 * count + 1, n): t and its count float32 neighbours on each side
    (non-finite neighbours included)."""
    steps = [t]
    for toward in (-np.inf, np.inf):
        z = t
        for _ in range(count):
            with np.errstate(over="ignore"):  # a step past the largest float32
                z = np.nextafter(z, np.float32(toward))
            steps.append(z)
    return np.stack(steps)


class TestFloat32Thresholds:
    """``ShiftGrid.thresholds`` against the float64 add and compare it
    replaces, by ==: on the 64 float32 neighbours of each threshold and on
    random float32 statistics, at every (edge, shift) pair."""

    @staticmethod
    def check(edges, shifts, rng):
        edges, shifts = np.broadcast_arrays(np.atleast_1d(np.asarray(edges, float)),
                                            np.asarray(shifts, float))
        # one stage per pair, one column of one value
        grid = simulate_module.ShiftGrid([shifts.reshape(1, -1)], len(shifts))
        above, below = (t.ravel() for t in grid.thresholds(edges, edges))
        assert above.dtype == below.dtype == np.float32
        bits = rng.integers(-2**31, 2**31, size=(64, len(edges))).astype(np.int32)
        scale = 10.0 ** rng.uniform(-3, 3, size=(64, len(edges)))
        for side, t in (("above", above), ("below", below)):
            with np.errstate(over="ignore"):  # edge - shift beyond the float32 range
                near = np.float32(edges - shifts)
            z = np.concatenate([float32_steps(t, 32), bits.view(np.float32),
                                (rng.normal(size=scale.shape) * scale).astype(np.float32),
                                near[None]])
            z = np.where(np.isfinite(z), z, np.float32(0.0))  # every finite z, and only those
            with np.errstate(invalid="ignore"):  # an infinite shift or edge
                moved = z.astype(float) + shifts
            if side == "above":
                np.testing.assert_array_equal(z > above, moved > edges)
            else:
                np.testing.assert_array_equal(z < below, moved < edges)

    def test_random_pairs(self):
        rng = np.random.default_rng(70)
        n = 10_000
        edges = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2, size=n)
        shifts = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 4, size=n)
        self.check(edges, shifts, rng)

    def test_adversarial_pairs_and_the_exact_fallback(self, monkeypatch):
        calls = []
        bisect = simulate_module._bisect_thresholds
        monkeypatch.setattr(simulate_module, "_bisect_thresholds",
                            lambda edges, shifts: calls.append(len(edges)) or bisect(edges, shifts))
        rng = np.random.default_rng(71)
        tiny = np.float32(2.0 ** -149)  # the least float32 subnormal
        wide = np.float32(rng.normal(size=50) * 3.0).astype(float)  # float32 values
        cases = [
            (rng.normal(size=50), 0.0),  # no shift
            (wide, 0.0), (wide, rng.normal(size=50)),  # edges that are float32 values
            # a shift that dwarfs edge - shift, down to one float64 step
            (1.0 + 2.0 ** -52, 1.0), (1.0 - 2.0 ** -53, 1.0), (-1.0 - 2.0 ** -52, -1.0),
            (1e8 + np.array([1e-8, -3e-8, 2.0 ** -26]), 1e8),
            (np.nextafter(1e15, np.inf), 1e15), (3.5 + 2.0 ** -51, 3.5),
            # edge - shift beyond the float32 range: every or no finite z passes
            (np.array([1e39, -1e39, 1e300, -1e300]), 0.0), (0.0, np.array([4e38, -4e38])),
            (np.array([np.inf, -np.inf]), 0.0), (np.array([np.inf, -np.inf]), 1.5),
            # subnormal differences
            (np.array([1e-40, -1e-40, tiny, -tiny, tiny / 2, 3 * tiny]), 0.0),
            (1e-310 + np.array([1e-40, 2e-45, -3e-45]), 1e-310),
            (-1e-39 + np.array([tiny, -tiny, 1e-44]), -1e-39),
            (np.array([0.0, -0.0]), np.array([0.0, -0.0])),
        ]
        for edges, shifts in cases:
            self.check(edges, shifts, rng)
        assert calls  # at least one pair needed more than a step

    def test_the_exact_fallback_finds_a_far_threshold(self):
        # 1 + z rounds to 1 + 2^-52 for every z up to 1.5 * 2^-52: the
        # threshold is millions of float32 steps above float32(edge - shift)
        t = simulate_module.float32_thresholds(1.0 + 2.0 ** -52, 1.0)
        assert float(t) + 1.0 <= 1.0 + 2.0 ** -52 < float(np.nextafter(t, np.float32(1))) + 1.0
        steps = t.view(np.int32) - np.float32(2.0 ** -52).view(np.int32)
        assert steps > 4_000_000
