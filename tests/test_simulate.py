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
from multiseq import InvalidCorrelationError, OutcomeModel, SimConfig
from _oracles import assemble_covariance
from multiseq.model import StageSchedule
from multiseq.simulate import (
    StatisticBlock,
    cholesky_factor,
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
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_factor(np.eye(3)), np.eye(3))

    def test_closed_form_2x2(self):
        factor = cholesky_factor(np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(factor, [[1.0, 0.0], [0.5, 0.8660254]], atol=1e-7)

    def test_reconstruction_of_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = int(rng.integers(1, 8))
            corr = random_correlation(rng, dim)
            factor = cholesky_factor(corr)
            assert np.abs(factor @ factor.T - corr).max() < 1e-8

    def test_jitter_rescues_singular_psd(self):
        # perfectly correlated pair: PSD but singular
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor = cholesky_factor(corr)
        assert np.abs(factor @ factor.T - corr).max() < 1e-8

    def test_rejects_indefinite_matrix(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InvalidCorrelationError):
            cholesky_factor(bad)


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
        step = simulate_module.CHECK_BYTES // 16  # rows of one check slice of 2 columns
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
    def test_a_drawn_non_finite_value_is_rejected(self, monkeypatch, two_outcome_model,
                                                  threads):
        # outcome 2's increments are infinite, and their sum over two stages
        # is infinite or nan (inf - inf)
        monkeypatch.setattr(simulate_module, "cholesky_factor",
                            lambda rho: np.diag([1.0, np.inf]))
        cfg = SimConfig(seed=100, nsims=3 * simulate_module.SUB_BLOCK_ROWS, chunk_size=5_000)
        with pytest.raises(ValueError, match="statistics must be finite"):
            simulate_null_block(StageSchedule.equal(1, 2), two_outcome_model, cfg,
                                threads=threads)

    def test_wrapping_an_array_allocates_no_block_sized_temporary(self):
        values = np.zeros((1_000_000, 4))  # 32 MB
        tracemalloc.start()
        try:
            block = StatisticBlock(values=values, n_stages=2, n_outcomes=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.values is values
        assert peak < 1 << 20

    def test_rejects_a_block_without_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            StatisticBlock(values=np.zeros((0, 2)), n_stages=1, n_outcomes=2)

    def test_null_blocks_carry_their_workers(self, two_outcome_model):
        blocks = simulate_module.null_blocks([1, 3], two_outcome_model,
                                             SimConfig(seed=97, nsims=50), threads=2)
        assert [block.threads for block in blocks.values()] == [2, 2]

    @pytest.mark.parametrize("chunk_bytes, ranges", [
        (1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # smaller than a row: one row each
        (2 * 16, [(0, 2), (2, 4), (4, 5)]),
        (3 * 16 - 1, [(0, 2), (2, 4), (4, 5)]),  # rounds down to whole rows
        (5 * 16, [(0, 5)]),
    ])
    def test_each_chunk_sizes_chunks_in_whole_rows(self, chunk_bytes, ranges):
        # row i holds (i, i), so a chunk's first and last values give its rows
        values = np.repeat(np.arange(5.0)[:, None], 2, axis=1)
        block = StatisticBlock(values=values, n_stages=2, n_outcomes=1)
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
            got = block.each_chunk(kernel, 16)  # one 16-byte row per chunk
            with pytest.raises(ZeroDivisionError, match="row 13"):
                block.each_chunk(failing, 16)
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

        got = block.each_row(kernel, 3 * 16)  # 3-row chunks
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
        # and Z_2 = (X_1 + X_2) / sqrt(2) for its two correlated increments
        schedule = StageSchedule.equal(1, 2)
        cfg = SimConfig(seed=45, nsims=10, chunk_size=3)
        block = simulate_null_block(schedule, two_outcome_model, cfg, threads=threads)
        np.testing.assert_array_equal(
            block.values, _oracles.increment_null_block(schedule, two_outcome_model, cfg))
        factor = cholesky_factor(two_outcome_model.rho)
        for c in range(4):
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(c,))
            x_1, x_2 = factor @ np.random.Generator(np.random.SFC64(seq)).standard_normal(
                (2, 2, min(3, 10 - 3 * c)))
            np.testing.assert_allclose(block.values[3 * c:3 * c + 3],
                                       np.vstack([x_1, (x_1 + x_2) / np.sqrt(2.0)]).T,
                                       rtol=1e-14, atol=0)

    @pytest.mark.parametrize("stages, outcomes", [  # J * K = 1, 2, 3, 4, 6, 9, 12, 30, 50
        (1, 1), (2, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (3, 10), (5, 10)])
    @pytest.mark.parametrize("chunk_size", [2 * simulate_module.SUB_BLOCK_ROWS + 5,
                                            SimConfig(seed=0).chunk_size])
    def test_sub_blocks_match_one_multiply_per_chunk(self, stages, outcomes, chunk_size):
        # the oracle multiplies all stages of a sub-block at once and sums
        # each chunk's increments with np.cumsum
        sub = simulate_module.SUB_BLOCK_ROWS
        schedule = StageSchedule.equal(1, stages)
        model = OutcomeModel.equicorrelated(outcomes, 0.3)
        for nsims in (1, sub - 1, sub, sub + 1, 2 * sub - 1, 2 * sub + 1,
                      chunk_size - 1, chunk_size + 1, chunk_size + sub + 1):
            cfg = SimConfig(seed=nsims, nsims=nsims, chunk_size=chunk_size)
            want = _oracles.increment_null_block(schedule, model, cfg)
            for threads in (1, 2, 3):
                got = simulate_null_block(schedule, model, cfg, threads=threads).values
                assert np.array_equal(got, want), (nsims, threads)

    @pytest.mark.parametrize("sizes", [(1, 2, 4), (3, 1, 2)])
    def test_unequal_stages_match_the_increment_oracle(self, sizes):
        schedule = StageSchedule(stage_sizes=sizes)
        model = OutcomeModel.equicorrelated(3, -0.2)
        cfg = SimConfig(seed=47, nsims=3 * simulate_module.SUB_BLOCK_ROWS + 11,
                        chunk_size=2 * simulate_module.SUB_BLOCK_ROWS + 5)
        want = _oracles.increment_null_block(schedule, model, cfg)
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
