import numpy as np
import pytest
from scipy.special import ndtr

from _oracles import evaluate_dtl_row
from multiseq import (
    DtLDesignSpec,
    InfeasibleDesignError,
    OutcomeModel,
    SimConfig,
    StageSchedule,
    calibrate_r,
    conditional_power,
    estimate_dtl_oc,
    estimate_gs_oc,
    invert_cp_boundaries,
    mean_shift_vector,
    search_dtl_design,
    simulate_null_block,
)
from multiseq.dtl import cp_lookup
from multiseq.model import Boundaries, GSDesignSpec
from multiseq.simulate import StatisticBlock


def dtl_spec(k=2, m=1, kmax=1, cpl=0.3, cpu=0.95, alpha=0.025, beta=0.2):
    return DtLDesignSpec(n_outcomes=k, n_promising=m, max_retained=kmax,
                         cp_lower=cpl, cp_upper=cpu, alpha=alpha, beta=beta,
                         delta0=0.2, delta1=0.4)


class TestSpecValidation:
    def test_threshold_order(self):
        with pytest.raises(ValueError, match="threshold"):
            dtl_spec(cpl=0.5, cpu=0.4)

    def test_max_retained_range(self):
        with pytest.raises(ValueError, match="max_retained"):
            dtl_spec(k=2, kmax=2)
        with pytest.raises(ValueError, match="max_retained"):
            dtl_spec(k=3, kmax=0)

    def test_needs_at_least_two_outcomes(self):
        with pytest.raises(ValueError, match="n_outcomes"):
            DtLDesignSpec(n_outcomes=1, n_promising=1, max_retained=1,
                          cp_lower=0.3, cp_upper=0.95, alpha=0.025, beta=0.2,
                          delta0=0.2, delta1=0.4)


class TestConditionalPower:
    def test_reference_value(self):
        # n = 32 per stage, unit variance: interim info 32, final info 64
        cp = conditional_power(1.0, 2.273714, 32.0, 64.0, 0.4)
        assert cp == pytest.approx(0.51883286, abs=1e-7)

    def test_half_when_numerator_vanishes(self):
        i1, i2, r, d = 32.0, 64.0, 2.0, 0.4
        z = (r * np.sqrt(i2) - (i2 - i1) * d) / np.sqrt(i1)
        assert conditional_power(z, r, i1, i2, d) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert conditional_power(40.0, 2.0, 32.0, 64.0, 0.4) == pytest.approx(1.0)
        assert conditional_power(-40.0, 2.0, 32.0, 64.0, 0.4) == pytest.approx(0.0)

    def test_monotone_in_arguments(self):
        z = np.linspace(-3, 3, 25)
        cp = conditional_power(z, 2.0, 32.0, 64.0, 0.4)
        assert np.all(np.diff(cp) > 0)
        assert conditional_power(1.0, 2.0, 32.0, 64.0, 0.5) > \
            conditional_power(1.0, 2.0, 32.0, 64.0, 0.3)
        assert conditional_power(1.0, 2.5, 32.0, 64.0, 0.4) < \
            conditional_power(1.0, 2.0, 32.0, 64.0, 0.4)

    def test_rejects_bad_information(self):
        with pytest.raises(ValueError):
            conditional_power(1.0, 2.0, 64.0, 32.0, 0.4)
        with pytest.raises(ValueError):
            conditional_power(1.0, 2.0, 0.0, 32.0, 0.4)


class TestInvertBoundaries:
    def test_round_trip_hits_thresholds(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            sigma = float(rng.uniform(0.3, 3.0))
            i1, i2 = n / sigma**2, 2 * n / sigma**2
            r = float(rng.uniform(1.0, 3.5))
            d = float(rng.uniform(0.0, 0.8))
            cpl = float(rng.uniform(0.01, 0.6))
            cpu = float(rng.uniform(cpl + 0.05, 0.99))
            lo, hi = invert_cp_boundaries(cpl, cpu, r, i1, i2, d)
            assert conditional_power(lo, r, i1, i2, d) == pytest.approx(cpl, abs=1e-10)
            assert conditional_power(hi, r, i1, i2, d) == pytest.approx(cpu, abs=1e-10)
            assert hi > lo

    def test_median_threshold_drops_quantile_term(self):
        i1, i2, r, d = 32.0, 64.0, 2.273714, 0.4
        lo, _ = invert_cp_boundaries(0.5, 0.95, r, i1, i2, d)
        assert lo == pytest.approx((r * np.sqrt(i2) - (i2 - i1) * d) / np.sqrt(i1))

    def test_degenerate_thresholds_signal_infinite_bounds(self):
        lo, hi = invert_cp_boundaries(0.0, 1.0, 2.0, 32.0, 64.0, 0.4)
        assert lo == -np.inf and hi == np.inf

    def test_requires_valid_inputs(self):
        with pytest.raises(ValueError):
            invert_cp_boundaries(0.6, 0.5, 2.0, 32.0, 64.0, 0.4)
        with pytest.raises(ValueError):
            invert_cp_boundaries(0.3, 0.9, 2.0, 64.0, 32.0, 0.4)


def z_for_cp(cp, r, i1, i2, d):
    """Interim statistic whose conditional power equals cp."""
    from scipy.special import ndtri
    return (ndtri(cp) * np.sqrt(i2 - i1) + r * np.sqrt(i2) - (i2 - i1) * d) / np.sqrt(i1)


class TestEvaluateRow:
    def setup_method(self):
        self.r = 2.3
        self.n = 32
        self.i1 = np.full(3, 32.0)
        self.i2 = np.full(3, 64.0)

    def test_hopeless_interim_stops_for_nogo(self):
        spec = dtl_spec(k=3, m=1, kmax=1)
        decision, retained = evaluate_dtl_row([-40.0, -40.0, -40.0], [0.0] * 3,
                                              spec, self.r, self.i1, self.i2)
        assert decision == "nogo-interim" and retained == 0

    def test_interim_go_when_enough_cp_above_upper(self):
        spec = dtl_spec(k=2, m=1, kmax=1)
        z1 = [z_for_cp(0.99, self.r, 32.0, 64.0, 0.4),
              z_for_cp(0.97, self.r, 32.0, 64.0, 0.4)]
        decision, retained = evaluate_dtl_row(z1, [0.0, 0.0], spec, self.r,
                                              self.i1[:2], self.i2[:2])
        assert decision == "go-interim" and retained == 0

    def test_continue_retains_best_and_tests_final(self):
        spec = dtl_spec(k=3, m=1, kmax=1)
        z1 = [z_for_cp(cp, self.r, 32.0, 64.0, 0.4) for cp in (0.6, 0.5, 0.2)]
        decision, retained = evaluate_dtl_row(z1, [self.r + 0.1, 99.0, 99.0],
                                              spec, self.r, self.i1, self.i2)
        assert decision == "go-final" and retained == 1
        decision, retained = evaluate_dtl_row(z1, [self.r - 0.1, 99.0, 99.0],
                                              spec, self.r, self.i1, self.i2)
        assert decision == "nogo-final" and retained == 1

    def test_agrees_with_independent_trace(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(1, k + 1))
            kmax = int(rng.integers(1, k))
            cpl = float(rng.uniform(0.05, 0.5))
            cpu = float(rng.uniform(cpl + 0.1, 0.99))
            spec = dtl_spec(k=k, m=m, kmax=kmax, cpl=cpl, cpu=cpu)
            n = int(rng.integers(5, 60))
            sigma = rng.uniform(0.5, 2.0, size=k)
            i1, i2 = n / sigma**2, 2 * n / sigma**2
            r = float(rng.uniform(1.5, 3.0))
            z1 = rng.normal(scale=2.0, size=k)
            z2 = rng.normal(scale=2.0, size=k)
            got = evaluate_dtl_row(z1, z2, spec, r, i1, i2)
            assert got == self._trace(z1, z2, spec, r, i1, i2)

    @staticmethod
    def _trace(z1, z2, spec, r, i1, i2):
        k, m = spec.n_outcomes, spec.n_promising
        d1 = np.asarray(spec.delta1)
        cps = [float(ndtr((z1[i] * np.sqrt(i1[i]) - r * np.sqrt(i2[i])
                           + (i2[i] - i1[i]) * d1[i]) / np.sqrt(i2[i] - i1[i])))
               for i in range(k)]
        if sum(cp < spec.cp_lower for cp in cps) >= k - m + 1:
            return "nogo-interim", 0
        if sum(cp > spec.cp_upper for cp in cps) >= m:
            return "go-interim", 0
        eligible = [i for i in range(k) if cps[i] > spec.cp_lower]
        k2 = min(spec.max_retained, len(eligible))
        retained = sorted(eligible, key=lambda i: (-cps[i], i))[:k2]
        hits = sum(z2[i] > r for i in retained)
        return ("go-final" if hits >= m else "nogo-final"), k2


class TestEstimateOC:
    def make_block(self, k, rho, nsims, seed):
        model = OutcomeModel.equicorrelated(k, rho)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=seed, nsims=nsims))
        return model, block

    def test_aggregates_match_row_evaluation(self):
        rng = np.random.default_rng(35)
        model, block = self.make_block(3, 0.2, 500, seed=36)
        for _ in range(10):
            spec = dtl_spec(k=3, m=int(rng.integers(1, 4)),
                            kmax=int(rng.integers(1, 3)),
                            cpl=float(rng.uniform(0.05, 0.5)),
                            cpu=float(rng.uniform(0.6, 0.99)))
            n = int(rng.integers(5, 50))
            r = float(rng.uniform(1.5, 3.0))
            i1, i2 = n / model.sigma**2, 2 * n / model.sigma**2
            oc = estimate_dtl_oc(block, spec, model, r, n)
            rows = [evaluate_dtl_row(row[:3], row[3:], spec, r, i1, i2)
                    for row in block.values]
            goes = sum(d in ("go-interim", "go-final") for d, _ in rows)
            interim = sum(d.endswith("interim") for d, _ in rows)
            retained_total = sum(ret for _, ret in rows)
            assert oc.p_reject == pytest.approx(goes / 500, abs=1e-12)
            assert oc.pet == pytest.approx(interim / 500, abs=1e-12)
            assert oc.ess == pytest.approx(oc.pet * n + (1 - oc.pet) * 2 * n, abs=1e-9)
            assert oc.enm == pytest.approx(n * (3 + retained_total / 500), abs=1e-9)

    def test_enm_stays_within_retention_bounds(self):
        rng = np.random.default_rng(37)
        model, block = self.make_block(4, 0.3, 2_000, seed=38)
        schedule = StageSchedule.equal(20, 2)
        for _ in range(25):
            spec = dtl_spec(k=4, m=int(rng.integers(1, 5)),
                            kmax=int(rng.integers(1, 4)),
                            cpl=float(rng.uniform(0.0, 0.5)),
                            cpu=float(rng.uniform(0.6, 1.0)))
            mu = rng.uniform(-0.5, 0.5, size=4)
            shift = mean_shift_vector(mu, schedule, model)
            oc = estimate_dtl_oc(block, spec, model, 2.2, 20, shift=shift)
            assert 4 * 20 <= oc.enm <= (4 + spec.max_retained) * 20
            assert 20 <= oc.ess <= 40

    def test_disabled_thresholds_remove_early_stopping(self):
        model, block = self.make_block(3, 0.4, 3_000, seed=39)
        spec = dtl_spec(k=3, m=2, kmax=2, cpl=0.0, cpu=1.0)
        oc = estimate_dtl_oc(block, spec, model, 2.0, 15, max_retained=3)
        assert oc.pet == 0.0
        assert oc.ess == 30.0
        assert oc.enm == 15 * (3 + 3)

    def test_degenerate_design_equals_single_stage_rule(self):
        # with thresholds disabled and the retention cap lifted, the
        # design reduces to a one-stage m-of-K test on the final statistics
        rng = np.random.default_rng(40)
        for case in range(200):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, k + 1))
            rho = float(rng.uniform(0.0, 0.7))
            n = int(rng.integers(4, 40))
            r = float(rng.uniform(1.0, 3.0))
            model, block = self.make_block(k, rho, 400, seed=1000 + case)
            mu = rng.uniform(-0.3, 0.5, size=k)
            shift = mean_shift_vector(mu, StageSchedule.equal(n, 2), model)
            spec = dtl_spec(k=k, m=m, kmax=k - 1, cpl=0.0, cpu=1.0)
            oc = estimate_dtl_oc(block, spec, model, r, n, shift=shift,
                                 max_retained=k)
            stage2 = StatisticBlock(values=block.values[:, k:] + shift[None, k:],
                                    n_stages=1, n_outcomes=k)
            gs_spec = GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=1,
                                   alpha=0.025, beta=0.2, delta0=0.0, delta1=0.0)
            bounds = Boundaries(lower=(r,), upper=(r,))
            gs_oc = estimate_gs_oc(stage2, bounds, gs_spec,
                                   StageSchedule.equal(2 * n, 1))
            assert oc.p_reject == gs_oc.p_reject


class TestCalibrateR:
    def test_degenerate_matches_single_stage_constants(self):
        # thresholds disabled and cap lifted: r is the single-stage
        # boundary for the same m-of-K rule, independent of n
        model = OutcomeModel.equicorrelated(2, 0.0)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=41, nsims=400_000))
        import multiseq.dtl as dtl_mod
        spec = dtl_spec(k=2, m=1, cpl=0.0, cpu=1.0)
        prep = dtl_mod._Prepared(block, spec, model, 16, None, 2)
        from multiseq.optimize import solve_decreasing
        r, _ = solve_decreasing(lambda x: prep.evaluate(x).p_reject, 0.025)
        assert r == pytest.approx(2.2389644, abs=0.03)
        spec2 = dtl_spec(k=2, m=2, cpl=0.0, cpu=1.0)
        prep2 = dtl_mod._Prepared(block, spec2, model, 16, None, 2)
        r2, _ = solve_decreasing(lambda x: prep2.evaluate(x).p_reject, 0.025)
        assert r2 == pytest.approx(1.0022398, abs=0.03)

    def test_achieved_alpha_close_to_target(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=42, nsims=100_000))
        _, achieved = calibrate_r(block, dtl_spec(), model, 32)
        assert abs(achieved - 0.025) <= 2 * np.sqrt(0.025 * 0.975 / 100_000)


class TestSearch:
    def test_reproduces_two_outcome_design(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        real = search_dtl_design(dtl_spec(), model,
                                 SimConfig(seed=43, nsims=50_000), nmin=2, nmax=200)
        assert abs(real.n_total - 64) <= 6
        assert real.r == pytest.approx(2.273714, abs=0.08)
        assert real.power_star >= 0.8
        assert real.alpha_star == real.oc_null.p_reject

    def test_requires_feasible_range(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        with pytest.raises(InfeasibleDesignError):
            search_dtl_design(dtl_spec(), model, SimConfig(seed=44, nsims=5_000),
                              nmin=2, nmax=4)
        with pytest.raises(ValueError):
            search_dtl_design(dtl_spec(), model, SimConfig(seed=44, nsims=100),
                              nmin=10, nmax=10)


class TestLookup:
    def test_rows_cover_grid_and_increase_in_z(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        rows = cp_lookup(dtl_spec(), model, 2.273714, 32, np.linspace(-2, 2, 9))
        assert len(rows) == 18
        first = [cp for outcome, _, cp in rows if outcome == 1]
        assert np.all(np.diff(first) > 0)
        outcome, z, cp = rows[0]
        assert outcome == 1 and z == -2.0
        ref = conditional_power(-2.0, 2.273714, 32.0, 64.0, 0.4)
        assert cp == pytest.approx(ref, abs=1e-12)
