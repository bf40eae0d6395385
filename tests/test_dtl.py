import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

import multiseq.dtl as dtl_mod
from _oracles import (
    DtLBlockRule,
    bisection_n,
    cp_lookup_rows,
    evaluate_dtl_row,
    invert_cp_boundaries,
    oc_from_limits,
    sorted_go_limits,
)
from conftest import null_block
from multiseq import CalibrationError, InfeasibleDesignError, OutcomeModel, SimConfig
from multiseq.dtl import (
    DtLDesignSpec,
    DtLOperatingCharacteristics,
    calibrate_r,
    conditional_power,
    cp_lookup,
    estimate_dtl_oc,
    search_dtl_design,
)
from multiseq.gs import GSDesignSpec, estimate_gs_oc
from multiseq.model import Boundaries, StageSchedule, lfc_effects
from multiseq.optimize import exceedance_boundary
from multiseq.simulate import StatisticBlock, mean_shift_vector, simulate_null_block


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

    def test_mis_sized_shift_is_rejected(self):
        # one value would broadcast to every column: a wrong OC, not an error
        model, block = self.make_block(3, 0.3, 200, 12)
        for size in (1, 5, 7):
            with pytest.raises(ValueError, match=r"length J \* K = 6, got shape"):
                estimate_dtl_oc(block, dtl_spec(k=3), model, 2.0, 20, shift=np.full(size, 0.5))

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
        spec = dtl_spec(k=2, m=1, cpl=0.0, cpu=1.0)
        limits = dtl_mod._Rule(block, spec, model, 16, max_retained=2).go_limits()
        r, _ = exceedance_boundary(limits, 0.025)
        assert r == pytest.approx(2.2389644, abs=0.03)
        spec2 = dtl_spec(k=2, m=2, cpl=0.0, cpu=1.0)
        limits2 = dtl_mod._Rule(block, spec2, model, 16, max_retained=2).go_limits()
        r2, _ = exceedance_boundary(limits2, 0.025)
        assert r2 == pytest.approx(1.0022398, abs=0.03)

    def test_achieved_alpha_close_to_target(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=42, nsims=100_000))
        _, achieved = calibrate_r(block, dtl_spec(), model, 32)
        assert abs(achieved - 0.025) <= 2 * np.sqrt(0.025 * 0.975 / 100_000)

    def test_unreachable_target_fails_fast(self):
        # two promising outcomes but one retained, and no interim go:
        # no row can go at any r
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=43, nsims=1_000))
        spec = dtl_spec(k=2, m=2, kmax=1, cpu=1.0)
        with pytest.raises(CalibrationError,
                           match=r"target alpha 0\.025 .*alpha at r -> 0\+ is 0$"):
            calibrate_r(block, spec, model, 20)


def random_dtl_case(rng, seed, nsims=1_000):
    """A random spec, model, block, per-stage n and optional shift,
    with the disabled thresholds cp_lower = 0 and cp_upper = 1 among them."""
    k = int(rng.integers(2, 7))
    cpl = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.01, 0.5))
    cpu = 1.0 if rng.random() < 0.25 else float(rng.uniform(max(cpl, 0.5) + 0.01, 0.999))
    spec = DtLDesignSpec(n_outcomes=k, n_promising=int(rng.integers(1, k + 1)),
                         max_retained=int(rng.integers(1, k)), cp_lower=cpl,
                         cp_upper=cpu, alpha=float(rng.uniform(0.01, 0.3)), beta=0.2,
                         delta0=0.0, delta1=tuple(rng.uniform(0.1, 0.6, size=k)))
    model = OutcomeModel.equicorrelated(k, float(rng.uniform(0.0, 0.8)),
                                        sigma=tuple(rng.uniform(0.5, 2.0, size=k)))
    block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                SimConfig(seed=seed, nsims=nsims))
    n = int(rng.integers(3, 80))
    shift = None
    if rng.random() < 0.5:
        shift = mean_shift_vector(rng.uniform(-0.3, 0.5, size=k),
                                  StageSchedule.equal(n, 2), model)
    return spec, model, block, n, shift


def shifted(block, shift):
    """The block with ``shift`` added to every row; the block itself when None."""
    return block if shift is None else replace(block, values=block.values + shift)


def off_limit_boundaries(rng, limits, count):
    """``count`` values of r, none equal to a go limit: midpoints between
    neighbouring distinct limits, plus uniform draws."""
    finite = np.unique(limits[np.isfinite(limits)])
    mids = 0.5 * (finite[1:] + finite[:-1])
    picks = rng.choice(mids, size=min(count // 2, mids.size), replace=False)
    rs = np.concatenate([picks, rng.uniform(-2.0, 8.0, size=count - picks.size)])
    return rs[~np.isin(rs, limits)]


CASES = 48


class TestGoLimits:
    """The exact go limits against the conditional-power rule."""

    def test_exceedance_count_equals_oracle(self):
        rng = np.random.default_rng(70)
        seen = set()
        for case in range(CASES):
            spec, model, block, n, shift = random_dtl_case(rng, 700 + case)
            seen.update({("cp_lower = 0", spec.cp_lower == 0.0),
                         ("cp_upper = 1", spec.cp_upper == 1.0),
                         ("shifted", shift is not None)})
            rule = dtl_mod._Rule(block, spec, model, n)
            limits = dtl_mod._Rule(shifted(block, shift), spec, model, n).go_limits()
            oracle = DtLBlockRule(block, spec, model, n, shift)
            rs = off_limit_boundaries(rng, limits, 110)
            assert rs.size >= 100
            for i, r in enumerate(rs):
                ref = oracle.evaluate(r)
                assert np.count_nonzero(limits > r) / block.nsims == ref.p_reject
                if i % 10 == 0:  # the OC pass at r gives every aggregate
                    oc = rule.oc(r, shift)
                    assert (oc.p_reject, oc.pet) == (ref.p_reject, ref.pet)
                    assert (oc.ess, oc.enm) == (n * ref.ess, n * ref.enm)
        assert len(seen) == 6  # each kind of case occurs, and its opposite

    def test_every_go_set_is_a_down_set(self):
        rng = np.random.default_rng(71)
        for case in range(CASES):
            spec, model, block, n, shift = random_dtl_case(rng, 800 + case)
            limits = dtl_mod._Rule(shifted(block, shift), spec, model, n).go_limits()
            oracle = DtLBlockRule(block, spec, model, n, shift)
            rs = np.sort(off_limit_boundaries(rng, limits, 60))
            goes = np.empty((block.nsims, rs.size), dtype=bool)
            for i, r in enumerate(rs):
                go1, _, go2, _ = oracle.decisions(r)
                goes[:, i] = go1 | go2
            # along increasing r a row never goes again once it stopped going
            assert not np.any(goes[:, 1:] & ~goes[:, :-1])
            np.testing.assert_array_equal(goes, limits[:, None] > rs[None, :])

    def test_calibrated_alpha_is_the_oracle_alpha(self):
        rng = np.random.default_rng(72)
        raised = 0
        for case in range(CASES):
            spec, model, block, n, _ = random_dtl_case(rng, 900 + case)
            oracle = DtLBlockRule(block, spec, model, n)
            for strict in (False, True):
                if oracle.evaluate(1e-12).p_reject <= spec.alpha:
                    with pytest.raises(CalibrationError, match="alpha at r -> 0"):
                        calibrate_r(block, spec, model, n, strict=strict)
                    raised += 1
                    continue
                r, achieved = calibrate_r(block, spec, model, n, strict=strict)
                assert r > 0
                assert achieved == oracle.evaluate(r).p_reject
                if strict:
                    assert achieved <= spec.alpha
        assert raised < CASES

    def test_thresholds_agree_with_invert_cp_boundaries(self):
        rng = np.random.default_rng(73)
        for case in range(CASES):
            spec, model, block, n, shift = random_dtl_case(rng, 1000 + case, nsims=20)
            rows = block.values if shift is None else block.values + shift
            t_go, e, _ = sorted_go_limits(dtl_mod._Rule(block, spec, model, n), rows)
            k, m = spec.n_outcomes, spec.n_promising
            i1, i2 = n / model.sigma ** 2, 2 * n / model.sigma ** 2
            d1 = np.asarray(spec.delta1)
            for row, t_row, e_row in zip(rows, t_go, e):
                z1 = row[:k]
                # the CP ranking does not depend on r
                order = np.argsort(-conditional_power(z1, 2.0, i1, i2, d1), kind="stable")
                for j, o in enumerate(order):
                    # at r = e_j the j-th outcome sits on the lower CP boundary
                    if np.isfinite(e_row[j]):
                        lo, _ = invert_cp_boundaries(spec.cp_lower, spec.cp_upper, e_row[j],
                                                     i1[o], i2[o], d1[o])
                        assert lo == pytest.approx(z1[o], rel=1e-9, abs=1e-9)
                    else:
                        assert spec.cp_lower == 0.0 and e_row[j] == np.inf
                o = order[m - 1]
                if np.isfinite(t_row):
                    _, hi = invert_cp_boundaries(spec.cp_lower, spec.cp_upper, t_row,
                                                 i1[o], i2[o], d1[o])
                    assert hi == pytest.approx(z1[o], rel=1e-9, abs=1e-9)
                else:
                    assert spec.cp_upper == 1.0 and t_row == -np.inf


class TestColumnKernel:
    """``go_limits`` keeps the top max(m, K_max) cores per row by insertion
    over the columns; U must be bit-equal to the stable row-wise sort."""

    @staticmethod
    def random_case(rng, case):
        """A random spec and block; every third block is tie-rich, with
        statistics from a few values and one effect and sigma per outcome,
        so cores and stage-two statistics tie within rows."""
        k = int(rng.integers(2, 8))
        m, k_max = int(rng.integers(1, k + 1)), int(rng.integers(1, k))
        cpl = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.01, 0.5))
        cpu = 1.0 if rng.random() < 0.3 else float(rng.uniform(max(cpl, 0.5) + 0.01, 0.999))
        tied = case % 3 == 0
        delta1 = 0.3 if tied else tuple(rng.uniform(0.1, 0.6, size=k))
        spec = DtLDesignSpec(n_outcomes=k, n_promising=m, max_retained=k_max, cp_lower=cpl,
                             cp_upper=cpu, alpha=0.1, beta=0.2, delta0=0.0, delta1=delta1)
        sigma = 1.0 if tied else tuple(rng.uniform(0.5, 2.0, size=k))
        model = OutcomeModel.equicorrelated(k, float(rng.uniform(0.0, 0.8)), sigma=sigma)
        nsims = int(rng.integers(1, 60))
        if tied:
            values = rng.choice([-1.0, 0.0, 0.5, 1.5, 2.0], size=(nsims, 2 * k))
        else:
            values = simulate_null_block(StageSchedule.equal(1, 2), model,
                                         SimConfig(seed=case, nsims=nsims)).values
        block = StatisticBlock(values=values, n_stages=2, n_outcomes=k,
                               threads=int(rng.integers(1, 4)))
        return spec, model, block, int(rng.integers(3, 80))

    def test_limits_equal_the_sorted_oracle(self, monkeypatch):
        rng = np.random.default_rng(74)
        seen = {"m > K_max": 0, "no thresholds": 0, "tied": 0, "threads 3": 0}
        for case in range(240):
            spec, model, block, n = self.random_case(rng, case)
            # chunks of 1-3 rows
            monkeypatch.setattr(dtl_mod, "CHUNK_BYTES",
                                int(rng.integers(1, 4)) * block.values[:1].nbytes)
            rule = dtl_mod._Rule(block, spec, model, n)
            _, _, want = sorted_go_limits(rule, block.values)
            got = rule.go_limits()
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            seen["m > K_max"] += spec.n_promising > spec.max_retained
            seen["no thresholds"] += spec.cp_lower == 0.0 and spec.cp_upper == 1.0
            seen["tied"] += case % 3 == 0
            seen["threads 3"] += block.threads == 3
        assert min(seen.values()) >= 10, seen

    def test_ties_keep_the_lower_outcome_first(self):
        # four tied cores and distinct stage-two statistics: the oracle's
        # stable sort takes the stage-two statistics in outcome order
        k = 4
        values = np.array([[1.0, 1.0, 1.0, 1.0, 0.3, 2.0, 1.2, -0.5],
                           [0.5, 1.0, 1.0, 0.5, 0.3, 2.0, 1.2, -0.5]])
        block = StatisticBlock(values=values, n_stages=2, n_outcomes=k)
        model = OutcomeModel.equicorrelated(k, 0.3)
        for m, k_max in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 1), (3, 2)):
            spec = dtl_spec(k=k, m=m, kmax=k_max, cpl=0.0, cpu=1.0)
            rule = dtl_mod._Rule(block, spec, model, 10)
            # the oracle reads the statistics as the block stores them
            np.testing.assert_array_equal(rule.go_limits(),
                                          sorted_go_limits(rule, block.values)[2])


class TestCountPass:
    """``oc(r)`` counts at r without sorting a row; it must give what the
    go limits give, on r equal to a limit and on tied cores."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_equal_go_limits_on_ties_and_boundaries(self, monkeypatch, k):
        rng = np.random.default_rng(76 + k)
        model = OutcomeModel.equicorrelated(k, 0.4)
        values = simulate_null_block(StageSchedule.equal(1, 2), model,
                                     SimConfig(seed=76 + k, nsims=40)).values.copy()
        # outcomes 0 and 1 share their stage-one statistic, so their cores
        # tie and the lower index ranks first; stage two tells them apart
        values[:, 1] = values[:, 0]
        block = StatisticBlock(values=values, n_stages=2, n_outcomes=k)
        mu = np.linspace(0.5, -0.1, k)
        mu[1] = mu[0]
        shift = mean_shift_vector(mu, StageSchedule.equal(12, 2), model)
        monkeypatch.setattr(dtl_mod, "CHUNK_BYTES", 3 * block.values[:1].nbytes)
        for cpl, cpu in ((0.0, 0.9), (0.2, 1.0), (0.0, 1.0), (0.2, 0.9)):
            for k_max in range(1, k):
                spec = DtLDesignSpec(n_outcomes=k, n_promising=int(rng.integers(1, k + 1)),
                                     max_retained=k_max, cp_lower=cpl, cp_upper=cpu,
                                     alpha=0.1, beta=0.2, delta0=0.0, delta1=0.4)
                rule = dtl_mod._Rule(block, spec, model, 12)
                for s in (None, shift):
                    # oc(r, s) shifts the widened statistics in float64; a shifted
                    # block stores the shifted statistics rounded to float32
                    t_go, e, limit = sorted_go_limits(rule, values if s is None else values + s)
                    moved = shifted(block, s)
                    np.testing.assert_array_equal(
                        dtl_mod._Rule(moved, spec, model, 12).go_limits(),
                        limit if s is None else sorted_go_limits(rule, moved.values)[2])
                    # r on go limits, on eligibility limits e_j and on t_go
                    rs = np.concatenate([rng.choice(limit, 6), rng.choice(e.ravel(), 6),
                                         rng.choice(t_go, 2), rng.uniform(-1.0, 4.0, 2)])
                    for r in rs[np.isfinite(rs)]:
                        want = oc_from_limits(rule, r, t_go, e, limit)
                        for threads in (1, 2, 3):
                            assert dtl_mod._Rule(replace(block, threads=threads), spec,
                                                 model, 12).oc(r, s) == want


def outcome_of(fn):
    """fn()'s result, or the type and message of the error it raised."""
    try:
        return fn()
    except (CalibrationError, InfeasibleDesignError) as exc:
        return type(exc).__name__, str(exc)


def search_summary(real):
    return real.n, real.r, real.alpha_star, real.power_star, real.oc_null, real.oc_lfc


class TestChunkedPass:
    @pytest.mark.parametrize("nsims", [1, 7, 50, 1001])
    def test_chunks_and_threads_give_identical_results(self, monkeypatch, nsims):
        spec = dtl_spec(k=3, m=2, kmax=2, cpl=0.2, cpu=0.9, alpha=0.1)
        model = OutcomeModel.equicorrelated(3, 0.3)
        cfg = SimConfig(seed=nsims, nsims=nsims)
        shift = mean_shift_vector([0.3, 0.1, -0.2], StageSchedule.equal(20, 2), model)

        def run(threads):
            block = simulate_null_block(StageSchedule.equal(1, 2), model, cfg, threads)
            rule = dtl_mod._Rule(block, spec, model, 20)
            cal = outcome_of(lambda: calibrate_r(block, spec, model, 20))
            search = outcome_of(lambda: search_summary(search_dtl_design(
                spec, model, block, nmin=2, nmax=60)))
            return (rule.go_limits(),
                    dtl_mod._Rule(shifted(block, shift), spec, model, 20).go_limits(), cal,
                    rule.oc(2.0), estimate_dtl_oc(block, spec, model, 2.0, 20, shift=shift),
                    search)

        expected = run(1)  # one chunk, one thread
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(dtl_mod, "CHUNK_BYTES", 3 * 6 * 4)  # 3 rows of 2 x 3 statistics
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave as often as they can
        try:
            for threads in (1, 2, 3):
                got = run(threads)
                for want, have in zip(expected[:2], got[:2]):
                    np.testing.assert_array_equal(have, want)
                assert got[2:] == expected[2:]
        finally:
            sys.setswitchinterval(interval)
        if nsims > 3:  # every pass spans several chunks, so threads share it
            assert len(pools) > 2 and set(pools) <= {2, 3}
        if nsims == 1001:
            assert expected[5][0] > 2 and 0 < expected[3].pet < 1

    def test_shifted_pass_peaks_below_the_block(self):
        # 100,000 rows of K = 3, two-stage statistics: a 4.8 MB block
        model = OutcomeModel.equicorrelated(3, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=74, nsims=100_000))
        shift = mean_shift_vector([0.4, 0.2, 0.0], StageSchedule.equal(30, 2), model)
        tracemalloc.start()
        try:
            estimate_dtl_oc(block, dtl_spec(k=3), model, 2.3, 30, shift=shift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block.values.nbytes

    @pytest.mark.parametrize("k", [3, 6])
    def test_go_limit_pass_fills_one_array(self, k):
        # 1,000,000 rows: the go limits take 8 MB, and the pass holds
        # little more than them
        model = OutcomeModel.equicorrelated(k, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=75, nsims=1_000_000))
        rule = dtl_mod._Rule(block, dtl_spec(k=k), model, 30)
        tracemalloc.start()
        try:
            limits = rule.go_limits()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * limits.nbytes


class TestSearch:
    def test_reproduces_two_outcome_design(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        real = search_dtl_design(dtl_spec(), model,
                                 null_block(2, model, SimConfig(seed=43, nsims=50_000)),
                                 nmin=2, nmax=200)
        assert abs(real.n_total - 64) <= 6
        assert real.r == pytest.approx(2.273714, abs=0.08)
        assert real.power_star >= 0.8
        assert real.alpha_star == real.oc_null.p_reject

    def test_requires_feasible_range(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        with pytest.raises(InfeasibleDesignError):
            search_dtl_design(dtl_spec(), model,
                              null_block(2, model, SimConfig(seed=44, nsims=5_000)),
                              nmin=2, nmax=4)
        with pytest.raises(ValueError):
            search_dtl_design(dtl_spec(), model,
                              null_block(2, model, SimConfig(seed=44, nsims=100)),
                              nmin=10, nmax=10)

    def test_function_and_spec_share_the_default_nmax(self):
        spec = DtLDesignSpec(n_outcomes=2, n_promising=1, max_retained=1, cp_lower=0.3,
                             cp_upper=0.95, alpha=0.025, beta=0.2, delta0=0.0, delta1=0.01)
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = null_block(2, model, SimConfig(seed=45, nsims=500))
        with pytest.raises(InfeasibleDesignError, match="no per-stage size up to 400 "):
            search_dtl_design(spec, model, block, nmin=2)
        with pytest.raises(InfeasibleDesignError, match="no per-stage size up to 400 "):
            spec.search(model, block)

    def test_search_makes_at_most_thirteen_block_passes(self, monkeypatch):
        # the paper's K = 3 design at 15,000 rows: bisection made 19 passes
        # (9 probes of a go-limit and a count pass, then the null OC)
        spec = dtl_spec(k=3)
        model = OutcomeModel.equicorrelated(3, 0.3)
        block = null_block(2, model, SimConfig(seed=46, nsims=15_000))
        passes = []
        each_chunk = StatisticBlock.each_chunk

        def counted(self, fn, chunk_bytes):
            passes.append(fn)
            return each_chunk(self, fn, chunk_bytes)

        monkeypatch.setattr(StatisticBlock, "each_chunk", counted)
        real = search_dtl_design(spec, model, block, nmin=2, nmax=400)
        assert len(passes) <= 13
        monkeypatch.undo()

        effects = lfc_effects(spec, sigma=model.sigma)

        def power(n):
            r, _ = calibrate_r(block, spec, model, n)
            shift = mean_shift_vector(effects, StageSchedule.equal(n, 2), model)
            return estimate_dtl_oc(block, spec, model, r, n, shift=shift).p_reject

        assert real.n == bisection_n(power, 0.8, 2, 400)

    def test_paper_shapes_find_the_bisection_size_in_fewer_probes(self, monkeypatch):
        # the paper's three drop-the-loser shapes on 2,000-row null blocks,
        # 8 seeds each: every search gives bisection's n on its own power
        # function. Powers of 0 or 1 enter the interpolation clipped; these
        # 24 searches take 127 probes, where bisection takes 232.
        searches = []
        smallest_passing = dtl_mod.smallest_passing

        def checked(power, target, nmin, nmax, *args, **kwargs):
            probes = []

            def counted(n):
                probes.append(n)
                return power(n)

            n = smallest_passing(counted, target, nmin, nmax, *args, **kwargs)
            searches.append((n, bisection_n(power, target, nmin, nmax), len(probes)))
            return n

        monkeypatch.setattr(dtl_mod, "smallest_passing", checked)
        for k, m, kmax in ((2, 1, 1), (3, 1, 1), (6, 3, 3)):
            spec = dtl_spec(k=k, m=m, kmax=kmax)
            model = OutcomeModel.equicorrelated(k, 0.3)
            for seed in range(8):
                block = null_block(2, model, SimConfig(seed=900 + seed, nsims=2_000))
                search_dtl_design(spec, model, block, nmin=2, nmax=400)
        assert len(searches) == 24
        assert [found for found, _, _ in searches] == [want for _, want, _ in searches]
        assert sum(probes for _, _, probes in searches) == 127

    def test_block_must_have_two_stages(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        with pytest.raises(ValueError, match="two stages"):
            search_dtl_design(dtl_spec(), model,
                              null_block(1, model, SimConfig(seed=44, nsims=100)),
                              nmin=2, nmax=40)


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

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_equals_scalar_oracle_exactly(self, k):
        # unequal sigma and delta1, on the CLI's default 81-point grid
        sigma = np.linspace(0.7, 2.1, k)
        delta1 = tuple(np.linspace(0.25, 0.6, k))
        spec = DtLDesignSpec(n_outcomes=k, n_promising=1, max_retained=1, cp_lower=0.3,
                             cp_upper=0.95, alpha=0.025, beta=0.2, delta0=0.2,
                             delta1=delta1)
        model = OutcomeModel.equicorrelated(k, 0.3, sigma=sigma)
        z_values = np.arange(-4.0, 4.0 + 0.1 / 2, 0.1)
        rows = cp_lookup(spec, model, 2.1734, 37, z_values)
        want = cp_lookup_rows(spec, model, 2.1734, 37, z_values)
        assert len(rows) == 81 * k
        assert [tuple(map(type, row)) for row in rows] == [(int, float, float)] * len(rows)
        assert rows == want
