import numpy as np
import pytest

from _oracles import assemble_covariance, covariance_entry
from conftest import random_correlation
from multiseq import GSDesignSpec, OutcomeModel
from multiseq.model import (
    Boundaries,
    StageSchedule,
    lfc_effects,
    lfc_working_indices,
    wang_tsiatis_boundaries,
)
from multiseq.simulate import mean_shift_vector


class TestOutcomeModel:
    def test_scalar_rho_expands_to_full_matrix(self):
        model = OutcomeModel.equicorrelated(3, 0.3)
        expected = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
        np.testing.assert_array_equal(model.rho, expected)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            OutcomeModel(sigma=[1.0, 0.0], rho=0.0)

    def test_rejects_asymmetric_rho(self):
        rho = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            OutcomeModel(sigma=[1.0, 1.0], rho=rho)

    def test_rejects_bad_diagonal(self):
        rho = np.array([[1.0, 0.2], [0.2, 0.9]])
        with pytest.raises(ValueError, match="diagonal"):
            OutcomeModel(sigma=[1.0, 1.0], rho=rho)

    def test_rejects_out_of_range_correlation(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            OutcomeModel(sigma=[1.0, 1.0], rho=1.2)

    def test_rejects_non_psd_rho(self):
        # pairwise correlations of 0.9, -0.9, 0.9 cannot coexist
        rho = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValueError, match="rho must be positive semidefinite"):
            OutcomeModel(sigma=[1.0, 1.0, 1.0], rho=rho)

    @pytest.mark.parametrize("k, rho", [(2, 1.0), (3, 1.0), (3, -1 / 2), (4, -1 / 3)])
    def test_accepts_a_singular_rho(self, k, rho):
        # PSD with a zero eigenvalue: its factor exists once 1e-10 is on the diagonal
        model = OutcomeModel.equicorrelated(k, rho)
        assert np.abs(model.factor @ model.factor.T - model.rho).max() < 1e-8

    @pytest.mark.parametrize("k", [3, 4])
    def test_rejects_a_rho_just_below_the_psd_bound(self, k):
        # smallest eigenvalue 1 + (K - 1) * rho = -(K - 1) * 1e-9: no factor
        # exists, with or without the jitter
        with pytest.raises(ValueError, match="rho must be positive semidefinite"):
            OutcomeModel.equicorrelated(k, -1 / (k - 1) - 1e-9)

    def test_fields_are_immutable(self):
        model = OutcomeModel.equicorrelated(2, 0.5)
        with pytest.raises(ValueError):
            model.rho[0, 1] = 0.9
        with pytest.raises(ValueError):
            model.factor[1, 0] = 0.9
        with pytest.raises(TypeError):  # computed from rho, never passed
            OutcomeModel(sigma=[1.0, 1.0], rho=0.5, factor=np.eye(2))

    def test_rejects_non_finite_effects_and_shape(self):
        from multiseq.dtl import DtLDesignSpec
        gs = dict(n_outcomes=2, n_promising=1, n_stages=2, alpha=0.025, beta=0.2,
                  delta0=0.2, delta1=0.4)
        with pytest.raises(ValueError, match="delta1 must be finite"):
            GSDesignSpec(**(gs | {"delta1": np.nan}))
        with pytest.raises(ValueError, match="wt_delta must be finite"):
            GSDesignSpec(**(gs | {"wt_delta": np.inf}))
        with pytest.raises(ValueError, match="delta0 must be finite"):
            DtLDesignSpec(n_outcomes=2, n_promising=1, max_retained=1, cp_lower=0.3,
                          cp_upper=0.95, alpha=0.025, beta=0.2,
                          delta0=[0.2, -np.inf], delta1=0.4)


class TestStageSchedule:
    def test_equal_stages_cumulative(self):
        schedule = StageSchedule.equal(19, 3)
        np.testing.assert_array_equal(schedule.cumulative, [19, 38, 57])
        assert schedule.stage_sizes == (19, 19, 19)

    def test_information_uses_cumulative_over_variance(self):
        # a unit effect shifts each statistic by the root of its information N_j / sigma_k**2
        schedule = StageSchedule.equal(10, 2)
        shift = mean_shift_vector([1.0, 1.0], schedule, OutcomeModel(sigma=[1.0, 2.0], rho=0.0))
        np.testing.assert_allclose(shift ** 2, [10.0, 2.5, 20.0, 5.0])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            StageSchedule(stage_sizes=(5, 0))


class TestWangTsiatis:
    def test_obrien_fleming_shape(self):
        b = wang_tsiatis_boundaries(2.0, 3, 0.0)
        np.testing.assert_allclose(b.upper, (2.0, 1.4142136, 1.1547005), atol=1e-7)
        np.testing.assert_allclose(b.lower, (-2.0, -1.4142136, 1.1547005), atol=1e-7)

    def test_pocock_is_flat(self):
        b = wang_tsiatis_boundaries(2.0, 3, 0.5)
        assert b.upper == (2.0, 2.0, 2.0)
        assert b.lower == (-2.0, -2.0, 2.0)

    def test_large_constant_shape(self):
        b = wang_tsiatis_boundaries(10.0, 3, 0.0)
        np.testing.assert_allclose(b.upper, (10.0, 7.0710678, 5.7735027), atol=1e-7)

    def test_scaling_invariants(self):
        j = np.arange(1, 6, dtype=float)
        flat = wang_tsiatis_boundaries(1.7, 5, 0.5)
        assert len(set(flat.upper)) == 1
        obf = wang_tsiatis_boundaries(1.7, 5, 0.0)
        np.testing.assert_allclose(np.asarray(obf.upper) * np.sqrt(j), 1.7)

    def test_requires_positive_constant(self):
        with pytest.raises(ValueError):
            wang_tsiatis_boundaries(0.0, 3)

    def test_final_closure_even_for_single_stage(self):
        b = wang_tsiatis_boundaries(1.96, 1)
        assert b.lower == b.upper == (1.96,)


class TestBoundaries:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            Boundaries(lower=(3.0, 1.0), upper=(2.0, 1.0))
        with pytest.raises(ValueError, match="final"):
            Boundaries(lower=(-2.0, 0.5), upper=(2.0, 1.0))


class TestCovarianceEntry:
    def setup_method(self):
        self.schedule = StageSchedule.equal(10, 3)
        self.model = OutcomeModel.equicorrelated(2, 0.3)

    def test_same_statistic(self):
        assert covariance_entry(1, 1, 1, 1, self.schedule, self.model) == 1.0

    def test_same_stage_different_outcomes(self):
        assert covariance_entry(1, 1, 1, 2, self.schedule, self.model) == 0.3

    def test_same_outcome_across_stages(self):
        value = covariance_entry(1, 2, 1, 1, self.schedule, self.model)
        assert value == pytest.approx(0.7071068, abs=1e-7)

    def test_cross_stage_cross_outcome(self):
        model = OutcomeModel.equicorrelated(2, 0.5)
        value = covariance_entry(1, 3, 1, 2, self.schedule, model)
        assert value == pytest.approx(0.2886751, abs=1e-7)

    def test_rejects_unordered_stages(self):
        with pytest.raises(IndexError):
            covariance_entry(2, 1, 1, 1, self.schedule, self.model)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(IndexError):
            covariance_entry(1, 4, 1, 1, self.schedule, self.model)
        with pytest.raises(IndexError):
            covariance_entry(1, 1, 0, 2, self.schedule, self.model)


class TestAssembleCovariance:
    def test_trivial_single_statistic(self):
        cov = assemble_covariance(StageSchedule.equal(7, 1),
                                  OutcomeModel.equicorrelated(1, 0.0))
        np.testing.assert_array_equal(cov, [[1.0]])

    def test_two_stage_single_outcome(self):
        cov = assemble_covariance(StageSchedule.equal(5, 2),
                                  OutcomeModel.equicorrelated(1, 0.0))
        np.testing.assert_allclose(cov, [[1.0, 0.7071068], [0.7071068, 1.0]],
                                   atol=1e-7)

    def test_layout_is_stage_major(self):
        schedule = StageSchedule.equal(4, 3)
        model = OutcomeModel.equicorrelated(2, 0.3)
        cov = assemble_covariance(schedule, model)
        # entry for (stage 1, outcome 1) x (stage 3, outcome 2)
        assert cov[0, 5] == pytest.approx(0.3 * np.sqrt(1 / 3))

    def test_unit_diagonal_symmetric_psd(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = rng.integers(1, 6)
            j = rng.integers(1, 5)
            sizes = tuple(int(s) for s in rng.integers(1, 30, size=j))
            model = OutcomeModel(sigma=rng.uniform(0.5, 3.0, size=k),
                                 rho=random_correlation(rng, k))
            cov = assemble_covariance(StageSchedule(stage_sizes=sizes), model)
            np.testing.assert_allclose(np.diag(cov), 1.0)
            np.testing.assert_allclose(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() > -1e-10

    def test_matches_entry_function_elementwise(self):
        # the kron construction and the scalar case analysis are
        # independent routes to the same matrix
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            j = int(rng.integers(1, 5))
            sizes = tuple(int(s) for s in rng.integers(1, 25, size=j))
            schedule = StageSchedule(stage_sizes=sizes)
            model = OutcomeModel(sigma=rng.uniform(0.5, 2.0, size=k),
                                 rho=random_correlation(rng, k))
            cov = assemble_covariance(schedule, model)
            for a in range(j * k):
                for b in range(a, j * k):
                    ja, ka = divmod(a, k)
                    jb, kb = divmod(b, k)
                    if ja > jb:
                        (ja, ka), (jb, kb) = (jb, kb), (ja, ka)
                    expected = covariance_entry(ja + 1, jb + 1, ka + 1, kb + 1,
                                                schedule, model)
                    assert cov[a, b] == pytest.approx(expected, abs=1e-12)


class TestLfcEffects:
    def test_first_m_takes_leading_outcomes(self):
        spec = GSDesignSpec(n_outcomes=3, n_promising=1, n_stages=3, alpha=0.025,
                            beta=0.2, delta0=0.2, delta1=0.4)
        np.testing.assert_array_equal(lfc_effects(spec), [0.4, 0.2, 0.2])

    def test_m_equal_k_uses_all_greater_effects(self):
        spec = GSDesignSpec(n_outcomes=2, n_promising=2, n_stages=1, alpha=0.025,
                            beta=0.2, delta0=[0.1, 0.15], delta1=[0.4, 0.3])
        np.testing.assert_array_equal(lfc_effects(spec), [0.4, 0.3])

    def test_smallest_standardized_with_tie_break(self):
        spec = GSDesignSpec(n_outcomes=3, n_promising=2, n_stages=1, alpha=0.025,
                            beta=0.2, delta0=[0.1, 0.1, 0.1], delta1=0.4)
        effects = lfc_effects(spec, mode="smallest-standardized", sigma=[1.0, 2.0, 1.0])
        # standardized greater effects (0.4, 0.2, 0.4): outcome 2 first,
        # then the tie between outcomes 1 and 3 breaks to outcome 1
        np.testing.assert_array_equal(effects, [0.4, 0.4, 0.1])
        assert lfc_working_indices(spec, "smallest-standardized", [1.0, 2.0, 1.0]) == (0, 1)

    def test_smallest_standardized_matches_exhaustive_ranking(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            m = int(rng.integers(1, k + 1))
            d1 = rng.uniform(0.1, 0.6, size=k).round(2)
            sigma = rng.uniform(0.5, 3.0, size=k).round(2)
            spec = GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=2,
                                alpha=0.05, beta=0.2, delta0=0.0, delta1=d1)
            expected = tuple(sorted(
                sorted(range(k), key=lambda i: (d1[i] / sigma[i], i))[:m]))
            assert lfc_working_indices(spec, "smallest-standardized", sigma) == expected

    def test_first_m_block_permutation_equivariance(self):
        # permuting effects within the working block (or within the rest)
        # permutes the LFC the same way; mixing across blocks does not apply
        spec = GSDesignSpec(n_outcomes=4, n_promising=2, n_stages=2, alpha=0.025,
                            beta=0.2, delta0=[0.1, 0.2, 0.05, 0.07],
                            delta1=[0.5, 0.4, 0.3, 0.35])
        base = lfc_effects(spec)
        swapped = GSDesignSpec(n_outcomes=4, n_promising=2, n_stages=2, alpha=0.025,
                               beta=0.2, delta0=[0.2, 0.1, 0.07, 0.05],
                               delta1=[0.4, 0.5, 0.35, 0.3])
        perm = lfc_effects(swapped)
        np.testing.assert_array_equal(perm, base[[1, 0, 3, 2]])

    def test_unknown_mode_rejected(self):
        spec = GSDesignSpec(n_outcomes=2, n_promising=1, n_stages=1, alpha=0.025,
                            beta=0.2, delta0=0.2, delta1=0.4)
        with pytest.raises(ValueError, match="mode"):
            lfc_effects(spec, mode="alphabetical")


class TestGSDesignSpec:
    # both design families share the m, error-rate and effect checks
    @pytest.mark.parametrize("family", ["gs", "dtl"])
    def test_rejects_bad_error_rates(self, family):
        from multiseq.dtl import DtLDesignSpec

        spec = {"gs": lambda **kw: GSDesignSpec(n_stages=2, **kw),
                "dtl": lambda **kw: DtLDesignSpec(max_retained=1, cp_lower=0.3,
                                                  cp_upper=0.95, **kw)}[family]
        valid = dict(n_outcomes=2, n_promising=1, alpha=0.025, beta=0.2,
                     delta0=0.2, delta1=0.4)
        spec(**valid)
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            spec(**(valid | {"alpha": 0.0}))
        with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\)$"):
            spec(**(valid | {"beta": 1.0}))

    def test_rejects_inverted_effect_order(self):
        with pytest.raises(ValueError, match="delta1"):
            GSDesignSpec(n_outcomes=2, n_promising=1, n_stages=2, alpha=0.025,
                         beta=0.2, delta0=0.4, delta1=0.2)

    def test_rejects_m_out_of_range(self):
        with pytest.raises(ValueError, match="n_promising"):
            GSDesignSpec(n_outcomes=2, n_promising=3, n_stages=2, alpha=0.025,
                         beta=0.2, delta0=0.2, delta1=0.4)
