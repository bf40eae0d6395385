import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import null_block
import multiseq.dtl as dtl_module
import multiseq.gs as gs_module
import multiseq.simulate as simulate_module
from multiseq import GSDesignSpec, OutcomeModel, SimConfig, search_gs_design
from multiseq.analysis import (
    compare_at_effects,
    correlation_sweep,
    effect_grid,
    evaluate_at_effects,
)
from multiseq.dtl import DtLDesignSpec, DtLRealisation
from multiseq.simulate import null_blocks


def gs_spec(k=2, m=1, j=2, composite=False, delta0=0.2, delta1=0.4):
    return GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=j, alpha=0.025,
                        beta=0.2, delta0=delta0, delta1=delta1, composite=composite)


def dtl_spec():
    return DtLDesignSpec(n_outcomes=2, n_promising=1, max_retained=1, cp_lower=0.3,
                         cp_upper=0.95, alpha=0.025, beta=0.2, delta0=0.2, delta1=0.4)


class TestSearchDesignDispatch:
    def test_dispatches_by_spec_type(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = null_block(2, model, SimConfig(seed=50, nsims=5_000))
        assert gs_spec().search(model, block).kind == "gs"
        assert gs_spec(composite=True).search(model, block).kind == "composite"
        assert isinstance(dtl_spec().search(model, block, nmax=200), DtLRealisation)

    def test_nmin_defaults_to_the_spec_family(self, monkeypatch):
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = null_block(2, model, SimConfig(seed=50, nsims=500))
        starts = []

        def first_probe(power, target, nmin, nmax, gallop=False):
            power(nmin)
            return nmin

        def dtl_start(power, target, nmin, nmax):
            starts.append(nmin)
            return first_probe(power, target, nmin, nmax)

        def gs_start(rule, boundaries, slope, target, nmin):
            # the gs search reads n off its threshold pass from nmin up
            starts.append(nmin)
            return float(nmin)

        monkeypatch.setattr(gs_module, "_threshold_size", gs_start)
        # a gs probe at nmin that falls short falls back to smallest_passing
        monkeypatch.setattr(gs_module, "smallest_passing", first_probe)
        monkeypatch.setattr(dtl_module, "smallest_passing", dtl_start)
        for spec in (gs_spec(), gs_spec(composite=True), dtl_spec()):
            spec.search(model, block, nmax=50)
            spec.search(model, block, nmin=5, nmax=50)
        assert starts == [1, 5, 1, 5, 2, 5]


class TestEffectGrid:
    def test_self_comparison_gives_unit_ratios(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=57, nsims=10_000))
        real_a = search_gs_design(gs_spec(), model, blocks[2])
        real_b = search_gs_design(gs_spec(), model, blocks[2])
        grid = effect_grid(real_a, real_b, [(-0.1, 0.2), (-0.1, 0.2)], model, blocks)
        assert len(grid) == 4
        for _, oc_a, oc_b in grid:
            assert oc_a.ess / oc_b.ess == 1.0 and oc_a.enm / oc_b.enm == 1.0
            assert oc_a.p_reject == oc_b.p_reject

    def test_grid_is_deterministic_and_complete(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=58, nsims=10_000))
        real_a = search_gs_design(gs_spec(), model, blocks[2])
        real_b = gs_spec(composite=True).search(model, blocks[2])
        axes = [(-0.2, 0.0, 0.4), (0.0, 0.2)]
        first = effect_grid(real_a, real_b, axes, model, blocks)
        second = effect_grid(real_a, real_b, axes, model, blocks)
        assert [point for point, _, _ in first] == [
            (-0.2, 0.0), (-0.2, 0.2), (0.0, 0.0), (0.0, 0.2), (0.4, 0.0), (0.4, 0.2)]
        assert [oc_a.p_reject for _, oc_a, _ in first] == \
            [oc_a.p_reject for _, oc_a, _ in second]
        assert [oc_b.enm for _, _, oc_b in first] == [oc_b.enm for _, _, oc_b in second]
        # composite trials still measure both outcomes at every stage
        for _, oc_a, oc_b in first:
            assert oc_b.enm == pytest.approx(2 * oc_b.ess, rel=1e-7)
            assert oc_a.enm == pytest.approx(2 * oc_a.ess, rel=1e-7)

    def test_grid_matches_pointwise_evaluation(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=59, nsims=10_000))
        real_a = search_gs_design(gs_spec(), model, blocks[2])
        real_b = gs_spec(composite=True).search(model, blocks[2])
        (point, _, oc_b), = effect_grid(real_a, real_b, [(0.1,), (0.3,)], model, blocks)
        assert point == (0.1, 0.3)
        assert oc_b == evaluate_at_effects(real_b, blocks[2], model, [0.1, 0.3])

    def test_threads_reach_every_evaluation_pass(self, monkeypatch):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=63, nsims=600))
        real_gs = search_gs_design(gs_spec(), model, blocks[2])
        real_dtl = dtl_spec().search(model, null_block(2, model, SimConfig(seed=63, nsims=5_000)),
                                     nmax=200)
        axes = [(-0.1, 0.2, 0.4), (0.0, 0.3)]
        expected = effect_grid(real_gs, real_dtl, axes, model, blocks)
        blocks = null_blocks([2], model, SimConfig(seed=63, nsims=600), threads=2)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        # 600 rows in 100-row chunks: every pass spans 6 chunks
        for module in (gs_module, dtl_module):
            monkeypatch.setattr(module, "CHUNK_BYTES", 100 * 4 * 8)
        grid = effect_grid(real_gs, real_dtl, axes, model, blocks)
        # one pool per evaluation pass: 6 points, each for both designs
        assert pools == [2] * 12
        assert grid == expected

    def test_axes_must_match_outcomes(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=60, nsims=5_000))
        real = search_gs_design(gs_spec(), model, blocks[2])
        with pytest.raises(ValueError):
            effect_grid(real, real, [(0.0,)], model, blocks)

    def test_rejection_monotone_along_increasing_effects(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = null_block(2, model, SimConfig(seed=61, nsims=20_000))
        real = search_gs_design(gs_spec(), model, block)
        path = [(-0.2, -0.1), (0.0, 0.0), (0.1, 0.05), (0.3, 0.2), (0.4, 0.4)]
        probs = [evaluate_at_effects(real, block, model, mu).p_reject for mu in path]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


class TestCorrelationSweep:
    def test_self_comparison_is_flat_at_one(self):
        cfg = SimConfig(seed=62, nsims=5_000)
        sweep = correlation_sweep(gs_spec(), gs_spec(), (0.0, 0.4), cfg)
        assert sweep.rho_values == (0.0, 0.4) and sweep.errors == []
        for real_a, real_b in sweep.points:
            assert real_a.oc_lfc.ess / real_b.oc_lfc.ess == 1.0
            assert real_a.oc_lfc.enm / real_b.oc_lfc.enm == 1.0

    def test_failed_points_are_marked_not_fatal(self):
        cfg = SimConfig(seed=63, nsims=2_000)
        sweep = correlation_sweep(dtl_spec(), gs_spec(j=1), (0.0, 0.3), cfg,
                                  nmin=2, nmax=4)
        assert sweep.points == [None, None]
        assert [rho for rho, _ in sweep.errors] == [0.0, 0.3]

    def test_records_design_constants(self):
        cfg = SimConfig(seed=64, nsims=5_000)
        sweep = correlation_sweep(gs_spec(), gs_spec(composite=True), (0.3,), cfg)
        (real_a, real_b), = sweep.points
        assert (real_a.kind, real_b.kind) == ("gs", "composite")
        assert real_a.n >= 1 and real_b.n >= 1
        assert real_a.constant > 0 and real_b.constant > 0

    def test_draws_each_block_once_and_drops_it_before_the_next_rho(self, monkeypatch):
        drawn = []  # (model, stage count, weak reference to the block)
        simulate = simulate_module.simulate_null_block

        def tracked(schedule, model, cfg, threads=1):
            assert all(ref() is None for other, _, ref in drawn if other is not model)
            block = simulate(schedule, model, cfg, threads=threads)
            drawn.append((model, schedule.n_stages, weakref.ref(block)))
            return block

        monkeypatch.setattr(simulate_module, "simulate_null_block", tracked)
        cfg = SimConfig(seed=65, nsims=2_000)
        sweep = correlation_sweep(dtl_spec(), gs_spec(j=1), (0.0, 0.3, 0.6), cfg, nmax=200)
        assert None not in sweep.points
        assert [(model.rho[0, 1], j) for model, j, _ in drawn] == \
            [(0.0, 1), (0.0, 2), (0.3, 1), (0.3, 2), (0.6, 1), (0.6, 2)]
        monkeypatch.undo()
        # each point equals both searches on the blocks that null_blocks draws
        for i, rho in enumerate((0.0, 0.3, 0.6)):
            model = OutcomeModel.equicorrelated(2, rho)
            blocks = null_blocks([1, 2], model, cfg)
            real_a = dtl_spec().search(model, blocks[2], nmax=200)
            real_b = gs_spec(j=1).search(model, blocks[1], nmax=200)
            got_a, got_b = sweep.points[i]
            assert (got_a.n, got_b.n) == (real_a.n, real_b.n)
            assert (got_a.oc_lfc, got_b.oc_lfc) == (real_a.oc_lfc, real_b.oc_lfc)


class TestCompareAtEffects:
    def test_table_rows_share_blocks_across_points(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=65, nsims=10_000))
        real_a = search_gs_design(gs_spec(), model, blocks[2])
        real_b = gs_spec(composite=True).search(model, blocks[2])
        pairs = compare_at_effects(real_a, real_b, model,
                                   [(0.0, 0.0), (0.4, 0.2)], blocks)
        assert len(pairs) == 2
        assert pairs[1][0].p_reject > pairs[0][0].p_reject

    @pytest.mark.parametrize("design_b", ["composite", "dtl", "three-stage"])
    def test_equal_stage_counts_share_one_simulated_block(self, monkeypatch, design_b):
        model = OutcomeModel.equicorrelated(2, 0.3)
        cfg = SimConfig(seed=66, nsims=4_000)
        spec_b = {"composite": gs_spec(composite=True), "dtl": dtl_spec(),  # two stages
                  "three-stage": gs_spec(j=3, composite=True)}[design_b]
        calls = []

        def counted(schedule, *args, **kwargs):
            calls.append(schedule.n_stages)
            return simulate(schedule, *args, **kwargs)

        simulate = simulate_module.simulate_null_block
        monkeypatch.setattr(simulate_module, "simulate_null_block", counted)
        blocks = null_blocks([2, spec_b.n_stages], model, cfg)
        assert calls == ([2, 3] if design_b == "three-stage" else [2])
        real_a = search_gs_design(gs_spec(), model, blocks[2])  # two stages
        real_b = spec_b.search(model, blocks[spec_b.n_stages], nmax=200)
        mus = [(0.0, 0.0), (0.4, 0.2)]
        expected = [tuple(evaluate_at_effects(real, null_block(real.n_stages, model, cfg),
                                              model, mu) for real in (real_a, real_b))
                    for mu in mus]
        del calls[:]
        pairs = compare_at_effects(real_a, real_b, model, mus, blocks)
        assert calls == []  # the grid evaluates the caller's blocks only
        assert pairs == expected
