"""Design comparisons: effect grids through each realisation's
``evaluate_grid`` (one block pass per realisation, whatever the grid
size), effect tables of one-point grids, and correlation sweeps through
``oc sweep``."""

import functools
import itertools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from _oracles import DtLBlockRule, decide_rows, oc_from_limits, sorted_go_limits
from conftest import at_effects, null_block
import multiseq.dtl as dtl_module
import multiseq.gs as gs_module
import multiseq.simulate as simulate_module
from multiseq import GSDesignSpec, OutcomeModel, SimConfig, search_gs_design
from multiseq.cli import main
from multiseq.dtl import DtLDesignSpec, DtLRealisation
from multiseq.gs import DesignRealisation, GSOperatingCharacteristics, composite_transform
from multiseq.model import Boundaries, StageSchedule, lfc_effects, wang_tsiatis_boundaries
from multiseq.simulate import StatisticBlock, mean_shift_vector, null_blocks


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

        def first_probe(power, target, nmin, nmax, alpha, nsims, opening=()):
            power(nmin)
            return nmin

        def dtl_start(power, target, nmin, nmax, alpha, nsims):
            starts.append(nmin)
            return first_probe(power, target, nmin, nmax, alpha, nsims)

        def gs_start(rule, boundaries, slope, target, nmin):
            # the gs search reads n off its threshold pass from nmin up
            starts.append(nmin)
            return float(nmin)

        monkeypatch.setattr(gs_module, "_threshold_size", gs_start)
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
        grids = [real.evaluate_grid(blocks[2], model, [(-0.1, 0.2), (-0.1, 0.2)])
                 for real in (real_a, real_b)]
        assert len(grids[0]) == 4
        for oc_a, oc_b in zip(*grids, strict=True):
            assert oc_a.ess / oc_b.ess == 1.0 and oc_a.enm / oc_b.enm == 1.0
            assert oc_a.p_reject == oc_b.p_reject

    def test_grid_is_deterministic_and_complete(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=58, nsims=10_000))
        real_a = search_gs_design(gs_spec(), model, blocks[2])
        real_b = gs_spec(composite=True).search(model, blocks[2])
        axes = [(-0.2, 0.0, 0.4), (0.0, 0.2)]
        first = [real.evaluate_grid(blocks[2], model, axes) for real in (real_a, real_b)]
        assert first == [real.evaluate_grid(blocks[2], model, axes) for real in (real_a, real_b)]
        # row-major order: the last axis varies fastest
        points = [(-0.2, 0.0), (-0.2, 0.2), (0.0, 0.0), (0.0, 0.2), (0.4, 0.0), (0.4, 0.2)]
        assert first[1] == [at_effects(real_b, blocks[2], model, mu) for mu in points]
        # composite trials still measure both outcomes at every stage
        for oc_a, oc_b in zip(*first, strict=True):
            assert oc_b.enm == pytest.approx(2 * oc_b.ess, rel=1e-7)
            assert oc_a.enm == pytest.approx(2 * oc_a.ess, rel=1e-7)

    def test_grid_matches_pointwise_evaluation(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=59, nsims=10_000))
        real_a = search_gs_design(gs_spec(), model, blocks[2])
        real_b = gs_spec(composite=True).search(model, blocks[2])
        # a one-point grid's record is that point's record in a larger grid
        for real in (real_a, real_b):
            oc, = real.evaluate_grid(blocks[2], model, [(0.1,), (0.3,)])
            assert oc == real.evaluate_grid(blocks[2], model, [(0.0, 0.1), (0.3, 0.5)])[2]

    def test_threads_reach_every_evaluation_pass(self, monkeypatch):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=63, nsims=600))
        real_gs = search_gs_design(gs_spec(), model, blocks[2])
        real_dtl = dtl_spec().search(model, null_block(2, model, SimConfig(seed=63, nsims=5_000)),
                                     nmax=200)
        axes = [(-0.1, 0.2, 0.4), (0.0, 0.3)]
        expected = [real.evaluate_grid(blocks[2], model, axes) for real in (real_gs, real_dtl)]
        blocks = null_blocks([2], model, SimConfig(seed=63, nsims=600), threads=2)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        # 600 rows in 100-row chunks: every pass spans 6 chunks
        for module in (gs_module, dtl_module):
            monkeypatch.setattr(module, "CHUNK_BYTES", 100 * 4 * 4)
        grids = [real.evaluate_grid(blocks[2], model, axes) for real in (real_gs, real_dtl)]
        # one pool per grid pass: one pass per design, whatever the grid size
        assert pools == [2] * 2
        assert grids == expected

    def test_axes_must_match_outcomes(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=60, nsims=5_000))
        real = search_gs_design(gs_spec(), model, blocks[2])
        with pytest.raises(ValueError):
            real.evaluate_grid(blocks[2], model, [(0.0,)])

    def test_rejection_monotone_along_increasing_effects(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = null_block(2, model, SimConfig(seed=61, nsims=20_000))
        real = search_gs_design(gs_spec(), model, block)
        path = [(-0.2, -0.1), (0.0, 0.0), (0.1, 0.05), (0.3, 0.2), (0.4, 0.4)]
        probs = [at_effects(real, block, model, mu).p_reject for mu in path]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


GRID_KINDS = ("gs", "composite", "single-stage", "dtl-drop", "dtl-keep")


def outcome_sum(shift, stages):
    """A composite shift: each stage's outcome shifts added to 0.0 in outcome order."""
    return functools.reduce(np.add, np.reshape(shift, (stages, -1)).T, 0.0)


def random_realisation(kind, model, axes, blocks, rng, threads, on=0):
    """A realisation of ``kind`` with a random m and n, on a hand-built block
    (blocks[J], drawn when missing). Block values and effects come from small
    pools, so statistics tie across rows and outcomes, and each boundary (or
    r) is a shifted statistic of a grid point, which lands on it exactly: a
    drop-the-loser r on a stage-two statistic (on = 0), e_i (1) or t_i (2)."""
    k = model.n_outcomes
    m, n = int(rng.integers(1, k + 1)), int(rng.integers(1, 40))
    stages = {"gs": int(rng.integers(1, 5)), "composite": int(rng.integers(1, 5)),
              "single-stage": 1}.get(kind, 2)
    if stages not in blocks:
        values = rng.choice(np.arange(-8, 9) / 4.0, size=(int(rng.integers(20, 60)), stages * k))
        if k > 1:  # some rows repeat outcome 1's statistics for outcome 2
            rows = rng.random(len(values)) < 0.3
            values[rows, 1::k] = values[rows, 0::k]
        blocks[stages] = StatisticBlock(values, stages, k, threads=threads)
    block = blocks[stages]
    points = list(itertools.product(*axes))

    def shifted(stage: int, outcome: int) -> float:
        # a random row's statistic at a random grid point, as the block pass shifts it
        shift = mean_shift_vector(points[int(rng.integers(len(points)))],
                                  StageSchedule.equal(n, stages), model)
        col = stage * k + outcome
        return block.values[int(rng.integers(block.nsims)), col] + shift[col]

    if kind.startswith("dtl"):
        k_max = k - 1 if kind == "dtl-keep" else int(rng.integers(1, k - 1))
        spec = DtLDesignSpec(n_outcomes=k, n_promising=m, max_retained=k_max,
                             cp_lower=float(rng.choice([0.0, 0.2, 0.5])),
                             cp_upper=float(rng.choice([0.8, 0.95, 1.0])),
                             alpha=0.025, beta=0.2, delta0=0.1, delta1=0.3)
        rule, i = dtl_module._Rule(block, spec, model, n), int(rng.integers(k))
        core = (shifted(0, i) * rule.sqrt_i1[i] + rule.drift[i]) / rule.sqrt_gap[i]
        # r on a shifted stage-two statistic, or on e_i or t_i
        r = [shifted(1, i), (core - rule.q_lower) / rule.scale,
             (core - rule.q_upper) / rule.scale][on]
        r = r if np.isfinite(r) else shifted(1, i)  # a disabled CP threshold
        return DtLRealisation(spec=spec, n=n, n_total=2 * n, r=float(r), alpha_star=0.0,
                              power_star=0.0)
    summed = kind == "composite"
    spec = GSDesignSpec(n_outcomes=k, n_promising=1 if summed else m, n_stages=stages,
                        alpha=0.025, beta=0.2, delta0=0.1, delta1=0.3, composite=summed)

    def statistic(stage: int) -> float:
        if not summed:
            return shifted(stage, int(rng.integers(k)))
        # the summed statistic and summed shift, as the composite rule forms them
        point = points[int(rng.integers(len(points)))]
        shift = mean_shift_vector(point, StageSchedule.equal(n, stages), model)
        row = composite_transform(block).values[int(rng.integers(block.nsims))]
        return row[stage] + outcome_sum(shift, stages)[stage]

    edges = [sorted((statistic(j), statistic(j))) for j in range(stages - 1)]
    edges.append([statistic(stages - 1)] * 2)  # the final boundaries coincide
    boundaries = Boundaries(lower=[lo for lo, _ in edges], upper=[up for _, up in edges])
    return DesignRealisation(kind="composite" if summed else "gs", spec=spec, n=n,
                             n_total=n * stages, constant=boundaries.upper[-1],
                             boundaries=boundaries, alpha_star=0.0, power_star=0.0)


def oracle_oc(real, block, model, point):
    """Operating characteristics of ``real`` at one effect point from
    row-wise oracles on the shifted block: ``decide_rows`` for the gs family
    (on the summed block and shift if composite); for drop-the-loser the
    sorted go limits (``oc_from_limits``), and ``DtLBlockRule`` too unless
    r equals some row's e_i or t_i, where its conditional powers may round
    to either side of a threshold."""
    schedule = StageSchedule.equal(real.n, real.n_stages)
    shift = mean_shift_vector(point, schedule, model)
    if real.kind == "dtl":
        rule, values = dtl_module._Rule(block, real.spec, model, real.n), block.values + shift
        t_go, e, limit = sorted_go_limits(rule, values)
        oc = oc_from_limits(rule, real.r, t_go, e, limit)
        core = (values[:, :rule.k] * rule.sqrt_i1 + rule.drift) / rule.sqrt_gap
        if not np.isin(real.r, np.concatenate([core - rule.q_lower, core - rule.q_upper])
                       / rule.scale):
            by_cp = DtLBlockRule(block, real.spec, model, real.n, shift).evaluate(real.r)
            assert oc == replace(by_cp, ess=real.n * by_cp.ess, enm=real.n * by_cp.enm)
        return oc
    j, k, m = real.n_stages, model.n_outcomes, real.spec.n_promising
    values = block.values + shift
    if real.kind == "composite":
        values = composite_transform(block).values + outcome_sum(shift, j)
        k = m = 1
    go, stop = decide_rows(values, j, k, m, real.boundaries.lower, real.boundaries.upper)
    ess = schedule.cumulative[stop].mean()
    return GSOperatingCharacteristics(p_reject=go.mean(), ess=ess, enm=model.n_outcomes * ess,
                                      expected_stages=(stop + 1.0).mean())


class TestGridPass:
    """``evaluate_grid`` (one pass per realisation) against per-point
    ``at_effects``, which runs the same kernel on a grid of one point, and
    against the row-wise oracles of ``oracle_oc``: the records must be
    equal, not approximately."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_grid_equals_pointwise_evaluation(self, monkeypatch, kind, seed):
        rng = np.random.default_rng([GRID_KINDS.index(kind), seed])
        threads = (1, 3)[seed % 2]
        # a composite shift sums K terms: from 8 on, the order of the sum shows
        k = int(rng.integers({"dtl-drop": 3, "dtl-keep": 2}.get(kind, 1),
                             11 if kind == "composite" else 5))
        sigma = rng.choice([0.7, 1.0, 1.3], size=k)
        sigma[1 % k] = sigma[0]  # outcomes 1 and 2 can tie: the block repeats 1 as 2
        model = OutcomeModel(sigma=sigma, rho=0.3)
        # unsorted axes of unequal length, with duplicates and negative values
        pool = np.array([-0.5, -0.25, 0.0, 0.1, 0.25, 0.5])
        axes = [tuple(rng.choice(pool, size=int(rng.integers(1, 5 if k < 4 else 3))))
                for _ in range(k)]
        other = str(rng.choice([g for g in GRID_KINDS if g != "dtl-drop" or k >= 3]
                               if k >= 2 else ["gs", "composite", "single-stage"]))
        blocks = {}
        reals = [random_realisation(name, model, axes, blocks, rng, threads, seed % 3)
                 for name in (kind, other)]
        # every pass runs in chunks of 1-3 rows: each module's budget gives
        # its narrowest block `rows` rows and a wider one fewer, at least 1
        rows = int(rng.integers(1, 4))
        for module in (gs_module, dtl_module):
            widths = [4 * (real.n_stages if real.kind == "composite" else real.n_stages * k)
                      for real in reals if (real.kind == "dtl") == (module is dtl_module)]
            monkeypatch.setattr(module, "CHUNK_BYTES", rows * min(widths, default=4))
        points = list(itertools.product(*axes))
        for real in reals:
            block = blocks[real.n_stages]
            for point, oc in zip(points, real.evaluate_grid(block, model, axes), strict=True):
                assert oc == at_effects(real, block, model, point)
                assert oc == oracle_oc(real, block, model, point)

    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_statistics_on_the_boundary(self, kind):
        # 60 realisations per kind on one block, each with its boundaries (or
        # r, in turn on a stage-two statistic, e_i and t_i) on shifted
        # statistics: a grid kernel whose floats differ from the per-point
        # pass in the last bit decides some of those rows the other way
        rng = np.random.default_rng([GRID_KINDS.index(kind), 99])
        model = OutcomeModel(sigma=[1.3, 1.3, 0.7], rho=0.3)
        axes = [(0.25, -0.5, 0.25), (0.1, 0.25), (0.0, -0.25)]
        blocks = {}
        for draw in range(60):
            real = random_realisation(kind, model, axes, blocks, rng, 1, draw % 3)
            block = blocks[real.n_stages]
            points = list(itertools.product(*axes))
            grid = real.evaluate_grid(block, model, axes)
            assert grid == [at_effects(real, block, model, p) for p in points]
            assert grid == [oracle_oc(real, block, model, p) for p in points]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_slices_of_a_chunk_match_pointwise_evaluation(self, threads):
        # the default chunk sizes: a 3,000-row chunk is walked in slices
        model = OutcomeModel.equicorrelated(3, 0.3)
        blocks = null_blocks([1, 2, 3], model, SimConfig(seed=70, nsims=3_000), threads=threads)
        dtl = DtLRealisation(spec=DtLDesignSpec(3, 2, 2, 0.2, 0.9, 0.025, 0.2, 0.2, 0.4),
                             n=30, n_total=60, r=1.9, alpha_star=0.0, power_star=0.0)
        gs = DesignRealisation("gs", gs_spec(3, 2, 3), 30, 90, 2.1,
                               wang_tsiatis_boundaries(2.1 * 3 ** 0.5, 3), 0.0, 0.0)
        axes = [(0.4, -0.2, 0.0, 0.2, 0.3, 0.1, -0.1, 0.4)] * 3  # 512 points
        points = list(itertools.product(*axes))
        for real in (dtl, gs):
            block = blocks[real.n_stages]
            assert real.evaluate_grid(block, model, axes) == \
                [at_effects(real, block, model, point) for point in points]

    def test_an_empty_axis_gives_an_empty_grid(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=71, nsims=500))
        real = DesignRealisation("gs", gs_spec(), 10, 20, 2.0,
                                 wang_tsiatis_boundaries(2.0 * 2 ** 0.5, 2), 0.0, 0.0)
        assert real.evaluate_grid(blocks[2], model, [(0.1, 0.2), ()]) == []

    @pytest.mark.parametrize("kind", ["gs", "composite", "dtl-drop", "dtl-keep"])
    def test_a_chunk_of_more_slices_than_a_tally_holds(self, monkeypatch, kind):
        # K = 4 and 8 values: 4,096 points in 2-row slices, so the 1,000-row
        # block is one chunk of 500 slices: more than a uint8 tally cell takes
        # (255, or 255 // K_max for drop-the-loser's retained outcomes). The
        # grid must equal its 512-point sub-grids with the first axis fixed,
        # whose 16-row slices fit one chunk's tallies.
        model = OutcomeModel.equicorrelated(4, 0.3)
        monkeypatch.setattr(gs_module, "CHUNK_BYTES", 262_144)
        monkeypatch.setattr(dtl_module, "CHUNK_BYTES", 65_536)
        axes = [(-0.2, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5)] * 4
        block = null_block(2, model, SimConfig(seed=76, nsims=1_000))
        if kind.startswith("dtl"):
            spec = DtLDesignSpec(4, 1, 2, 0.3, 0.95, 0.025, 0.2, 0.2, 0.4)
            schedule = StageSchedule.equal(60, 2)

            def evaluate(axes):  # dtl-keep retains every eligible outcome
                rule = dtl_module._Rule(block, spec, model, 60, 2 if kind == "dtl-drop" else 4)
                return rule.grid_oc(2.0, simulate_module.axis_shifts(axes, schedule, model))
        else:
            real = DesignRealisation(kind, gs_spec(4, 2, 2, composite=kind == "composite"), 60,
                                     120, 2.1, wang_tsiatis_boundaries(2.1 * 2 ** 0.5, 2),
                                     0.0, 0.0)

            def evaluate(axes):
                return real.evaluate_grid(block, model, axes)

        flushes = []
        flush = simulate_module.ShiftGrid._flush
        monkeypatch.setattr(simulate_module.ShiftGrid, "_flush",
                            lambda grid, *args: flushes.append(1) or flush(grid, *args))
        grid = evaluate(axes)
        assert len(flushes) > 1  # the one chunk's tallies were reduced before its end
        assert grid == [oc for value in axes[0] for oc in evaluate([(value,)] + axes[1:])]
        assert max(oc.p_reject for oc in grid) == 1.0  # cells that count every slice

    @pytest.mark.parametrize("values", [1, 2, 5])
    def test_one_pass_per_realisation_whatever_the_grid_size(self, monkeypatch, values):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([1, 2, 3], model, SimConfig(seed=72, nsims=2_000))
        reals = [search_gs_design(gs_spec(j=3), model, blocks[3]),
                 gs_spec(composite=True).search(model, blocks[2]),
                 gs_spec(j=1).search(model, blocks[1]),
                 dtl_spec().search(model, blocks[2], nmax=200)]
        passes = []
        each_chunk = StatisticBlock.each_chunk

        def counted(block, fn, chunk_bytes):
            passes.append(block.n_stages)
            return each_chunk(block, fn, chunk_bytes)

        monkeypatch.setattr(StatisticBlock, "each_chunk", counted)
        axes = [np.linspace(-0.2, 0.4, values)] * 2
        for real in reals:
            del passes[:]
            assert len(real.evaluate_grid(blocks[real.n_stages], model, axes)) == values ** 2
            assert passes == [real.n_stages]

    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    def test_a_composite_search_meets_its_grid_at_the_lfc(self, k):
        # the search's probes sum each LFC shift by _Rule._columns and a grid
        # sums every point's by _Rule.axis_shifts: the same terms in the same
        # order, so the OC at the LFC point is the same, bit for bit
        model = OutcomeModel(sigma=np.linspace(0.7, 1.3, k), rho=0.3)
        block = null_block(2, model, SimConfig(seed=77, nsims=4_000))
        spec = gs_spec(k, 1, 2, composite=True, delta0=np.linspace(0.05, 0.2, k))
        real = spec.search(model, block)
        lfc = lfc_effects(spec, sigma=model.sigma)
        assert real.evaluate_grid(block, model, [(mu,) for mu in lfc]) == [real.oc_lfc]

    def test_a_composite_grid_makes_no_call_per_point(self, monkeypatch):
        # the 16,807 points' summed shifts come from whole-array adds of the
        # outcomes' axis shifts, not from one mean shift vector per point
        calls = []

        def counted(*args):
            calls.append(args)
            return mean_shift_vector(*args)

        for module in (simulate_module, gs_module):
            monkeypatch.setattr(module, "mean_shift_vector", counted)
        model = OutcomeModel.equicorrelated(5, 0.3)
        real = DesignRealisation("composite", gs_spec(5, 1, 2, composite=True), 30, 60, 2.1,
                                 wang_tsiatis_boundaries(2.1 * 2 ** 0.5, 2), 0.0, 0.0)
        axes = [(-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)] * 5
        block = null_block(2, model, SimConfig(seed=78, nsims=200))
        assert len(real.evaluate_grid(block, model, axes)) == 7 ** 5
        assert len(calls) <= 1

    def test_grid_pass_memory_does_not_grow_with_nsims(self):
        # 343-point K = 3 grids at 20k and 200k rows: the pass reads each
        # chunk's columns in place and holds one workspace of a slice's
        # (point, row) cells, so its peak grows by less than a chunk
        model = OutcomeModel.equicorrelated(3, 0.3)
        axes = [(-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4)] * 3
        dtl = DtLRealisation(spec=DtLDesignSpec(3, 1, 1, 0.3, 0.95, 0.025, 0.2, 0.2, 0.4),
                             n=60, n_total=120, r=2.0, alpha_star=0.0, power_star=0.0)
        single = DesignRealisation("gs", gs_spec(3, 1, 1), 60, 60, 2.3,
                                   wang_tsiatis_boundaries(2.3, 1), 0.0, 0.0)
        peaks = {}
        for nsims in (20_000, 200_000):
            blocks = null_blocks([1, 2], model, SimConfig(seed=73, nsims=nsims))
            for real in (dtl, single):
                block = blocks[real.n_stages]
                real.evaluate_grid(block, model, [(0.0,)] * 3)  # a warm-up pass, not measured
                tracemalloc.start()
                try:
                    real.evaluate_grid(block, model, axes)
                    _, peaks[real.kind, nsims] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        for kind, module in (("dtl", dtl_module), ("gs", gs_module)):
            assert peaks[kind, 200_000] - peaks[kind, 20_000] < module.CHUNK_BYTES
            assert max(peaks[kind, 20_000], peaks[kind, 200_000]) < 4 * module.CHUNK_BYTES


def oc_sweep(tmp_path, text):
    """Run ``oc sweep`` on a K = 2 configuration: delta0 = 0.2, delta1 =
    0.4, and k_max = 1 for a drop-the-loser kind, plus ``text``. Returns
    the rows of sweep.csv as {column: cell} and the lines of summary.txt."""
    config = tmp_path / "sweep.cfg"
    config.write_text("K = 2\nm = 1\nk_max = 1\ndelta0 = 0.2\ndelta1 = 0.4\n" + text)
    out = tmp_path / "sweep"
    assert main(["oc", "sweep", "--config", str(config), "--out", str(out)]) == 0
    header, *rows = (line.split(",") for line in (out / "sweep.csv").read_text().splitlines())
    summary = (out / "summary.txt").read_text().splitlines()
    return [dict(zip(header, row, strict=True)) for row in rows], summary


class TestCorrelationSweep:
    def test_self_comparison_is_flat_at_one(self, tmp_path):
        rows, summary = oc_sweep(tmp_path, "kind_a = gs\nkind_b = gs\nJ = 2\nseed = 62\n"
                                           "nsims = 5000\nrho_values = 0.0, 0.4\n")
        assert [row["rho"] for row in rows] == ["0", "0.4"] and "failed = 0" in summary
        for row in rows:
            assert row["ess_ratio"] == row["enm_ratio"] == "1"

    def test_failed_points_are_marked_not_fatal(self, tmp_path):
        rows, summary = oc_sweep(tmp_path, "kind_a = dtl\nkind_b = single-stage\nseed = 63\n"
                                           "nsims = 2000\nnmin = 2\nnmax = 4\n"
                                           "rho_values = 0.0, 0.3\n")
        assert [(row["rho"], row["valid"]) for row in rows] == [("0", "false"), ("0.3", "false")]
        assert "failed = 2" in summary
        assert [line.split(":")[0] for line in summary[-2:]] == ["error_0 = rho 0.0",
                                                                 "error_1 = rho 0.3"]

    def test_records_design_constants(self, tmp_path):
        (row,), summary = oc_sweep(tmp_path, "kind_a = gs\nkind_b = composite\nJ = 2\n"
                                             "seed = 64\nnsims = 5000\nrho_values = 0.3\n")
        assert {"kind_a = gs", "kind_b = composite"} <= set(summary)
        assert float(row["n_A"]) >= 1 and float(row["n_B"]) >= 1
        assert float(row["constant_A"]) > 0 and float(row["constant_B"]) > 0


class TestCompareAtEffects:
    """Two realisations at arbitrary effect vectors, each a one-point grid."""

    def test_table_rows_share_blocks_across_points(self):
        model = OutcomeModel.equicorrelated(2, 0.3)
        blocks = null_blocks([2], model, SimConfig(seed=65, nsims=10_000))
        real_a = search_gs_design(gs_spec(), model, blocks[2])
        real_b = gs_spec(composite=True).search(model, blocks[2])
        pairs = [tuple(at_effects(real, blocks[2], model, mu) for real in (real_a, real_b))
                 for mu in [(0.0, 0.0), (0.4, 0.2)]]
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
        expected = [tuple(at_effects(real, null_block(real.n_stages, model, cfg), model, mu)
                          for real in (real_a, real_b)) for mu in mus]
        del calls[:]
        pairs = [tuple(at_effects(real, blocks[real.n_stages], model, mu)
                       for real in (real_a, real_b)) for mu in mus]
        assert calls == []  # the grid evaluates the caller's blocks only
        assert pairs == expected
