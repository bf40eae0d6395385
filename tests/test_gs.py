import itertools
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import multiseq.gs as gs_module
import multiseq.simulate as simulate_module
from _oracles import decide_rows, evaluate_gs_row, linear_scan_n, step_boundary
from conftest import null_block
from multiseq import (
    CalibrationError,
    GSDesignSpec,
    InfeasibleDesignError,
    OutcomeModel,
    SimConfig,
    search_gs_design,
)
from multiseq.gs import (
    GSOperatingCharacteristics,
    _final_scale_boundaries,
    calibrate_c,
    composite_transform,
    estimate_gs_oc,
)
from multiseq.model import Boundaries, StageSchedule, lfc_effects, wang_tsiatis_boundaries
from multiseq.simulate import StatisticBlock, mean_shift_vector, simulate_null_block


def spec_for(k, m, j, alpha=0.025, beta=0.2, wt_delta=0.0):
    return GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=j, alpha=alpha,
                        beta=beta, delta0=0.2, delta1=0.4, wt_delta=wt_delta)


def count_probes(monkeypatch):
    """Per-stage sizes of the gs search's power probes, in probe order:
    each probe builds one LFC mean shift."""
    sizes = []

    def counted(mu, schedule, model):
        sizes.append(int(schedule.cumulative[0]))
        return mean_shift_vector(mu, schedule, model)

    monkeypatch.setattr(gs_module, "mean_shift_vector", counted)
    return sizes


def count_search_paths(monkeypatch):
    """How gs searches find n: "threshold" counts threshold passes, and
    "openings" holds the opening of each ``smallest_passing`` call."""
    paths = {"threshold": 0, "openings": []}
    threshold_size, smallest_passing = gs_module._threshold_size, gs_module.smallest_passing

    def threshold(*args):
        paths["threshold"] += 1
        return threshold_size(*args)

    def passing(power, target, nmin, nmax, alpha, nsims, opening=()):
        paths["openings"].append(tuple(opening))
        return smallest_passing(power, target, nmin, nmax, alpha, nsims, opening)

    monkeypatch.setattr(gs_module, "_threshold_size", threshold)
    monkeypatch.setattr(gs_module, "smallest_passing", passing)
    return paths


def count_passes(monkeypatch):
    """Row count of each block pass, in pass order."""
    passes = []
    each_chunk = simulate_module.StatisticBlock.each_chunk

    def counted(block, fn, chunk_bytes):
        passes.append(block.nsims)
        return each_chunk(block, fn, chunk_bytes)

    monkeypatch.setattr(simulate_module.StatisticBlock, "each_chunk", counted)
    return passes


class TestEvaluateRow:
    def test_single_stage_go(self):
        b = Boundaries(lower=(2.0,), upper=(2.0,))
        path = evaluate_gs_row([2.5, -1.0], b, n_promising=1)
        assert path.decision == "go" and path.stop_stage == 1

    def test_final_stage_forces_nogo(self):
        b = Boundaries(lower=(2.0,), upper=(2.0,))
        path = evaluate_gs_row([2.5, 1.9, -3.0], b, n_promising=2)
        assert path.decision == "nogo" and path.stop_stage == 1

    def test_go_at_third_of_four_stages(self):
        # outcome 1 and one other clear the upper boundary at stage 3
        b = wang_tsiatis_boundaries(2.0, 4, 0.0)
        row = [2.5, 0.0, 0.0,  # stage 1: one above, no decision
               1.0, 0.5, -1.0,  # stage 2: none above
               1.5, 1.2, -1.0,  # stage 3: two above e_3 = 1.1547
               0.0, 0.0, 0.0]
        path = evaluate_gs_row(row, b, n_promising=2)
        assert path.decision == "go" and path.stop_stage == 3

    def test_boundary_equal_values_count_neither_side(self):
        b = Boundaries(lower=(-1.0, 1.0), upper=(1.0, 1.0))
        # exactly on the boundary at stage 1: no go, no nogo
        path = evaluate_gs_row([1.0, -1.0, 0.0, 0.0], b, n_promising=1)
        assert path.stop_stage == 2

    def test_every_row_reaches_a_decision(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            j = int(rng.integers(1, 6))
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, k + 1))
            b = wang_tsiatis_boundaries(float(rng.uniform(0.5, 4.0)), j,
                                        float(rng.uniform(0.0, 0.5)))
            row = rng.normal(size=j * k) * 3.0
            path = evaluate_gs_row(row, b, n_promising=m)
            assert path.decision in ("go", "nogo")
            assert 1 <= path.stop_stage <= j

    def test_row_and_vectorised_paths_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            j = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, k + 1))
            b = wang_tsiatis_boundaries(float(rng.uniform(0.5, 3.0)), j)
            values = rng.normal(size=(8, j * k)) * 2.0
            want = row_counts(values, b, k, m)
            assert pass_counts(rule_on(values, k, m), b) == want
            paths = [evaluate_gs_row(row, b, n_promising=m) for row in values]
            assert want[0] == sum(path.decision == "go" for path in paths)
            assert want[1] == tuple(np.bincount([path.stop_stage - 1 for path in paths],
                                                minlength=j))
            for row, path in zip(values, paths):  # each row a block of its own
                go, stops = pass_counts(rule_on(row[None], k, m), b)
                assert go == (path.decision == "go") and stops[path.stop_stage - 1] == 1


def rule_on(values, k, m, composite=False):
    """The gs rule of an m-of-K spec on a block of the given rows."""
    j = values.shape[1] // k
    spec = GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=j, alpha=0.025, beta=0.2,
                        delta0=0.2, delta1=0.4, composite=composite)
    return gs_module._Rule(StatisticBlock(values, j, k), spec)


def pass_counts(rule, boundaries, shift=None):
    """(go count, stop-stage histogram) of one ``_Rule.oc`` pass at the
    shift: the counts its kernel hands to ``_Rule._oc``, which takes every
    point's at once; a one-point pass has point 0 only."""
    seen = []
    aggregate = rule._oc
    rule._oc = lambda go, stops, schedule: \
        seen.append((int(go[0]), tuple(stops[:, 0].tolist()))) or aggregate(go, stops, schedule)
    try:
        rule.oc(boundaries, StageSchedule.equal(1, rule.spec.n_stages), shift)
    finally:
        del rule._oc
    (counts,) = seen
    return counts


def row_decisions(rule, boundaries, shift):
    """(go?, stop stage index) of every row of the rule's block at the
    shift, by ``decide_rows``; a composite rule sums the shift per stage."""
    return decide_rows(rule.block.values + rule._columns(shift), rule.spec.n_stages, rule.k,
                       rule.m, boundaries.lower, boundaries.upper)


def row_counts(values, boundaries, k, m):
    """(go count, stop-stage histogram) of the rows by ``decide_rows``."""
    j = boundaries.n_stages
    go, stop = decide_rows(values, j, k, m, boundaries.lower, boundaries.upper)
    return int(go.sum()), tuple(np.bincount(stop, minlength=j))


class TestCountKernel:
    """``_Rule.oc`` counts with whole-array compares per stage; ``decide_rows``
    sums over the outcome axis of each row."""

    def test_statistics_on_a_boundary_count_on_neither_side(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            j = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, k + 1))
            b = wang_tsiatis_boundaries(float(rng.uniform(0.5, 3.0)), j,
                                        float(rng.uniform(0.0, 0.5)))
            # boundaries that a stored (float32) statistic can sit on
            b = Boundaries(lower=np.float32(b.lower), upper=np.float32(b.upper))
            lower, upper = np.asarray(b.lower), np.asarray(b.upper)
            # a third of the statistics sit on the upper boundary, a third
            # on the lower one
            z = rng.normal(size=(300, j, k)) * 2.0
            side = rng.integers(0, 3, size=z.shape)
            z = np.where(side == 1, upper[None, :, None], z)
            z = np.where(side == 2, lower[None, :, None], z)
            values = z.reshape(300, j * k).astype(np.float32)
            # a zero shift keeps a column on its boundary
            shift = np.where(rng.random(j * k) < 0.5, 0.0, rng.normal(size=j * k))
            for s in (None, shift):
                want = row_counts(values if s is None else values + s, b, k, m)
                assert pass_counts(rule_on(values, k, m), b, s) == want

    def test_counter_holds_three_hundred_outcomes(self):
        rng = np.random.default_rng(24)
        k, m = 300, 150
        # a per-row level spreads the exceedance counts on both sides of m
        values = rng.normal(size=(400, k)) + rng.normal(size=(400, 1))
        for c in (-0.2, 0.0, 0.4):
            bound = Boundaries(lower=(c,), upper=(c,))
            go, stops = pass_counts(rule_on(values, k, m), bound)
            assert (go, stops) == row_counts(values, bound, k, m)
            assert 0 < go < 400
        # 300 of 300 above: a counter that wrapped at 256 would say 44
        go, _ = pass_counts(rule_on(np.ones((2, k)), k, k), Boundaries(lower=(0.0,), upper=(0.0,)))
        assert go == 2


def crossing(edge: float, shift: float, above: bool) -> tuple:
    """(the float32 z nearest the edge whose float64 z + shift does not pass
    it, its neighbour that does), walked to from float32(edge - shift):
    above, z + shift > edge passes; below, z + shift < edge does."""
    passes = (lambda z: float(z) + shift > edge) if above else (lambda z: float(z) + shift < edge)
    away, toward = (np.float32(-np.inf), np.float32(np.inf))[::1 if above else -1]
    z = np.float32(edge - shift)
    while passes(z):
        z = np.nextafter(z, away)
    while not passes(np.nextafter(z, toward)):
        z = np.nextafter(z, toward)
    return z, np.nextafter(z, toward)


def stage_edges(boundaries, j: int) -> list:
    """(edge, above) of the edges a row is tested at, at stage j: the
    upper, and the lower at every stage but the last."""
    lower, upper = np.asarray(boundaries.lower), np.asarray(boundaries.upper)
    return [(upper[j], True)] + ([(lower[j], False)] if j < len(upper) - 1 else [])


def off_step_shifts(rng, boundaries, count: int) -> np.ndarray:
    """(count, J) shifts, 0.01 to 10^6 in size, at which float32(edge -
    shift) is not the float32 side of the crossing that does not pass, at
    every edge of every stage."""
    out = np.empty((count, boundaries.n_stages))
    for v, j in np.ndindex(out.shape):
        while True:
            s = rng.normal() * 10.0 ** rng.uniform(-2, 6)
            if all(crossing(e, s, above)[0] != np.float32(e - s)
                   for e, above in stage_edges(boundaries, j)):
                break
        out[v, j] = s
    return out


def planted_rows(rng, boundaries, shifts) -> np.ndarray:
    """float32 statistics of a rule block with one column per (V, J) array
    of ``shifts``: for each stage, column, value and edge, a row on each
    side of the crossing; rows with every column of a stage on a random
    side of its crossing; random rows. Before its planted stage a row is
    open (z + shift near 0)."""
    k, n_stages = len(shifts), boundaries.n_stages
    rows = []

    def plant(j: int, at: list, values: list) -> None:
        z = rng.normal(size=(n_stages, k)) * 2.0
        for c in range(k):
            z[:j, c] = -shifts[c][at[c], :j]
        z[j] = values
        rows.append(z.ravel())

    for j in range(n_stages):
        for c, column in enumerate(shifts):
            for v in range(len(column)):
                for edge, above in stage_edges(boundaries, j):
                    for z in crossing(edge, column[v, j], above):
                        at = [int(rng.integers(len(other))) for other in shifts]
                        at[c] = v
                        values = [rng.normal() * 2.0 - shifts[i][at[i], j] for i in range(k)]
                        values[c] = z
                        plant(j, at, values)
        for _ in range(30):
            at = [int(rng.integers(len(column))) for column in shifts]
            edges = stage_edges(boundaries, j)
            edge, above = edges[int(rng.integers(len(edges)))]
            plant(j, at, [crossing(edge, shifts[c][at[c], j], above)[int(rng.integers(2))]
                          for c in range(k)])
    rows.extend(rng.normal(size=(100, n_stages * k)) * 2.0)
    return np.array(rows, dtype=np.float32)


class TestExactThresholds:
    """A count pass compares stored statistics with float32 thresholds;
    ``decide_rows`` adds each shift in float64 and compares with the
    edges. Statistics on both float32 sides of every crossing, at shifts
    where float32(edge - shift) is off it, decide the same in both."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("composite, m", [(False, 1), (False, 2), (True, 1)])
    def test_passes_match_float64_decisions_at_off_step_shifts(self, monkeypatch, threads,
                                                               composite, m):
        rng = np.random.default_rng(25 + m + 2 * composite)
        n_stages, k = 3, 2
        b = wang_tsiatis_boundaries(2.0, n_stages, 0.25)
        columns = 1 if composite else k
        one_point = [off_step_shifts(rng, b, 1) for _ in range(columns)]
        grid = [off_step_shifts(rng, b, 49 if composite else 7) for _ in range(columns)]
        spec = replace(spec_for(k, m, n_stages), composite=composite)
        for shifts in (one_point, grid):
            values = planted_rows(rng, b, shifts)
            if composite:  # outcome 2 is 0.0, so each stage's sum is outcome 1
                raw = np.stack([values, np.zeros_like(values)], axis=-1).reshape(len(values), -1)
            else:
                raw = values
            rule = gs_module._Rule(StatisticBlock(raw, n_stages, k, threads=threads), spec)
            np.testing.assert_array_equal(rule.block.values, values)
            row_budget(monkeypatch, rule, 16)
            points = list(itertools.product(*(range(len(c)) for c in shifts)))
            seen = []
            aggregate = rule._oc
            rule._oc = lambda go, stops, schedule: \
                seen.append((go.tolist(), stops.T.tolist())) or aggregate(go, stops, schedule)
            rule.grid_oc(b, StageSchedule.equal(1, n_stages), shifts)
            del rule._oc
            (go, stops), = seen
            for p, at in enumerate(points):
                moved = np.array([[c[v, j] for c, v in zip(shifts, at)]
                                  for j in range(n_stages)]).ravel()
                want = row_counts(values + moved, b, columns, rule.m)
                assert (go[p], tuple(stops[p])) == want
            if len(points) == 1:  # the one-point pass of a per-outcome shift
                shift = np.stack([moved, np.zeros_like(moved)], axis=-1).ravel() \
                    if composite else moved
                assert pass_counts(rule, b, shift) == want


class TestEstimateOC:
    def test_degenerate_boundaries_always_go_at_stage_one(self, two_outcome_model):
        schedule = StageSchedule.equal(5, 2)
        block = simulate_null_block(schedule, two_outcome_model,
                                    SimConfig(seed=3, nsims=2_000))
        b = Boundaries(lower=(-np.inf, 0.0), upper=(-np.inf, 0.0))
        oc = estimate_gs_oc(block, b, spec_for(2, 1, 2), schedule)
        assert oc.p_reject == 1.0
        assert oc.expected_stages == 1.0
        assert oc.ess == 5.0

    def test_reference_realisation_null_and_power(self):
        # three outcomes, one required, three stages, rho 0.3, N = 60
        spec = spec_for(3, 1, 3)
        model = OutcomeModel.equicorrelated(3, 0.3)
        schedule = StageSchedule.equal(20, 3)
        block = simulate_null_block(StageSchedule.equal(1, 3), model,
                                    SimConfig(seed=60, nsims=100_000))
        b = wang_tsiatis_boundaries(2.394350 * np.sqrt(3), 3, 0.0)
        oc_null = estimate_gs_oc(block, b, spec, schedule)
        assert oc_null.p_reject == pytest.approx(0.025, abs=0.01)
        shift = mean_shift_vector([0.4, 0.2, 0.2], schedule, model)
        oc_alt = estimate_gs_oc(block, b, spec, schedule, shift=shift)
        assert oc_alt.p_reject == pytest.approx(0.81, abs=0.02)

    def test_enm_is_outcomes_times_ess(self, two_outcome_model):
        schedule = StageSchedule.equal(7, 3)
        block = simulate_null_block(schedule, two_outcome_model,
                                    SimConfig(seed=9, nsims=5_000))
        b = wang_tsiatis_boundaries(1.8, 3, 0.2)
        oc = estimate_gs_oc(block, b, spec_for(2, 1, 3), schedule)
        assert oc.enm == 2 * oc.ess

    @pytest.mark.parametrize("composite", [False, True])
    def test_mis_sized_shift_is_rejected(self, two_outcome_model, composite):
        # one value would broadcast to every column: a wrong OC, not an error
        block = simulate_null_block(StageSchedule.equal(1, 3), two_outcome_model,
                                    SimConfig(seed=11, nsims=200))
        spec = replace(spec_for(2, 1, 3), composite=composite)
        for size in (1, 5, 7):
            with pytest.raises(ValueError, match=r"length J \* K = 6, got shape"):
                estimate_gs_oc(block, wang_tsiatis_boundaries(2.2, 3, 0.0), spec,
                               StageSchedule.equal(9, 3), shift=np.full(size, 0.5))

    def test_shift_argument_matches_shifted_block(self, two_outcome_model):
        schedule = StageSchedule.equal(9, 3)
        block = simulate_null_block(StageSchedule.equal(1, 3), two_outcome_model,
                                    SimConfig(seed=10, nsims=20_000))
        b = wang_tsiatis_boundaries(2.2, 3, 0.0)
        spec = spec_for(2, 1, 3)
        shift = mean_shift_vector([0.4, 0.2], schedule, two_outcome_model)
        direct = estimate_gs_oc(block, b, spec, schedule, shift=shift)
        shifted = StatisticBlock(values=block.values + shift[None, :], n_stages=3,
                                 n_outcomes=2)
        via_block = estimate_gs_oc(shifted, b, spec, schedule)
        assert direct == via_block


def row_budget(monkeypatch, rule, rows):
    """Make a block pass of ``rule`` run over chunks of ``rows`` rows."""
    monkeypatch.setattr(gs_module, "CHUNK_BYTES", rows * rule.block.values[:1].nbytes)


class TestChunkedPass:
    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("nsims", [1, 7, 50, 1001])
    def test_chunks_match_one_pass_over_shifted_block(self, monkeypatch, nsims,
                                                      composite):
        spec = replace(spec_for(3, 2, 3), composite=composite)
        model = OutcomeModel.equicorrelated(3, 0.3)
        b = wang_tsiatis_boundaries(3.0 if composite else 1.5, 3, 0.0)
        schedule = StageSchedule.equal(20, 3)
        shift = mean_shift_vector([0.3, 0.1, -0.2], schedule, model)
        lower, upper = np.asarray(b.lower), np.asarray(b.upper)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave as often as they can
        try:
            for threads in (1, 2, 3):
                block = simulate_null_block(StageSchedule.equal(1, 3), model,
                                            SimConfig(seed=nsims, nsims=nsims), threads)
                rule = gs_module._Rule(block, spec)
                row_budget(monkeypatch, rule, 3)
                for s in (None, shift):
                    go, stops = pass_counts(rule, b, s)
                    values = rule.block.values
                    if s is not None:
                        # a composite rule sums the shift per stage, then adds it
                        values = values + (s.reshape(3, 3).sum(axis=1) if composite else s)
                    expected_go, expected_stop = decide_rows(values, 3, rule.k, rule.m,
                                                             lower, upper)
                    assert (go, stops) == row_counts(values, b, rule.k, rule.m)
                    # the chunked pass counts exactly what the rows decide
                    ess = schedule.cumulative[expected_stop].mean()
                    assert rule.oc(b, schedule, s) == GSOperatingCharacteristics(
                        p_reject=expected_go.mean(), ess=ess, enm=3 * ess,
                        expected_stages=(expected_stop + 1.0).mean())
        finally:
            sys.setswitchinterval(interval)
        if nsims == 1001:  # the shifted pass decides at every stage, both ways
            assert min(stops) > 0 and 0 < go < nsims

    def test_shifted_pass_peaks_below_half_the_block(self):
        # 40,000 rows of K = 10, J = 5 statistics: an 8 MB block
        spec = GSDesignSpec(n_outcomes=10, n_promising=5, n_stages=5, alpha=0.025,
                            beta=0.2, delta0=0.2, delta1=0.4)
        model = OutcomeModel.equicorrelated(10, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 5), model,
                                    SimConfig(seed=62, nsims=40_000))
        rule = gs_module._Rule(block, spec)
        shift = mean_shift_vector(np.full(10, 0.3), StageSchedule.equal(10, 5), model)
        tracemalloc.start()
        try:
            rule.oc(wang_tsiatis_boundaries(2.0, 5, 0.0), StageSchedule.equal(10, 5), shift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * block.values.nbytes

    def test_one_point_pass_holds_no_float64_statistics(self):
        # the block above: a pass compares the stored statistics with float32
        # thresholds, so a slice holds flags and counts, not shifted statistics
        model = OutcomeModel.equicorrelated(10, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 5), model,
                                    SimConfig(seed=62, nsims=40_000))
        spec = GSDesignSpec(n_outcomes=10, n_promising=5, n_stages=5, alpha=0.025,
                            beta=0.2, delta0=0.2, delta1=0.4)
        schedule = StageSchedule.equal(10, 5)
        shift = mean_shift_vector(np.full(10, 0.3), schedule, model)
        tracemalloc.start()
        try:
            estimate_gs_oc(block, wang_tsiatis_boundaries(2.0, 5, 0.0), spec, schedule, shift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * block.values.nbytes

    def test_fixed_boundary_pass_holds_no_per_row_arrays(self):
        # 1,000,000 rows of K = 2, J = 1 statistics: a 16 MB block. Each
        # chunk returns its counts, so the pass holds a chunk copy and its
        # row-length temporaries, not a go flag and a stop stage per row.
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=63, nsims=1_000_000))
        schedule = StageSchedule.equal(50, 1)
        shift = mean_shift_vector([0.4, 0.2], schedule, model)
        tracemalloc.start()
        try:
            oc = estimate_gs_oc(block, wang_tsiatis_boundaries(2.2, 1, 0.0), spec_for(2, 1, 1),
                                schedule, shift=shift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.5 < oc.p_reject < 1.0
        assert peak < 6e6


class TestCalibration:
    def test_single_outcome_single_stage_quantile(self):
        model = OutcomeModel.equicorrelated(1, 0.0)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=14, nsims=400_000))
        constant, achieved = calibrate_c(block, spec_for(1, 1, 1))
        assert constant == pytest.approx(1.959964, abs=0.03)
        assert abs(achieved - 0.025) <= 2 * np.sqrt(0.025 * 0.975 / 400_000)

    def test_two_independent_outcomes_any_promising(self):
        model = OutcomeModel.equicorrelated(2, 0.0)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=15, nsims=400_000))
        constant, _ = calibrate_c(block, spec_for(2, 1, 1))
        assert constant == pytest.approx(2.2389644, abs=0.03)

    def test_two_independent_outcomes_both_promising(self):
        model = OutcomeModel.equicorrelated(2, 0.0)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=16, nsims=400_000))
        constant, _ = calibrate_c(block, spec_for(2, 2, 1))
        assert constant == pytest.approx(1.0022398, abs=0.03)

    def test_strict_mode_keeps_alpha_below_target(self, two_outcome_model):
        block = simulate_null_block(StageSchedule.equal(1, 3), two_outcome_model,
                                    SimConfig(seed=18, nsims=50_000))
        _, achieved = calibrate_c(block, spec_for(2, 1, 3), strict=True)
        assert achieved <= 0.025

    def test_rejection_probability_nonincreasing_in_constant(self, two_outcome_model):
        block = simulate_null_block(StageSchedule.equal(1, 3), two_outcome_model,
                                    SimConfig(seed=19, nsims=50_000))
        spec = spec_for(2, 1, 3)
        schedule = StageSchedule.equal(10, 3)
        previous = 1.0
        for final in np.linspace(0.5, 3.5, 40):
            b = wang_tsiatis_boundaries(final * np.sqrt(3.0), 3, 0.0)
            p = estimate_gs_oc(block, b, spec, schedule).p_reject
            # a row escaping an early futility stop can reject later, so
            # allow step-level noise of a few rows
            assert p <= previous + 5.0 / block.nsims
            previous = p


def interval_pairs(starts, ends):
    """The (start, end) pairs sorted by start, then end: their multiset."""
    order = np.lexsort((ends, starts))
    return starts[order], ends[order]


def interval_alpha(starts, ends, constant, nsims):
    return int(np.count_nonzero((starts <= constant) & (constant < ends))) / nsims


def calibration_outcome(block, spec, strict=False):
    try:
        return calibrate_c(block, spec, strict=strict)
    except CalibrationError as exc:
        return str(exc)


class TestGoIntervals:
    def test_intervals_match_decide_on_random_specs(self):
        rng = np.random.default_rng(40)
        outcomes = {"calibrated": 0, "unreachable": 0, "composite": 0}
        for case in range(48):
            k = int(rng.integers(1, 7))
            j = int(rng.integers(1, 6))
            spec = GSDesignSpec(n_outcomes=k, n_promising=int(rng.integers(1, k + 1)),
                                n_stages=j, alpha=float(rng.choice([0.025, 0.1, 0.4])),
                                beta=0.2, delta0=0.2, delta1=0.4,
                                wt_delta=float(rng.choice([0.0, 0.25, 0.5])),
                                composite=bool(rng.integers(2)))
            model = OutcomeModel.equicorrelated(k, float(rng.uniform(0.0, 0.8)))
            block = simulate_null_block(StageSchedule.equal(1, j), model,
                                        SimConfig(seed=400 + case, nsims=1_000))
            rule = gs_module._Rule(block, spec)
            starts, ends = rule.go_intervals()
            assert np.all((starts >= 0) & (starts < ends))
            for constant in rng.uniform(0.01, 6.0, size=100):
                go, _ = pass_counts(rule, _final_scale_boundaries(constant, j, spec.wt_delta))
                assert interval_alpha(starts, ends, constant, 1_000) == go / 1_000, case
            outcomes["composite"] += spec.composite
            for strict in (False, True):
                expected = step_boundary(starts, ends, 1_000, spec.alpha, strict)
                if expected is None:
                    outcomes["unreachable"] += 1
                    with pytest.raises(CalibrationError, match="alpha at C -> 0"):
                        calibrate_c(block, spec, strict=strict)
                    continue
                outcomes["calibrated"] += 1
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    constant, achieved = calibrate_c(block, spec, strict=strict)
                assert (constant, achieved) == (expected.boundary, expected.alpha), case
                assert len(caught) == expected.warns
                boundaries = _final_scale_boundaries(constant, j, spec.wt_delta)
                go, _ = pass_counts(rule, boundaries)
                assert go / 1_000 == achieved
                assert rule.oc(boundaries, StageSchedule.equal(1, j)).p_reject == achieved
                if strict:
                    assert achieved <= spec.alpha
        assert outcomes["calibrated"] >= 60 and outcomes["composite"] >= 6, outcomes
        assert outcomes["unreachable"] >= 2, outcomes

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("nsims", [1, 7, 50, 1001])
    def test_chunks_and_threads_give_identical_intervals(self, monkeypatch, nsims,
                                                         composite):
        # a chunk lists its intervals stage by stage: the chunk size may
        # reorder them, but not change their multiset, and for one chunk
        # size the thread count changes nothing
        spec = replace(spec_for(3, 2, 3, alpha=0.1), composite=composite)
        model = OutcomeModel.equicorrelated(3, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 3), model,
                                    SimConfig(seed=nsims, nsims=nsims))
        one = gs_module._Rule(block, spec).go_intervals()
        expected = calibration_outcome(block, spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave as often as they can
        chunked = None
        try:
            for threads in (1, 2, 3):
                block = replace(block, threads=threads)
                rule = gs_module._Rule(block, spec)
                row_budget(monkeypatch, rule, 3)
                got = rule.go_intervals()
                for pairs, want in zip(interval_pairs(*got), interval_pairs(*one)):
                    np.testing.assert_array_equal(pairs, want)
                chunked = got if chunked is None else chunked
                for each, first in zip(got, chunked):
                    np.testing.assert_array_equal(each, first)
                assert calibration_outcome(block, spec) == expected
                monkeypatch.undo()
        finally:
            sys.setswitchinterval(interval)
        if nsims == 1001:
            assert isinstance(expected, tuple)

    def test_calibration_makes_one_block_pass(self, monkeypatch, two_outcome_model):
        block = simulate_null_block(StageSchedule.equal(1, 3), two_outcome_model,
                                    SimConfig(seed=41, nsims=20_000), threads=2)
        passes = []
        each_chunk = simulate_module.StatisticBlock.each_chunk

        def counted(block, fn, chunk_bytes):
            passes.append((block.nsims, block.threads))
            return each_chunk(block, fn, chunk_bytes)

        monkeypatch.setattr(simulate_module.StatisticBlock, "each_chunk", counted)
        monkeypatch.setattr(gs_module, "CHUNK_BYTES", 1_000 * 6 * 4)
        calibrate_c(block, spec_for(2, 1, 3))
        assert passes == [(20_000, 2)]

    def test_calibration_memory_is_bounded_by_the_intervals(self, monkeypatch):
        # 40,000 rows of K = 10, J = 5 statistics: an 8 MB block. With
        # 64 kB chunks the peak is the intervals, kept in pieces and then
        # joined: no block-sized or all-events temporary.
        spec = GSDesignSpec(n_outcomes=10, n_promising=5, n_stages=5, alpha=0.025,
                            beta=0.2, delta0=0.2, delta1=0.4)
        model = OutcomeModel.equicorrelated(10, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 5), model,
                                    SimConfig(seed=62, nsims=40_000), threads=2)
        monkeypatch.setattr(gs_module, "CHUNK_BYTES", 64 << 10)
        starts, ends = gs_module._Rule(block, spec).go_intervals()
        tracemalloc.start()
        try:
            calibrate_c(block, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 0.2 of the block as it was stored in float64: 8 bytes per statistic
        assert peak < 2.5 * (starts.nbytes + ends.nbytes) < 0.2 * 8 * block.values.size

    @pytest.mark.parametrize("k, m, j, nsims", [(2, 1, 3, 10_000), (10, 5, 5, 40_000)])
    def test_calibration_reads_the_events_near_the_crossing(self, searchsorted_keys, k, m,
                                                           j, nsims):
        # the readout searches a few hundred event values near the crossing
        # in the sorted starts and ends, not every end below it
        spec = GSDesignSpec(n_outcomes=k, n_promising=m, n_stages=j, alpha=0.025,
                            beta=0.2, delta0=0.2, delta1=0.4)
        block = simulate_null_block(StageSchedule.equal(1, j),
                                    OutcomeModel.equicorrelated(k, 0.3),
                                    SimConfig(seed=62, nsims=nsims), threads=2)
        events = gs_module._Rule(block, spec).go_intervals()[0].size
        calibrate_c(block, spec)
        assert 0 < sum(searchsorted_keys) < events / 16


class TestOrderStatistic:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_every_network_selects_by_the_zero_one_principle(self, k):
        # all 2^k inputs of 0s and 1s; a comparator output that is not read
        # later becomes NaN, which would reach the result if it were read
        bits = ((np.arange(2 ** k)[None, :] >> np.arange(k)[:, None]) & 1).astype(float)
        ordered = np.sort(bits, axis=0)
        for rank in range(k):
            wires = bits.copy()
            network = gs_module._selection_network(k, rank)
            for i, j, low, high in network:
                lo, hi = np.minimum(wires[i], wires[j]), np.maximum(wires[i], wires[j])
                wires[i], wires[j] = (lo if low else np.nan), (hi if high else np.nan)
            assert np.array_equal(wires[rank], ordered[rank]), (k, rank)
            if rank in (0, k - 1):  # a column min or max
                assert len(network) == k - 1
                assert all(low != high for _, _, low, high in network)

    def test_values_equal_the_partitions(self):
        # every 1 <= m <= K <= 12 on tie-rich integer-valued columns, read in
        # place from a read-only column-major block, which is never written
        rng = np.random.default_rng(26)
        for k in range(1, 13):
            values = rng.integers(-2, 3, size=(400, 2 * k)).astype(float)
            block = StatisticBlock(values=np.asfortranarray(values), n_stages=2, n_outcomes=k)
            cols = block.values.T.reshape(2, k, 400)[1]
            for m in range(1, k + 1):
                got = gs_module._order_statistic(cols, k - m)
                want = np.partition(values[:, k:], k - m, axis=1)[:, k - m]
                assert (got == want).all(), (k, m)
        assert np.array_equal(block.values, values)

    def test_passes_read_a_drawn_chunk_in_place(self):
        # 80,000 rows of K = 10, J = 5 statistics (16 MB, column-major) in two
        # chunks: the interval pass and a one-point count pass each peak below
        # one visited chunk's bytes, so neither copies a chunk transposed
        spec = GSDesignSpec(n_outcomes=10, n_promising=5, n_stages=5, alpha=0.025,
                            beta=0.2, delta0=0.2, delta1=0.4)
        model = OutcomeModel.equicorrelated(10, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 5), model,
                                    SimConfig(seed=64, nsims=80_000))
        assert block.values.flags.f_contiguous
        row_bytes = block.values[:1].nbytes
        chunk_bytes = gs_module.CHUNK_BYTES // row_bytes * row_bytes
        assert block.values.nbytes > chunk_bytes
        rule = gs_module._Rule(block, spec)
        schedule = StageSchedule.equal(10, 5)
        shift = mean_shift_vector(np.full(10, 0.3), schedule, model)
        passes = {"intervals": rule.go_intervals,
                  "count": lambda: rule.oc(wang_tsiatis_boundaries(2.0, 5, 0.0), schedule, shift)}
        for name, run in passes.items():
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < chunk_bytes, name


class TestGoThresholds:
    def test_rows_go_exactly_from_their_threshold_size(self):
        # a row goes at n exactly when sqrt(n) > t*, i.e. n >= floor(t*^2) + 1,
        # apart from float ties with sqrt(n) = t*
        rng = np.random.default_rng(11)
        seen = {"composite": 0, "zero_delta0": 0, "m_is_k": 0, "go": 0, "nogo": 0, "ties": 0}
        for case in range(32):
            k = int(rng.integers(1, 6))
            j = int(rng.integers(1, 5))
            d1 = float(rng.uniform(0.2, 0.7))
            spec = GSDesignSpec(n_outcomes=k, n_promising=int(rng.choice([1, k])), n_stages=j,
                                alpha=0.025, beta=0.2,
                                delta0=0.0 if case % 3 == 0 else float(rng.uniform(0.0, d1)),
                                delta1=d1, wt_delta=float(rng.choice([0.0, 0.25, 0.5])),
                                composite=case % 4 == 1)
            model = OutcomeModel.equicorrelated(k, float(rng.uniform(0.0, 0.8)),
                                                sigma=rng.uniform(0.5, 2.0, size=k))
            block = simulate_null_block(StageSchedule.equal(1, j), model,
                                        SimConfig(seed=500 + case, nsims=4_000))
            constant, _ = calibrate_c(block, spec)
            boundaries = _final_scale_boundaries(constant, j, spec.wt_delta)
            rule = gs_module._Rule(block, spec)
            effects = lfc_effects(spec, sigma=model.sigma)
            slope = mean_shift_vector(effects, StageSchedule.equal(1, j), model)
            tstar = rule.go_thresholds(boundaries, slope)
            nstar = np.floor(np.maximum(tstar, 0.0) ** 2) + 1
            # the search's size: the first n at which 80% of the rows go
            size = gs_module._threshold_size(rule, boundaries, slope, 0.8, 1)
            assert size == np.sort(nstar)[3_199], case
            for n in (1, 3, 10, 30, 100, 300):
                shift = mean_shift_vector(effects, StageSchedule.equal(n, j), model)
                is_go, _ = row_decisions(rule, boundaries, shift)
                wrong = is_go != (n >= nstar)
                assert np.all(np.abs(tstar[wrong] - np.sqrt(n)) <= 1e-9 * np.sqrt(n)), case
                seen["ties"] += int(wrong.sum())
                seen["go"] += int(is_go.sum())
                seen["nogo"] += int((~is_go).sum())
            seen["composite"] += spec.composite
            seen["zero_delta0"] += min(spec.delta0) == 0.0
            seen["m_is_k"] += spec.n_promising == spec.n_outcomes > 1 and not spec.composite
        assert min(seen["composite"], seen["zero_delta0"], seen["m_is_k"]) >= 5, seen
        assert min(seen["go"], seen["nogo"]) >= 100_000, seen
        assert seen["ties"] <= 10, seen

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("m", [1, 3])
    def test_chunks_and_threads_give_identical_thresholds(self, monkeypatch, m, composite):
        spec = replace(spec_for(3, m, 3), composite=composite)
        model = OutcomeModel.equicorrelated(3, 0.3, sigma=[1.0, 2.0, 0.5])
        block = simulate_null_block(StageSchedule.equal(1, 3), model,
                                    SimConfig(seed=12, nsims=1_001))
        boundaries = _final_scale_boundaries(2.2, 3, 0.0)
        slope = mean_shift_vector([0.3, 0.0, 0.1], StageSchedule.equal(1, 3), model)
        one = gs_module._Rule(block, spec).go_thresholds(boundaries, slope)
        # a zero slope gives infinite crossings; summed, the slope has none
        assert np.isfinite(one).any() and np.isinf(one).any() != composite
        for threads in (1, 3):
            rule = gs_module._Rule(replace(block, threads=threads), spec)
            row_budget(monkeypatch, rule, 7)
            np.testing.assert_array_equal(rule.go_thresholds(boundaries, slope), one)
            monkeypatch.undo()

    def test_zero_slope_statistic_on_the_edge_never_crosses(self):
        # with c = 0 the statistic never moves: on the upper edge it never
        # goes, on the lower edge it never stops for no-go
        spec = spec_for(1, 1, 2)
        boundaries = Boundaries(lower=(0.5, 2.0), upper=(2.0, 2.0))
        block = StatisticBlock(values=np.array([[2.0, 3.0], [0.5, 3.0], [0.4, 3.0]]),
                               n_stages=2, n_outcomes=1)
        got = gs_module._Rule(block, spec).go_thresholds(boundaries, np.array([-0.0, 0.0]))
        np.testing.assert_array_equal(got, [-np.inf, -np.inf, np.inf])

    def test_needs_m_of_one_or_all(self):
        spec = spec_for(3, 2, 3)
        model = OutcomeModel.equicorrelated(3, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 3), model, SimConfig(seed=1, nsims=10))
        with pytest.raises(ValueError, match="m = 1 or m = K"):
            gs_module._Rule(block, spec).go_thresholds(_final_scale_boundaries(2.0, 3, 0.0),
                                                       np.ones(9))


class TestComposite:
    def test_single_outcome_passthrough(self, two_outcome_model):
        model = OutcomeModel.equicorrelated(1, 0.0)
        block = simulate_null_block(StageSchedule.equal(1, 2), model,
                                    SimConfig(seed=20, nsims=100))
        assert composite_transform(block) is block

    def test_passes_over_the_summed_block_keep_the_workers(self, monkeypatch,
                                                            two_outcome_model):
        block = simulate_null_block(StageSchedule.equal(1, 3), two_outcome_model,
                                    SimConfig(seed=22, nsims=600), threads=2)
        assert composite_transform(block).threads == 2
        spec = replace(spec_for(2, 1, 3), composite=True)
        boundaries = wang_tsiatis_boundaries(3.0, 3, 0.0)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        # 600 summed rows of 3 statistics in 100-row chunks: each pass spans 6
        monkeypatch.setattr(gs_module, "CHUNK_BYTES", 100 * 3 * 4)
        calibrate_c(block, spec)
        estimate_gs_oc(block, boundaries, spec, StageSchedule.equal(10, 3))
        assert pools == [2, 2]  # one 2-worker pool per pass

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sum_adds_outcomes_in_order(self, monkeypatch, order):
        # bit for bit 0.0 plus each stage's K statistics in outcome order in
        # float64, rounded once to float32, for K up to 40 and 150, on either
        # layout, across summing chunks, with signed zeros and with magnitudes
        # far apart, so that another order rounds differently; below 8 terms
        # numpy's row sum adds in turn too, so there the sum is also numpy's
        rng = np.random.default_rng(25)
        monkeypatch.setattr(gs_module, "CHUNK_BYTES", 3_000)
        for k in list(range(2, 41)) + [150]:
            values = rng.standard_normal((301, 2 * k)) * rng.choice([1e-8, 1.0, 1e8], size=2 * k)
            values[:3, :] = rng.choice([0.0, -0.0], size=(3, 2 * k))
            values = values.astype(np.float32)
            block = StatisticBlock(values=np.array(values, order=order), n_stages=2,
                                   n_outcomes=k)
            summed = composite_transform(block).values
            assert summed.flags.f_contiguous
            summed = np.ascontiguousarray(summed).tobytes()
            stages = values.astype(float).reshape(301, 2, k)
            want = np.zeros((301, 2))
            for i in range(k):
                want = want + stages[:, :, i]
            assert summed == want.astype(np.float32).tobytes(), k
            if k <= 7:
                assert summed == stages.sum(axis=2).astype(np.float32).tobytes(), k

    def test_opposite_statistics_cancel(self):
        block = StatisticBlock(values=np.array([[1.0, -1.0]]), n_stages=1,
                               n_outcomes=2)
        assert composite_transform(block).values[0, 0] == 0.0

    def test_composite_variance_of_correlated_sum(self):
        model = OutcomeModel.equicorrelated(3, 0.3)
        block = simulate_null_block(StageSchedule.equal(1, 1), model,
                                    SimConfig(seed=23, nsims=1_000_000))
        var = composite_transform(block).values[:, 0].var()
        assert var == pytest.approx(4.8, abs=0.03)

    def test_composite_search_equals_multi_outcome_for_one_outcome(self):
        model = OutcomeModel.equicorrelated(1, 0.0)
        spec = spec_for(1, 1, 3)
        block = null_block(3, model, SimConfig(seed=24, nsims=30_000))
        mo = search_gs_design(spec, model, block)
        comp = search_gs_design(replace(spec, composite=True), model, block)
        assert comp.constant == mo.constant
        assert comp.n == mo.n
        assert comp.oc_lfc == mo.oc_lfc
        assert comp.oc_null == mo.oc_null


class TestSearch:
    def test_single_stage_single_outcome_closed_form(self):
        # n = ceil(((z_{0.975} + z_{0.8}) / 0.4)^2) = 50
        model = OutcomeModel.equicorrelated(1, 0.0)
        real = search_gs_design(spec_for(1, 1, 1), model,
                                null_block(1, model, SimConfig(seed=25, nsims=400_000)))
        assert abs(real.n - 50) <= 1
        assert real.power_star >= 0.8

    def test_alpha_star_matches_null_oc(self, two_outcome_model, two_outcome_spec):
        real = search_gs_design(two_outcome_spec, two_outcome_model,
                                null_block(3, two_outcome_model, SimConfig(seed=26, nsims=20_000)))
        assert real.alpha_star == real.oc_null.p_reject
        assert real.n_total == real.n * 3
        assert real.boundaries.upper[-1] == pytest.approx(real.constant)

    def test_power_monotone_in_each_effect(self, two_outcome_model, two_outcome_spec):
        # increasing any single true effect can only help an m-of-K rule
        block = null_block(3, two_outcome_model, SimConfig(seed=28, nsims=30_000))
        real = search_gs_design(two_outcome_spec, two_outcome_model, block)
        schedule = StageSchedule.equal(real.n, 3)
        spec = two_outcome_spec
        previous = -1.0
        for mu1 in (-0.2, 0.0, 0.2, 0.4):
            shift = mean_shift_vector([mu1, 0.1], schedule, two_outcome_model)
            p = estimate_gs_oc(block, real.boundaries, spec, schedule,
                               shift=shift).p_reject
            assert p >= previous
            previous = p

    def test_power_scan_monotone_on_shared_block(self, two_outcome_model,
                                                 two_outcome_spec):
        # with positive anticipated effects every column shift grows with
        # n, so on common random numbers the power scan is exactly
        # monotone, never just monotone up to noise
        cfg = SimConfig(seed=31, nsims=20_000)
        block = simulate_null_block(StageSchedule.equal(1, 3), two_outcome_model, cfg)
        b = wang_tsiatis_boundaries(2.3 * np.sqrt(3.0), 3, 0.0)
        previous = -1.0
        for n in range(1, 41):
            schedule = StageSchedule.equal(n, 3)
            shift = mean_shift_vector([0.4, 0.2], schedule, two_outcome_model)
            p = estimate_gs_oc(block, b, two_outcome_spec, schedule,
                               shift=shift).p_reject
            assert p >= previous
            previous = p

    def test_search_independent_of_thread_count(self, monkeypatch, two_outcome_model,
                                                two_outcome_spec):
        cfg = SimConfig(seed=32, nsims=20_000, chunk_size=3_000)
        # 1,500 rows of 6 statistics per chunk: every pass spans 14 chunks
        monkeypatch.setattr(gs_module, "CHUNK_BYTES", 1_500 * 6 * 4)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        block = null_block(3, two_outcome_model, cfg, threads=1)
        first = search_gs_design(two_outcome_spec, two_outcome_model, block)
        assert pools == []
        block = null_block(3, two_outcome_model, cfg, threads=3)
        second = search_gs_design(two_outcome_spec, two_outcome_model, block)
        # simulation starts one pool; every further pool is a threaded block pass
        assert len(pools) > 1 and set(pools) == {3}
        assert first.constant == second.constant
        assert first.n == second.n
        assert first.oc_lfc == second.oc_lfc
        assert first.oc_null == second.oc_null

    def test_strict_search_keeps_alpha_at_or_below_target(self, two_outcome_model,
                                                          two_outcome_spec):
        real = search_gs_design(two_outcome_spec, two_outcome_model,
                                null_block(3, two_outcome_model, SimConfig(seed=30, nsims=20_000)),
                                strict=True)
        assert real.alpha_star <= 0.025

    def test_infeasible_power_raises(self, two_outcome_model, two_outcome_spec):
        with pytest.raises(InfeasibleDesignError):
            search_gs_design(two_outcome_spec, two_outcome_model,
                             null_block(3, two_outcome_model, SimConfig(seed=29, nsims=5_000)),
                             nmax=2)

    def test_function_and_spec_share_the_default_nmax(self):
        # delta1 = 0.01 needs tens of thousands per stage
        spec = GSDesignSpec(n_outcomes=2, n_promising=1, n_stages=2, alpha=0.025,
                            beta=0.2, delta0=0.0, delta1=0.01)
        model = OutcomeModel.equicorrelated(2, 0.3)
        block = null_block(2, model, SimConfig(seed=36, nsims=500))
        with pytest.raises(InfeasibleDesignError, match="no per-stage size up to 400 "):
            search_gs_design(spec, model, block)
        with pytest.raises(InfeasibleDesignError, match="no per-stage size up to 400 "):
            spec.search(model, block)

    @pytest.mark.parametrize("nmin, nmax", [(0, 400), (5, 5)])
    def test_invalid_range_rejected_before_calibration(self, monkeypatch, two_outcome_model,
                                                       two_outcome_spec, nmin, nmax):
        block = null_block(3, two_outcome_model, SimConfig(seed=2, nsims=1_000))
        calibrations = []

        def counted(*args, **kwargs):
            calibrations.append(args)
            return calibrate_c(*args, **kwargs)

        monkeypatch.setattr(gs_module, "calibrate_c", counted)
        with pytest.raises(ValueError, match="require 1 <= nmin < nmax"):
            search_gs_design(two_outcome_spec, two_outcome_model, block, nmin=nmin,
                             nmax=nmax)
        assert calibrations == []

    def test_nmin_below_one_rejected(self, two_outcome_model, two_outcome_spec):
        block = null_block(3, two_outcome_model, SimConfig(seed=1, nsims=100))
        with pytest.raises(ValueError, match="nmin"):
            search_gs_design(two_outcome_spec, two_outcome_model, block, nmin=0)

    def test_wang_tsiatis_delta_keeps_the_boundary_scale_normal(self):
        # 10^(0.5 - delta) and its reciprocal are normal floats up to
        # |delta - 0.5| = 1022 log 2 / log 10 = 307.65...
        for delta in (-307.1, 0.0, 0.5, 308.1):
            spec_for(2, 1, 10, wt_delta=delta)
        for delta in (-307.2, 308.2, 1e308):
            with pytest.raises(ValueError, match=r"^wt_delta must be within about 307.7 of 0.5"):
                spec_for(2, 1, 10, wt_delta=delta)
        for delta in (-1.7e308, -1e300, 1e300, 1.7e308):  # J = 1 takes every finite delta
            assert spec_for(2, 1, 1, wt_delta=delta).wt_delta == delta

    def test_model_spec_outcome_mismatch_rejected(self, two_outcome_spec):
        model = OutcomeModel.equicorrelated(3, 0.3)
        with pytest.raises(ValueError, match="outcomes"):
            search_gs_design(two_outcome_spec, model,
                             null_block(3, model, SimConfig(seed=1, nsims=100)))

    def test_block_shape_must_match_spec(self, two_outcome_model, two_outcome_spec):
        block = null_block(2, two_outcome_model, SimConfig(seed=1, nsims=100))
        with pytest.raises(ValueError, match="block shape"):
            search_gs_design(two_outcome_spec, two_outcome_model, block)

    def test_small_effect_search_takes_few_probes(self, monkeypatch, two_outcome_model):
        probes = count_probes(monkeypatch)
        spec = GSDesignSpec(n_outcomes=2, n_promising=1, n_stages=3, alpha=0.025,
                            beta=0.2, delta0=0.05, delta1=0.1)
        real = search_gs_design(spec, two_outcome_model,
                                null_block(3, two_outcome_model, SimConfig(seed=33, nsims=5_000)),
                                nmax=2_000)
        assert 200 <= real.n <= 500
        assert len(probes) <= 25

    def test_answer_two_takes_two_probes(self, monkeypatch):
        # n = ((z_{0.975} + z_{0.8}) / 2.2)^2 = 1.6 rounds up to 2. The
        # first shift built is the threshold pass's slope (the shift at
        # n = 1); the probes then confirm n - 1 = 1 fails and n = 2 passes.
        probes = count_probes(monkeypatch)
        spec = GSDesignSpec(n_outcomes=1, n_promising=1, n_stages=1, alpha=0.025,
                            beta=0.2, delta0=2.2, delta1=2.2)
        model = OutcomeModel.equicorrelated(1, 0.0)
        real = search_gs_design(spec, model, null_block(1, model, SimConfig(seed=34, nsims=20_000)))
        assert real.n == 2
        assert probes == [1, 1, 2]

    def test_returned_lfc_oc_is_the_probe_result(self, monkeypatch, two_outcome_model,
                                                 two_outcome_spec):
        probes = count_probes(monkeypatch)
        block = null_block(3, two_outcome_model, SimConfig(seed=35, nsims=10_000))
        real = search_gs_design(two_outcome_spec, two_outcome_model, block)
        assert probes.count(real.n) == 1
        schedule = StageSchedule.equal(real.n, 3)
        shift = mean_shift_vector(lfc_effects(two_outcome_spec), schedule, two_outcome_model)
        assert real.oc_lfc == estimate_gs_oc(block, real.boundaries, two_outcome_spec,
                                             schedule, shift=shift)

    def test_matches_linear_scan_on_random_designs(self, monkeypatch):
        paths = count_search_paths(monkeypatch)
        outcomes = {"found": 0, "at_nmin": 0, "infeasible": 0}
        expected_paths = {"threshold": 0, "openings": []}

        def check(case, spec, model, nmin, nmax):
            j = spec.n_stages
            block = simulate_null_block(StageSchedule.equal(1, j), model,
                                        SimConfig(seed=300 + case, nsims=2_000))
            constant, _ = calibrate_c(block, spec)
            boundaries = _final_scale_boundaries(constant, j, spec.wt_delta)
            effects = lfc_effects(spec)
            expected = linear_scan_n(block, boundaries, spec, model, effects, nmin, nmax)
            threshold = (spec.composite or spec.n_promising in (1, spec.n_outcomes)) \
                and min(effects) >= 0
            expected_paths["threshold"] += threshold
            # the sizes probed before nmax: n - 1 and n after a threshold pass
            # (n alone at nmin, none when no size up to nmax passes, so that
            # one probe confirms infeasibility), else the gallop 1, 2, 4, ...
            # above nmin - 1
            n = None if expected is None else expected[0]
            expected_paths["openings"].append(
                (() if n is None else (n,) if n == nmin else (n - 1, n)) if threshold
                else tuple(nmin - 1 + 2 ** i for i in range((nmax - nmin).bit_length())))
            if expected is None:
                outcomes["infeasible"] += 1
                with pytest.raises(InfeasibleDesignError):
                    search_gs_design(spec, model, block, nmin=nmin, nmax=nmax)
                return
            outcomes["at_nmin" if expected[0] == nmin else "found"] += 1
            real = search_gs_design(spec, model, block, nmin=nmin, nmax=nmax)
            assert (real.n, real.power_star, real.alpha_star) == expected, case
            assert real.boundaries == boundaries

        rng = np.random.default_rng(4)
        for case in range(36):
            k = int(rng.integers(1, 6))
            j = int(rng.integers(1, 5))
            d1 = float(rng.uniform(0.25, 0.7))
            spec = GSDesignSpec(n_outcomes=k, n_promising=int(rng.integers(1, k + 1)),
                                n_stages=j, alpha=0.025, beta=0.2,
                                delta0=float(rng.uniform(0.0, d1)), delta1=d1,
                                wt_delta=float(rng.choice([0.0, 0.25, 0.5])),
                                composite=bool(rng.integers(2)))
            model = OutcomeModel.equicorrelated(k, float(rng.uniform(0.0, 0.8)))
            nmin = 1 if case % 3 else int(rng.integers(2, 60))
            nmax = nmin + int(rng.integers(1, 6) if case % 4 == 0 else rng.integers(20, 250))
            check(case, spec, model, nmin, nmax)
        # designs the threshold pass serves: m = 1 or K, J = 1 and composite
        # among them, per-outcome sigma and some delta0 = 0
        rng = np.random.default_rng(5)
        for case in range(36, 60):
            k = int(rng.integers(1, 6))
            j = 1 if case % 4 == 0 else int(rng.integers(1, 5))
            d1 = float(rng.uniform(0.25, 0.7))
            spec = GSDesignSpec(n_outcomes=k, n_promising=int(rng.choice([1, k])),
                                n_stages=j, alpha=0.025, beta=0.2,
                                delta0=0.0 if case % 5 == 0 else float(rng.uniform(0.0, d1)),
                                delta1=d1, wt_delta=float(rng.choice([0.0, 0.25, 0.5])),
                                composite=case % 3 == 0)
            model = OutcomeModel.equicorrelated(k, float(rng.uniform(0.0, 0.8)),
                                                sigma=rng.uniform(0.5, 2.0, size=k))
            nmin = 1 if case % 3 else int(rng.integers(2, 60))
            nmax = nmin + int(rng.integers(1, 6) if case % 4 == 1 else rng.integers(20, 250))
            check(case, spec, model, nmin, nmax)
        # a negative LFC effect keeps the gallop
        check(60, GSDesignSpec(n_outcomes=2, n_promising=1, n_stages=2, alpha=0.025, beta=0.2,
                               delta0=-0.1, delta1=0.5),
              OutcomeModel.equicorrelated(2, 0.3), 1, 200)
        assert min(outcomes.values()) >= 3, outcomes
        assert paths == expected_paths
        # one smallest_passing call per search: at least 4 gallops, and at
        # least 3 infeasible threshold searches
        threshold, openings = expected_paths["threshold"], expected_paths["openings"]
        assert threshold >= 36 and len(openings) == 61 and len(openings) - threshold >= 4, paths
        assert openings.count(()) >= 3, paths

    def test_threshold_search_makes_five_block_passes(self, monkeypatch, two_outcome_model):
        # calibration, threshold pass, probes at n and n - 1, null OC
        passes = count_passes(monkeypatch)
        spec = GSDesignSpec(n_outcomes=2, n_promising=1, n_stages=3, alpha=0.025,
                            beta=0.2, delta0=0.05, delta1=0.1)
        block = null_block(3, two_outcome_model, SimConfig(seed=33, nsims=5_000))
        real = search_gs_design(spec, two_outcome_model, block, nmax=2_000)
        assert 200 <= real.n <= 500
        assert len(passes) == 5

    def test_infeasible_threshold_search_makes_three_block_passes(self, monkeypatch,
                                                                  two_outcome_model,
                                                                  two_outcome_spec):
        # calibration, threshold pass, and one probe at nmax for the message
        block = null_block(3, two_outcome_model, SimConfig(seed=29, nsims=5_000))
        constant, _ = calibrate_c(block, two_outcome_spec)
        schedule = StageSchedule.equal(3, 3)
        power = estimate_gs_oc(
            block, _final_scale_boundaries(constant, 3, 0.0), two_outcome_spec, schedule,
            shift=mean_shift_vector(lfc_effects(two_outcome_spec), schedule,
                                    two_outcome_model)).p_reject
        passes = count_passes(monkeypatch)
        with pytest.raises(InfeasibleDesignError) as caught:
            search_gs_design(two_outcome_spec, two_outcome_model, block, nmax=3)
        assert str(caught.value) == ("no per-stage size up to 3 reaches power 0.8: "
                                     f"power at nmax is {power:.4f}")
        assert len(passes) == 3
