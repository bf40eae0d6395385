import math
import re
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri

from _oracles import bisection_n, rows_at_least, rows_at_most, step_boundary
from multiseq import CalibrationError, InfeasibleDesignError
from multiseq.optimize import _HEAD, exceedance_boundary, row_count, smallest_passing


# limits on a fine normal quantile grid: alpha(r) is the normal tail to
# within 1 / 200,000
NORMAL_LIMITS = ndtri((np.arange(200_000) + 0.5) / 200_000)


def test_solves_smooth_tail_probability():
    x, achieved = exceedance_boundary(NORMAL_LIMITS.copy(), 0.025)
    assert x == pytest.approx(1.959964, abs=1e-3)
    assert achieved == 0.025


def test_expands_bracket_upwards():
    # no bracket is involved: a boundary far above 1 is found directly
    x, achieved = exceedance_boundary(NORMAL_LIMITS + 20.0, 0.025)
    assert x == pytest.approx(21.959964, abs=1e-3)
    assert achieved == 0.025


def test_expands_bracket_downwards():
    # ... and so is one far below 1
    x, achieved = exceedance_boundary(NORMAL_LIMITS / 40.0, 0.025)
    assert x == pytest.approx(1.959964 / 40.0, abs=1e-4)
    assert achieved == 0.025


def test_handles_step_functions():
    # empirical tail of a finite sample is a staircase, like a Monte
    # Carlo rejection probability
    rng = np.random.default_rng(12)
    sample = rng.normal(size=50_000)
    x, achieved = exceedance_boundary(sample.copy(), 0.05)
    assert achieved == float((sample > x).mean())
    assert abs(achieved - 0.05) < 5e-4
    assert abs(x - 1.645) < 0.05


def test_strict_mode_never_exceeds_target():
    rng = np.random.default_rng(13)
    sample = rng.normal(size=20_000)
    x, achieved = exceedance_boundary(sample.copy(), 0.025, strict=True)
    assert achieved == float((sample > x).mean()) <= 0.025
    starts = np.where(rng.random(20_000) < 0.5, 0.0, rng.uniform(0.0, 1.0, size=20_000))
    ends = starts + rng.exponential(size=20_000)
    c, achieved = exceedance_boundary(ends.copy(), 0.1, strict=True, starts=starts.copy())
    assert achieved == float(((starts <= c) & (c < ends)).mean()) <= 0.1


def test_unreachable_target_raises_with_diagnostics():
    # half the rows go at every r > 0 and the rest at none
    with pytest.raises(CalibrationError,
                       match=r"target alpha 0\.7 is out of reach for a boundary r > 0: "
                             r"alpha at r -> 0\+ is 0\.5$"):
        exceedance_boundary(np.array([1.0, 2.0, -1.0, -2.0]), 0.7)
    # intervals that start above 0 leave alpha(0+) at 1 / 4
    with pytest.raises(CalibrationError, match=r"alpha at C -> 0\+ is 0\.25$"):
        exceedance_boundary(np.array([1.0, 3.0, 4.0]), 0.5, starts=np.array([0.0, 2.0, 2.0]),
                            nrows=4, symbol="C")


def test_rejects_mismatched_intervals():
    for ends, starts, nrows in (([1.0, 2.0], [0.0], None), ([[1.0]], None, None),
                                ([1.0], [0.0], 0)):
        with pytest.raises(ValueError):
            exceedance_boundary(np.asarray(ends), 0.1, starts=starts, nrows=nrows)


def random_intervals(rng, nrows):
    """Up to three disjoint intervals per row on a coarse grid, so events
    tie; a third of the rows start at 0 and some rows have none."""
    starts, ends = [], []
    for _ in range(nrows):
        points = np.sort(rng.choice(np.arange(0.25, 5.0, 0.25), size=6, replace=False))
        if rng.random() < 0.35:
            points[0] = 0.0
        for lo, hi in points.reshape(3, 2)[:int(rng.integers(0, 4))]:
            starts.append(lo)
            ends.append(hi)
    return np.array(starts), np.array(ends)


def trough_intervals(rng, nrows, step):
    """Intervals on a grid of ``step``, so events tie. A random share of
    the rows go from 0 to a limit at or below a trough, a share go from
    the trough or up to 0.5 above it, and the rest hold up to three random
    intervals, a third of them from 0: the rate falls into the trough and
    climbs back out of it."""
    grid = np.arange(step, 5.0, step)
    trough = grid[rng.integers(grid.size // 5, 3 * grid.size // 4)]
    kind = rng.choice(3, size=nrows, p=rng.dirichlet([2.0, 2.0, 2.0]))
    early, late, rest = (int(np.count_nonzero(kind == i)) for i in range(3))
    climb = rng.choice(grid[(trough <= grid) & (grid <= trough + 0.5)], late)
    points = grid[np.sort(rng.integers(0, grid.size - 5, (rest, 6)), axis=1) + np.arange(6)]
    points[rng.random(rest) < 0.35, 0] = 0.0
    held = np.arange(3) < rng.integers(0, 4, rest)[:, None]
    starts = np.concatenate([np.zeros(early), climb, points[:, 0::2][held]])
    ends = np.concatenate([rng.choice(grid[grid <= trough], early),
                           climb + step * rng.integers(1, 40, late), points[:, 1::2][held]])
    return starts, ends


class TestStepIntervals:
    def test_agrees_with_brute_force_on_random_intervals(self):
        rng = np.random.default_rng(15)
        outcomes = {"monotone": 0, "warns": 0, "unreachable": 0}
        for _ in range(200):
            nrows = int(rng.integers(1, 40))
            starts, ends = random_intervals(rng, nrows)
            target = float(rng.uniform(0.02, 0.5))
            for strict in (False, True):
                expected = step_boundary(starts, ends, nrows, target, strict)
                if expected is None:
                    outcomes["unreachable"] += 1
                    with pytest.raises(CalibrationError, match="out of reach"):
                        exceedance_boundary(ends.copy(), target, strict, starts.copy(), nrows)
                    continue
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    c, achieved = exceedance_boundary(ends.copy(), target, strict,
                                                      starts.copy(), nrows)
                assert (c, achieved) == (expected.boundary, expected.alpha)
                assert len(caught) == expected.warns
                outcomes["warns" if expected.warns else "monotone"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_agrees_with_brute_force_beyond_one_head(self):
        # hundreds to thousands of rows, so that k, the rows that may go at
        # the boundary, lies below and above one head of events, and the
        # scans prune; the rate falls to a trough and climbs back, so a
        # target can dip far below the crossing or right next to it
        rng = np.random.default_rng(18)
        outcomes = {"monotone": 0, "warns": 0, "unreachable": 0}
        spans = {(outcome, big): 0 for outcome in ("monotone", "warns") for big in (False, True)}
        dips = []
        for case in range(150):
            nrows = int(rng.integers(200, 4_001))
            starts, ends = trough_intervals(rng, nrows, (0.25, 1 / 64)[case % 2])
            reach = np.count_nonzero((starts == 0.0) & (ends > 0.0)) / nrows
            target = float(rng.uniform(0.005, min(1.3 * reach, 0.99)))
            big = row_count(target, nrows, "right") > _HEAD
            for strict in (False, True):
                expected = step_boundary(starts, ends, nrows, target, strict)
                if expected is None:
                    outcomes["unreachable"] += 1
                    with pytest.raises(CalibrationError, match="out of reach"):
                        exceedance_boundary(ends.copy(), target, strict, starts.copy(), nrows)
                    continue
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    c, achieved = exceedance_boundary(ends.copy(), target, strict,
                                                      starts.copy(), nrows)
                assert (c, achieved) == (expected.boundary, expected.alpha), case
                assert len(caught) == expected.warns, case
                outcome = "warns" if expected.warns else "monotone"
                outcomes[outcome] += 1
                spans[outcome, big] += 1
                if caught:
                    # ends between where alpha first falls to the target and
                    # where it climbs back
                    fall, climb = (float(v) for v in
                                   re.findall(r"=(\S+) gives", str(caught[0].message)))
                    dips.append(np.count_nonzero((fall < ends) & (ends < climb)))
        assert min(outcomes.values()) >= 20, outcomes
        assert min(spans.values()) >= 10, spans
        assert sum(d < _HEAD for d in dips) >= 5 and sum(d > 4 * _HEAD for d in dips) >= 5

    @pytest.mark.parametrize("k", [254, 255, 256, 257, 511, 512])
    def test_a_dip_at_a_run_edge_is_found(self, searchsorted_keys, k):
        # 1,024 rows go from 0 to 1/1024, 2/1024, ..., 1 and 600 from 2 to
        # 3: k rows go from the (1024 - k)-th end on, just at, inside or
        # past the end of a run of _HEAD ends, and alpha climbs back at 2
        ends = np.concatenate([np.arange(1, 1_025) / 1_024, np.full(600, 3.0)])
        starts = np.concatenate([np.zeros(1_024), np.full(600, 2.0)])
        nrows, fall = 1_624, (1_024 - k) / 1_024
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = exceedance_boundary(ends, (k + 0.5) / nrows, True, starts, nrows)
        assert got == (4.0, 0.0)
        assert [str(w.message) for w in caught] == [
            f"alpha is not monotone in the boundary: r={fall:.6g} gives {k / nrows:.6g} "
            f"but r=2 gives {600 / nrows:.6g}"]
        # one window of starts, the heads and the one run holding the dip
        assert sum(searchsorted_keys) < 3 * _HEAD

    def test_alpha_climbing_back_warns_and_keeps_the_last_crossing(self):
        # alpha(C): 0.5 on (0, 1), 0 on [1, 2), 0.3 on [2, 3), 0 from 3 on
        starts = np.array([0.0] * 5 + [2.0] * 3)
        ends = np.array([1.0] * 5 + [3.0] * 3)
        with pytest.warns(UserWarning, match=r"not monotone in the boundary: C=1 gives 0 "
                                             r"but C=2 gives 0\.3"):
            c, achieved = exceedance_boundary(ends.copy(), 0.25, True, starts.copy(), 10, "C")
        assert (c, achieved) == (4.0, 0.0)
        # 0.3 on [2, 3) is nearer 0.25 than 0 on [3, inf)
        with pytest.warns(UserWarning, match="not monotone"):
            assert exceedance_boundary(ends.copy(), 0.25, False, starts.copy(), 10) == (2.5, 0.3)

    def test_climb_back_below_the_target_does_not_warn(self):
        # alpha: 0.5 on (0, 1), 0.2 on [1, 2), 0.4 on [2, 3), 0.1 on [3, 4)
        starts = np.array([0.0, 0.0] + [0.0] * 3 + [2.0] * 3)
        ends = np.array([4.0, 2.0] + [1.0] * 3 + [3.0] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exceedance_boundary(ends.copy(), 0.45, True, starts.copy(), 10) == (1.5, 0.2)
            assert exceedance_boundary(ends.copy(), 0.45, False, starts.copy(), 10) == (0.5, 0.5)

    def test_starts_at_zero_are_the_go_limit_case(self):
        # starts=None reads the boundary off the ends alone; it must give
        # what explicit zero starts give, ties, negative limits, both modes
        # and the out-of-reach error included
        rng = np.random.default_rng(16)

        def boundary(limits, target, strict, starts):
            try:
                return exceedance_boundary(limits.copy(), target, strict, starts)
            except CalibrationError as exc:
                return str(exc)

        for case in range(1_500):
            size = int(rng.integers(1, 200))
            limits = (rng.integers(-4, 12, size) / 4.0 if case % 2  # ties, some at 0
                      else rng.normal(loc=1.0, size=size))
            target = float(rng.uniform(0.01, 0.99))
            for strict in (False, True):
                assert (boundary(limits, target, strict, None)
                        == boundary(limits, target, strict, np.zeros(size)))

    def test_go_limits_need_no_row_length_arrays(self):
        # 1,000,000 go limits (8 MB) are sorted in place; every start is 0,
        # so no start array is made
        limits = np.random.default_rng(17).normal(loc=1.0, size=1_000_000)
        tracemalloc.start()
        try:
            exceedance_boundary(limits, 0.025)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_intervals_need_no_row_length_arrays(self):
        # 1,000,000 intervals (8 MB of starts, 8 MB of ends), a third of
        # them from 0, are sorted in place: the scans' windows and heads
        # stay small
        rng = np.random.default_rng(19)
        starts = rng.exponential(size=1_000_000)
        starts[::3] = 0.0
        ends = starts + rng.exponential(size=1_000_000)
        tracemalloc.start()
        try:
            exceedance_boundary(ends, 0.025, starts=starts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestExceedanceBoundary:
    # ten hand-built go limits: alpha(r) = #{limits > r} / 10 steps down
    # by 0.1 at each of them
    LIMITS = np.array([0.5, 4.0, 1.0, 3.0, 2.0, 5.0, 1.5, 2.5, 3.5, 4.5])

    def alpha(self, r):
        return float((self.LIMITS > r).mean())

    def test_target_on_a_step_is_hit_exactly(self):
        # alpha = 0.3 on [3.5, 4.0), for both modes
        for strict in (False, True):
            r, achieved = exceedance_boundary(self.LIMITS, 0.3, strict=strict)
            assert (r, achieved) == (3.75, 0.3)

    def test_strict_takes_the_step_at_or_below_the_target(self):
        # 0.38 lies between the steps 0.3 on [3.5, 4.0) and 0.4 on [3.0, 3.5)
        r, achieved = exceedance_boundary(self.LIMITS, 0.38, strict=True)
        assert (r, achieved) == (3.75, 0.3)
        assert achieved == self.alpha(r) <= 0.38

    def test_default_takes_the_nearer_step(self):
        r, achieved = exceedance_boundary(self.LIMITS, 0.38)
        assert (r, achieved) == (3.25, 0.4)
        r, achieved = exceedance_boundary(self.LIMITS, 0.32)
        assert (r, achieved) == (3.75, 0.3)

    def test_default_tie_goes_to_the_lower_alpha(self):
        # 0.375 is exactly as far from 0.25 on [3, 4) as from 0.5 on [2, 3)
        r, achieved = exceedance_boundary(np.array([1.0, 2.0, 3.0, 4.0]), 0.375)
        assert (r, achieved) == (3.5, 0.25)

    def test_step_above_the_largest_limit(self):
        # alpha = 0 only above 5.0: r is one past the largest limit
        r, achieved = exceedance_boundary(self.LIMITS, 0.05, strict=True)
        assert (r, achieved) == (6.0, 0.0)

    def test_lowest_step_is_clipped_to_positive_r(self):
        limits = np.array([-1.0, 1.0, 2.0, 3.0])
        # alpha = 0.75 on [-1, 1): r is midway between 0 and 1
        r, achieved = exceedance_boundary(limits, 0.7)
        assert (r, achieved) == (0.5, 0.75)

    def test_ties_between_limits_step_together(self):
        limits = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
        r, achieved = exceedance_boundary(limits, 0.4, strict=True)
        assert (r, achieved) == (2.5, 0.2)
        # 0.6 is nearer 0.8 on [1, 2) than 0.2 on [2, 3)
        r, achieved = exceedance_boundary(limits, 0.6)
        assert (r, achieved) == (1.5, 0.8)

    def test_agrees_with_step_function_on_random_limits(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            limits = rng.normal(loc=2.0, size=int(rng.integers(1, 300)))
            target = float(rng.uniform(0.01, 0.5))
            if (limits > 0).mean() <= target:
                continue
            for strict in (False, True):
                r, achieved = exceedance_boundary(limits, target, strict=strict)
                assert r > 0 and not np.any(limits == r)
                assert achieved == float((limits > r).mean())
                low = np.floor(target * limits.size) / limits.size
                if strict:
                    assert achieved == low
                else:
                    high = low + 1 / limits.size
                    best = min(abs(target - low), abs(target - high))
                    assert abs(target - achieved) == pytest.approx(best, abs=1e-12)

    def test_target_out_of_reach_for_positive_r_raises(self):
        # alpha(0+) = 0.2: no r > 0 gives alpha near 0.5
        limits = np.array([-3.0, -2.0, -1.0, 1.0, 2.0])
        with pytest.raises(CalibrationError, match=r"target alpha 0\.5 .*alpha at r -> 0\+ is 0\.4"):
            exceedance_boundary(limits, 0.5)
        with pytest.raises(CalibrationError, match="alpha at r -> 0\\+ is 0"):
            exceedance_boundary(np.full(4, -np.inf), 0.1)

    def test_rejects_empty_limits_and_bad_targets(self):
        for limits, target in (([], 0.1), ([1.0], 0.0), ([1.0], 1.0)):
            with pytest.raises(ValueError):
                exceedance_boundary(np.asarray(limits), target)


def test_row_count_equals_the_stepping_oracles():
    # 120,000 (target, nrows) cases, each compared both ways: uniform
    # targets, exact rates k / nrows and their float neighbours, rates
    # written in decimals, and one-row blocks
    rng = np.random.default_rng(18)
    cases = []
    for case in range(120_000):
        nrows = 1 if case % 10 == 0 else int(rng.integers(1, 10 ** int(rng.integers(1, 8))))
        kind = case % 4
        if kind == 0:
            target = float(rng.uniform(0.0, 1.0))
        elif kind == 1:
            target = float(rng.integers(1, nrows + 1)) / nrows
        elif kind == 2:
            exact = float(rng.integers(1, nrows + 1)) / nrows
            target = float(np.nextafter(exact, rng.choice([0.0, 1.0])))
        else:
            target = round(float(rng.uniform(0.0, 1.0)), int(rng.integers(1, 4)))
        if 0.0 < target < 1.0:
            cases.append((target, nrows))
    assert len(cases) > 100_000
    assert sum(1 for t, n in cases if n == 1) > 5_000
    assert sum(1 for t, n in cases if rows_at_least(t, n) / n == t) > 20_000
    for target, nrows in cases:
        assert row_count(target, nrows) == rows_at_least(target, nrows), (target, nrows)
        assert row_count(target, nrows, "right") == rows_at_most(target, nrows), (target, nrows)


# a power in the search tests is a rate over NSIMS rows, clipped to
# [1 / (2 NSIMS), 1 - 1 / (2 NSIMS)] where the search interpolates
NSIMS = 10_000


def step_power(answer, probes):
    """Power that steps from 0.1 to 0.9 at ``answer``; logs each probe."""
    def power(n):
        probes.append(n)
        return 0.9 if n >= answer else 0.1
    return power


def gallop(nmin, nmax):
    """The opening of a gs search without a threshold pass: nmin - 1 + 1,
    2, 4, ... below nmax."""
    return tuple(nmin - 1 + 2 ** i for i in range((nmax - nmin).bit_length()))


def passing(power, nmin, nmax, opening=(), alpha=0.1, nsims=NSIMS):
    """``smallest_passing`` at target 0.8; alpha suits ``step_power``."""
    return smallest_passing(power, 0.8, nmin, nmax, alpha, nsims, opening)


class TestSmallestPassing:
    @pytest.mark.parametrize("galloping", [True, False])
    def test_returns_smallest_passing_size(self, galloping):
        for nmin, nmax in ((1, 40), (3, 17), (5, 6)):
            for answer in range(nmin, nmax + 1):
                probes = []
                opening = gallop(nmin, nmax) if galloping else ()
                n = passing(step_power(answer, probes), nmin, nmax, opening)
                assert n == answer
                assert len(probes) == len(set(probes))  # each size probed once
                assert all(nmin <= p <= nmax for p in probes)

    def test_gallop_ladder_then_interpolation(self):
        probes = []
        assert passing(step_power(300, probes), 1, 2000, gallop(1, 2000)) == 300
        assert probes[:10] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        assert len(probes) <= 2 * math.ceil(math.log2(300)) + 1

    def test_gallop_starts_at_nmin(self):
        probes = []
        passing(step_power(9, probes), 5, 100, gallop(5, 100))
        assert probes[:3] == [5, 6, 8]

    def test_nmax_first_without_gallop(self):
        # the second probe interpolates from alpha = 0.1 at n = 0 to 0.9 at
        # 120, one below the predicted 83 after a pass; not the midpoint 61
        probes = []
        assert passing(step_power(7, probes), 2, 120) == 7
        root = math.sqrt(120) * (ndtri(0.8) - ndtri(0.1)) / (ndtri(0.9) - ndtri(0.1))
        assert math.ceil(root * root) == 83
        assert probes[:2] == [120, 82]

    @pytest.mark.parametrize("galloping", [True, False])
    def test_adjacent_range_and_answer_at_nmin(self, galloping):
        for answer in (9, 10):
            probes = []
            opening = gallop(9, 10) if galloping else ()
            assert passing(step_power(answer, probes), 9, 10, opening) == answer
        probes = []
        assert passing(step_power(1, probes), 4, 400, gallop(4, 400) if galloping else ()) == 4

    @pytest.mark.parametrize("galloping", [True, False])
    def test_raises_when_nmax_fails(self, galloping):
        probes = []
        with pytest.raises(InfeasibleDesignError, match="up to 50"):
            passing(step_power(51, probes), 1, 50, gallop(1, 50) if galloping else ())
        assert probes[-1] == 50
        assert len(probes) <= math.ceil(math.log2(50)) + 1

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            passing(lambda n: 1.0, 5, 4)
        with pytest.raises(ValueError):
            passing(lambda n: 1.0, 0, 4)

    @pytest.mark.parametrize("opening", [(4, 3), (5, 5), (2, 10), (39, 40, 40), (3, 41), (50,)])
    def test_rejects_an_opening_not_increasing_within_the_range(self, opening):
        probes = []
        with pytest.raises(ValueError, match="opening"):
            passing(step_power(7, probes), 3, 40, opening)
        assert probes == []

    def test_opening_whose_lower_size_already_passes(self):
        # (n - 1, n) of a threshold pass that rounded one size high: the
        # search goes on below n - 1, and nmax is never probed
        probes = []
        assert passing(step_power(15, probes), 1, 100, (19, 20)) == 15
        assert probes[0] == 19 and 20 not in probes and 100 not in probes
        assert len(probes) == len(set(probes))

    def test_opening_whose_upper_size_fails(self):
        # (n - 1, n) of a threshold pass that rounded one size low: nmax
        # passes, and the search goes on in the bracket (n, nmax]
        probes = []
        assert passing(step_power(25, probes), 1, 100, (19, 20)) == 25
        assert probes[:3] == [19, 20, 100]
        assert all(20 < p <= 100 for p in probes[2:]) and len(probes) == len(set(probes))

    def test_opening_that_confirms_a_size_ends_the_search(self):
        for opening, answer in (((19, 20), 20), ((3,), 3), ((99, 100), 100)):
            probes = []
            assert passing(step_power(answer, probes), 3, 100, opening) == answer
            assert probes == list(opening)  # nmax is probed at most once

    @pytest.mark.parametrize("galloping", [True, False])
    def test_warns_when_power_falls_with_size(self, galloping):
        # failing probes whose power dips between two sizes: the gallop sees
        # 0.6 at 8 and 0.3 at 16, the search from nmax 0.6 at 13 and 0.3 at 16
        powers = {n: 0.9 if n >= 20 else (0.6 if n < 15 else 0.3) for n in range(1, 41)}
        with pytest.warns(UserWarning, match="not monotone"):
            assert passing(powers.__getitem__, 1, 40, gallop(1, 40) if galloping else (),
                           alpha=0.6) == 20

    def test_monotone_probes_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert passing(lambda n: n / 100, 1, 100, gallop(1, 100), alpha=0.0) == 80


def quantised_probit_power(rng, nsims=15_000):
    """A random power curve Phi(a + b sqrt(n)) rounded down to a multiple of
    1 / nsims, as a simulated rejection rate is, so that it reads exactly 0
    or 1 far from the crossing; returns (power, alpha), alpha = Phi(a)."""
    a, b = rng.uniform(-3.0, -1.0), rng.uniform(0.05, 1.5)
    alpha = float(NormalDist().cdf(a))

    def power(n):
        return math.floor(NormalDist().cdf(a + b * math.sqrt(n)) * nsims) / nsims
    return power, alpha


def random_step_power(rng):
    """Power that steps once, from a random value below 0.8 (0 in some
    curves) to one at or above it (1 in some)."""
    answer = int(rng.integers(1, 120))
    low = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.01, 0.79))
    high = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.8, 0.999))
    return (lambda n: high if n >= answer else low), low


def logged(power, probes):
    def probe(n):
        probes.append(n)
        return power(n)
    return probe


class TestInterpolatingSearch:
    """After the first pass, probes interpolate Phi^-1(power) in sqrt(n);
    where power crosses the target once, n is the bisection's."""

    @pytest.mark.parametrize("shape", ["probit", "step"])
    def test_same_size_as_bisection_on_curves_crossing_once(self, shape):
        rng = np.random.default_rng(2 if shape == "probit" else 3)
        probes_new, probes_old = [], []
        for _ in range(400):
            power, alpha = (quantised_probit_power(rng) if shape == "probit"
                            else random_step_power(rng))
            nmin = int(rng.integers(1, 6))
            nmax = int(rng.integers(nmin + 1, 400))
            old = []
            try:
                want = bisection_n(logged(power, old), 0.8, nmin, nmax)
            except ValueError:
                with pytest.raises(InfeasibleDesignError):
                    smallest_passing(power, 0.8, nmin, nmax, alpha, 15_000)
                continue
            probes = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # power never falls
                n = smallest_passing(logged(power, probes), 0.8, nmin, nmax, alpha, 15_000)
            assert n == want
            assert len(probes) == len(set(probes))  # each size probed once
            assert all(nmin <= p <= nmax for p in probes)
            assert probes[0] == nmax
            # the bracket halves at least every four probes
            assert len(probes) <= 1 + 4 * math.ceil(math.log2(nmax - nmin + 1))
            probes_new.append(len(probes))
            probes_old.append(len(old))
        assert len(probes_new) > 300
        if shape == "probit":
            # smooth curves: the interpolation saves at least a quarter of the probes
            assert sum(probes_new) <= 0.75 * sum(probes_old), (sum(probes_new), sum(probes_old))
        else:
            # the interpolation fits a step badly; with the bisection steps these
            # curves take at most three times the bisection's probes
            assert max(a / b for a, b in zip(probes_new, probes_old)) <= 3

    def test_returns_a_crossing_and_warns_on_non_monotone_curves(self):
        rng = np.random.default_rng(4)
        warned_runs = 0
        for _ in range(300):
            a, b, jitter = rng.uniform(-3.0, -1.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.5)
            noise = rng.normal(0.0, jitter, size=401)
            powers = {n: round(NormalDist().cdf(a + b * math.sqrt(n) + noise[n]), 4)
                      for n in range(1, 401)}
            nmin, nmax = int(rng.integers(1, 6)), 400
            if powers[nmax] < 0.8:
                continue
            probes = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                n = smallest_passing(logged(powers.__getitem__, probes), 0.8, nmin, nmax,
                                     float(NormalDist().cdf(a)), NSIMS)
            assert len(probes) == len(set(probes))
            assert all(nmin <= p <= nmax for p in probes)
            assert len(probes) <= 1 + 4 * math.ceil(math.log2(nmax - nmin + 1))
            # a crossing: n passes, and n - 1 fails unless n = nmin
            assert powers[n] >= 0.8 and (n == nmin or powers[n - 1] < 0.8)
            assert n in probes and (n == nmin or n - 1 in probes)
            probed = [powers[p] for p in sorted(probes)]
            falls = any(x > y for x, y in zip(probed, probed[1:]))
            assert bool(caught) == falls
            if falls:
                assert "not monotone" in str(caught[0].message)
                warned_runs += 1
        assert warned_runs > 20

    def test_first_interpolation_starts_from_alpha(self):
        # a pass at nmax below 1 and alpha at n = 0 give the second probe
        # directly: Phi^-1 is linear in sqrt(n) through both
        a, b = -1.96, 0.4
        power = lambda n: NormalDist().cdf(a + b * math.sqrt(n))
        root = (NormalDist().inv_cdf(0.8) - a) / b  # sqrt of the crossing, about 7.0
        probes = []
        n = smallest_passing(logged(power, probes), 0.8, 2, 100, power(0), NSIMS)
        assert n == math.ceil(root * root)
        # one below the prediction after the pass at nmax, then the prediction
        assert probes == [100, n - 1, n]

    def test_gallop_bracket_is_interpolated(self):
        # the ladder's last failing and first passing rungs, 256 and 512,
        # give the next probe as alpha and nmax do without the gallop
        a, b = -1.96, 0.15
        power = lambda n: NormalDist().cdf(a + b * math.sqrt(n))
        probes, old = [], []
        n = smallest_passing(logged(power, probes), 0.8, 1, 1000, power(0), NSIMS,
                             gallop(1, 1000))
        assert n == bisection_n(logged(power, old), 0.8, 257, 512) == 349
        assert probes[:10] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        low, high = ndtri(power(256)), ndtri(power(512))
        root = 16 + (ndtri(0.8) - low) / (high - low) * (math.sqrt(512) - 16)
        assert probes[10] == math.ceil(root * root) - 1
        # bisecting the bracket would take 8 probes
        assert len(probes) - 10 < len(old) - 1 == 8

    def test_powers_of_zero_and_one_enter_clipped(self):
        # a 0/1 step over 1,000 rows: 1 at nmax reads as 1 - 1/2000, and 0
        # below the step as 1/2000, so the search interpolates, and still
        # gives bisection's n
        probes, old = [], []
        step = lambda n: 1.0 if n >= 37 else 0.0
        assert smallest_passing(logged(step, probes), 0.8, 2, 120, 0.025, 1_000) == 37
        assert bisection_n(logged(step, old), 0.8, 2, 120) == 37

        def aim(below, p_below, above, p_above, passed):
            low, high = ndtri(p_below), ndtri(p_above)
            root = math.sqrt(below) + ((ndtri(0.8) - low) / (high - low)
                                       * (math.sqrt(above) - math.sqrt(below)))
            return math.ceil(root * root) - passed

        second = aim(0, 0.025, 120, 1 - 1 / 2000, True)
        assert (probes[1], old[1]) == (second, 61)
        # the second probe reads 0, which the third starts from as 1/2000
        assert step(second) == 0.0
        assert probes[2] == aim(second, 1 / 2000, 120, 1 - 1 / 2000, False)

    def test_one_row_powers_bisect(self):
        # over one row every clipped power is 1/2: the probits tie, and every
        # probe is bisection's midpoint, with no division by zero
        step = lambda n: 1.0 if n >= 37 else 0.0
        for alpha in (0.0, 0.025):
            probes, old = [], []
            assert smallest_passing(logged(step, probes), 0.8, 2, 120, alpha, 1) == 37
            assert bisection_n(logged(step, old), 0.8, 2, 120) == 37
            assert probes == old

    def test_alpha_at_or_above_the_target_starts_with_the_midpoint(self):
        # alpha >= 1 - beta: no failing stand-in lies below the first
        # bracket, so its first probe is the midpoint; later brackets
        # interpolate between probes
        a, b = -1.96, 0.4
        power = lambda n: NormalDist().cdf(a + b * math.sqrt(n))
        for alpha in (0.8, 0.95):
            probes, old = [], []
            n = smallest_passing(logged(power, probes), 0.8, 2, 100, alpha, NSIMS)
            assert n == bisection_n(logged(power, old), 0.8, 2, 100)
            assert probes[:2] == old[:2] == [100, 51]
