"""Searches: exact boundary calibration and the smallest sample size.

One block pass gives the boundaries at which each simulated trial goes,
a union of disjoint intervals [start, end). The rejection rate is then a
step function of the boundary, and ``exceedance_boundary`` reads the
calibrated boundary off the sorted starts and ends, with no bisection:
after the two sorts it scans only the events near the crossing, in
windows of ``_HEAD`` events that grow to at most ``_SLICE``.
``smallest_passing`` searches the per-stage sample size by probing, for
every design family: it probes the caller's opening sizes, then nmax, up
to the first pass, and then interpolates the probit of power linearly in
sqrt(n) across the bracket, which on smooth power curves needs about half
the probes of bisection. ``row_count`` turns a rate into
a row count under the float comparison that both searches use.
"""

from __future__ import annotations

import bisect
import math
import warnings
from typing import Callable

import numpy as np

from ._normal import ndtri
from .errors import CalibrationError, InfeasibleDesignError

__all__ = ["DEFAULT_NMAX", "exceedance_boundary", "row_count", "smallest_passing"]

# largest per-stage size a sample-size search probes unless told otherwise
DEFAULT_NMAX = 400

# The scans read only the events near the crossing. The rise scan's window
# starts at _HEAD starts and doubles up to _SLICE, so no temporary exceeds
# about 64 kB; the dip scan reads one head every _HEAD ends, and that
# spacing sets how closely it prunes.
_HEAD = 1 << 8
_SLICE = 1 << 13


def row_count(target: float, nrows: int, side: str = "left") -> int:
    """The smallest row count k in [0, nrows] with k / nrows >= target
    ("left"), or the largest with k / nrows <= target ("right"), compared
    in floats as a rate of nrows rows is; nrows + 1 or -1 when none is."""
    rates = range(nrows + 1)
    if side == "left":
        return bisect.bisect_left(rates, target, key=lambda k: k / nrows)
    return bisect.bisect_right(rates, target, key=lambda k: k / nrows) - 1


def exceedance_boundary(ends, target: float, strict: bool = False, starts=None,
                        nrows: int | None = None, symbol: str = "r") -> tuple:
    """Boundary c > 0 at which alpha(c), the fraction of rows that go,
    meets the target.

    A row goes at c exactly when c lies in one of its disjoint intervals
    [start, end), so alpha(c) = (#{starts <= c} - #{ends <= c}) / nrows.
    Empty intervals are left out unless they start at 0. ``starts=None``
    starts every interval at 0, making each end a go limit U (the row
    goes when c < U); ``nrows`` defaults to one row per interval.

    alpha need not be monotone. ``strict`` takes the step from the
    smallest c* with alpha <= target at every c >= c*; the default takes
    the nearer of it and the step just below c*, ties to the lower alpha.
    The boundary lies midway between the step's neighbouring event values
    (clipped to 0 below, one past the largest value above). A warning
    names two boundaries when alpha falls to the target below c* and
    climbs back above it. Sorts float64 ``ends`` and ``starts`` in place;
    a call costs those two sorts and a scan of the events near the
    crossing.
    Returns (boundary, achieved alpha); raises CalibrationError when
    alpha(0+) <= target. ``symbol`` names the boundary in messages.
    """
    ends = np.asarray(ends, dtype=float)
    starts = None if starts is None else np.asarray(starts, dtype=float)
    nrows = ends.size if nrows is None else int(nrows)
    if (ends.ndim != 1 or (starts is not None and starts.shape != ends.shape) or nrows < 1
            or not 0.0 < target < 1.0):
        raise ValueError("need matching starts and ends for at least one row "
                         "and a target in (0, 1)")
    ends.sort()
    if starts is not None:
        starts.sort()

    def count(c, side="right"):
        # rows going at c ("right"), or just below c ("left"); with every
        # start at 0, #{starts <= c} is ends.size when c >= 0, else 0
        begun = (ends.size * bool(c >= 0.0 if side == "right" else c > 0.0)
                 if starts is None else np.searchsorted(starts, c, side))
        return int(begun - np.searchsorted(ends, c, side))

    k = row_count(target, nrows, "right")
    if count(0.0) <= k:
        raise CalibrationError(
            f"target alpha {target:.6g} is out of reach for a boundary {symbol} > 0: "
            f"alpha at {symbol} -> 0+ is {count(0.0) / nrows:.6g}")

    if starts is None:
        # the rise ends at the last start, 0; alpha only falls after it,
        # so there is no dip to scan
        cross = ends[ends.size - 1 - k]
    else:
        # A row count taken at the i-th sorted start (i + 1 - #{ends <= it})
        # or end is exact at the last of its ties. Find the last start after
        # which more than k rows go (a start at 0 does); from there only ends
        # pass, and c* is where rise + 1 - k of them have. It lies near the
        # top, so the window down from there starts small.
        top, width = starts.size, _HEAD
        while True:
            low = max(top - width, 0)
            over = np.flatnonzero(np.arange(low + 1, top + 1)
                                  - np.searchsorted(ends, starts[low:top], "right") > k)
            if over.size:
                break
            top, width = low, min(2 * width, _SLICE)
        rise = low + int(over[-1])
        cross = ends[rise - k]

        # alpha first falls to the target at an end; one below starts[rise]
        # means it climbs back. A run's counts are at least its first end's
        # count less the run length, so only runs near k are scanned.
        first, last = np.searchsorted(ends, 0.0, "right"), np.searchsorted(ends, starts[rise])
        heads = np.arange(first, last, _HEAD)
        near = (np.searchsorted(starts, ends[heads], "right")
                - np.minimum(heads + _HEAD, last) <= k)
        for low in heads[near]:
            top = min(low + _HEAD, last)
            dip = np.flatnonzero(np.searchsorted(starts, ends[low:top], "right")
                                 - np.arange(low + 1, top + 1) <= k)
            if dip.size:
                fall, climb = ends[low + dip[0]], starts[rise]
                warnings.warn(f"alpha is not monotone in the boundary: {symbol}={fall:.6g} "
                              f"gives {count(fall) / nrows:.6g} but {symbol}={climb:.6g} "
                              f"gives {count(climb) / nrows:.6g}", stacklevel=3)
                break

    low_alpha, high_alpha = count(cross) / nrows, count(cross, "left") / nrows
    # starts at 0 lie below cross > 0, and 0 bounds the boundary from below anyway
    events = (ends,) if starts is None else (starts, ends)
    if strict or (target - high_alpha) ** 2 >= (target - low_alpha) ** 2:
        # c in [cross, next value up): alpha = low_alpha <= target
        up = [v[i] for v in events if (i := np.searchsorted(v, cross, "right")) < v.size]
        return float(0.5 * (cross + min(up, default=cross + 2.0))), low_alpha
    # c in [next value down, cross): alpha = high_alpha > target
    down = [v[i - 1] for v in events if (i := np.searchsorted(v, cross, "left")) > 0]
    return float(0.5 * (max(down + [0.0]) + cross)), high_alpha


def smallest_passing(power: Callable[[int], float], target: float, nmin: int,
                     nmax: int, alpha: float, nsims: int, opening=()) -> int:
    """Smallest n in [nmin, nmax] with power(n) >= target, for power
    non-decreasing in n; each n is probed once. Up to the first pass it
    probes the sizes of ``opening``, increasing within [nmin, nmax], and
    then nmax unless the opening ends there. No opening suits a large n or
    a likely infeasible range, a gallop ladder a small n, and (n - 1, n) a
    size n known but for float rounding. Each later probe lies in the
    (failing, passing] bracket where Phi^-1(power), linear in sqrt(n)
    across the bracket, reaches the target (``_aim``): ``alpha``, the power
    as n -> 0, stands in for a failing probe at n = 0, and ``nsims``, the
    rows a power is a rate over, clips powers away from 0 and 1. Three
    probes that do not halve the bracket make the next a bisection. Raises
    InfeasibleDesignError when power at nmax falls short; warns when power
    falls between probes.
    """
    ladder = list(opening) if opening and opening[-1] == nmax else [*opening, nmax]
    if not 1 <= nmin < nmax or any(a >= b for a, b in zip([nmin - 1] + ladder, ladder)):
        raise ValueError("require 1 <= nmin < nmax and an opening increasing within "
                         "[nmin, nmax]")
    record = {0: alpha}  # a stand-in, dropped before the monotonicity check
    lo = nmin - 1  # a virtual failing size, never probed
    for hi in ladder:
        record[hi] = power(hi)
        if record[hi] >= target:
            break
        lo = hi
    else:
        raise InfeasibleDesignError(f"no per-stage size up to {nmax} reaches power "
                                    f"{target:.4g}: power at nmax is {record[nmax]:.4f}")
    passed, widths = True, [hi - lo]
    while hi - lo > 1:
        # bisect when three probes have not halved the bracket
        slow = len(widths) > 3 and widths[-1] > widths[-4] / 2
        mid = (lo + hi + 1) // 2 if slow else _aim(record, lo, hi, target, passed, nsims)
        record[mid] = power(mid)
        passed = record[mid] >= target
        if passed:
            hi = mid
        else:
            lo = mid
        widths.append(hi - lo)
    del record[0]

    probed = sorted(record)
    for below, above in zip(probed, probed[1:]):
        if record[below] > record[above]:
            warnings.warn(f"power is not monotone across probed sizes: n={below} gives "
                          f"{record[below]:.4f} but n={above} gives {record[above]:.4f}",
                          stacklevel=3)
    return hi


def _aim(record: dict, lo: int, hi: int, target: float, passed: bool, nsims: int) -> int:
    """The next size to probe in the bracket (lo, hi] with hi - lo > 1.

    Every probe up to lo failed and every probe from hi on passed.
    Phi^-1(power), with power clipped to [1 / (2 nsims), 1 - 1 / (2 nsims)],
    is interpolated linearly in sqrt(n) between hi and lo, or the stand-in
    at n = 0 when lo was never probed, and the probe goes to the smallest
    n it predicts to pass; after a passing probe, to one below, so that a
    failing probe can close the bracket. It is the midpoint when the
    stand-in does not fail (alpha >= target) or the clipped probits tie
    (nsims so small that a power says only pass or fail).
    """
    below = lo if lo in record else 0
    edge = 0.5 / nsims
    low, high = (ndtri(min(max(record[n], edge), 1.0 - edge)) for n in (below, hi))
    if record[below] >= target or low == high:
        return (lo + hi + 1) // 2
    root = math.sqrt(below) + ((ndtri(target) - low) / (high - low)
                               * (math.sqrt(hi) - math.sqrt(below)))
    return min(max(math.ceil(root * root) - passed, lo + 1), hi - 1)
