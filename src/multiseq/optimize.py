"""Searches: boundary calibration and the smallest sample size.

The Monte Carlo rejection probability is a non-increasing step function
of the boundary. When each row goes exactly below a limit of its own,
``exceedance_boundary`` reads the boundary off the limits' order
statistics; otherwise ``solve_decreasing`` bisects the crossing, which
is robust on step functions where a golden-section minimiser can stall
on the flat plateaus between simulated order statistics.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .errors import CalibrationError, InfeasibleDesignError

__all__ = ["exceedance_boundary", "solve_decreasing", "smallest_passing"]

_MAX_EXPANSIONS = 8


def solve_decreasing(fn: Callable[[float], float], target: float,
                     bracket: tuple = (0.3, 12.0), tol: float = 1e-4,
                     strict: bool = False) -> tuple:
    """Solve fn(x) = target for monotone non-increasing fn.

    Parameters
    ----------
    fn : callable
        Monotone non-increasing function of a positive scalar (a Monte
        Carlo estimate; step-valued is fine).
    target : float
        Level to hit.
    bracket : (lo, hi)
        Initial bracket; expanded geometrically while fn is on the same
        side of the target at both ends.
    tol : float
        Bracket width at which bisection stops.
    strict : bool
        If True return the smallest x found with fn(x) <= target; by
        default return whichever end of the final bracket minimises
        (target - fn(x))**2.

    Returns
    -------
    (x, achieved) : the solved constant and fn(x) there.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    f_lo, f_hi = fn(lo), fn(hi)
    expansions = 0
    while f_lo <= target and lo > 1e-6 and expansions < _MAX_EXPANSIONS:
        lo /= 2.0
        f_lo = fn(lo)
        expansions += 1
    while f_hi > target and expansions < _MAX_EXPANSIONS:
        hi *= 2.0
        f_hi = fn(hi)
        expansions += 1
    if f_lo <= target or f_hi > target:
        raise CalibrationError(
            f"could not bracket target {target:.6g}: "
            f"fn({lo:.6g}) = {f_lo:.6g}, fn({hi:.6g}) = {f_hi:.6g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid > target:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    if strict:
        return hi, f_hi
    if (target - f_lo) ** 2 < (target - f_hi) ** 2:
        return lo, f_lo
    return hi, f_hi


def exceedance_boundary(limits, target: float, strict: bool = False) -> tuple:
    """Boundary r > 0 at which alpha(r) = #{limits > r} / N meets the target.

    alpha(r) is a non-increasing step function that steps down at each
    distinct limit. ``strict`` picks the step with the largest alpha at
    or below the target; by default the nearer of it and the next step
    up, ties to the lower alpha. r lies midway between the step's ends,
    so it equals no limit: its lower end is clipped to 0, and above the
    largest limit r is one past it. Returns (r, achieved alpha). Raises
    CalibrationError when alpha(0+) <= target, since then no r > 0
    crosses it.
    """
    v = np.sort(np.asarray(limits, dtype=float))
    n = v.size
    if n == 0 or not 0.0 < target < 1.0:
        raise ValueError("need at least one limit and a target in (0, 1)")
    # k: the largest row count with k / n <= target
    k = int(np.floor(target * n))
    if (k + 1) / n <= target:
        k += 1
    elif k / n > target:
        k -= 1
    cross = v[n - 1 - k]  # the (k + 1)-th largest limit
    if not cross > 0:
        raise CalibrationError(
            f"target alpha {target:.6g} is out of reach for a boundary r > 0: "
            f"alpha at r -> 0+ is {np.count_nonzero(v > 0) / n:.6g}")
    above = int(np.searchsorted(v, cross, side="right"))
    below = int(np.searchsorted(v, cross, side="left"))
    low_alpha, high_alpha = (n - above) / n, (n - below) / n
    if strict or (target - high_alpha) ** 2 >= (target - low_alpha) ** 2:
        # r in [cross, next limit up): alpha = low_alpha <= target
        top = v[above] if above < n else cross + 2.0
        return float(0.5 * (cross + top)), low_alpha
    # r in [next limit down, cross): alpha = high_alpha > target
    bottom = v[below - 1] if below > 0 else 0.0
    return float(0.5 * (max(bottom, 0.0) + cross)), high_alpha


def smallest_passing(power: Callable[[int], float], target: float, nmin: int,
                     nmax: int, gallop: bool = False) -> int:
    """Smallest n in [nmin, nmax] with power(n) >= target, for power
    non-decreasing in n; each n is probed once. ``gallop`` probes
    nmin - 1 + 1, 2, 4, ... (capped at nmax) up to the first pass, about
    2 * log2(n) probes in all; otherwise nmax goes first. The (failing,
    passing] bracket is then bisected. Raises InfeasibleDesignError when
    power at nmax falls short; warns when power falls between probes.
    """
    if not 1 <= nmin <= nmax:
        raise ValueError("require 1 <= nmin <= nmax")
    record = {}
    ladder = ([min(nmin - 1 + 2 ** i, nmax) for i in range((nmax - nmin).bit_length() + 1)]
              if gallop else [nmax])
    lo = nmin - 1  # a virtual failing size, never probed
    for hi in ladder:
        record[hi] = power(hi)
        if record[hi] >= target:
            break
        lo = hi
    else:
        raise InfeasibleDesignError(f"no per-stage size up to {nmax} reaches power "
                                    f"{target:.4g}: power at nmax is {record[nmax]:.4f}")
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        record[mid] = power(mid)
        if record[mid] < target:
            lo = mid
        else:
            hi = mid

    probed = sorted(record)
    for below, above in zip(probed, probed[1:]):
        if record[below] > record[above]:
            warnings.warn(f"power is not monotone across probed sizes: n={below} gives "
                          f"{record[below]:.4f} but n={above} gives {record[above]:.4f}",
                          stacklevel=3)
    return hi
