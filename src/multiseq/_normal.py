"""The standard normal CDF and its inverse.

``ndtr`` is 0.5 erfc(-a / sqrt 2) with the platform libm's ``erfc``
(through ``math``), one element at a time. ``ndtri`` takes one Python
float and ports the Cephes Math Library routine of that name (S. L.
Moshier, *Methods and Programs for Mathematical Functions*, 1989) line
for line: each rational approximation is evaluated in Horner form
(``_polevl``, and ``_p1evl`` whose leading coefficient is 1) with one IEEE
operation per step in the C order, and the logarithm and square root come
from the libm. So ``ndtri`` equals the compiled Cephes code (scipy's)
bit for bit, and ``ndtr`` is as accurate as the libm's ``erfc``
(``tests/test_normal.py``). Neither depends on anything beyond the libm.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

# ndtri: P0/Q0 in y - 0.5 for exp(-2) < y < 1 - exp(-2); otherwise P1/Q1 and
# P2/Q2 in 1/x, x = sqrt(-2 log y) of the nearer tail, for x < 8 and x >= 8
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """x with ndtr(x) = y0: -inf at 0, +inf at 1, NaN outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def ndtr(a) -> np.ndarray:
    """Standard normal CDF of each element of ``a``, as a float array of
    its shape (0-d for a scalar): 0.5 erfc(t) at t = -a sqrt(1/2), rounded;
    0 at -inf, 1 at +inf and NaN at NaN."""
    t = np.asarray(a, dtype=float) * -math.sqrt(0.5)
    erfc = np.fromiter(map(math.erfc, t.ravel().tolist()), float, t.size)
    return (0.5 * erfc).reshape(t.shape)
