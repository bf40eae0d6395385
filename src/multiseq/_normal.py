"""The standard normal CDF and its inverse, as Cephes computes them.

``ndtr`` and ``ndtri`` port the Cephes Math Library routines of the same
names (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
1989). ``ndtri`` takes one Python float and follows the C line for line;
``ndtr`` takes an array, so that a 10,001-point ``cp_lookup.csv`` stays
fast, and runs the same operations on each element. Each rational
approximation is evaluated in Horner form (``_polevl``, and ``_p1evl``
whose leading coefficient is 1) with one IEEE operation per step in the C
order, and the logarithm, square root and exponential come from the
platform libm through ``math``. So the results equal the compiled Cephes
code's bit for bit (``tests/test_normal.py``) and depend on nothing beyond
the libm.
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

# erfc: P/Q on 1 <= x < 8 and R/S on x >= 8; erf: T/U on |x| <= 1
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_SQRTH = 7.07106781186547524401E-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)


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
    its shape (0-d for a scalar): 0.5 + 0.5 erf(a / sqrt 2) where |a| < 1,
    otherwise 0.5 erfc(|a| / sqrt 2), complemented where a > 0; NaN at NaN.

    The rational functions run on arrays: numpy rounds each add, multiply
    and divide as C does. The exponential is ``math.exp`` per element,
    since numpy's own exp may round differently from the libm's.
    """
    x = np.asarray(a, dtype=float) * _SQRTH
    z = np.abs(x)
    y = np.full(x.shape, np.nan)
    inner = z < _SQRTH
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = z >= _SQRTH
    y[outer] = 0.5 * _erfc(z[outer])
    up = outer & (x > 0)
    y[up] = 1.0 - y[up]
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf on |x| <= 1, the only part ndtr reaches."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes erfc at x >= sqrt(1/2), the only part ndtr reaches: 1 - erf
    below 1, else exp(-x^2) times a rational function, 0 once exp(-x^2)
    would underflow."""
    y = np.zeros(x.shape)
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    z = -x * x
    tail = ~near & (z >= -_MAXLOG)
    x, z = x[tail], z[tail]
    z = np.fromiter(map(math.exp, z.tolist()), float, len(z))
    mid = x < 8.0
    p = np.where(mid, _polevl(x, _P), _polevl(x, _R))
    q = np.where(mid, _p1evl(x, _Q), _p1evl(x, _S))
    y[tail] = z * p / q
    return y
