"""multiseq._normal against independent references.

``ndtri`` ports Cephes and must return exactly what scipy's compiled
Cephes code returns: equal floats, and equal bits where the result is NaN.
``ndtr`` takes the libm's ``erfc``; mpmath at 96 bits checks it to within
a few ulps of the exact 0.5 erfc(t) at its own rounded argument t.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from multiseq._normal import ndtr, ndtri
from multiseq.dtl import conditional_power

RNG = np.random.default_rng(20201)


def assert_same_bits(got, want, inputs):
    differ = got.view(np.uint64) != want.view(np.uint64)
    first = f"{inputs[differ][:5]!r}: {got[differ][:5]!r} != {want[differ][:5]!r}"
    assert not differ.any(), f"{np.count_nonzero(differ)} of {len(inputs)} differ, first {first}"


def nan_with_bits(*words) -> np.ndarray:
    return np.array(words, dtype=np.uint64).view(float)


def around(*points, steps=2_000) -> np.ndarray:
    """Every float within ``steps`` ulps of each point, so that a branch
    point a comparison splits on is among them (for ndtri's x < 8, 100 are)."""
    return np.concatenate([p + np.arange(-steps, steps + 1) * np.spacing(p) for p in points])


NDTRI_INPUTS = {
    "uniform": RNG.random(60_000),
    "2 decimals": np.round(RNG.random(1_000), 2),
    "3 decimals": np.round(RNG.random(5_000), 3),
    "every 3-decimal value": np.arange(1001) / 1000,
    "tails to 1e-300": 10.0 ** -RNG.uniform(0, 300, 30_000),
    "subnormals": np.concatenate([10.0 ** -RNG.uniform(308, 323.3, 2_000), [5e-324]]),
    "within 1e-16 of 1": 1.0 - RNG.uniform(0, 1e-16, 2_000),
    "upper tail": 1.0 - 10.0 ** -RNG.uniform(1, 16, 10_000),
    "last steps below 1": 1.0 - np.arange(1, 2_001) * 2.0 ** -53,
    "branch points": around(np.exp(-2), 1 - np.exp(-2), np.exp(-32), 0.5),
    "0, 1 and outside [0, 1]": np.array([0.0, -0.0, 1.0, -5e-324, -1e-300, -1.0, 1.0 + 2.0 ** -52,
                                         2.0, np.inf, -np.inf]),
    "NaNs": nan_with_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                          0xFFF8000000000123),
}

# ndtr's error bound: glibc 2.36's erfc was measured at up to 3.81 ulps on
# 200,000 uniform draws on [-1.78, -1.18] (where erfc's argument is in
# [0.84, 1.26], its worst interval) and at most 2.76 on 200,000 on [-37.5, 40]
NDTR_ULPS = 4
NDTR_INPUTS = {
    "normal": RNG.normal(0.0, 3.0, 8_000),
    "wide normal": RNG.normal(0.0, 15.0, 4_000),
    "uniform on [-37.5, 40]": RNG.uniform(-37.5, 40.0, 10_000),
    "erfc argument in [0.84, 1.26]": RNG.uniform(-1.78, -1.18, 3_000),
    # where the Cephes port switched between its erf and erfc forms
    "branch points": around(1.0, -1.0, np.sqrt(2), -np.sqrt(2), 8 * np.sqrt(2), -8 * np.sqrt(2),
                            np.sqrt(2 * 709.782712893384), -np.sqrt(2 * 709.782712893384),
                            steps=250),
    "deep lower tail": -RNG.uniform(37.0, 38.7, 1_000),
}


def ulps_from_exact(got, inputs) -> np.ndarray:
    """|got - 0.5 erfc(t)| at t = -a sqrt(1/2) rounded, in ulps of the exact value."""
    errors = []
    with mpmath.workprec(96):
        for g, t in zip(got.tolist(), (inputs * -math.sqrt(0.5)).tolist()):
            exact = mpmath.erfc(t) / 2
            errors.append(float(abs(g - exact)) / math.ulp(float(exact)))
    return np.array(errors)


def test_enough_inputs():
    assert sum(map(len, NDTRI_INPUTS.values())) >= 100_000
    assert sum(map(len, NDTR_INPUTS.values())) >= 30_000


@pytest.mark.parametrize("name", list(NDTRI_INPUTS))
def test_ndtri_matches_scipy_bit_for_bit(name):
    inputs = NDTRI_INPUTS[name]
    assert_same_bits(np.array([ndtri(y) for y in inputs.tolist()]), special.ndtri(inputs), inputs)


@pytest.mark.parametrize("name", list(NDTR_INPUTS))
def test_ndtr_is_within_4_ulps_of_mpmath(name):
    inputs = NDTR_INPUTS[name]
    got = ndtr(inputs)
    errors = ulps_from_exact(got, inputs)
    worst = errors.argmax()
    assert errors[worst] <= NDTR_ULPS, f"ndtr({inputs[worst]!r}) is {errors[worst]:.2f} ulps off"
    for a, want in zip(inputs[:100], got[:100]):  # one 0-d array at a time
        one = ndtr(a)
        assert isinstance(one, np.ndarray) and one.shape == () and one == want


def test_ndtr_at_the_ends():
    assert ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0
    assert ndtr(0.0) == 0.5 and ndtr(-0.0) == 0.5
    np.testing.assert_array_equal(ndtr(np.array([[-np.inf, -0.0], [0.0, np.inf]])),
                                  [[0.0, 0.5], [0.5, 1.0]])


def test_ndtr_of_nan_is_nan():
    nans = nan_with_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123)
    assert np.isnan(ndtr(nans)).all()
    assert all(np.isnan(ndtr(a)) for a in nans)


def test_ndtri_ends_and_domain():
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
    assert all(np.isnan(ndtri(y)) for y in (-1e-300, 1.0 + 2.0 ** -52, np.inf))


class TestConditionalPower:
    def test_scalar_input_gives_a_float(self):
        cp = conditional_power(1.0, 2.0, 32.0, 64.0, 0.4)
        assert type(cp) is float
        assert type(conditional_power(np.float64(1.0), 2.0, 32.0, 64.0, 0.4)) is float

    def test_broadcasts_and_keeps_the_shape(self):
        z = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        effect = np.array([0.2, 0.3, 0.4, 0.5])
        info = np.array([[16.0], [32.0], [48.0]])
        cp = conditional_power(z, 2.0, info, 2.0 * info, effect)
        assert cp.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            assert cp[i, j] == conditional_power(z[i, j], 2.0, info[i, 0], 2.0 * info[i, 0],
                                                 effect[j])
        assert conditional_power(np.zeros((0, 2)), 2.0, 32.0, 64.0, 0.4).shape == (0, 2)

    def test_equals_ndtr_of_its_argument(self):
        z = np.random.default_rng(5).normal(0.0, 2.0, 500)
        i1, i2, r, effect = 32.0, 64.0, 2.1, 0.4
        gap = i2 - i1
        arg = (z * np.sqrt(i1) - r * np.sqrt(i2) + gap * effect) / np.sqrt(gap)
        assert_same_bits(conditional_power(z, r, i1, i2, effect), ndtr(arg), arg)
