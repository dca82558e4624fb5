import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from flradapt import functionals
from flradapt.functionals import (
    Custom,
    DerivativeEval,
    LocalAverage,
    PointEval,
    coefficients,
    coefficients_at,
    gram_prefix,
)

SQRT2 = math.sqrt(2.0)


def psi(j, t):
    """Independent scalar evaluation of the j-th basis function."""
    if j == 1:
        return 1.0
    k = j // 2
    if j % 2 == 0:
        return SQRT2 * math.cos(2 * math.pi * k * t)
    return SQRT2 * math.sin(2 * math.pi * k * t)


class TestCoefficientValues:
    def test_point_eval_at_zero(self):
        np.testing.assert_allclose(
            coefficients(PointEval(t0=0.0), 5),
            [1.0, SQRT2, 0.0, SQRT2, 0.0],
            atol=1e-15,
        )

    def test_point_eval_matches_basis(self):
        np.testing.assert_allclose(
            coefficients(PointEval(t0=0.37), 9),
            [psi(j, 0.37) for j in range(1, 10)],
            rtol=0.0, atol=1e-15,
        )

    def test_full_interval_average_first_coefficient(self):
        assert coefficients(LocalAverage(b=1.0), 1)[0] == 1.0

    def test_full_interval_average_kills_oscillations(self):
        np.testing.assert_allclose(
            coefficients(LocalAverage(b=1.0), 3), [1.0, 0.0, 0.0], atol=1e-15
        )

    def test_first_derivative_at_zero(self):
        np.testing.assert_allclose(
            coefficients(DerivativeEval(t0=0.0, q=1), 5),
            [0.0, 0.0, 2 * SQRT2 * math.pi, 0.0, 4 * SQRT2 * math.pi],
            atol=1e-13,
        )

    def test_zeroth_derivative_is_point_eval(self):
        np.testing.assert_array_equal(
            coefficients(DerivativeEval(t0=0.42, q=0), 7),
            coefficients(PointEval(t0=0.42), 7),
        )

    def test_custom_padding_and_truncation(self):
        spec = Custom(coeffs=(1.0, -2.0, 3.0))
        np.testing.assert_array_equal(coefficients(spec, 2), [1.0, -2.0])
        np.testing.assert_array_equal(coefficients(spec, 5), [1.0, -2.0, 3.0, 0.0, 0.0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            coefficients(PointEval(t0=0.5), 0)
        with pytest.raises(ValueError):
            PointEval(t0=1.5)
        with pytest.raises(ValueError):
            PointEval(t0=float("nan"))
        with pytest.raises(ValueError):
            LocalAverage(b=0.0)
        with pytest.raises(ValueError):
            LocalAverage(b=float("nan"))
        with pytest.raises(ValueError):
            DerivativeEval(t0=0.5, q=-1)
        with pytest.raises(ValueError, match="q must be a non-negative integer"):
            DerivativeEval(t0=0.3, q=True)
        with pytest.raises(ValueError, match="q must be a non-negative integer"):
            DerivativeEval(t0=0.3, q=False)
        with pytest.raises(ValueError):
            Custom(coeffs=(1.0, float("inf")))


ALL_KINDS = [
    PointEval(t0=0.37),
    DerivativeEval(t0=0.37, q=0),
    DerivativeEval(t0=0.37, q=1),
    DerivativeEval(t0=0.37, q=2),
    LocalAverage(b=0.3),
    LocalAverage(b=1.0),
    Custom(coeffs=(1.0, -2.0, 3.0)),
]


@pytest.mark.parametrize("spec", ALL_KINDS)
class TestIndexBlocks:
    """The prefix form and every block of indices evaluate each entry alike,
    bit for bit, which the blocked oracle tail sums rely on."""

    def test_prefix_is_slice_of_longer_prefix(self, spec):
        full = coefficients(spec, 10 ** 4)
        for m in (1, 2, 3, 4, 7, 64, 9999):
            assert np.array_equal(coefficients(spec, m), full[:m])

    def test_block_is_slice_of_prefix(self, spec):
        full = coefficients(spec, 10 ** 4)
        for lo, hi in ((0, 1), (1, 2), (2, 5), (0, 8192), (8192, 10 ** 4), (3, 9999)):
            block = coefficients_at(spec, lo, hi)
            assert np.array_equal(block, full[lo:hi])
            assert not np.any(np.signbit(block[block == 0.0]))

    def test_first_coefficient(self, spec):
        first = coefficients_at(spec, 0, 1)[0]
        if isinstance(spec, DerivativeEval) and spec.q > 0:
            assert first == 0.0
        elif isinstance(spec, Custom):
            assert first == spec.coeffs[0]
        else:
            assert first == 1.0


def coefficients_where(spec, j):
    """The coefficients at the integer array ``j`` as they were evaluated
    before each branch ran on its own parity: both branches at every index,
    picked by ``np.where``."""
    if isinstance(spec, Custom):
        out = np.zeros(j.shape)
        inside = j <= len(spec.coeffs)
        out[inside] = np.asarray(spec.coeffs)[j[inside] - 1]
        return out
    k = j // 2
    even = j % 2 == 0
    if isinstance(spec, LocalAverage):
        wb = 2.0 * np.pi * k * spec.b
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(even, SQRT2 * np.sin(wb) / wb,
                           SQRT2 * (1.0 - np.cos(wb)) / wb)
        first = 1.0
    elif isinstance(spec, DerivativeEval) and spec.q > 0:
        w = 2.0 * np.pi * k
        arg = w * spec.t0 + spec.q * np.pi / 2.0
        amp = SQRT2 * w ** spec.q
        out = np.where(even, amp * np.cos(arg), amp * np.sin(arg))
        first = 0.0
    else:
        arg = 2.0 * np.pi * k * spec.t0
        out = np.where(even, SQRT2 * np.cos(arg), SQRT2 * np.sin(arg))
        first = 1.0
    out[j == 1] = first
    return out


@pytest.mark.parametrize("t0", [0.3, 0.123456, 0.0, 1.0])
@pytest.mark.parametrize("lo", [0, 3, 4, 5, 999_000])
@pytest.mark.parametrize("length", [1, 2, 17, 8192])
def test_parity_branches_match_the_where_form(t0, lo, length):
    specs = [PointEval(t0=t0), DerivativeEval(t0=t0, q=1), DerivativeEval(t0=t0, q=2),
             LocalAverage(b=max(t0, 0.05)), Custom(coeffs=tuple(np.linspace(-1, 1, 9)))]
    j = np.arange(lo + 1, lo + length + 1)
    for spec in specs:
        got = coefficients_at(spec, lo, lo + length)
        assert got.tobytes() == coefficients_where(spec, j).tobytes(), spec


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestMemoized:
    """coefficients and gram_prefix hand out one read-only array per (spec, m)
    holding exactly the bits of an uncached evaluation."""

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_read_only(self, spec):
        for array in (coefficients(spec, 5), gram_prefix(spec, 5)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
            with pytest.raises(ValueError):
                array *= 2.0

    @pytest.mark.parametrize("m", [1, 2, 7, 64, 9000])
    def test_bitwise_equal_to_uncached(self, m):
        specs = ALL_KINDS + [PointEval(t0=0.0), PointEval(t0=-0.0),
                             DerivativeEval(t0=0.0, q=0), DerivativeEval(t0=-0.0, q=0),
                             Custom(coeffs=(0.0, -0.0, 1.0))]
        for spec in specs:
            want = coefficients_at(spec, 0, m)
            for _ in range(2):  # cold, then cached
                assert bits(coefficients(spec, m)) == bits(want)
                assert bits(gram_prefix(spec, m)) == bits(np.cumsum(want * want))

    def test_equal_specs_share_bits(self):
        # -0.0 == 0.0 and the two specs hash alike, so they must not differ in
        # the sign of a zero coefficient either (j = 3, 5, ... at t0 = 0)
        assert PointEval(t0=-0.0) == PointEval(t0=0.0)
        assert not np.signbit(PointEval(t0=-0.0).t0)
        assert not np.signbit(DerivativeEval(t0=-0.0, q=0).t0)
        assert not np.signbit(Custom(coeffs=(-0.0, 1.0)).coeffs[0])
        cold = coefficients_at(PointEval(t0=-0.0), 0, 7)
        assert bits(coefficients(PointEval(t0=0.0), 7)) == bits(cold)
        assert bits(coefficients(PointEval(t0=-0.0), 7)) == bits(cold)

    def test_one_array_per_spec_and_dimension(self):
        spec = LocalAverage(b=0.45)
        assert coefficients(spec, 6) is coefficients(LocalAverage(b=0.45), 6)
        assert gram_prefix(spec, 6) is gram_prefix(spec, 6)

    def test_dimension_checked_before_the_cache(self):
        spec = PointEval(t0=0.3)
        gram_prefix(spec, 3)
        coefficients(spec, 3)
        # 3.0 == 3 and hashes alike, but is not an integer dimension
        with pytest.raises(ValueError):
            gram_prefix(spec, 3.0)
        with pytest.raises(ValueError):
            coefficients(spec, 3.0)


class TestGram:
    # the coefficient mass at m is the last entry of gram_prefix(spec, m)
    def test_point_eval_at_zero(self):
        assert gram_prefix(PointEval(t0=0.0), 2)[-1] == pytest.approx(3.0, rel=1e-15)

    def test_full_interval_average(self):
        assert gram_prefix(LocalAverage(b=1.0), 3)[-1] == pytest.approx(1.0, rel=1e-15)

    @given(st.integers(min_value=1, max_value=60),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_dimension(self, m, t0):
        spec = PointEval(t0=t0)
        assert gram_prefix(spec, m + 1)[-1] >= gram_prefix(spec, m)[-1]

    def test_prefix_matches_scalar(self):
        # each entry against the exactly summed squares of its prefix
        spec = LocalAverage(b=0.3)
        prefix = functionals.gram_prefix(spec, 12)
        exact = [math.fsum(c * c for c in coefficients(spec, m).tolist())
                 for m in range(1, 13)]
        np.testing.assert_allclose(prefix, exact, rtol=1e-14)
        assert np.all(np.diff(prefix) >= 0)


class TestQuadratureCrossCheck:
    # full-depth check (j <= 200, all four window widths) lives in acceptance
    @pytest.mark.parametrize("b", [0.25, 1.0])
    def test_local_average_against_quadrature(self, b):
        spec = LocalAverage(b=b)
        coeff = coefficients(spec, 40)
        for j in range(1, 41):
            val, _ = quad(lambda t: psi(j, t), 0.0, b,
                          epsabs=1e-13, epsrel=1e-13, limit=400)
            assert abs(coeff[j - 1] - val / b) < 1e-10


class TestFiniteDifferenceCrossCheck:
    @pytest.mark.parametrize("q", [1, 2])
    def test_derivative_against_central_differences(self, q):
        t0, h = 1 / math.pi, 1e-5
        spec = DerivativeEval(t0=t0, q=q)
        coeff = coefficients(spec, 30)
        for j in range(1, 31):
            if q == 1:
                fd = (psi(j, t0 + h) - psi(j, t0 - h)) / (2 * h)
            else:
                fd = (psi(j, t0 + h) - 2 * psi(j, t0) + psi(j, t0 - h)) / h ** 2
            denom = max(abs(coeff[j - 1]), abs(fd))
            if denom > 0:
                assert abs(coeff[j - 1] - fd) <= 1e-4 * denom


class TestReconstruction:
    """coefficients(spec, m) . c must equal the functional applied to the
    finite expansion sum_j c_j psi_j, evaluated by independent means."""

    def setup_method(self):
        rng = np.random.default_rng(99)
        self.m = 17
        self.c = rng.uniform(-2, 2, self.m)

    def h(self, t):
        return sum(self.c[j - 1] * psi(j, t) for j in range(1, self.m + 1))

    def test_point_value(self):
        spec = PointEval(t0=0.61)
        lhs = float(coefficients(spec, self.m) @ self.c)
        assert abs(lhs - self.h(0.61)) < 1e-10

    def test_average_value(self):
        spec = LocalAverage(b=0.45)
        lhs = float(coefficients(spec, self.m) @ self.c)
        val, _ = quad(self.h, 0.0, 0.45, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert abs(lhs - val / 0.45) < 1e-10

    def test_derivative_value(self):
        spec = DerivativeEval(t0=0.61, q=1)
        lhs = float(coefficients(spec, self.m) @ self.c)
        h = 1e-6
        fd = (self.h(0.61 + h) - self.h(0.61 - h)) / (2 * h)
        assert abs(lhs - fd) < 1e-4 * max(1.0, abs(fd))


@pytest.mark.parametrize(
    "spec", [PointEval(t0=0.3), DerivativeEval(t0=0.3, q=1), LocalAverage(b=0.4)]
)
def test_mean_square_density_tracks_average_mass(spec):
    # the density describes oscillation-averaged squared coefficients; its
    # windowed mean must track the actual windowed mean closely
    amp, power = functionals.mean_square_density(spec)
    coeff = coefficients(spec, 4001)
    j = np.arange(1, 4002)
    window = slice(2000, 4001)
    actual = float(np.mean(coeff[window] ** 2))
    predicted = float(np.mean(amp * j[window] ** (2 * power)))
    assert 0.7 * predicted <= actual <= 1.4 * predicted
