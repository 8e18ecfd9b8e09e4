"""Special functions against independent oracles, quadrature, root finding."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy import special as sci_special

from gase.mathkernel import (BracketingError, QuadratureError, QuadratureSpec,
                             bessel_k0, bessel_k1, erfcx, find_root_bracketed,
                             integrate, integrate_semi_infinite, scaled_e1)
from gase.propagation import PowerLevel, PropagationEnvironment, affected_area_single

EULER_GAMMA = 0.5772156649015328606


def e1_series_oracle(x: float) -> float:
    """Independent oracle: the alternating series summed to machine precision."""
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 200):
        term *= -x / k
        total -= term / k
        if abs(term / k) < 1e-20:
            break
    return total


class TestExpIntegral:
    """E1 through its one implementation, the scaled form exp(x) * E1(x)."""

    def test_frozen_values(self):
        assert scaled_e1(0.1) == pytest.approx(math.exp(0.1) * 1.8229239584193907, rel=1e-12)
        assert scaled_e1(1.0) == pytest.approx(math.e * 0.21938393439552027, rel=1e-12)

    def test_against_series_oracle(self):
        for x in np.geomspace(1e-3, 1.0, 40):
            assert scaled_e1(float(x)) == pytest.approx(
                math.exp(x) * e1_series_oracle(float(x)), rel=1e-10)

    def test_against_scipy_large_arguments(self):
        for x in np.geomspace(1.0, 500.0, 60):
            assert scaled_e1(float(x)) == pytest.approx(
                float(sci_special.exp1(x) * np.exp(x)), rel=1e-10)

    def test_monotone_decay_to_zero(self):
        grid = [0.1, 1.0, 10.0, 100.0, 700.0, 1e8]
        vals = [scaled_e1(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 0.0 < scaled_e1(1e300) <= 1e-300

    def test_derivative_recurrence(self):
        # d/dx [exp(x) E1(x)] = exp(x) E1(x) - 1/x, checked by central difference
        for x in (0.5, 1.0, 2.0):
            h = 1e-5
            deriv = (scaled_e1(x + h) - scaled_e1(x - h)) / (2 * h)
            assert abs(deriv - (scaled_e1(x) - 1.0 / x)) <= 1e-8

    def test_domain_error(self):
        for bad in (0.0, -1.0, math.nan, math.inf, np.array([1.0, math.nan]),
                    np.array([1.0, math.inf])):
            with pytest.raises(ValueError):
                scaled_e1(bad)

    def test_array_input(self):
        x = np.array([0.5, 1.0, 2.0, 5.0])
        out = scaled_e1(x)
        assert out.shape == x.shape
        for xi, oi in zip(x, out):
            assert oi == pytest.approx(scaled_e1(float(xi)), rel=1e-14)


class TestScaledE1:
    def test_frozen_value(self):
        # product of the series oracle for E1 and exp
        assert scaled_e1(0.1) == pytest.approx(math.exp(0.1) * e1_series_oracle(0.1), rel=1e-12)
        assert scaled_e1(0.1) == pytest.approx(2.0146425447084517, rel=1e-12)

    def test_large_argument_asymptote(self):
        # ~ 1/x for large x, no overflow
        assert scaled_e1(700.0) == pytest.approx(1.0 / 700.0, rel=2e-3)
        assert scaled_e1(1e8) == pytest.approx(1e-8, rel=1e-7)

    def test_monotone_decreasing(self):
        grid = np.geomspace(1e-3, 1e3, 200)
        vals = scaled_e1(grid)
        assert np.all(np.diff(vals) < 0)

    def test_standard_bounds(self):
        # 1/(x+1) < exp(x) E1(x) < 1/x
        x = np.geomspace(1e-3, 1e3, 100)
        f = scaled_e1(x)
        assert np.all(f > 1.0 / (x + 1.0))
        assert np.all(f < 1.0 / x)

    def test_matches_product_definition(self):
        for x in (0.25, 0.999, 1.001, 3.0, 30.0, 300.0):
            assert scaled_e1(x) == pytest.approx(math.exp(x) * float(sci_special.exp1(x)), rel=1e-10)


class TestBesselK:
    def test_frozen_values(self):
        assert bessel_k0(1.0) == pytest.approx(0.4210244382, abs=5e-11)
        assert bessel_k1(1.0) == pytest.approx(0.6019072302, abs=5e-11)

    def test_integral_representation_oracle(self):
        # K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt, truncated where the
        # exponent reaches 60 so quad resolves the narrow large-x integrand
        for x in (0.3, 1.0, 2.5, 7.0, 19.0):
            upper = math.acosh(1.0 + 60.0 / x)
            k0_ref, _ = sci_integrate.quad(lambda t: math.exp(-x * math.cosh(t)), 0, upper)
            k1_ref, _ = sci_integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t), 0, upper)
            assert bessel_k0(x) == pytest.approx(k0_ref, rel=1e-9)
            assert bessel_k1(x) == pytest.approx(k1_ref, rel=1e-9)

    def test_accuracy_across_branch_joints(self):
        grid = np.geomspace(1e-3, 600.0, 300)
        assert np.allclose(bessel_k0(grid), sci_special.k0(grid), rtol=1e-8, atol=0)
        assert np.allclose(bessel_k1(grid), sci_special.k1(grid), rtol=1e-8, atol=0)

    def test_small_argument_limit_x_k1(self):
        for x in (1e-4, 1e-6, 1e-8):
            assert x * bessel_k1(x) == pytest.approx(1.0, abs=1e-7)

    def test_derivative_identity(self):
        # K0'(x) = -K1(x) by central finite difference
        for x in np.geomspace(0.1, 10.0, 20):
            h = 1e-6 * max(x, 1.0)
            deriv = (bessel_k0(x + h) - bessel_k0(x - h)) / (2 * h)
            assert deriv == pytest.approx(-bessel_k1(x), rel=1e-6)

    def test_domain_error(self):
        for fn in (bessel_k0, bessel_k1):
            for bad in (0.0, -2.0, math.nan, math.inf, np.array([1.0, math.nan]),
                        np.array([1.0, math.inf])):
                with pytest.raises(ValueError):
                    fn(bad)


class TestMpmathOracle:
    """40-digit mpmath references (DLMF 6.2.1, 10.32.9) across every branch and joint."""

    JOINTS = [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0 - 1e-12, 2.0, 2.0 + 1e-12,
              30.0 - 1e-9, 30.0, 30.0 + 1e-9]
    GRID = sorted([*np.geomspace(1e-6, 600.0, 80).tolist(), *JOINTS])

    @staticmethod
    def assert_close(value, ref):
        assert abs(value - float(ref)) <= 5e-14 * abs(float(ref))

    def test_scaled_e1(self):
        with mpmath.workdps(40):
            for x in [*self.GRID, 1e3, 1e6]:
                self.assert_close(scaled_e1(x), mpmath.exp(x) * mpmath.e1(x))

    def test_bessel_k0_k1(self):
        with mpmath.workdps(40):
            for x in self.GRID:
                self.assert_close(bessel_k0(x), mpmath.besselk(0, x))
                self.assert_close(bessel_k1(x), mpmath.besselk(1, x))


# log-uniform on [1e-6, 1e6], so every branch of every kernel is drawn
positive = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
kernel_settings = settings(derandomize=True, database=None, max_examples=200, deadline=1000)


class TestKernelProperties:
    @kernel_settings
    @given(positive)
    def test_scaled_e1_bounds(self, x):
        assert 1.0 / (x + 1.0) < scaled_e1(x) < 1.0 / x

    @kernel_settings
    @given(positive)
    def test_k0_below_k1(self, x):
        k0, k1 = bessel_k0(x), bessel_k1(x)
        if x <= 700.0:
            assert 0.0 < k0 < k1
        else:  # exp(-x) underflows
            assert 0.0 <= k0 <= k1

    @kernel_settings
    @given(st.lists(positive, min_size=1, max_size=40))
    def test_array_equals_scalar_calls(self, xs):
        arr = np.array(xs)
        for fn in (scaled_e1, bessel_k0, bessel_k1):
            assert fn(arr).tolist() == [fn(x) for x in xs]


class TestErfcGamma:
    """Gamma enters through the closed-form area (2 pi/a) Gamma(2/a) (P/P_min)^(2/a)."""

    @staticmethod
    def gamma_factor(a: float) -> float:
        env = PropagationEnvironment(a, 1e-13, 1e-3)
        area = affected_area_single(env, PowerLevel(1e-2))     # P / P_min = 10
        return area / ((2.0 * math.pi / a) * 10.0 ** (2.0 / a))

    def test_gamma_identities(self):
        assert self.gamma_factor(4.0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert self.gamma_factor(2.0) == pytest.approx(1.0, rel=1e-14)
        for x in np.geomspace(0.05, 10.0, 50):
            assert self.gamma_factor(2.0 / x) == pytest.approx(float(sci_special.gamma(x)),
                                                               rel=1e-12)

    def test_gamma_domain(self):
        # 2/a > 0 and P > 0 are enforced before Gamma is reached
        with pytest.raises(ValueError):
            PropagationEnvironment(0.0, 1e-13, 1e-3)
        with pytest.raises(ValueError):
            PropagationEnvironment(-1.5, 1e-13, 1e-3)
        with pytest.raises(ValueError):
            affected_area_single(PropagationEnvironment(4.0, 1e-13, 1e-3), 0.0)

    def test_erfcx_matches_scaled_product(self):
        for x in (0.0, 0.5, 5.0, 24.9, 25.1, 100.0, 1e6):
            ref = float(sci_special.erfcx(x))
            assert erfcx(x) == pytest.approx(ref, rel=1e-12)


class TestQuadrature:
    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_known_semi_infinite_integrals(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
        v = integrate_semi_infinite(lambda t: np.exp(-t), spec)
        assert v.value == pytest.approx(1.0, abs=1e-10)
        assert v.error <= 1e-10
        v = integrate_semi_infinite(lambda t: np.exp(-t * t), spec)
        assert v.value == pytest.approx(0.5 * math.sqrt(math.pi), abs=1e-10)

    def test_finite_interval(self):
        v = integrate(lambda x: np.sin(x), 0.0, math.pi)
        assert v.value == pytest.approx(2.0, rel=1e-10)

    def test_linearity(self):
        spec = QuadratureSpec(rel_tol=1e-10)
        f = lambda t: np.exp(-t)
        g = lambda t: np.exp(-t * t)
        a, b = 3.0, -2.0
        lhs = integrate_semi_infinite(lambda t: a * f(t) + b * g(t), spec).value
        rhs = (a * integrate_semi_infinite(f, spec).value
               + b * integrate_semi_infinite(g, spec).value)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_reported_error_bounds_true_error(self):
        v = integrate_semi_infinite(lambda t: np.exp(-t) * np.sin(t), QuadratureSpec())
        assert abs(v.value - 0.5) <= max(v.error, 1e-12)

    def test_divergent_integrand_raises_with_best_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=60)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda t: 1.0 / (1.0 + t), spec)
        assert err.value.best > 0
        assert math.isfinite(err.value.best)

    def test_scale_hint_resolves_narrow_support(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-20)
        rate = 1e6
        v = integrate_semi_infinite(lambda t: rate * np.exp(-rate * t), spec, scale=1.0 / rate)
        assert v.value == pytest.approx(1.0, rel=1e-9)


class TestRootFinding:
    def test_linear(self):
        assert find_root_bracketed(lambda x: x - 2.0, 0.0, 5.0, tol=1e-12) == pytest.approx(2.0)

    def test_cosine(self):
        x = find_root_bracketed(math.cos, 1.0, 2.0, tol=1e-12)
        assert x == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_gase_power_root(self):
        # (x + 1/2) exp(x) E1(x) = 1; bisection oracle value 0.25894690868
        g = lambda x: (x + 0.5) * scaled_e1(x) - 1.0
        lo, hi = 0.1, 1.0
        for _ in range(60):  # independent bisection to ~1e-18 bracket
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        x = find_root_bracketed(g, 0.1, 1.0, tol=1e-12)
        assert x == pytest.approx(oracle, rel=1e-9)
        assert x == pytest.approx(0.25894690868039507, rel=1e-9)

    def test_no_bracket(self):
        with pytest.raises(BracketingError):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)
