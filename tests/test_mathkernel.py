"""Special functions against independent oracles, quadrature, root finding."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy import special as sci_special

from gase import mathkernel
from gase.mathkernel import (BracketingError, QuadratureError, QuadratureSpec,
                             bessel_k0, bessel_k01, bessel_k1, erfcx, find_root_bracketed,
                             integrate, integrate_batch, integrate_semi_infinite,
                             integrate_semi_infinite_batch, one_minus_xk1, scaled_e1,
                             scaled_en)
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

    def test_higher_orders_against_mpmath(self):
        # exp(x) E_n(x) on both branches and across the series/fraction switch,
        # where 1 - x exp(x) E1(x) (= exp(x) E2(x)) would cancel at large x
        with mpmath.workdps(40):
            for n in (1, 2, 3, 7, 15):
                for x in (1e-8, 0.3, 1.0, 1.0 + 1e-12, 2.5, 40.0, 1e4, 1e12):
                    ref = mpmath.exp(x) * mpmath.expint(n, x)
                    assert scaled_en(x, n) == pytest.approx(float(ref), rel=1e-14)

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

    def test_series_stop_equals_the_full_loop(self):
        # the series on (0, 1] stops at its first term below a quarter ulp of
        # the sum, which cannot move it: bit for bit the fixed 29-term loop
        def full_loop(x):  # exp(x) E_n(x) for n = 1, 2, 3
            acc, p = 0.0, 1.0
            for k in range(1, 30):
                p *= -x / k
                acc -= p / k
            h = [math.exp(x) * (-mathkernel.EULER_GAMMA - math.log(x) + acc)]
            for k in (1, 2):
                h.append((1.0 - x * h[-1]) / k)
            return h

        rng = np.random.default_rng(17)
        xs = np.exp(rng.uniform(math.log(5e-324), 0.0, 100_000)).tolist()
        xs += rng.uniform(0.0, 1.0, 20_000).tolist() + [1.0, 5e-324, math.nextafter(1.0, 0.0)]
        xs = [x for x in xs if x > 0.0]
        assert [[scaled_en(x, n) for n in (1, 2, 3)] for x in xs] == list(map(full_loop, xs))


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

    def test_one_minus_xk1_against_mpmath(self):
        # 1 - x K1(x) -> 0 as x -> 0, where the difference of the two cancels;
        # x = 2 and its neighbours straddle the joint of the two branches
        xs = [1e-30, 1e-20, 1e-8, 1e-3, 0.5, 1.99, 2.0, 2.01, 5.0, 30.0, 700.0]
        ref = []
        for x in xs:  # 1 - x K1(x) is about x^2 ln(1/x): twice x's decades, and 40 more
            with mpmath.workdps(40 + 2 * max(0, -math.floor(math.log10(x)))):
                ref.append(float(1 - mpmath.mpf(x) * mpmath.besselk(1, x)))
        got = one_minus_xk1(np.array(xs))
        assert np.max(np.abs(got / ref - 1.0)) <= 4e-15
        assert one_minus_xk1(1e-8) == got[2]

    def test_domain_error(self):
        for fn in (bessel_k0, bessel_k1, one_minus_xk1):
            for bad in (0.0, -2.0, math.nan, math.inf, np.array([1.0, math.nan]),
                        np.array([1.0, math.inf])):
                with pytest.raises(ValueError):
                    fn(bad)


class TestMpmathOracle:
    """40-digit mpmath references (DLMF 6.2.1, 10.32.9) across every branch and joint."""

    JOINTS = [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0 - 1e-12, 2.0, 2.0 + 1e-12,
              30.0 - 1e-9, 30.0, 30.0 + 1e-9]
    GRID = sorted([*np.geomspace(1e-6, 600.0, 80).tolist(), *JOINTS])
    # the K kernel's series/Chebyshev joint at x = 2, its neighbouring floats
    # and the whole Chebyshev branch up to where K is still normal
    K_GRID = sorted({*GRID, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0),
                     *np.geomspace(2.0, 700.0, 100).tolist()})

    @staticmethod
    def assert_close(value, ref):
        assert abs(value - float(ref)) <= 5e-14 * abs(float(ref))

    def test_scaled_e1(self):
        with mpmath.workdps(40):
            for x in [*self.GRID, 1e3, 1e6]:
                self.assert_close(scaled_e1(x), mpmath.exp(x) * mpmath.e1(x))

    def test_scaled_e1_far_tail(self):
        # above x ~ 2e16 the continued fraction's b += 2 no longer moves b;
        # 20,000 log-uniform x in [1, 1e40], checked against mpmath at 200
        xs = (10.0 ** np.random.default_rng(36).uniform(0.0, 40.0, 20_000)).tolist()
        vals = [scaled_e1(x) for x in xs]
        assert all(math.isfinite(v) for v in vals)
        with mpmath.workdps(40):
            for x, v in list(zip(xs, vals))[::100]:
                ref = float(mpmath.exp(x) * mpmath.e1(x))
                assert abs(v - ref) <= 1e-14 * ref

    def test_erfcx_within_four_ulps(self):
        # 4,001 points of [0, 25], where exp(x^2) erfc(x) carries x^2's
        # rounding unless x^2 is split exactly, and the asymptotic series above
        xs = [*np.linspace(0.0, 25.0, 4001).tolist(), *np.geomspace(25.0, 1e8, 200).tolist()]
        with mpmath.workdps(40):
            for x in xs:
                ref = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
                assert abs(erfcx(x) - ref) <= 4 * math.ulp(float(ref))

    def test_bessel_k0_k1(self):
        with mpmath.workdps(40):
            for x in self.K_GRID:
                self.assert_close(bessel_k0(x), mpmath.besselk(0, x))
                self.assert_close(bessel_k1(x), mpmath.besselk(1, x))

    def test_bessel_k_subnormal_tail(self):
        # above x ~ 705 K is subnormal: within one subnormal of the truth, and
        # > 0 wherever the truth is at least the smallest subnormal
        tiny = 2.0 ** -1074
        with mpmath.workdps(40):
            for x in np.linspace(700.0, 746.0, 93).tolist():
                for nu, value in enumerate(bessel_k01(x)):
                    ref = mpmath.besselk(nu, x)
                    assert abs(value - ref) <= 5e-14 * ref + tiny
                    if ref >= tiny:
                        assert value > 0.0

    def test_chebyshev_table_rebuilt_from_mpmath(self):
        # c_k = (2/n) sum_j f(t_j) cos(k theta_j), c_0 halved, at the n = 48
        # Chebyshev nodes t_j = cos(theta_j), theta_j = pi (j + 1/2)/n, of
        # f(t) = exp(x) sqrt(x) K_nu(x) with x = 4/(1 + t); the first dropped
        # coefficient bounds the truncation
        n = 48
        table = mathkernel._CHEBYSHEV
        with mpmath.workdps(40):
            thetas = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
            xs = [4 / (1 + mpmath.cos(theta)) for theta in thetas]
            for nu, row in enumerate(table):
                f = [mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(nu, x) for x in xs]
                for k in range(len(row) + 1):
                    c = 2 * mpmath.fsum(fj * mpmath.cos(k * theta)
                                        for fj, theta in zip(f, thetas)) / n
                    if k == 0:
                        c /= 2
                    if k < len(row):
                        assert abs(row[k] - float(c)) <= 1e-17
                    else:
                        assert abs(c) < 6e-18

    def test_power_table_rebuilt_from_chebyshev(self):
        rebuilt = np.array([np.polynomial.chebyshev.cheb2poly(c)[::-1]
                            for c in mathkernel._CHEBYSHEV]).T
        assert mathkernel._SCALED.flags.c_contiguous
        assert mathkernel._SCALED.shape == rebuilt.shape
        assert mathkernel._SCALED.tobytes() == rebuilt.tobytes()    # bit for bit


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

    def test_values_independent_of_length_and_position(self):
        # every branch of each kernel: a value does not depend on the array's
        # length, on its neighbours or on its position
        x = np.geomspace(0.01, 60.0, 301)
        shuffled = np.random.default_rng(5).permutation(x.size)
        k0, k1 = bessel_k01(x)
        k0_s, k1_s = bessel_k01(x[shuffled])
        e1 = scaled_e1(x)
        assert k0_s.tolist() == k0[shuffled].tolist()
        assert k1_s.tolist() == k1[shuffled].tolist()
        assert scaled_e1(x[shuffled]).tolist() == e1[shuffled].tolist()
        for i in (0, 63, 64, 150, 300):
            assert bessel_k01(x[i:i + 1])[0][0] == k0[i]
            assert bessel_k01(x[i:i + 1])[1][0] == k1[i]
            assert scaled_e1(x[i:i + 1])[0] == e1[i]

    # the quadrature hands the K kernel (m, 15) node arrays, m up to about 70
    # per call in a sweep batch; both branches and the x = 2 joint, shuffled
    @staticmethod
    def quadrature_nodes(n):
        joint = [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)]
        x = np.concatenate([np.geomspace(1e-3, 700.0, n - 3), joint])
        return np.random.default_rng(n).permutation(x)

    @pytest.mark.parametrize("n", [1_500, 15_000])
    def test_quadrature_sized_arrays_equal_scalar_calls(self, n):
        x = self.quadrature_nodes(n)
        shuffled = np.random.default_rng(7).permutation(n)
        for fn in (bessel_k01, one_minus_xk1):
            values = np.array(fn(x)).reshape(-1, n)
            assert np.array(fn(x.reshape(-1, 15))).reshape(-1, n).tolist() == values.tolist()
            assert np.array(fn(x[shuffled])).reshape(-1, n).tolist() == values[:, shuffled].tolist()
            lone = np.array([fn(v) for v in x.tolist()]).reshape(n, -1).T
            assert lone.tolist() == values.tolist()

    @pytest.mark.parametrize("lo, hi", [(1e-3, 2.0), (2.0 + 1e-9, 700.0), (1e-3, 700.0)])
    def test_k_kernel_builds_no_table_of_products(self, lo, hi):
        # 24 powers a node plus the outputs and a temporary: at most 3.1 MiB on
        # 15,000 nodes, against 4.8-9.0 MiB with a (terms, rows, n) product table
        x = np.geomspace(lo, hi, 15_000)
        for fn in (bessel_k01, one_minus_xk1):
            tracemalloc.start()
            try:
                fn(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20


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
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda t: 1.0 / (1.0 + t), spec)
        assert err.value.best > 0
        assert math.isfinite(err.value.best)

    def test_endpoint_singularities(self):
        # nodes measured from the left end 0 are exact, so integrable
        # singularities there cost nothing
        assert integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0).value == pytest.approx(
            2.0, rel=1e-14)
        assert integrate(np.log, 0.0, 1.0).value == pytest.approx(-1.0, rel=1e-14)
        # near b = 1 each node carries 1's rounding, up to 1.1e-16 in 1 - x,
        # which int dx/sqrt(1 - x) turns into about 2 sqrt(1.1e-16) = 2e-8
        v = integrate(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0)
        assert v.value == pytest.approx(math.pi, rel=2e-8)

    def test_scale_hint_resolves_narrow_support(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-20)
        rate = 1e6
        v = integrate_semi_infinite(lambda t: rate * np.exp(-rate * t), spec, scale=1.0 / rate)
        assert v.value == pytest.approx(1.0, rel=1e-9)

    def test_batch_equals_lone_integrals(self):
        # value, error and node count of each integral do not depend on the batch
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
        rates = np.geomspace(0.1, 50.0, 9)
        batch = integrate_semi_infinite_batch(
            lambda t, rows: np.log1p(t) * np.exp(-rates[rows] * t), 1.0 / rates, spec)
        for rate, together in zip(rates, batch):
            alone = integrate_semi_infinite(lambda t: np.log1p(t) * np.exp(-rate * t), spec,
                                            scale=1.0 / rate)
            assert together == alone
            assert together.value == pytest.approx(
                float(mpmath.e1(rate) * mpmath.exp(rate) / rate), rel=1e-9)
        ends = np.linspace(0.5, 20.0, 7)
        batch = integrate_batch(lambda x, rows: np.sin(x) ** 2, np.zeros(7), ends, spec)
        for end, together in zip(ends, batch):
            assert together == integrate(lambda x: np.sin(x) ** 2, 0.0, end, spec)
        assert len({r.panels for r in batch}) > 1  # the integrals stop at different levels

    def test_batch_failure_raises_the_lone_error(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
        with pytest.raises(QuadratureError) as alone:
            integrate_semi_infinite(lambda t: 1.0 / (1.0 + t), spec)
        powers = np.array([2.0, 1.0, 3.0])  # only 1/(1+t) diverges
        with pytest.raises(QuadratureError) as together:
            integrate_semi_infinite_batch(lambda t, rows: (1.0 + t) ** -powers[rows],
                                          np.ones(3), spec)
        assert str(together.value) == str(alone.value)
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_batch(lambda x, rows: np.where(rows == 1, np.nan, x), np.zeros(2),
                            np.ones(2))


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
