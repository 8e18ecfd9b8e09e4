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
EPS = 2.0 ** -52


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
            with pytest.raises(ValueError, match=r"^scaled_e1 requires 0 < x < inf$"):
                scaled_e1(bad)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^scaled_en requires 0 < x < inf$"):
                scaled_en(bad, 2)

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
            assert oi == scaled_e1(float(xi))


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
        # on (0, 1], exp(x) E1(x) is exp(x) (-gamma - ln x + x S(x)), S the
        # series of k = 1..17 summed by Horner from its smallest term, and E2,
        # E3 follow by the upward recurrence: bit for bit this fixed-order
        # loop (the test once pinned a series that stopped early)
        def full_loop(x):  # exp(x) E_n(x) for n = 1, 2, 3
            acc = 0.0
            for k in range(17, 0, -1):
                acc = acc * x + (-1) ** (k + 1) / (k * math.factorial(k))
            h = [float(np.exp(x) * (-mathkernel.EULER_GAMMA - np.log(x) + x * acc))]
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
                ref = float(mpmath.exp(x) * mpmath.e1(x))
                assert abs(scaled_e1(x) - ref) <= 4 * math.ulp(ref)

    def test_scaled_e1_far_tail(self):
        # 20,000 log-uniform x in [1, 1e40], checked against mpmath at 200
        xs = (10.0 ** np.random.default_rng(36).uniform(0.0, 40.0, 20_000)).tolist()
        vals = [scaled_e1(x) for x in xs]
        assert all(math.isfinite(v) for v in vals)
        with mpmath.workdps(40):
            for x, v in list(zip(xs, vals))[::100]:
                ref = float(mpmath.exp(x) * mpmath.e1(x))
                assert abs(v - ref) <= 4 * math.ulp(ref)

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


class TestE1Kernel:
    """The three branches of scaled_e1: Taylor on (0, 1], octave fits on
    (1, 64), asymptotic above; one arithmetic for floats and arrays."""

    # 1, 2^k for k = 1..6 and the floats either side of each, and the range's ends
    EDGES = sorted({v for k in range(7) for v in (math.nextafter(2.0 ** k, 0.0), 2.0 ** k,
                                                  math.nextafter(2.0 ** k, math.inf))}
                   | {5e-324, 1e-300, 1e300, 1.7e308})
    # each branch's span, log-spaced, and a stretch of it, evenly spaced, and
    # its bound in eps = 2^-52 relative: towards x = 1 the Taylor sum cancels
    # to E1 from -gamma - ln x and x S(x) of about 0.58 and 0.80
    BRANCHES = {"taylor": ((1e-300, 1.0), (0.0, 1.0), 4), "octaves": ((1.0, 64.0), (1.0, 64.0), 2),
                "asymptotic": ((64.0, 1e300), (64.0, 256.0), 2)}

    @staticmethod
    def reference(x):
        with mpmath.workdps(40):
            return mpmath.exp(x) * mpmath.e1(x)

    def test_float_equals_its_array_lane(self):
        x = np.array(self.EDGES + np.geomspace(1e-3, 1e3, 301).tolist())
        values = scaled_e1(x)
        assert values.tolist() == [scaled_e1(v) for v in x.tolist()]
        # prefixes, slices, a reversed array and a 2-D view of the same nodes
        for n in (1, 2, 7, 8, 9, 64, 65):
            assert scaled_e1(x[:n]).tolist() == values[:n].tolist()
        assert scaled_e1(x[3::5]).tolist() == values[3::5].tolist()
        assert scaled_e1(x[::-1]).tolist() == values[::-1].tolist()
        assert scaled_e1(x.reshape(2, -1)).ravel().tolist() == values.tolist()

    @pytest.mark.parametrize("lone", [0.5, 3.0, 100.0])
    def test_lone_node_of_a_branch_in_a_mixed_array(self, lone):
        x = np.array([0.25, 1.5, 7.0, 80.0, 0.75, 40.0, 1e4])
        for i in range(x.size + 1):
            mixed = np.insert(x, i, lone)
            assert scaled_e1(mixed)[i] == scaled_e1(lone) == scaled_e1(np.array([lone]))[0]
            assert np.delete(scaled_e1(mixed), i).tolist() == scaled_e1(x).tolist()

    def test_branch_edges(self):
        for x in self.EDGES:
            ref = self.reference(x)
            value = scaled_e1(x)
            assert value == scaled_e1(np.array([x]))[0]
            assert abs(value - ref) <= 2 * EPS * ref

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_each_branch_against_mpmath(self, branch):
        # 1,500 log-spaced and 1,500 uniform nodes of each branch, eps the
        # spacing of floats at 1: at most 3.6 eps near x = 1, else 1.8
        log_span, span, bound = self.BRANCHES[branch]
        x = np.concatenate([np.geomspace(*log_span, 1_502)[1:-1], np.linspace(*span, 1_502)[1:-1]])
        for xi, value in zip(x.tolist(), scaled_e1(x).tolist()):
            ref = self.reference(xi)
            assert abs(value - ref) <= bound * EPS * ref

    def test_octave_table_rebuilt_from_mpmath(self):
        # octave j, x in (2^j, 2^(j+1)], as t = 2^(j+2)/x - 3 runs over [-1, 1]:
        # c_k = (2/n) sum_i f(t_i) cos(k theta_i), c_0 halved, at the n = 36
        # Chebyshev nodes t_i = cos(theta_i), theta_i = pi (i + 1/2)/n, of
        # f = x exp(x) E1(x); the 18 kept ones in powers of t, highest first,
        # rounded once.  The first dropped coefficient bounds the truncation
        n, kept = 36, 18
        table = mathkernel._OCTAVES
        assert table.shape == (6, kept)
        with mpmath.workdps(40):
            thetas = [mpmath.pi * (i + mpmath.mpf(1) / 2) / n for i in range(n)]
            powers = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]  # T_k in powers of t
            while len(powers) < kept:
                powers.append([2 * c for c in [0, *powers[-1]]])
                for i, c in enumerate(powers[-3]):
                    powers[-1][i] -= c
            for j, row in enumerate(table.tolist()):
                xs = [2 ** (j + 2) / (mpmath.cos(theta) + 3) for theta in thetas]
                f = [x * mpmath.exp(x) * mpmath.e1(x) for x in xs]
                c = [2 * mpmath.fsum(fi * mpmath.cos(k * theta) for fi, theta in zip(f, thetas)) / n
                     for k in range(kept + 1)]
                c[0] /= 2
                assert abs(c[kept]) < 3e-18
                rebuilt = [mpmath.fsum(ck * tk[p] for ck, tk in zip(c, powers) if p < len(tk))
                           for p in range(kept)]
                assert row == [float(v) for v in reversed(rebuilt)]  # bit for bit


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


def reference_level(semi_infinite, level):
    """The nodes that one level of the rule adds, as (d, w, left)."""
    lo, hi = (-18, 14) if semi_infinite else (-16, 16)
    n = 2 ** level
    u = np.arange(lo * n, hi * n + 1) * (0.25 / n)
    u = u[1::2] if level else u
    s, ds = 0.5 * math.pi * np.sinh(u), 0.5 * math.pi * np.cosh(u)
    if semi_infinite:
        t = np.exp(s)
        return t, ds * t, None
    q = np.exp(-2.0 * np.abs(s))
    return 2.0 * q / (1.0 + q), ds * 4.0 * q / (1.0 + q) ** 2, u <= 0.0


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reference_double_exponential(f, semi_infinite, a, b, scale, spec):
    """The double-exponential rule evaluated level by level, one call of f
    per level and group of integrals, as the reference for the first-levels
    call of mathkernel._double_exponential."""
    n = scale.size
    total, error, ends = np.zeros((3, n))
    nodes, active = np.zeros(n, dtype=int), np.arange(n)
    for level in range(7):
        d, dw, left = reference_level(semi_infinite, level)
        h, sums = 0.25 / 2 ** level, []
        for rows in np.array_split(active, -(-active.size * d.size // 2048)):
            m = scale[rows, None]
            dist, w = np.maximum(m * d, np.finfo(float).tiny), m * dw
            if semi_infinite:
                x, valid = dist, w < np.inf
            else:
                lo, hi = a[rows, None], b[rows, None]
                x = np.where(left, lo + dist, hi - dist)
                valid = (lo < x) & (x < hi)
            fx = np.asarray(f(x[valid], np.broadcast_to(rows[:, None], x.shape)[valid]),
                            dtype=float)
            if fx.shape != (np.count_nonzero(valid),) or not np.isfinite(fx).all():
                raise QuadratureError("integrand returned non-finite or wrongly shaped values",
                                      0.0, math.inf)
            nodes[rows] += np.count_nonzero(valid, axis=1)
            terms = np.zeros(x.shape)
            terms[valid] = w[valid] * fx
            sums.append(h * np.add.reduce(terms, axis=1))
            if level == 0:
                ends[rows] = np.abs(terms[:, 0]) + np.abs(terms[:, -1])
        new = np.concatenate(sums) + 0.5 * total[active]
        error[active] = np.abs(new - total[active]) + h * ends[active]
        total[active] = new
        active = active[error[active] > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(new))]
        if not active.size:
            return [mathkernel.QuadratureResult(*r)
                    for r in zip(total.tolist(), error.tolist(), nodes.tolist())]
    raise QuadratureError("no convergence in 7 levels of the double-exponential rule",
                          float(total[active[0]]), float(error[active[0]]))


def outcome(core, f, semi_infinite, a, b, scale, spec):
    """The results of a quadrature core, or the message it raised."""
    try:
        return core(f, semi_infinite, a, b, scale, spec)
    except QuadratureError as err:
        return str(err)


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


class TestFirstLevelsCall:
    """The first integrand call covers levels 0-2 on [0, inf) and 0-1 on
    [a, b]; every result and error equals the level-by-level rule's."""

    SPECS = [QuadratureSpec(), QuadratureSpec(1e-3, 0.0), QuadratureSpec(1e-12, 0.0)]

    def assert_same(self, f, semi_infinite, a, b, scale, spec):
        new = outcome(mathkernel._double_exponential, f, semi_infinite, a, b, scale, spec)
        ref = outcome(reference_double_exponential, f, semi_infinite, a, b, scale, spec)
        assert new == ref
        return ref

    def panels(self, f, semi_infinite, a, b, scale):
        """The node counts of each spec's results, which equal the reference's."""
        out = set()
        for spec in self.SPECS:
            got = self.assert_same(f, semi_infinite, a, b, scale, spec)
            out |= set() if isinstance(got, str) else {r.panels for r in got}
        return out

    def test_semi_infinite_batches_across_scales(self):
        rng = np.random.default_rng(20260)
        scales = 10.0 ** np.linspace(-300.0, 300.0, 41)
        with np.errstate(over="ignore"):  # the largest scales give infinite weights
            assert np.isinf(scales[-1] * reference_level(True, 0)[1][-1])
        powers = rng.uniform(1.5, 4.0, scales.size)
        rates = rng.uniform(0.05, 20.0, scales.size)
        panels = set()
        for f in [
            lambda t, rows: np.exp(-t / scales[rows]) / scales[rows],
            lambda t, rows: (1.0 + t / scales[rows]) ** -powers[rows] / scales[rows],
            lambda t, rows: np.log1p(t / scales[rows]) * np.exp(-rates[rows] * t / scales[rows]),
            lambda t, rows: np.exp(-t / scales[rows]) * np.sin(t / scales[rows]) ** 2,
        ]:
            panels |= self.panels(f, True, None, None, scales)
        assert {33, 65, 129, 257} <= panels  # stops at levels 0, 1, 2 and 3
        assert max(panels) > 257

    def test_finite_intervals_with_nodes_on_the_ends(self):
        # from a = 1 on, the outermost nodes round onto a or b and add 0
        # unevaluated; at a = 1e16, where floats are 2 apart, most of them do
        rng = np.random.default_rng(20261)
        a = np.concatenate([np.zeros(3), np.ones(3), rng.uniform(-50.0, 50.0, 4)])
        b = a + rng.uniform(0.1, 30.0, a.size)
        rates = rng.uniform(0.1, 3.0, a.size)
        panels = set()
        for f in [
            lambda x, rows: np.ones_like(x),
            lambda x, rows: np.sin(rates[rows] * (x - a[rows])) ** 2,
            lambda x, rows: 1.0 / np.sqrt(x - a[rows]),
            lambda x, rows: np.exp(-rates[rows] * (x - a[rows])) * np.cos(x - b[rows]),
        ]:
            panels |= self.panels(f, False, a, b, 0.5 * (b - a))
        assert any(p < 58 for p in panels) and max(panels) > 65
        far = np.full(4, 1e16)
        widths = np.array([4.0, 2.0 ** 10, 2.0 ** 22, 2.0 ** 30])
        assert (far + widths)[0] - far[0] == 4.0
        one = lambda x, rows: np.exp(-(x - far[rows]) / widths[rows])
        panels = self.panels(one, False, far, far + widths, 0.5 * widths)
        for i in range(4):
            panels |= self.panels(lambda x, rows: one(x, rows + i), False, far[i:i + 1],
                                  far[i:i + 1] + widths[i], 0.5 * widths[i:i + 1])
        assert panels and max(panels) < 58

    def test_integrals_that_stop_at_level_0(self):
        scale = np.ones(3)
        zero = self.assert_same(lambda t, rows: 0.0 * t, True, None, None, scale,
                                QuadratureSpec(1e-10, 0.0))
        tiny = self.assert_same(lambda t, rows: 1e-14 * np.exp(-t), True, None, None, scale,
                                QuadratureSpec())
        assert {r.panels for r in zero + tiny} == {33}
        ends = self.assert_same(lambda x, rows: 0.0 * x, False, np.zeros(2), np.ones(2),
                                np.full(2, 0.5), QuadratureSpec())
        assert {r.panels for r in ends} == {29}  # 4 nodes round onto b = 1

    @pytest.mark.parametrize("semi_infinite,level", [(True, 1), (True, 2), (False, 1)])
    def test_non_finite_beyond_the_last_level_reached(self, semi_infinite, level):
        # integral 0 is 0 except at one node of a level it never reaches;
        # integral 1 reaches that level, on which integral 0 evaluates nothing
        node = reference_level(semi_infinite, level)[0][5]
        if semi_infinite:
            a = b = None
            point = node
        else:
            a, b = np.zeros(2), np.full(2, 2.0)
            point = node if reference_level(False, level)[2][5] else 2.0 - node
        spec = QuadratureSpec()

        def f(x, rows):
            weight = np.where(rows == 0, 0.0, 1.0)
            return np.where((rows == 0) & (x == point), np.nan, weight * np.exp(-x))

        got = self.assert_same(f, semi_infinite, a, b, np.ones(2), spec)
        assert got[0].panels <= 33 < got[1].panels
        # the same node in an integral that reaches its level raises
        lone = self.assert_same(lambda x, rows: np.where(x == point, np.inf, np.exp(-x)),
                                semi_infinite, a, b, np.ones(1), spec)
        assert lone.startswith("integrand returned non-finite")

    def test_divergent_integral_raises_the_same_error(self):
        spec = QuadratureSpec(1e-10, 0.0)
        message = self.assert_same(lambda t, rows: 1.0 / (1.0 + t), True, None, None,
                                   np.ones(1), spec)
        assert message.startswith("no convergence in 7 levels")
        powers = np.array([2.0, 1.0, 3.0])
        assert self.assert_same(lambda t, rows: (1.0 + t) ** -powers[rows], True, None, None,
                                np.ones(3), spec) == message

    def test_integrand_calls(self):
        # a lone exp-sinh integral that stops at level 3: one call for levels
        # 0-2 and one for level 3, where the level-by-level rule made four
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-t) * np.sin(t)

        assert integrate_semi_infinite(f).panels == 257
        assert calls == [129, 128]
        calls.clear()
        assert integrate(lambda x: f(x) + 1.0, 0.0, 1.0).panels == 58
        assert len(calls) == 1


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
