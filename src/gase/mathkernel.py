"""Scalar special functions, adaptive quadrature, and bracketed root finding.

Everything downstream (capacities, affected areas, mode probabilities) reduces
to the scaled exponential integral exp(x)*E1(x), the modified Bessel
functions K0/K1, the scaled erfcx, and one-dimensional integrals on finite or
semi-infinite intervals.  The special functions are implemented here rather
than imported so their accuracy is pinned by this repo's own tests, and so
the runtime needs nothing beyond numpy:

* E1 (DLMF 6.6.2, 6.9.1): alternating series for x <= 1, modified-Lentz
  continued fraction above, both on Python floats with ``math``.  The
  continued fraction evaluates exp(x)*E1(x) directly, which is what makes the
  scaled form overflow-free for large x.  Every caller passes a scalar; an
  array maps element-wise through the same scalar kernel.
* K0/K1: each branch returns both orders in one pass.  Ascending series
  (DLMF 10.31.2, 10.31.1) for x <= 2 and the truncated asymptotic expansion
  (DLMF 10.40.2) for x >= 30 are evaluated as powers of x^2/4, resp. 1/x,
  times coefficient tables built once at import.  In between, fixed 100-node
  Gauss-Legendre quadrature of the cosh integral on a truncated interval
  takes both moments from one exponential.
* erfcx: exp(x^2)*erfc(x) on the C library's erfc, with an asymptotic series
  where the product would overflow; Gaussian-type integrals need it.

All functions are pure; array arguments are supported where integrands need
vectorised evaluation (E1, K0, K1).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

EULER_GAMMA = 0.5772156649015328606

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "BracketingError",
    "scaled_e1",
    "bessel_k0",
    "bessel_k1",
    "bessel_k01",
    "erfcx",
    "integrate",
    "integrate_semi_infinite",
    "find_root_bracketed",
]


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach tolerance; carries the best estimate."""

    def __init__(self, message: str, best: float, error: float):
        super().__init__(f"{message} (best estimate {best:.6e}, error {error:.2e})")
        self.best = best
        self.error = error


class BracketingError(ValueError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive integrators."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class QuadratureResult(NamedTuple):
    value: float
    error: float
    panels: int


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def _scaled_e1(x: float) -> float:
    """exp(x)*E1(x) of one float: series on (0, 1], modified Lentz above."""
    if not 0.0 < x < math.inf:
        raise ValueError("scaled_e1 requires x > 0")
    if x <= 1.0:  # the alternating series needs few terms and does not cancel here
        acc = 0.0
        p = 1.0
        for k in range(1, 30):
            p *= -x / k
            acc -= p / k
        return math.exp(x) * (-EULER_GAMMA - math.log(x) + acc)
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise QuadratureError("continued fraction for E1 did not converge", h, math.inf)


def scaled_e1(x):
    """exp(x) * E1(x), valid for any x > 0 without overflow.

    Strictly decreasing; bounded by (1/(x+1), 1/x).
    """
    if isinstance(x, (float, int)):
        return _scaled_e1(float(x))
    arr = np.asarray(x, dtype=float)
    out = np.array([_scaled_e1(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# modified Bessel functions of the second kind
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(100)
_GL_NODES += 1.0  # shifted from [-1, 1] onto [0, 2]


def _series_table(terms: int = 40) -> np.ndarray:
    """Coefficients of q^k, q = x^2/4, in I0, sum H_k q^k/k!^2, 2 I1/x and
    sum (H_k + H_{k+1}) q^k/(k!(k+1)!): the four sums of DLMF 10.31.2/10.31.1."""
    rows = []
    for k in range(terms):  # exact integers, one rounding per coefficient
        n0 = math.factorial(k) ** 2
        d = n0 * (k + 1)
        hd = sum(d // j for j in range(1, k + 1))  # H_k * d
        rows.append([1 / n0, hd / (d * n0), 1 / d, (2 * hd + n0) / (d * d)])
    return np.array(rows).T.copy()


def _asymptotic_table(terms: int = 15) -> np.ndarray:
    """Coefficients of x^-k in the K0, K1 asymptotic sums (DLMF 10.40.2)."""
    return np.array([[math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1))
                      / (8 ** k * math.factorial(k)) for k in range(terms)] for nu in (0, 1)])


_SERIES = _series_table()
_ASYMPTOTIC = _asymptotic_table()


def _power_sums(u, table):
    """Rows sum_k table[j, k] * u**k, summed along the contiguous last axis
    rather than by BLAS, so no element's value depends on the batch size."""
    powers = u[:, None] ** np.arange(table.shape[1], dtype=float)
    return np.sum(powers[:, None, :] * table, axis=2).T


def _k01_series(x):
    """Ascending series for K0 and K1, accurate for x <= 2."""
    i0, s0, i1, s1 = _power_sums(0.25 * x * x, _SERIES)
    lg = np.log(0.5 * x) + EULER_GAMMA
    return -lg * i0 + s0, 1.0 / x + 0.5 * x * (lg * i1 - 0.5 * s1)


def _k01_quadrature(x):
    """K0, K1 by Gauss-Legendre on the cosh integral, scaled by exp(x).

    The integrand exp(-x(cosh t - 1)) cosh(nu t) is entire and truncated where
    the exponent reaches 45 (relative tail < 1e-19), so 100 nodes give full
    double precision across 2 < x < 30.
    """
    half_T = 0.5 * np.arccosh(1.0 + 45.0 / x)[:, None]
    t = half_T * _GL_NODES
    w = half_T * _GL_WEIGHTS
    cosh_t = np.cosh(t)
    g = np.exp(-x[:, None] * (cosh_t - 1.0))
    scale = np.exp(-x)
    return scale * np.sum(w * g, axis=1), scale * np.sum(w * (g * cosh_t), axis=1)


def _k01_asymptotic(x):
    return np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) * _power_sums(1.0 / x, _ASYMPTOTIC)


def bessel_k01(x):
    """K0(x) and K1(x) from one evaluation, as a pair shaped like x."""
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    if not np.all((flat > 0.0) & (flat < np.inf)):
        raise ValueError("bessel_k requires x > 0")
    out = np.empty((2, flat.size))
    for branch, use in ((_k01_series, flat <= 2.0), (_k01_asymptotic, flat >= 30.0),
                        (_k01_quadrature, (flat > 2.0) & (flat < 30.0))):
        if use.any():
            out[:, use] = branch(flat[use])
    return tuple(float(k[0]) if arr.ndim == 0 else k.reshape(arr.shape) for k in out)


def bessel_k0(x):
    """Modified Bessel function of the second kind, order zero."""
    return bessel_k01(x)[0]


def bessel_k1(x):
    """Modified Bessel function of the second kind, order one."""
    return bessel_k01(x)[1]


# ---------------------------------------------------------------------------
# scaled complementary error function
# ---------------------------------------------------------------------------

def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x) for x >= 0.

    Direct product below x = 25; asymptotic series beyond, where both factors
    individually overflow/underflow.
    """
    if x < 0:
        raise ValueError("erfcx implemented for x >= 0 only")
    if x < 25.0:
        return math.exp(x * x) * math.erfc(x)
    zi = 1.0 / (x * x)
    s = 1.0
    term = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) / 2.0 * zi
        s += term
    return s / (x * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 7/15 Gauss-Kronrod nodes and weights on [-1, 1] (positive half; QUADPACK dqk15).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])      # 15 ascending nodes
_KW = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GW = np.zeros(15)
_GW[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])    # Gauss nodes sit at odd indices


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: returns (kronrod, error_estimate)."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + h * _NODES), dtype=float)
    if fx.shape != (15,) or not np.all(np.isfinite(fx)):
        raise QuadratureError("integrand returned non-finite or wrongly shaped values",
                              0.0, np.inf)
    k15 = h * float(np.dot(_KW, fx))
    g7 = h * float(np.dot(_GW, fx))
    # QUADPACK-style error heuristic, scaled by the panel's total variation
    resasc = h * float(np.dot(_KW, np.abs(fx - k15 / (b - a))))
    diff = abs(k15 - g7)
    if resasc == 0.0:
        err = diff
    else:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    return k15, err


def integrate(f, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of a vectorised integrand on [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError("integrate requires finite a < b")
    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err, panels = val, err, 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        if panels >= spec.max_subdivisions:
            raise QuadratureError("max subdivisions reached", total_val, total_err)
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if not (pa < pm < pb):
            raise QuadratureError("interval exhausted at floating-point resolution",
                                  total_val, total_err)
        try:
            lval, lerr = _gk15(f, pa, pm)
            rval, rerr = _gk15(f, pm, pb)
        except QuadratureError:
            raise QuadratureError("integrand became non-finite during refinement",
                                  total_val, total_err) from None
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        heapq.heappush(heap, (-lerr, pa, pm, lval, lerr))
        heapq.heappush(heap, (-rerr, pm, pb, rval, rerr))
        panels += 1
    # recompute sums in deterministic panel order to shed accumulation noise
    total_val = math.fsum(item[3] for item in heap)
    total_err = math.fsum(item[4] for item in heap)
    return QuadratureResult(total_val, total_err, panels)


def integrate_semi_infinite(f, spec: QuadratureSpec = QuadratureSpec(),
                            scale: float = 1.0) -> QuadratureResult:
    """Integrate f over [0, inf) via the map t = scale * u / (1 - u).

    ``scale`` should match the natural length of the integrand's support; the
    adaptive subdivision then resolves both the origin and the tail.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")

    def g(u):
        # non-finite values near u = 1 are caught by the panel evaluator
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = 1.0 - u
            t = scale * u / w
            return f(t) * scale / (w * w)

    return integrate(g, 0.0, 1.0, spec)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def find_root_bracketed(g: Callable[[float], float], lo: float, hi: float,
                        tol: float = 1e-12, max_iter: int = 200) -> float:
    """Brent's method on a bracketing interval.

    Terminates when |g(x)| <= tol or the bracket width falls below tol*|x|.
    """
    fa, fb = g(lo), g(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise BracketingError(f"no sign change on [{lo:g}, {hi:g}]")
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol * max(abs(b), 1e-30)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or abs(fb) <= tol:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        fb = g(b)
    raise BracketingError("root refinement did not converge")
