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
  array maps element-wise through the same scalar kernel.  Higher orders E_n
  (DLMF 8.19) use the same continued fraction with order-n coefficients, and
  on x <= 1 the upward recurrence from E1, which is stable there.
* K0/K1: two branches, each returning both orders in one pass: for x <= 2
  the ascending series (DLMF 10.31.2, 10.31.1) in q = x^2/4, above it a
  Chebyshev fit of exp(x) sqrt(x) K_nu(x) in t = 4/x - 1 (as Cephes' k0e),
  embedded as constants.  Both are polynomials.  Their powers are built by
  doubling, in log2(terms) contiguous multiplies, and one non-BLAS einsum
  sums them term by term from the smallest, with no (terms, rows, n) table
  of products.  So a call of 15 values costs little more than one of a
  single value, and the 1,000-node calls of a sweep batch make only
  contiguous passes.  ``one_minus_xk1`` sums only the two series rows it
  reads.
* erfcx: exp(x^2)*erfc(x) on the C library's erfc, with an asymptotic series
  where the product would overflow; Gaussian-type integrals need it.
* Adaptive 7/15 Gauss-Kronrod quadrature with QUADPACK's error heuristic,
  as one lockstep batch: ``integrate_batch`` runs n independent integrals
  together.  Each round every unconverged integral splits its worst panel,
  and the nodes of both halves of all split panels go to the integrand in
  one call ``f(x, rows)``: x is an (m, 15) array of nodes and rows the (m, 1)
  integer array of the integral each row belongs to, so ``param[rows]``
  broadcasts a per-integral parameter against x.  f must act element-wise.
  Per integral, the refinement order, stopping test, final ``fsum`` and
  errors are those of a lone integral, and no panel sum goes through BLAS,
  so a result is bit-for-bit the same alone as inside any batch.
  ``integrate_semi_infinite_batch`` maps [0, inf) onto [0, 1) per integral.
  ``integrate`` and ``integrate_semi_infinite`` are the batch of one, with
  f taking a 1-D array of nodes.

All functions are pure; array arguments are supported where integrands need
vectorised evaluation (E1, K0, K1).  Their values do not depend on the
length of the array or on a value's position in it.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple

import numpy as np

EULER_GAMMA = 0.5772156649015328606

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "BracketingError",
    "scaled_e1",
    "scaled_en",
    "bessel_k0",
    "bessel_k1",
    "bessel_k01",
    "one_minus_xk1",
    "erfcx",
    "integrate",
    "integrate_batch",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
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

def scaled_en(x: float, n: int) -> float:
    """exp(x) * E_n(x) for one float x > 0 and order n >= 1: series on (0, 1],
    modified Lentz above.

    The k-th derivative of exp(x) E1(x) is (-1)^k k! exp(x) E_(k+1)(x) / x^k,
    and exp(x) E2(x) = 1 - x exp(x) E1(x) without the cancellation of that
    difference at large x.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("scaled_e1 requires x > 0")
    if n < 1:
        raise ValueError("scaled_en requires order n >= 1")
    if x <= 1.0:  # the alternating series needs few terms and does not cancel here
        acc = 0.0
        p = 1.0
        for k in range(1, 30):
            p *= -x / k
            term = p / k
            # |terms| shrink; one under a quarter ulp (half the lower spacing) moves no acc
            if 4.0 * abs(term) < math.ulp(acc):
                break
            acc -= term
        h = math.exp(x) * (-EULER_GAMMA - math.log(x) + acc)
        # upward recurrence E_(k+1) = (exp(-x) - x E_k)/k: errors shrink by x/k <= 1
        for k in range(1, n):
            h = (1.0 - x * h) / k
        return h
    tiny = 1e-300
    b = x + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i * (n - 1 + i))
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        # within one ulp of 1: above x ~ 2e16, b += 2 no longer moves b and
        # delta can settle one ulp below 1 instead of on it
        if abs(delta - 1.0) <= 2.0 ** -52:
            return h
    raise QuadratureError("continued fraction for E_n did not converge", h, math.inf)


def scaled_e1(x):
    """exp(x) * E1(x), valid for any x > 0 without overflow.

    Strictly decreasing; bounded by (1/(x+1), 1/x).
    """
    if isinstance(x, (float, int)):
        return scaled_en(float(x), 1)
    arr = np.asarray(x, dtype=float)
    out = np.array([scaled_en(v, 1) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# modified Bessel functions of the second kind
# ---------------------------------------------------------------------------

def _series_table(terms: int = 13) -> np.ndarray:
    """Coefficients of q^k, q = x^2/4, in I0, sum H_k q^k/k!^2, 2 I1/x and
    sum (H_k + H_{k+1}) q^k/(k!(k+1)!): the four sums of DLMF 10.31.2/10.31.1,
    as a (terms, 4) table, highest power first.  On q <= 1 the first dropped
    term is below 1e-19."""
    rows = []
    for k in range(terms):  # exact integers, one rounding per coefficient
        n0 = math.factorial(k) ** 2
        d = n0 * (k + 1)
        hd = sum(d // j for j in range(1, k + 1))  # H_k * d
        rows.append([1 / n0, hd / (d * n0), 1 / d, (2 * hd + n0) / (d * d)])
    return np.array(rows[::-1])


# Chebyshev coefficients of exp(x) sqrt(x) K_nu(x) in t = 4/x - 1 on x > 2, 24
# for nu = 0, then 24 for nu = 1: the value is sum_k c_k T_k(t).  Fitted from
# 40-digit mpmath at 48 Chebyshev nodes (tests/test_mathkernel.py rebuilds
# them); the first dropped coefficient is below 6e-18.
_CHEBYSHEV = np.array([
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533, -0.00012849549581627802,
    1.39498137188765e-05, -1.8317555227191195e-06, 2.766813639445015e-07, -4.660489897687948e-08,
    8.574034017414225e-09, -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12, -2.9800969231481784e-13,
    8.032890775068375e-14, -2.2275133267462965e-14, 6.340076476276646e-15, -1.848593377920907e-15,
    5.5120559994043335e-16, -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779, 0.00019521551847135162,
    -1.936197974166083e-05, 2.406484947837217e-06, -3.5019606030878126e-07, 5.7410841254500495e-08,
    -1.0345762465678097e-08, 2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12, 3.348419666052243e-13,
    -8.976705182010146e-14, 2.4771544242195988e-14, -7.0198370892147685e-15, 2.038703166239861e-15,
    -6.057047270643018e-16, 1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
]).reshape(2, 24)

_SERIES = _series_table()
# the same polynomials in powers of t, as rows (K0, K1) from t^23 down to t^0
# (numpy's cheb2poly of _CHEBYSHEV; tests/test_mathkernel.py rebuilds them bit
# for bit): their coefficients sum in magnitude to at most 1.18 times the
# smallest value on (-1, 1], so little cancels.  Both tables are C-ordered,
# highest power first, as _power_series needs
_SCALED = np.array([
    -6.910453875670571e-11, 7.52479548635394e-11, 1.0926983537268735e-10, -1.1931668393112158e-10,
    2.2137580975910082e-10, -2.399376595899464e-10, -3.119936129682105e-10, 3.3867804167807987e-10,
    -5.541051446065684e-10, 6.042482293782837e-10, 8.133913205464114e-10, -8.908596710923903e-10,
    1.7887095838476484e-10, -1.798213849617502e-10, 4.757544705776313e-11, -8.336227195991568e-11,
    -1.9309444875845696e-09, 2.175778202583718e-09, 3.808399859919044e-09, -4.3319399856586265e-09,
    -7.286380907337668e-09, 8.409387565361773e-09, 1.704753588424969e-08, -1.981757714159112e-08,
    -4.133923052104382e-08, 4.846195220009187e-08, 1.0295431759391202e-07, -1.2203186351938398e-07,
    -2.6890662472901614e-07, 3.2298119177151824e-07, 7.427801232190096e-07, -9.067087633371395e-07,
    -2.1911777880155284e-06, 2.7300414335698033e-06, 7.002245645755649e-06, -8.961207387750024e-06,
    -2.4735204561466906e-05, 3.2843865558254536e-05, 9.95605474202942e-05, -0.00013959021956272223,
    -0.0004797690567662314, 0.00073572415490815, 0.0030328918102753206, -0.005566729880074587,
    -0.031071461824889523, 0.10334973775386522, 1.2185953385133905, 1.363151890371342,
]).reshape(24, 2)


@functools.cache
def _doubling(terms: int):
    """(source, row, target) index triples that fill a (terms, n) table of
    powers u**(terms - 1 - k), highest first, from its last two rows, 1 and u.
    With u**0 to u**(h-1) in place, u**1 to u**m times u**(h-1) are the next
    m powers, so log2(terms) contiguous multiplies fill the table."""
    steps, h = [], 2
    while h < terms:
        m = min(h - 1, terms - h)
        steps.append((slice(-1 - m, -1), -h, slice(-h - m, -h)))
        h += m
    return tuple(steps)


def _power_series(u, table):
    """Rows sum_k table[k, j] * u**(terms - 1 - k) of a (terms, rows) table
    laid out highest power first, as a (rows, u.size) array.

    The powers are laid out the same way and built by ``_doubling``.  The
    sums take einsum's non-BLAS loop, which adds each value term by term from
    the smallest (the highest power) without a (terms, rows, n) table of
    products.  That order holds only for a table of two rows or more whose
    rows are contiguous: at one node einsum's loop otherwise runs along the
    terms and reorders the sum.  So no value depends on the length of u or
    its position."""
    powers = np.empty((len(table), u.size))
    powers[-1] = 1.0
    powers[-2] = u
    for source, row, target in _doubling(len(table)):
        np.multiply(powers[source], powers[row], powers[target])
    return np.einsum("kn,kr->rn", powers, table)


def _k01_series(x):
    """Ascending series for K0 and K1, accurate for x <= 2."""
    half = 0.5 * x
    i0, s0, i1, s1 = _power_series(half * half, _SERIES)
    lg = np.log(half) + EULER_GAMMA
    return s0 - lg * i0, 1.0 / x + half * (lg * i1 - 0.5 * s1)


def _k01_scaled(x):
    """K0 and K1 for x > 2 from the fit of exp(x) sqrt(x) K_nu(x).  exp(-x/2)
    enters twice, so a K that is subnormal (x > 705) is rounded only once."""
    k = _power_series(4.0 / x - 1.0, _SCALED)
    half = np.exp(-0.5 * x)
    k *= half / np.sqrt(x)
    k *= half
    return k


def _one_minus_xk1_series(x):
    """1 - x K1(x) for x <= 2 from the I1 and s1 rows of _SERIES alone."""
    half = 0.5 * x
    q = half * half
    i1, s1 = _power_series(q, _SERIES[:, 2:])
    return -2.0 * q * ((np.log(half) + EULER_GAMMA) * i1 - 0.5 * s1)


def _one_minus_xk1_scaled(x):
    """1 - x K1(x) for x > 2.  K0's row is summed too: _power_series needs two."""
    return 1.0 - x * _k01_scaled(x)[1]


def _by_branch(x, series, scaled):
    """series on the nodes x <= 2 and scaled on the rest, each called on a
    flat array; returns their rows over the flat nodes and x as an array.
    One range test checks the domain and picks the branch, and the nodes are
    split and scattered, by integer index, only where both branches occur."""
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    lo = np.minimum.reduce(flat, initial=np.inf)  # a NaN propagates to both
    hi = np.maximum.reduce(flat, initial=0.0)
    if not (lo > 0.0 and hi < np.inf):
        raise ValueError("bessel_k requires x > 0")
    if hi <= 2.0:
        return series(flat), arr
    if lo > 2.0:
        return scaled(flat), arr
    small = flat <= 2.0
    low, high = np.flatnonzero(small), np.flatnonzero(~small)
    upper = scaled(flat[high])
    out = np.empty(upper.shape[:-1] + flat.shape)
    out[..., high] = upper
    out[..., low] = series(flat[low])
    return out, arr


def bessel_k01(x):
    """K0(x) and K1(x) from one evaluation, as a pair shaped like x."""
    k, arr = _by_branch(x, _k01_series, _k01_scaled)
    return tuple(float(v[0]) if arr.ndim == 0 else v.reshape(arr.shape) for v in k)


def one_minus_xk1(x):
    """1 - x K1(x), shaped like x.  Up to x = 2 it is -(x^2/2)(lg (2/x) I1(x)
    - s1/2) in the sums of _k01_series, lg = ln(x/2) + gamma, which keeps its
    digits where x K1(x) -> 1; above that it is 1 - x K1(x), at least 0.72."""
    out, arr = _by_branch(x, _one_minus_xk1_series, _one_minus_xk1_scaled)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
_KGW = np.array([_KW, _GW])


def _gk15(f, ends, rows):
    """Gauss-Kronrod panels ends[i] = (a, b) of integrals rows[i], all nodes in
    one call of f: returns (kronrod, error_estimate) as lists of floats, and
    for each panel whether f was finite on all its nodes.

    Every sum runs along the contiguous last axis, not through BLAS, so a
    panel's result does not depend on the other panels evaluated with it.
    """
    h = np.array([0.5 * (b - a) for a, b in ends])
    x = np.array([0.5 * (a + b) for a, b in ends])[:, None] + h[:, None] * _NODES
    fx = np.ascontiguousarray(f(x, np.array(rows)[:, None]), dtype=float)
    if fx.shape != x.shape:
        raise QuadratureError("integrand returned non-finite or wrongly shaped values",
                              0.0, np.inf)
    finite = np.isfinite(fx).all(axis=1)
    k15, g7 = h * np.add.reduce(fx[:, None, :] * _KGW, axis=2).T
    # h + h is the panel width b - a exactly
    resasc = h * np.add.reduce(np.abs(fx - (k15 / (h + h))[:, None]) * _KW, axis=1)
    k15 = k15.tolist()
    # QUADPACK-style error heuristic, scaled by the panel's total variation
    err = [abs(k - g) if r == 0.0 else r * min(1.0, 200.0 * abs(k - g) / r) ** 1.5
           for k, g, r in zip(k15, g7.tolist(), resasc.tolist())]
    return k15, err, finite.tolist()


def integrate_batch(f, a, b, spec: QuadratureSpec = QuadratureSpec()) -> List[QuadratureResult]:
    """Adaptive Gauss-Kronrod integration of n integrals on [a_i, b_i] in lockstep.

    ``f(x, rows)`` receives an (m, 15) array of nodes and the (m, 1) integer
    array of the integral each row belongs to, and returns f at x; indexing a
    parameter array by ``rows`` broadcasts it against x.  Each round every
    unconverged integral splits its worst panel, and both halves of every
    split panel are evaluated in one call.  Per integral, the refinement
    order, stopping test and errors are those of a lone adaptive integral, and
    its result does not depend on the other integrals of the batch.  A
    failure of any integral raises for the batch.  Floating-point warnings
    are off throughout; a non-finite integrand value is an error instead.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _lockstep(f, a, b, spec)


def _lockstep(f, a, b, spec: QuadratureSpec) -> List[QuadratureResult]:
    a, b = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
    ends = list(zip(a.tolist(), b.tolist()))
    if not (a.shape == b.shape == (len(ends),)
            and all(math.isfinite(lo) and math.isfinite(hi) and hi > lo for lo, hi in ends)):
        raise ValueError("integrate requires finite a < b")
    vals, errs, finite = _gk15(f, ends, range(len(ends)))
    if not all(finite):
        raise QuadratureError("integrand returned non-finite or wrongly shaped values",
                              0.0, np.inf)
    heaps = [[(-e, lo, hi, v, e)] for (lo, hi), v, e in zip(ends, vals, errs)]
    total_val, total_err, panels = vals, errs, [1] * a.size
    active = range(a.size)
    while active:
        split = []  # (integral, a, midpoint, b, value, error) of each panel split this round
        for i in active:
            if total_err[i] <= max(spec.abs_tol, spec.rel_tol * abs(total_val[i])):
                continue
            if panels[i] >= spec.max_subdivisions:
                raise QuadratureError("max subdivisions reached", total_val[i], total_err[i])
            _, pa, pb, pval, perr = heapq.heappop(heaps[i])
            pm = 0.5 * (pa + pb)
            if not (pa < pm < pb):
                raise QuadratureError("interval exhausted at floating-point resolution",
                                      total_val[i], total_err[i])
            split.append((i, pa, pm, pb, pval, perr))
        if not split:
            break
        idx = [panel[0] for panel in split]
        halves = ([(pa, pm) for _, pa, pm, _, _, _ in split]
                  + [(pm, pb) for _, _, pm, pb, _, _ in split])
        vals, errs, finite = _gk15(f, halves, idx + idx)
        m = len(split)
        for j, (i, pa, pm, pb, pval, perr) in enumerate(split):
            if not (finite[j] and finite[m + j]):
                raise QuadratureError("integrand became non-finite during refinement",
                                      total_val[i], total_err[i])
            lval, lerr, rval, rerr = vals[j], errs[j], vals[m + j], errs[m + j]
            total_val[i] += lval + rval - pval
            total_err[i] += lerr + rerr - perr
            heapq.heappush(heaps[i], (-lerr, pa, pm, lval, lerr))
            heapq.heappush(heaps[i], (-rerr, pm, pb, rval, rerr))
            panels[i] += 1
        active = idx
    # recompute sums in deterministic panel order to shed accumulation noise
    return [QuadratureResult(math.fsum(item[3] for item in heap),
                             math.fsum(item[4] for item in heap), count)
            for heap, count in zip(heaps, panels)]


def _one(f):
    """A 1-D integrand of one integral in the batched contract of integrate_batch."""
    def batched(x, rows):
        fx = np.asarray(f(x.ravel()), dtype=float)
        # a wrong size is left for the panel evaluator's shape check to refuse
        return fx.reshape(x.shape) if fx.size == x.size else fx
    return batched


def integrate(f, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of a vectorised integrand on [a, b]:
    the batch of one of integrate_batch, with f taking a 1-D array of nodes."""
    return integrate_batch(_one(f), a, b, spec)[0]


def _from_unit(f, scale, u, *rows):
    """f over [0, inf) as an integrand in u on [0, 1), t = scale * u / (1 - u);
    non-finite values near u = 1 are caught by the panel evaluator."""
    w = 1.0 - u
    t = scale * u / w
    return f(t, *rows) * scale / (w * w)


def integrate_semi_infinite_batch(f, scales, spec: QuadratureSpec = QuadratureSpec()
                                  ) -> List[QuadratureResult]:
    """integrate_batch of f(t, rows) over [0, inf), integral i on the map
    t = scales[i] * u / (1 - u)."""
    scales = np.array(scales, dtype=float, ndmin=1)
    if not np.all(scales > 0):
        raise ValueError("scale must be > 0")
    return integrate_batch(lambda u, rows: _from_unit(f, scales[rows], u, rows),
                           np.zeros(scales.size), np.ones(scales.size), spec)


def integrate_semi_infinite(f, spec: QuadratureSpec = QuadratureSpec(),
                            scale: float = 1.0) -> QuadratureResult:
    """Integrate f over [0, inf) via the map t = scale * u / (1 - u).

    ``scale`` should match the natural length of the integrand's support; the
    adaptive subdivision then resolves both the origin and the tail.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    return integrate(lambda u: _from_unit(f, scale, u), 0.0, 1.0, spec)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def find_root_bracketed(g: Callable[[float], float], lo: float, hi: float,
                        tol: float = 1e-12) -> float:
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
    for _ in range(200):
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
