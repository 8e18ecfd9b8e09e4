"""Scalar special functions, double-exponential quadrature, and bracketed root finding.

Everything downstream (capacities, affected areas, mode probabilities) reduces
to the scaled exponential integral exp(x)*E1(x), the modified Bessel
functions K0/K1, the scaled erfcx, and one-dimensional integrals on finite or
semi-infinite intervals.  The special functions are implemented here rather
than imported so their accuracy is pinned by this repo's own tests, and so
the runtime needs nothing beyond numpy:

* E1, as exp(x)*E1(x), which does not overflow, by Horner's rule on three
  branches: the Taylor series on (0, 1] (DLMF 6.6.2), embedded Chebyshev fits
  of x exp(x) E1(x) in 1/x per octave of x on (1, 64] (after Cody & Thacher,
  Math. Comp. 22, 1968) and the asymptotic series above (DLMF 6.12.1).  A
  float runs its array lane's operations, numpy's exp and log included, and
  equals it bit for bit.  E_n (DLMF 8.19) recurs upward from E1 on x <= 1,
  stably, and above it takes a modified-Lentz continued fraction.
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
* erfcx: exp(x^2)*erfc(x) on the C library's erfc, with x^2 split exactly
  into two floats, and an asymptotic series where the product would
  overflow; Gaussian-type integrals need it.
* Double-exponential quadrature (Takahasi & Mori 1974): exp-sinh on [0, inf)
  at a per-integral scale, tanh-sinh on [a, b].  Each level halves the step
  in u and adds only the new nodes, and an integral stops when two levels
  agree.  ``integrate_batch`` and ``integrate_semi_infinite_batch`` run n
  independent integrals together in calls ``f(x, rows)`` of up to about 2,048
  nodes, x a 1-D array of nodes and rows the integer array of the integral
  each node belongs to, so ``param[rows]`` broadcasts a per-integral
  parameter against x; f must act element-wise.  The first call covers levels
  0-2 on [0, inf) (129 nodes an integral) or 0-1 on [a, b] (65), each later
  one a level.  Per integral, the levels, stopping test and errors are those
  of a lone integral, and no sum goes through BLAS, so a result is
  bit-for-bit the same alone as inside any batch.  ``integrate`` and
  ``integrate_semi_infinite`` are the batch of one, with f taking a 1-D array
  of nodes.

All functions are pure; array arguments are supported where integrands need
vectorised evaluation (E1, K0, K1).  Their values do not depend on the
length of the array or on a value's position in it.
"""

from __future__ import annotations

import functools
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
    """Quadrature failed to reach tolerance; carries the best estimate."""

    def __init__(self, message: str, best: float, error: float):
        super().__init__(f"{message} (best estimate {best:.6e}, error {error:.2e})")
        self.best = best
        self.error = error


class BracketingError(ValueError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the double-exponential integrators."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")


class QuadratureResult(NamedTuple):
    value: float
    error: float
    panels: int  # nodes evaluated


def _by_branch(x, series, scaled, cut: float = 2.0, name: str = "bessel_k"):
    """series on the nodes x <= cut and scaled on the rest, each called on a
    flat array; returns their rows over the flat nodes and x as an array.
    One range test checks the domain and picks the branch, and the nodes are
    split and scattered, by integer index, only where both branches occur."""
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    lo = np.minimum.reduce(flat, initial=np.inf)  # a NaN propagates to both
    hi = np.maximum.reduce(flat, initial=0.0)
    if not (lo > 0.0 and hi < np.inf):
        raise ValueError(f"{name} requires 0 < x < inf")
    if hi <= cut:
        return series(flat), arr
    if lo > cut:
        return scaled(flat), arr
    small = flat <= cut
    low, high = np.flatnonzero(small), np.flatnonzero(~small)
    upper = scaled(flat[high])
    out = np.empty(upper.shape[:-1] + flat.shape)
    out[..., high] = upper
    out[..., low] = series(flat[low])
    return out, arr


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

# x exp(x) E1(x) for x in (2^j, 2^(j+1)], j = 0..5, in t = 2^(j+2)/x - 3: row j
# from t^17 down to t^0, magnitudes summing to at most 1.22 times any value.
# From 40-digit mpmath at 36 Chebyshev nodes, the first dropped coefficient
# below 3e-18 (tests/test_mathkernel.py rebuilds the rows bit for bit)
_OCTAVES = np.array([
    -1.3432951296876565e-12, 5.2894750539033306e-12, -1.531995465071094e-11, 6.333186108186597e-11,
    -2.7458138661798044e-10, 1.1530857234219312e-09, -4.903725277633267e-09, 2.1250748863550988e-08,
    -9.383875315931697e-08, 4.234933338346499e-07, -1.9613975717903865e-06, 9.37385774400463e-06,
    -4.658463959142373e-05, 0.0002434886680847649, -0.0013629599822417545, 0.008436135835132877,
    -0.06174333067349751, 0.6508128537230682, -7.140899601591861e-14, 3.1609923841809934e-13,
    -1.1141187957304215e-12, 5.1848320160145044e-12, -2.5023181645368368e-11, 1.1970351002606292e-10,
    -5.833973709090639e-10, 2.9098967945911713e-09, -1.4884960849028621e-08, 7.840269719668172e-08,
    -4.275095559537071e-07, 2.430430618549884e-06, -1.4549522860003424e-05, 9.305743671173572e-05,
    -0.0006505704390511966, 0.005172158336960534, -0.050697119947855, 0.768752189048245,
    -1.262200724206803e-15, 6.573850233839006e-15, -2.948394214358199e-14, 1.6204912649252206e-13,
    -9.186271302551282e-13, 5.263129733927212e-12, -3.094456383784497e-11, 1.874637873450196e-10,
    -1.1746191972953169e-09, 7.65281633453694e-09, -5.219931517108466e-08, 3.7616506867150566e-07,
    -2.9000869873053222e-06, 2.4358269733028532e-05, -0.00022922542102282698, 0.0025348142891519552,
    -0.03619507829804714, 0.8592503002464433, -6.10196729943317e-18, 3.9713496745474945e-17,
    -2.38711246329655e-16, 1.6508336358784506e-15, -1.178443034927259e-14, 8.635258780257032e-14,
    -6.550221793861182e-13, 5.166551859126035e-12, -4.2597558296227775e-11, 3.695769528134532e-10,
    -3.4030605946192607e-09, 3.36323036151717e-08, -3.622501232055239e-07, 4.346022722624378e-06,
    -6.00285212726471e-05, 0.0010083516031452733, -0.022885877636733186, 0.9201706542494457,
    -7.145042549516951e-21, 6.266891196044951e-20, -5.364826356593148e-19, 5.0514081844055564e-18,
    -4.9376448059107446e-17, 5.017059888988076e-16, -5.329935158631327e-15, 5.951799394373289e-14,
    -7.031122115157127e-13, 8.85777308272575e-12, -1.2021147690442955e-10, 1.7807559029621938e-09,
    -2.9307422493358682e-08, 5.493318326191635e-07, -1.2167590689035686e-05, 0.00033815642086458113,
    -0.013192916149848972, 0.9569960633634126, -2.0512307425805558e-24, 2.645230125630134e-23,
    -3.4580947999870624e-22, 4.848505274695459e-21, -7.114463447118695e-20, 1.0967793982865873e-18,
    -1.7860168970594262e-17, 3.090910247269771e-16, -5.72682291434397e-15, 1.146271163166571e-13,
    -2.506797645571436e-12, 6.077469147272582e-11, -1.6652408707123703e-09, 5.2964389369032884e-08,
    -2.03363612825451e-06, 0.00010036835503087893, -0.007148883296976409, 0.9775903812952121,
]).reshape(6, 18)
_OCTAVE_ROWS, _BY_POWER = _OCTAVES.tolist(), _OCTAVES.T  # a float's row; the array nodes' columns
# E1 + gamma + ln x = x sum (-1)^(k+1) x^(k-1)/(k k!), k = 17 down to 1
_TAYLOR = [(-1) ** (k + 1) / (k * math.factorial(k)) for k in range(17, 0, -1)]
# x exp(x) E1(x) ~ sum (-1)^k k! x^-k, k = 20 down to 0: to 1e-18 above x = 64
_ASYMPTOTIC = [float((-1) ** k * math.factorial(k)) for k in range(20, -1, -1)]


def _horner(t, coefficients):
    """c_0 t^m + ... + c_m by Horner's rule; t a float or array, each c a float or one per node."""
    acc = coefficients[0] * t
    for c in coefficients[1:-1]:
        acc += c
        acc *= t
    return acc + coefficients[-1]


def _e1_taylor(x):
    """exp(x) E1(x) on (0, 1], to 4e-17 of E1."""
    return np.exp(x) * (-EULER_GAMMA - np.log(x) + x * _horner(x, _TAYLOR))


def _e1_octaves(x):
    """exp(x) E1(x) on (1, 64]: 1/x = m 2^e, 1/2 <= m < 1, is octave -e's t = 4m - 3."""
    scalar = isinstance(x, float)
    m, e = (math.frexp if scalar else np.frexp)(1.0 / x)
    coefficients = _OCTAVE_ROWS[-e] if scalar else np.take(_BY_POWER, -e, axis=1)
    return _horner(4.0 * m - 3.0, coefficients) / x


def _e1_asymptotic(x):
    """exp(x) E1(x) on (64, inf)."""
    return _horner(1.0 / x, _ASYMPTOTIC) / x


def _e1_above_1(x):
    """exp(x) E1(x) on an array of x > 1."""
    return _by_branch(x, _e1_octaves, _e1_asymptotic, 64.0, "scaled_e1")[0]


def scaled_e1(x):
    """exp(x) * E1(x), valid for any x > 0 without overflow, on a float or an
    array.  Strictly decreasing; bounded by (1/(x+1), 1/x)."""
    if isinstance(x, (float, int)):
        x = float(x)
        if not 0.0 < x < math.inf:
            raise ValueError("scaled_e1 requires 0 < x < inf")
        branch = _e1_taylor if x <= 1.0 else _e1_octaves if x <= 64.0 else _e1_asymptotic
        return float(branch(x))
    out, arr = _by_branch(x, _e1_taylor, _e1_above_1, 1.0, "scaled_e1")
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def scaled_en(x: float, n: int) -> float:
    """exp(x) * E_n(x) for one float x > 0 and order n >= 1: scaled_e1 for n = 1,
    else the upward recurrence from it on (0, 1] and modified Lentz above.

    The k-th derivative of exp(x) E1(x) is (-1)^k k! exp(x) E_(k+1)(x) / x^k,
    and exp(x) E2(x) = 1 - x exp(x) E1(x) without the cancellation of that
    difference at large x."""
    if not 0.0 < x < math.inf:
        raise ValueError("scaled_en requires 0 < x < inf")
    if n < 1:
        raise ValueError("scaled_en requires order n >= 1")
    if n == 1 or x <= 1.0:
        h = scaled_e1(x)
        # upward recurrence E_(k+1) = (exp(-x) - x E_k)/k: errors shrink by x/k <= 1
        for k in range(1, n):
            h = (1.0 - x * h) / k
        return h
    b, c = x + n, 1.0 / 1e-300
    h = d = 1.0 / b
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

    Below x = 25 the product exp(hi) erfc(x) (1 + lo), where x^2 = hi + lo
    exactly (Dekker's product on Veltkamp's split): exp(x*x) alone would
    carry x*x's rounding, a relative error of up to x^2 2^-53.  Beyond it,
    where both factors overflow/underflow, an asymptotic series.
    """
    if x < 0:
        raise ValueError("erfcx implemented for x >= 0 only")
    if x < 25.0:
        hi = x * x
        c = 134217729.0 * x  # 2^27 + 1
        xh = c - (c - x)
        xl = x - xh
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        return math.exp(hi) * math.erfc(x) * (1.0 + lo)
    zi = 1.0 / (x * x)
    s = 1.0
    term = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) / 2.0 * zi
        s += term
    return s / (x * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# double-exponential quadrature
# ---------------------------------------------------------------------------

_H0 = 0.25     # step in u of level 0; level k halves it k times
_LEVELS = 7    # levels 0 to 6: at most 2,049 nodes on [-4, 4]
_CHUNK = 2048  # nodes per integrand call, in whole integrals; AF temporaries take 170 B a node
_TINY = np.finfo(float).tiny
_NONFINITE = "integrand returned non-finite or wrongly shaped values"


@functools.cache
def _level(semi_infinite: bool, level: int):
    """The nodes of the integrand call at ``level``, level after level, as
    (d, w, left, starts): each node's distance from its end and weight dx/du
    per unit scale, whether that end is the left one (None on [0, inf)),
    and where each level starts and ends.  The call at level 0 takes levels
    0-2 on [0, inf), 0-1 on [-1, 1], which the models' integrals all reach.

    Level 0 holds every multiple of _H0 in u on [-4.5, 3.5] for [0, inf),
    where t = exp((pi/2) sinh u) (exp-sinh), and on [-4, 4] for [-1, 1],
    where x = tanh((pi/2) sinh u) (tanh-sinh); each later level adds the odd
    multiples of its step.  A tanh-sinh node lies 2 e^(-2|s|)/(1 + e^(-2|s|))
    from its nearer end, s = (pi/2) sinh u, which does not round to the end.
    """
    lo, hi = (-18, 14) if semi_infinite else (-16, 16)
    levels = range(3 if semi_infinite else 2) if level == 0 else [level]
    us = [np.arange(lo * 2 ** k, hi * 2 ** k + 1) * (_H0 / 2 ** k) for k in levels]
    us = [u[1::2] if k else u for k, u in zip(levels, us)]
    u = np.concatenate(us)
    s = 0.5 * math.pi * np.sinh(u)
    ds = 0.5 * math.pi * np.cosh(u)
    starts = np.cumsum([0] + [v.size for v in us]).tolist()
    if semi_infinite:
        t = np.exp(s)
        return t, ds * t, None, starts
    q = np.exp(-2.0 * np.abs(s))
    return 2.0 * q / (1.0 + q), ds * 4.0 * q / (1.0 + q) ** 2, u <= 0.0, starts


def _evaluate(f, semi_infinite: bool, a, b, scale, active, level: int):
    """Tables, a row per integral of ``active``, of its terms w f(x) on
    ``_level(semi_infinite, level)`` (0 where a node adds 0) and of each
    level's node count (-1 where f is non-finite there); and the levels' starts."""
    d, dw, left, starts = _level(semi_infinite, level)
    k = active.size
    terms, counts = np.zeros((k, d.size)), np.empty((k, len(starts) - 1), dtype=int)
    step = -(-k // -(-k * d.size // _CHUNK))  # integrals per group
    for i in range(0, k, step):
        rows, out = active[i:i + step], terms[i:i + step]
        dist, w = np.maximum(scale[rows, None] * d, _TINY), scale[rows, None] * dw
        if semi_infinite:
            x, valid = dist, w < np.inf
        else:
            lo, hi = a[rows, None], b[rows, None]
            x = np.where(left, lo + dist, hi - dist)
            valid = (lo < x) & (x < hi)
        every = valid.all()
        fx = np.asarray(f(x.ravel(), np.repeat(rows, d.size)) if every else
                        f(x[valid], np.broadcast_to(rows[:, None], x.shape)[valid]), dtype=float)
        if fx.shape != (np.count_nonzero(valid),):
            raise QuadratureError(_NONFINITE, 0.0, math.inf)
        if every:
            np.multiply(w, fx.reshape(x.shape), out=out)
        else:
            out[valid] = w[valid] * fx
        counts[i:i + step] = np.add.reduceat(valid, starts[:-1], axis=1, dtype=int)
        if not np.isfinite(fx).all():
            valid[valid] = ~np.isfinite(fx)  # now the non-finite nodes
            counts[i:i + step][np.logical_or.reduceat(valid, starts[:-1], axis=1)] = -1
    return terms, counts, starts


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _double_exponential(f, semi_infinite: bool, a, b, scale,
                        spec: QuadratureSpec) -> List[QuadratureResult]:
    """n integrals by the rule of ``_level``, each with its own scale (the
    half-width on [a, b]), level by level.

    A node closer to its end than the smallest normal float is moved out to
    that distance, so that the integrand sees no subnormal input; its weight
    is below any tolerance.  A node that still lands on an end, or has an
    infinite weight, adds 0 unevaluated.  A level enters an integral's sum,
    node count and non-finite check once the integral reaches it.  S_k at
    step h is S_(k-1)/2 plus h times the new nodes' sum, S_(-1) = 0.  An
    integral stops once |S_k - S_(k-1)|, plus h times its terms at the two
    ends of level 0 (the grid's truncation), is at most max(abs_tol,
    rel_tol |S_k|); that is its error.
    """
    total, error = np.zeros((2, scale.size))
    nodes, active = np.zeros(scale.size, dtype=int), np.arange(scale.size)
    for level in range(_LEVELS):
        at, j = active, level  # a level of the first call, whose tables hold all n integrals
        if level == 0 or level >= counts.shape[1]:  # a level of its own call
            terms, counts, starts = _evaluate(f, semi_infinite, a, b, scale, active, level)
            at, j = slice(None), 0
        if (counts[at, j] < 0).any():
            raise QuadratureError(_NONFINITE, 0.0, math.inf)
        nodes[active] += counts[at, j]
        part = terms[at, starts[j]:starts[j + 1]]
        h = _H0 / 2 ** level
        new = h * np.add.reduce(part, axis=1) + 0.5 * total[active]  # along each row, not BLAS
        if level == 0:
            ends = np.abs(part[:, 0]) + np.abs(part[:, -1])
        error[active] = np.abs(new - total[active]) + h * ends[active]
        total[active] = new
        active = active[error[active] > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(new))]
        if not active.size:
            return [QuadratureResult(*r) for r in zip(total.tolist(), error.tolist(),
                                                      nodes.tolist())]
    raise QuadratureError(f"no convergence in {_LEVELS} levels of the double-exponential rule",
                          float(total[active[0]]), float(error[active[0]]))


def integrate_batch(f, a, b, spec: QuadratureSpec = QuadratureSpec()) -> List[QuadratureResult]:
    """Tanh-sinh integration of n integrals on [a_i, b_i] together.

    The first levels, then each later level's new nodes, of every unconverged
    integral go to ``f(x, rows)`` in calls of up to about _CHUNK nodes: x a
    1-D array of nodes and rows the integer array of the integral each
    belongs to, so indexing a parameter array by ``rows`` broadcasts it
    against x.  Each result is bit for bit that of its integral alone.  A
    failure of any integral raises for the batch.  Floating-point warnings
    are off throughout; a non-finite integrand value is an error instead.
    """
    a, b = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
    if not (a.shape == b.shape == (a.size,) and np.all(np.isfinite(a) & np.isfinite(b) & (a < b))):
        raise ValueError("integrate requires finite a < b")
    return _double_exponential(f, False, a, b, 0.5 * (b - a), spec)


def integrate_semi_infinite_batch(f, scales, spec: QuadratureSpec = QuadratureSpec()
                                  ) -> List[QuadratureResult]:
    """integrate_batch of f(t, rows) over [0, inf) by the exp-sinh rule,
    integral i on the map t = scales[i] exp((pi/2) sinh u)."""
    scales = np.array(scales, dtype=float, ndmin=1)
    if not np.all((scales > 0) & (scales < np.inf)):
        raise ValueError("scale must be finite and > 0")
    return _double_exponential(f, True, None, None, scales, spec)


def integrate(f, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Tanh-sinh integration of a vectorised integrand on [a, b]: the batch
    of one of integrate_batch, with f taking a 1-D array of nodes."""
    return integrate_batch(lambda x, rows: f(x), a, b, spec)[0]


def integrate_semi_infinite(f, spec: QuadratureSpec = QuadratureSpec(),
                            scale: float = 1.0) -> QuadratureResult:
    """Integrate f over [0, inf) on the map t = scale * exp((pi/2) sinh u).

    ``scale`` should match the natural length of the integrand's support;
    the nodes reach from about 2e-31 to 2e11 times it, so f must decay at
    least as fast as t^-2.
    """
    return integrate_semi_infinite_batch(lambda t, rows: f(t), scale, spec)[0]


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
