"""Scalar kernel: the deformed logarithm, weighted means, and the named
helper functionals used by the inequality chains.

Everything here is a pure function of its arguments, computed in binary64.
The deformed-logarithm family accepts numpy arrays as well as floats so the
matrix layer can apply it to eigenvalue vectors directly; ``deformed_log``
and ``deformed_log_gap`` also take an array of deformation indices that
broadcasts against ``x`` (a column of k indices for a (k, n) stack of
eigenvalue vectors). The gap, ``theta``, the t-derivative and ``eta`` pass
their 0/0 through one helper, phi2(u) = (expm1(u) - u)/u**2, cancelling nowhere.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# The quotient expm1(t L)/t is accurate wherever t L is a normal float; the
# series below this serves t = 0, where it is 0/0, and a t L that underflows
# (at t = 5e-324 and x = 0.7 the quotient gives -0.0).
T_SWITCH = 1e-8

# the largest u at which phi2(u) is finite, the log of the largest float:
# past it expm1(u) overflows
PHI2_MAX = 709.782712893384

# phi2's Taylor coefficients 1/(k+2)!, k = 14..0: on |u| <= 1/2 they reach the last bit
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(14, -1, -1))


def _log(x):
    """log(x), checked: a Python float at a float x, where _phi2 runs fastest."""
    x = _as_positive(x)
    return float(np.log(x)) if isinstance(x, float) else np.log(x)


def _as_positive(x, name="x"):
    if isinstance(x, float):  # numpy float64 included
        if 0.0 < x < math.inf:
            return x
        raise DomainError(f"{name} must be positive and finite, got {x!r}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be positive and finite, got {x!r}")
    return arr


def deformed_log(t: float, x):
    """Deformed logarithm: (x**t - 1)/t for t != 0, with log(x) as the
    continuous extension at t = 0.

    Monotone increasing in t for fixed x > 0, which is what makes the
    entropy-ordering chains work.
    """
    if isinstance(t, float) and isinstance(x, float) and abs(t) > T_SWITCH:
        return float(np.expm1(t * _log(x)) / t)  # one point: the quotient, with no array dispatch
    out = _deformed_log(t, np.log(_as_positive(x)))  # the series' powers are numpy's, on np.float64 L
    return out if isinstance(out, np.ndarray) else float(out)


def _deformed_log(t, L):
    """``deformed_log`` from L = log(x), with no check of x: the kernel that
    the matrix chains apply to the log-spectrum of an X already validated."""
    return _series_or_quotient(
        abs(t) <= T_SWITCH,
        lambda: L + (t / 2.0) * L**2 + (t * t / 6.0) * L**3,
        lambda: np.expm1(t * L) / t,
    )


def _series_or_quotient(small, series, quotient):
    """series() where ``small`` holds and quotient() elsewhere; ``small`` is
    one bool, or an array of them when the arguments are arrays."""
    if isinstance(small, bool):
        return series() if small else quotient()
    if small.all():
        return series()
    if not small.any():
        return quotient()
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, series(), quotient())


def _phi2(u):
    """phi2(u) = (expm1(u) - u)/u**2, continued by 1/2 at u = 0: its Taylor series
    by Horner on |u| <= 1/2, where the quotient cancels, and the quotient beyond."""
    if isinstance(u, float) and not abs(u) <= 0.5:  # one point past the series: no closures
        return (np.expm1(u) - u) / (u * u)

    def series():
        acc = 0.0
        for c in _PHI2_SERIES:
            acc = acc * u + c
        return acc
    return _series_or_quotient(abs(u) <= 0.5, series, lambda: (np.expm1(u) - u) / (u * u))


def deformed_log_gap(t: float, x):
    """deformed_log(t, x) - log(x) = t L**2 phi2(t L) with L = log(x),
    computed without cancellation; O(t) near t = 0."""
    L = _log(x)
    u = t * L
    out = u * L * _phi2(u)
    return out if isinstance(out, np.ndarray) else float(out)


def weighted_means(a: float, b: float, v: float) -> tuple[float, float]:
    """Weighted arithmetic and geometric means (1-v)a + vb and a**(1-v) b**v."""
    _as_positive(a, "a")
    _as_positive(b, "b")
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"weight v must lie in [0, 1], got {v!r}")
    arith = (1.0 - v) * a + v * b
    geom = a ** (1.0 - v) * b**v
    return float(arith), float(geom)


def young_ratio_bounds(a: float, b: float, v: float, n: int) -> tuple[float, float, float]:
    """Two-sided exponential bounds on the arithmetic-to-geometric mean ratio.

    Returns (lower, ratio, upper) with
        lower = exp(n (1 - ratio**(-1/n))),  upper = exp(n (ratio**(1/n) - 1)).
    Both bounds tighten to the ratio itself as n grows. For extreme ratios
    at small n the upper bound exceeds float range and rounds to inf.
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    arith, geom = weighted_means(a, b, v)
    ratio = arith / geom
    L = np.log(ratio)
    # expm1 keeps n*(ratio**(1/n) - 1) accurate for large n
    with np.errstate(over="ignore"):
        upper = float(np.exp(n * np.expm1(L / n)))
    lower = float(np.exp(-n * np.expm1(-L / n)))
    return lower, float(ratio), upper


def ratio_sequences(x: float, n: int) -> tuple[float, float]:
    """Root-based sequences a_n = n(x**(1/n) - 1) and b_n = n(1 - x**(-1/n)).

    Both converge to log(x); for x >= 1, a_n decreases and b_n increases
    in n, squeezing the logarithm from both sides.
    """
    _as_positive(x, "x")
    if n < 1 or int(n) != n:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    L = np.log(x)
    a_n = float(n * np.expm1(L / n))
    b_n = float(-n * np.expm1(-L / n))
    return a_n, b_n


def theta(t: float, x: float) -> float:
    """Additive refinement term min{(deformed_log(t,x) - log x)**2, t**2}: 0 at
    t = 0 by the limit, and theta(t, 1) = 0 for every t."""
    _as_positive(x, "x")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t!r}")
    gap = deformed_log_gap(t, x)
    return float(min(gap * gap, t * t))


def eta(x, a: float):
    """Logarithmic growth rate of the deformed log in its deformation index.

    eta(x, a) = (x**a log x - deformed_log(a, x)) / (a * deformed_log(a, x)),
    extended continuously to a = 0 (value log(x)/2) and x = 1 (value 0).
    Monotone increasing in x, negative for x < 1 and positive for x > 1.
    ``x`` may be an array.
    """
    L = _log(x)
    if a < 0.0:
        raise DomainError(f"a must be nonnegative, got {a!r}")
    u = a * L
    # eta = L g(u), with h(v) = phi2(v)/(1 + v phi2(v)) <= 1/2 for v >= 0:
    # g(u) = 1 - h(u) right of 0 and h(-u) left of it, neither cancelling.
    # h(v) = (1 - v/expm1(v))/v, which is 1/v in floats where phi2(v) overflows
    v = abs(u)
    if isinstance(v, float):
        if v > PHI2_MAX:
            h = 1.0 / v
        else:
            p = _phi2(v)
            h = p / (1.0 + v * p)
        return float(L * (h if u < 0.0 else 1.0 - h))
    w = np.minimum(v, PHI2_MAX)  # w == v wherever phi2(v) is in range
    p = _phi2(w)
    h = np.where(v > PHI2_MAX, 1.0 / np.maximum(v, PHI2_MAX), p / (1.0 + w * p))
    return L * _series_or_quotient(u < 0.0, lambda: h, lambda: 1.0 - h)


def phi(t: float, x: float) -> float:
    """Young-gap functional (x - 1)/((1-t) + t x) - log x.

    Monotone decreasing in t; nonnegative on 0 <= t <= 1/2, 0 < x <= 1,
    where it certifies a genuine refinement of the mean inequality.
    """
    _as_positive(x, "x")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t!r}")
    return float((x - 1.0) / ((1.0 - t) + t * x) - np.log(x))


def _geom_log_derivative(g, a, b, t, ga, gb, gm) -> float:
    """Logarithmic derivative at t of the interpolation ratio g(a**(1-t)
    b**t) / (g(a)**(1-t) g(b)**t), from the values ga, gb and gm of g at a,
    b and the interpolant a**(1-t) b**t, which the caller has checked to be
    positive (a and b too); reads g' once."""
    mid = a ** (1.0 - t) * b**t
    return float(np.log(ga / gb) - mid * np.log(a / b) * g.deriv(mid) / gm)


def deformed_log_t_derivative(t: float, x):
    """d/dt of deformed_log(t, x), L**2 e**u phi2(-u) with L = log(x) and
    u = t L; nonnegative for every x > 0. ``t`` and ``x`` may be arrays."""
    L = _log(x)
    u = t * L
    # where phi2(-u) overflows, e**u phi2(-u) = (1 - e**u (1 - u))/u**2, which
    # does not cancel there
    if isinstance(u, float):
        if -u > PHI2_MAX:
            return float(L * L * ((1.0 - np.exp(u) * (1.0 - u)) / (u * u)))
        return float(L * L * np.exp(u) * _phi2(-u))
    # each branch on its own side of -PHI2_MAX, so that neither warns
    w, z = np.maximum(u, -PHI2_MAX), np.minimum(u, -PHI2_MAX)
    return np.where(-u > PHI2_MAX, L * L * ((1.0 - np.exp(z) * (1.0 - z)) / (z * z)), L * L * np.exp(w) * _phi2(-w))
