"""Scalar inequality chains.

Each checker evaluates one chain a_1 <= a_2 <= ... <= a_k at concrete
parameters and returns a ChainVerdict holding the ordered values, per-link
slacks, and a tolerance-based pass flag. Checkers raise on precondition
violations; a returned verdict always means the chain was evaluable. They
read f through ``FunctionSpec.at``, which refuses a point outside its domain,
and share three refusals: ``_flagged``, ``_positive`` and ``_weighted``.

A checker computes only what its verdict is decided on. Its witness (the
parameters and the values that explain the verdict, such as direct bound
values) is a zero-argument builder, run when ``ChainVerdict.witness`` is
first read: by ``to_dict``, and so by ``oel verify``, never by fuzzing.
Every refusal happens before the verdict is returned, so a builder cannot
raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import scalar
from .errors import DomainError, NumericError
from .funcs import FunctionSpec

DEFAULT_TOL = 1e-9


@dataclass
class ChainVerdict:
    """The outcome of one scalar chain; ``build_witness`` makes the witness
    dict, which ``witness`` builds on first read."""

    chain_id: str
    values: list[float]
    slacks: list[float]
    ok: bool
    tol: float
    scale: float
    build_witness: Callable[[], dict] = field(default=dict, repr=False, compare=False)

    applicable = True  # a scalar chain has no hypothesis to fail; bad input raises

    @cached_property
    def witness(self) -> dict:
        return self.build_witness()

    @property
    def min_rel_slack(self) -> float:
        if not self.slacks:
            return 0.0
        return min(self.slacks) / self.scale

    def to_dict(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "values": list(self.values),
            "slacks": list(self.slacks),
            "pass": self.ok,
            "tol": self.tol,
            "witness": dict(self.witness),
        }


def verdict_from_values(chain_id, values, tol, build_witness=dict) -> ChainVerdict:
    """Build a verdict for an ordered chain of floats, whose witness dict
    ``build_witness`` makes.

    Passing means every adjacent slack stays above -tol*scale where
    scale = max(1, max |value|); the relative form keeps chains that mix
    magnitudes across many orders comparable.
    """
    values = [float(v) for v in values]
    slacks = []
    scale = 1.0
    prev = None
    for v in values:
        if not math.isfinite(v):
            raise NumericError(f"{chain_id}: chain produced non-finite values {values!r}")
        if abs(v) > scale:
            scale = abs(v)
        if prev is not None:
            slacks.append(v - prev)
        prev = v
    ok = not slacks or min(slacks) >= -tol * scale
    return ChainVerdict(chain_id, values, slacks, ok, tol, scale, build_witness)


def _flagged(f: FunctionSpec, flag: str):
    if flag not in f.flags:
        raise ValueError(f"{f.id!r} is not flagged {flag}")


def _positive(f: FunctionSpec, lowest: float, why: str = ""):
    """Refuses an f whose ``lowest`` value, among those a chain divides by or
    takes the log of, is not positive."""
    if lowest <= 0.0:
        raise DomainError(f"{f.id!r} must be positive{why}")


def _weighted(w, x) -> tuple[list, list]:
    """The weights ``w``, positive and summing to 1, and their points ``x``,
    one each, as float lists."""
    w = [float(v) for v in w]
    if not all(v > 0.0 for v in w):  # so that NaN is refused
        raise ValueError("weights must be positive")
    if abs(sum(w) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {sum(w)!r}")
    x = [float(v) for v in x]
    if len(w) != len(x):
        raise ValueError("weights and points must have equal length")
    return w, x


def young_ratio_chain(a, b, v, n, tol=DEFAULT_TOL) -> ChainVerdict:
    """Exponential bounds squeezing the arithmetic-to-geometric mean ratio.

    Verified in log space, b_n(r) <= log r <= a_n(r), which is the same
    assertion under the monotone exp but stays inside float range; the
    direct bound values (which can round to inf for extreme ratios at
    small n) ride along in the witness.
    """
    if n < 1 or int(n) != n:  # refused before a, b and v, as young_ratio_bounds refuses it
        raise DomainError(f"n must be a positive integer, got {n!r}")
    arith, geom = scalar.weighted_means(a, b, v)
    ratio = scalar._as_positive(arith / geom, "prop-2.1's mean ratio")  # overflows for far-apart a, b
    a_n, b_n = scalar.ratio_sequences(ratio, n)

    def witness():
        lower, _, upper = scalar.young_ratio_bounds(a, b, v, n)
        return {"a": a, "b": b, "v": v, "n": n, "lower": lower, "ratio": ratio, "upper": upper}

    return verdict_from_values("prop-2.1", [b_n, math.log(ratio), a_n], tol, witness)


def check_minmax_square(f: FunctionSpec, s, t, tol=DEFAULT_TOL) -> ChainVerdict:
    """min/max squeeze of |f(t)-f(s)| between the squared increment quotient
    and the plain increment."""
    if not t > s:
        raise ValueError(f"need t > s, got s={s!r}, t={t!r}")
    fs = f.at(s, "s")
    diff = f.at(t, "t") - fs
    quad = diff * diff / (t - s)
    mid = diff if f.has("monotone_increasing") else abs(diff)
    return verdict_from_values(
        "thm-2.2",
        [min(quad, t - s), mid, max(quad, t - s)],
        tol,
        lambda: {"fn": f.id, "s": s, "t": t, "monotone_form": f.has("monotone_increasing")},
    )


def check_minmax_power(f: FunctionSpec, s, t, p, q, tol=DEFAULT_TOL) -> ChainVerdict:
    """Power-exponent generalization of the min/max squeeze for an
    increasing function; needs p >= 1 >= q and a positive increment
    except in the (p, q) = (2, 0) case. Refuses, by name, an (s, t, p, q)
    at which a power quotient of the chain leaves float range."""
    if not t > s:
        raise ValueError(f"need t > s, got s={s!r}, t={t!r}")
    if p < 1.0 or q > 1.0:
        raise ValueError(f"need p >= 1 and q <= 1, got p={p!r}, q={q!r}")
    _flagged(f, "monotone_increasing")
    fs = f.at(s, "s")
    diff = f.at(t, "t") - fs
    if diff <= 0.0 and (p, q) != (2.0, 0.0):
        raise ValueError("increment must be positive unless (p, q) == (2, 0)")
    try:
        lo_term = diff**p / (t - s) ** (p - 1.0)
        hi_term = diff**q / (t - s) ** (q - 1.0)
    except ArithmeticError:  # a power overflows, or (t - s)**(p - 1) underflows to 0
        lo_term = hi_term = math.inf
    if not (math.isfinite(lo_term) and math.isfinite(hi_term)):  # a quotient overflows too, or p or q is NaN
        raise ValueError(f"rem-2.3's values must be within float range, got s={s!r}, t={t!r}, p={p!r}, q={q!r}")
    return verdict_from_values(
        "rem-2.3",
        [min(lo_term, hi_term), diff, max(lo_term, hi_term)],
        tol,
        lambda: {"fn": f.id, "s": s, "t": t, "p": p, "q": q},
    )


def jensen_refinement(f: FunctionSpec, w, x, t, tol=DEFAULT_TOL) -> ChainVerdict:
    """Jensen bound sharpened by a min-of-squares correction term built from
    values along the segment from the weighted mean to the sample points."""
    _flagged(f, "convex")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"need 0 < t <= 1, got {t!r}")
    w, x = _weighted(w, x)
    mean = sum(wi * xi for wi, xi in zip(w, x))
    at_x = [(f.at(xi, "sample point"), f.at(t * xi + (1.0 - t) * mean, "mixed point")) for xi in x]
    f_mean = f.at(mean, "mean")
    g_t = sum(wi * f_mix for wi, (_, f_mix) in zip(w, at_x))
    psi = min((g_t - f_mean) ** 2, t * t)
    rhs = sum(wi * f_xi for wi, (f_xi, _) in zip(w, at_x))
    return verdict_from_values(
        "cor-2.4",
        [f_mean + psi / t, rhs],
        tol,
        lambda: {"fn": f.id, "w": w, "x": x, "t": t, "psi": psi, "mean": mean},
    )


def am_gm_refinement(w, x, t, tol=DEFAULT_TOL) -> ChainVerdict:
    """Arithmetic-geometric mean gap bounded below by the Jensen correction.

    The chain is 0 <= psi/t <= log(A/G); when every sample point is >= 1 the
    final link extends to the raw gap A - G.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"need 0 < t <= 1, got {t!r}")
    w, x = _weighted(w, x)
    if any(v <= 0.0 for v in x):
        raise DomainError("sample points must be positive")
    arith = sum(wi * xi for wi, xi in zip(w, x))
    geom = float(np.prod([xi**wi for wi, xi in zip(w, x)]))
    gmix = float(np.prod([(t * xi + (1.0 - t) * arith) ** wi for wi, xi in zip(w, x)]))
    psi = min(np.log(arith / gmix) ** 2, t * t)
    values = [0.0, psi / t, float(np.log(arith / geom))]
    # the raw-gap link needs the geometric mean above 1
    if min(x) >= 1.0:
        values.append(arith - geom)
    return verdict_from_values(
        "cor-2.4-am-gm",
        values,
        tol,
        lambda: {"w": w, "x": x, "t": t, "arith": arith, "geom": geom},
    )


def logconvex_chain(f: FunctionSpec, s, t, mode, tol=DEFAULT_TOL) -> ChainVerdict:
    """Tangent-line bounds on f(t)/f(s) through the logarithmic derivative.

    For a log-convex f the ratio is squeezed between the exponentials of
    f'/f evaluated at s (below) and t (above); a log-concave f swaps the
    evaluation points.
    """
    if mode not in ("convex", "concave"):
        raise ValueError(f"mode must be 'convex' or 'concave', got {mode!r}")
    _flagged(f, "log_convex" if mode == "convex" else "log_concave")
    fs, ft = f.at(s, "s"), f.at(t, "t")
    _positive(f, min(fs, ft), " for ratio bounds")
    rs = f.deriv(s) / fs
    rt = f.deriv(t) / ft
    d = t - s
    if mode == "convex":
        values = [math.exp(rs * d), ft / fs, math.exp(rt * d)]
    else:
        values = [math.exp(rt * d), ft / fs, math.exp(rs * d)]
    return verdict_from_values(
        f"thm-2.6-{mode}",
        values,
        tol,
        lambda: {"fn": f.id, "s": s, "t": t, "mode": mode},
    )


def geomconvex_chain(f: FunctionSpec, s, t, tol=DEFAULT_TOL) -> ChainVerdict:
    """Power-law bounds on f(t)/f(s) for a geometrically convex f."""
    _flagged(f, "geometrically_convex")
    if s <= 0.0 or t <= 0.0:
        raise ValueError("geometric convexity bounds need positive s, t")
    fs, ft = f.at(s, "s"), f.at(t, "t")
    _positive(f, min(fs, ft), " for ratio bounds")
    es = s * f.deriv(s) / fs
    et = t * f.deriv(t) / ft
    return verdict_from_values(
        "thm-2.7",
        [(t / s) ** es, ft / fs, (t / s) ** et],
        tol,
        lambda: {"fn": f.id, "s": s, "t": t},
    )


def geom_interpolation_chain(g: FunctionSpec, a, b, t, tol=DEFAULT_TOL) -> ChainVerdict:
    """Bounds on the ratio g(a**(1-t) b**t) / (g(a)**(1-t) g(b)**t).

    Admissible for geometrically convex g, or log-convex increasing g.
    """
    if not (g.has("geometrically_convex") or (g.has("log_convex") and g.has("monotone_increasing"))):
        raise ValueError(
            f"{g.id!r} needs geometrically_convex, or log_convex + monotone_increasing"
        )
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"need 0 <= t <= 1, got {t!r}")
    ga, gb = g.at(a, "a"), g.at(b, "b")
    scalar._as_positive(a, "a")  # a negative a or b makes the interpolant complex
    scalar._as_positive(b, "b")
    gm = g.at(a ** (1.0 - t) * b**t, "interpolant")
    _positive(g, min(ga, gb, gm), " for ratio bounds")
    ratio = gm / (ga ** (1.0 - t) * gb**t)
    g0 = scalar._geom_log_derivative(g, a, b, 0.0, ga, gb, ga)  # at t = 0 the interpolant is a
    gt = scalar._geom_log_derivative(g, a, b, t, ga, gb, gm)
    return verdict_from_values(
        "cor-2.8",
        [math.exp(g0 * t), ratio, math.exp(gt * t)],
        tol,
        lambda: {"fn": g.id, "a": a, "b": b, "t": t, "G0": g0, "Gt": gt},
    )


def jensen_exponential_bounds(f: FunctionSpec, weights, points, kind, tol=DEFAULT_TOL) -> ChainVerdict:
    """Multiplicative Jensen bounds: correction factors applied to f at the
    weighted mean squeeze the weighted sum of f values from both sides."""
    if kind not in ("log_convex", "geometrically_convex"):
        raise ValueError(f"kind must be 'log_convex' or 'geometrically_convex', got {kind!r}")
    _flagged(f, kind)
    w, a = _weighted(weights, points)
    mean = sum(wi * ai for wi, ai in zip(w, a))
    fa = [f.at(ai, "sample point") for ai in a]
    fm = f.at(mean, "mean")
    if kind == "geometrically_convex" and (min(a) <= 0.0 or mean <= 0.0):
        raise DomainError("geometrically convex bounds need positive points")
    _positive(f, fm)
    rm = f.deriv(mean) / fm
    if kind == "log_convex":
        lo = sum(wi * math.exp(rm * (ai - mean)) for wi, ai in zip(w, a))
        hi = sum(wi * math.exp(f.deriv(ai) / fai * (ai - mean)) for wi, ai, fai in zip(w, a, fa))
    else:
        lo = sum(wi * (ai / mean) ** (mean * rm) for wi, ai in zip(w, a))
        hi = sum(wi * (ai / mean) ** (ai * f.deriv(ai) / fai) for wi, ai, fai in zip(w, a, fa))
    middle = sum(wi * fai for wi, fai in zip(w, fa))
    chain_id = "cor-2.9-logconvex" if kind == "log_convex" else "cor-2.9-geomconvex"
    return verdict_from_values(
        chain_id,
        [lo * fm, middle, hi * fm],
        tol,
        lambda: {"fn": f.id, "w": w, "a": a, "kind": kind, "L": lo, "R": hi},
    )


def derived_logconvexity_check(f: FunctionSpec, u, w, tol=DEFAULT_TOL) -> ChainVerdict:
    """Midpoint log-convexity of f normalized by its endpoint interpolants.

    g(t) = f(t) / ((1-t) f(0) + t f(1)) and h(t) = f(t) / (f(0)**(1-t) f(1)**t)
    inherit log-convexity from f; the verdict encodes the worst midpoint
    excess of either as a two-value chain [excess, 0].
    """
    _flagged(f, "log_convex")
    lo, hi = f.domain
    if not (lo < 0.0 and hi > 1.0):
        raise ValueError(f"domain of {f.id!r} must contain [0, 1]")
    if not (0.0 <= u <= 1.0 and 0.0 <= w <= 1.0):
        raise ValueError("u, w must lie in [0, 1]")
    f0, f1 = f.eval(0.0), f.eval(1.0)
    _positive(f, min(f0, f1))

    def g(s):
        return f.eval(s) / ((1.0 - s) * f0 + s * f1)

    def h(s):
        return f.eval(s) / (f0 ** (1.0 - s) * f1**s)

    mid = (u + w) / 2.0
    g_gap = g(mid) - math.sqrt(g(u) * g(w))
    h_gap = h(mid) - math.sqrt(h(u) * h(w))
    return verdict_from_values(
        "lem-3.7",
        [max(g_gap, h_gap), 0.0],
        tol,
        lambda: {"fn": f.id, "u": u, "w": w, "g_gap": g_gap, "h_gap": h_gap},
    )


def young_refinement_chain(a, b, t, tol=DEFAULT_TOL) -> ChainVerdict:
    """Exponential-factor squeeze of the geometric-to-arithmetic mean ratio.

    Verified in log space (the upper factor exceeds float range for extreme
    mean ratios); the multiplicative endpoints ride along in the witness,
    rounding to 0 or inf where out of range. The witness also records the
    Young-gap functional at (t, b/a) and whether the parameters fall in the
    regime (a >= b, t <= 1/2) where the reversed form genuinely refines the
    mean inequality.
    """
    scalar._as_positive(a, "a")
    scalar._as_positive(b, "b")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"need 0 <= t <= 1, got {t!r}")
    # b/a underflows to 0 or overflows for far-apart a, b: refused by name
    # before its log, and so before the witness's phi reads it
    x = scalar._as_positive(b / a, "cor-3.8's b/a")
    arith = (1.0 - t) * a + t * b
    log_geom = (1.0 - t) * math.log(a) + t * math.log(b)
    lb_exp = (math.log(x) + 1.0 - x) * t
    ub_exp = (math.log(x) - (b - a) / arith) * t

    def witness():
        phi_val = scalar.phi(t, x)
        with np.errstate(over="ignore"):
            endpoints = (float(np.exp(lb_exp)), float(np.exp(ub_exp)))
        return {
            "a": a,
            "b": b,
            "t": t,
            "phi": phi_val,
            "refinement_regime": a >= b and t <= 0.5,
            "lower": endpoints[0],
            "ratio": math.exp(log_geom - math.log(arith)),
            "upper": endpoints[1],
            "reversed_lower": math.exp(phi_val * t),
        }

    return verdict_from_values("cor-3.8", [lb_exp, log_geom - math.log(arith), ub_exp], tol, witness)


def tsallis_scalar_chain(x, s, t, tol=DEFAULT_TOL) -> ChainVerdict:
    """Relates two deformed logarithms of the same x >= 1 through
    exponential factors built from the growth-rate functional; refuses, by
    name, an (x, s, t) at which a value of the chain leaves float range."""
    for name, v in (("x", x), ("s", s), ("t", t)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if x < 1.0:
        raise DomainError(f"need x >= 1, got {x!r}")
    if s <= 0.0 or t <= 0.0:
        raise ValueError(f"need s, t > 0, got s={s!r}, t={t!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # what leaves float range is refused below
        ls, lt = scalar.deformed_log(s, x), scalar.deformed_log(t, x)
        rates = scalar.eta(x, s) * (t - s), scalar.eta(x, t) * (t - s)
    try:
        values = [math.exp(rates[0]) * ls, lt, math.exp(rates[1]) * ls]
    except OverflowError:
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"lem-3.4's values must be within float range, got x={x!r}, s={s!r}, t={t!r}")
    return verdict_from_values(
        "lem-3.4",
        values,
        tol,
        lambda: {"x": x, "s": s, "t": t},
    )


@dataclass
class GateRecord:
    """Outcome of the two-function admissibility gate.

    ``conditions_hold`` certifies that f is nonnegative increasing concave,
    g nonnegative convex, f >= g, and the increment of f dominates m_ratio
    times the increment of g on [a, b]. The three shape checks read the
    declared flags; given them, the rest is decided exactly from f and g at
    a and b and g at its minimum. ``ends`` holds (f(a), f(b), g(a), g(b)).
    When the conditions hold, the bilinear form F(t) = (f(b)-f(a)) g(t) -
    (g(b)-g(a)) f(t) is nonnegative on [a, b].
    """

    conditions_hold: bool
    m_ratio: float
    checks: dict = field(default_factory=dict)
    ends: tuple = ()


def _bisect(d, lo: float, hi: float) -> float:
    """Where the nondecreasing ``d`` changes sign in [lo, hi], given d(lo) < 0
    < d(hi), to the resolution of floats."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if d(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _root(d, lo: float, hi: float) -> float:
    """``_bisect(d, lo, hi)`` in about ten evaluations of d, given d(lo) < 0
    < d(hi). Illinois steps (regula falsi that halves d at an end kept twice
    in a row; Dowell and Jarratt, BIT 11, 1971) narrow the bracket until lo
    and hi are adjacent floats, where ``_bisect`` returns at once; it takes
    over whatever is left after 64 steps.

    A step that rounds onto or past an end goes one ulp inside it instead.
    A run of such steps goes 1, 1, 2, 4, ... ulps in, and halves the bracket
    once that passes the other end: where d is 0 or not finite on a stretch
    of floats near an end, the secant stays there, and one ulp a step would
    crawl.

    For a d that is nondecreasing on floats this is ``_bisect``'s float,
    the largest x in [lo, hi) with d(x) < 0. For any d it is an x with d(x)
    < 0 where d at the next float up is not negative (NaN is not)."""
    d_lo, d_hi = d(lo), d(hi)
    moved, nudges = 0, 0  # the end the last step moved (-1 lo, 1 hi); the steps in a run onto an end
    for _ in range(64):
        if math.nextafter(lo, hi) == hi:
            break
        x = lo - d_lo * (hi - lo) / (d_hi - d_lo)
        if lo < x < hi:
            nudges = 0
        else:
            ulps = 2.0 ** max(nudges - 1, 0)
            x = lo + ulps * math.ulp(lo) if not x > lo else hi - ulps * math.ulp(hi)  # NaN: from lo
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            nudges += 1
        d_x = d(x)
        if d_x < 0.0:
            lo, d_lo = x, d_x
            if moved < 0:
                d_hi *= 0.5
            moved = -1
        else:
            hi, d_hi = x, d_x
            if moved > 0:
                d_lo *= 0.5
            moved = 1
    return _bisect(d, lo, hi)


def two_function_gate(f: FunctionSpec, g: FunctionSpec, a, b, tol=DEFAULT_TOL) -> GateRecord:
    """The admissibility gate of (f, g) on [a, b]. With f monotone, its min
    and max are at the endpoints; with f concave and g convex, f - g is
    concave, so f >= g holds iff it holds at a and b; and min g is at an
    endpoint, or at the root of the nondecreasing g' when g'(a) < 0 < g'(b)."""
    if not b > a:
        raise ValueError(f"need b > a, got a={a!r}, b={b!r}")
    for spec in (f, g):
        flo, fhi = spec.domain
        if not (flo < a and b < fhi):
            raise DomainError(f"[{a}, {b}] escapes domain {spec.domain!r} of {spec.id!r}")
    fa, fb, ga, gb = f.eval(a), f.eval(b), g.eval(a), g.eval(b)
    min_g = g.eval(_root(g.deriv, a, b)) if g.deriv(a) < 0.0 < g.deriv(b) else min(ga, gb)
    slack = tol * max(1.0, abs(fa), abs(fb), abs(ga), abs(gb), abs(min_g))
    df, dg = fb - fa, gb - ga
    m_ratio = float(max(fa, fb) / min_g) if min_g > 0.0 else math.inf
    if math.isfinite(m_ratio):
        cond_iv = dg >= -slack and df >= m_ratio * dg - slack
    else:
        # unbounded ratio: only a flat g keeps the product meaningful
        cond_iv = abs(dg) <= slack and df >= -slack
    checks = {
        "f_nonnegative": bool(min(fa, fb) >= -slack),
        "g_nonnegative": bool(min_g >= -slack),
        "f_increasing": f.has("monotone_increasing"),
        "f_concave": f.has("concave"),
        "g_convex": g.has("convex"),
        "f_dominates_g": bool(min(fa - ga, fb - gb) >= -slack),
        "increment_condition": bool(cond_iv),
    }
    return GateRecord(all(checks.values()), m_ratio, checks, (fa, fb, ga, gb))
