"""Relative operator entropies and their inequality chains under the
semidefinite order.

Every checker reduces to functional calculus on the congruence-normalized
matrix X = A**(-1/2) B A**(-1/2): each link is A**(1/2) f(X) A**(1/2) for
some scalar f. Congruence by A**(1/2) preserves the Loewner order and the
lifts of one X commute, so a link holds iff f_j(l) <= f_{j+1}(l) at every
eigenvalue l of X, and the chains are decided on the spectrum of X alone.

The matrix checkers work on a stack of k pairs of one shape, factored once
by ``linalg._Pairs``: one ``eigh`` call factors every A and one values-only
``eigvalsh`` call gives the spectrum of every X. A chain is a table of link
functions evaluated on the (k, n) eigenvalues, and one vectorized pass
decides every link of the stack; a link's slack is min over l of f_{j+1}(l) -
f_j(l), the smallest eigenvalue of the lifted difference, and its scale is
max(1, max |f_j|, max |f_{j+1}|) over the spectrum. The link matrices, like
the entropies, are lifted from the factors of ``_Pairs``, one ``eigh`` of a
pair's X serving them all, and only when ``OperatorChainVerdict.links`` is
read. ``<name>_stack(A, B, ..., tol)`` takes k matrices for A and for B and
k values for each parameter, and returns one outcome per pair: the verdict,
or the exception the pair's own evaluation raises, which does not touch the
other pairs. The public ``check_*`` functions are the k = 1 case and raise
that exception.

The two-function comparison of thm-2.12 (``two_function_stack``) takes
trials whose function pair, interval and mode vary from trial to trial,
and evaluates one stack per mode that meets each trial's refusals in the
order its one-trial evaluation meets them. Congruence mode is factored by
``_Pairs`` and decided on the spectrum of X. Expectation mode is decided
on the spectrum of A, at each trial's worst unit vector h, which it finds
exactly from the eigenvalues of A and the values of f, f' and g at them.
Majorize mode compares f(B) with a multiple of g(A), which are not
functions of one X, and is the one mode that makes Loewner checks on
matrices. The admissibility gate of each function pair runs per trial.

Hypothesis mismatches (a pair outside a theorem's spectral regime) yield a
verdict with status "not-applicable"; only genuine link violations count as
failures. Bad inputs (non-PD, dimension mismatch, invalid parameters) raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import scalar
from .chains import DEFAULT_TOL, _bisect, two_function_gate
from .errors import TRIAL_ERRORS, NumericError
from .linalg import (
    LoewnerVerdict,
    _first,
    _loewner,
    _only,
    _Pairs,
    _pd_eig,
    _symmetric_stack,
    eig_apply,
    matrix_to_obj,
)

REGIME_CUSHION = 1e-12

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NOT_APPLICABLE = "not-applicable"


def _require(ok: bool, message: str):
    """None when a parameter check holds, else the ValueError refusing it."""
    return None if ok else ValueError(message)


def _column(values) -> np.ndarray:
    """Per-pair parameters as a (k, 1) column, to broadcast over eigenvalues."""
    return np.array(values, dtype=float)[:, None]


@dataclass
class OperatorChainVerdict:
    """The outcome of one operator chain; ``build_links`` makes the link
    matrices, which ``links`` builds on first read."""

    chain_id: str
    build_links: Callable[[], list] = field(repr=False, compare=False)
    verdicts: list
    status: str
    tol: float
    regime: dict = field(default_factory=dict)

    @cached_property
    def links(self) -> list:
        return self.build_links()

    @property
    def ok(self) -> bool:
        return self.status == STATUS_PASS

    @property
    def applicable(self) -> bool:
        return self.status != STATUS_NOT_APPLICABLE

    @property
    def min_rel_slack(self):
        if not self.verdicts:
            return None
        return min(v.min_slack_eigenvalue / v.scale for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "status": self.status,
            "pass": self.ok,
            "tol": self.tol,
            "regime": dict(self.regime),
            "links": [matrix_to_obj(m) for m in self.links],
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _compare(lower: np.ndarray, upper: np.ndarray, tol: float) -> list:
    """One verdict lower[i] <= upper[i] per row: by ``_loewner`` for stacks
    of matrices, and for rows of values (link values f(l) on a spectrum, or
    the two sides of an expectation), pointwise, with slack
    min(upper - lower) and scale max(1, max |lower|, max |upper|)."""
    if lower.ndim == 3:
        return _loewner(lower, upper, tol)
    slack = (upper - lower).min(axis=1).tolist()
    scale = np.maximum(1.0, np.maximum(np.abs(lower).max(axis=1), np.abs(upper).max(axis=1))).tolist()
    return [LoewnerVerdict(s >= -tol * c, s, tol, c) for s, c in zip(slack, scale)]


def _decide(chain_id, links, layouts, regimes, errors, tol, lift) -> list:
    """One outcome per pair of a stack.

    ``links`` maps names to the links of every pair: (k, n) rows of values
    f(l) at the ascending eigenvalues l of each pair's X, (k, 1) rows of one
    value, or (k, m, m) stacks of matrices. Pair i's chain is
    ``links[name][i]`` for the names in ``layouts[i]``, or not applicable
    when that layout is None; a refused pair's outcome is its error. A
    link with a non-finite entry fails the pair with NumericError. Each
    link of the pairs sharing a layout is decided by one ``_compare`` call.
    ``lift(i, name)`` builds a link matrix of pair i, when its verdict's
    ``links`` is first read.
    """
    finite = {name: np.isfinite(v).all(axis=tuple(range(1, v.ndim))).tolist() for name, v in links.items()}
    outcomes = list(errors)
    groups: dict = {}
    for i, layout in enumerate(layouts):
        if outcomes[i] is not None:
            continue
        if layout is None:
            outcomes[i] = _not_applicable(chain_id, tol, regimes[i])
        elif not all(finite[name][i] for name in layout):
            outcomes[i] = NumericError(f"{chain_id}: chain link has non-finite entries")
        else:
            groups.setdefault(layout, []).append(i)
    for layout, rows in groups.items():
        by_link = [_compare(links[x][rows], links[y][rows], tol) for x, y in zip(layout, layout[1:])]
        for j, i in enumerate(rows):
            pair_verdicts = [link_verdicts[j] for link_verdicts in by_link]
            status = STATUS_PASS if all(v.holds for v in pair_verdicts) else STATUS_FAIL
            build = lambda i=i, layout=layout: [lift(i, name) for name in layout]
            outcomes[i] = OperatorChainVerdict(chain_id, build, pair_verdicts, status, tol, regimes[i])
    return outcomes


def _decide_spectrum(chain_id, pairs, links, layouts, regimes, tol) -> list:
    """``_decide`` of a pair chain whose link functions ``links`` map the
    (k, n) eigenvalues of X elementwise, with per-pair parameters as (k, 1)
    columns; pair i's link matrix lifts row i of its function."""
    shape = pairs.lam.shape

    def lift(i, name):
        fn = links[name]
        return pairs.lift(i, lambda lam: np.broadcast_to(fn(lam), shape)[i])

    values = {name: fn(pairs.lam) for name, fn in links.items()}
    return _decide(chain_id, values, layouts, regimes, pairs.errors, tol, lift)


def _not_applicable(chain_id, tol, regime) -> OperatorChainVerdict:
    return OperatorChainVerdict(chain_id, list, [], STATUS_NOT_APPLICABLE, tol, regime)


# --- entropies --------------------------------------------------------------

def _entropy(A, B, fn, name: str) -> np.ndarray:
    """A**(1/2) fn(X) A**(1/2) for one pair, refused as the chains refuse it.
    A pair at which ``name`` leaves float range is refused with no numpy
    warning: before the lift when fn overflows on the spectrum of X, else
    when the lift does."""
    pairs = _Pairs([A], [B])
    _only(pairs.errors)
    with np.errstate(over="ignore", invalid="ignore"):
        out = pairs.lift(0, fn) if np.isfinite(fn(pairs.lam)).all() else None
    if out is None or not np.isfinite(out).all():
        raise ValueError(f"{name} overflows float range")
    return out


def relative_entropy(A, B) -> np.ndarray:
    """A**(1/2) log(A**(-1/2) B A**(-1/2)) A**(1/2) for positive-definite A, B."""
    return _entropy(A, B, np.log, "the relative entropy")


def tsallis_entropy(A, B, t: float) -> np.ndarray:
    """Deformed-log analogue of the relative entropy; equals B - A at t = 1
    and converges to the relative entropy as t -> 0."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return _entropy(A, B, lambda lam: scalar.deformed_log(t, lam), f"the Tsallis entropy at t = {t}")


def generalized_entropy(A, B, t: float) -> np.ndarray:
    """Sandwich of x**t log(x); reduces to the relative entropy at t = 0."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return _entropy(A, B, lambda lam: lam**t * np.log(lam), f"the generalized entropy at t = {t}")


# --- chains -----------------------------------------------------------------

def zou_stack(A, B, t, tol: float = DEFAULT_TOL) -> list:
    """``check_zou_chain`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B, [_require(0.0 < ti <= 1.0, f"need 0 < t <= 1, got {ti!r}") for ti in t])
    tc = _column(t)
    links = {
        "harmonic": lambda lam: 1.0 - 1.0 / lam,
        "T-t": lambda lam: scalar.deformed_log(-tc, lam),
        "S": np.log,
        "Tt": lambda lam: scalar.deformed_log(tc, lam),
        "B-A": lambda lam: lam - 1.0,
    }
    layout = tuple(links)
    regimes = [{"t": ti, "m": m, "M": M} for ti, m, M in zip(t, pairs.m, pairs.M)]
    return _decide_spectrum("zou", pairs, links, [layout] * len(regimes), regimes, tol)


def check_zou_chain(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Five-link entropy ordering between A - A B**(-1) A and B - A."""
    return _only(zou_stack([A], [B], [t], tol))


def refined_st_stack(A, B, t, tol: float = DEFAULT_TOL) -> list:
    """``check_refined_ST`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B, [_require(0.0 < ti <= 1.0, f"need 0 < t <= 1, got {ti!r}") for ti in t])
    add = np.zeros(len(t))
    regimes = [None] * len(t)
    for i in pairs.live():
        m, M = pairs.m[i], pairs.M[i]
        if M < 1.0 - REGIME_CUSHION:
            case, endpoint = "M-below-1", M
        elif m > 1.0 + REGIME_CUSHION:
            case, endpoint = "m-above-1", m
        else:
            case, endpoint = "straddles-1", None
        add_i = 0.0 if endpoint is None else scalar.theta(t[i], endpoint) / t[i]
        add[i] = add_i
        regimes[i] = {"t": t[i], "m": m, "M": M, "case": case, "additive_term": add_i}
    add, tc = add[:, None], _column(t)
    links = {"S+": lambda lam: np.log(lam) + add, "Tt": lambda lam: scalar.deformed_log(tc, lam)}
    return _decide_spectrum("thm-3.3", pairs, links, [tuple(links)] * len(t), regimes, tol)


def check_refined_ST(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Entropy ordering sharpened by an additive term at the spectral
    endpoint; the case depends on where [m, M] sits relative to 1."""
    return _only(refined_st_stack([A], [B], [t], tol))


def tsallis_relation_stack(A, B, s, t, tol: float = DEFAULT_TOL) -> list:
    """``check_tsallis_relation`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B, [
        _require(not (si <= 0.0 or ti <= 0.0), f"need s, t > 0, got s={si!r}, t={ti!r}")
        for si, ti in zip(s, t)
    ])
    lo, hi = np.zeros(len(t)), np.zeros(len(t))
    layouts, regimes = [None] * len(t), [None] * len(t)
    for i in pairs.live():
        si, ti = s[i], t[i]
        regime = regimes[i] = {"s": si, "t": ti, "m": pairs.m[i], "M": pairs.M[i]}
        if pairs.m[i] < 1.0 - REGIME_CUSHION:
            regime["reason"] = "requires m >= 1"
            continue
        m, M = max(pairs.m[i], 1.0), max(pairs.M[i], 1.0)
        if ti >= si:
            lo[i] = np.exp(scalar.eta(m, si) * (ti - si))
            hi[i] = np.exp(scalar.eta(M, ti) * (ti - si))
            regime["case"] = "t-above-s"
        else:
            lo[i] = np.exp(scalar.eta(M, si) * (ti - si))
            hi[i] = np.exp(scalar.eta(m, ti) * (ti - si))
            regime["case"] = "s-above-t"
        layouts[i] = ("0", "lo*Ts", "Tt", "hi*Ts")
    lo, hi, sc, tc = lo[:, None], hi[:, None], _column(s), _column(t)
    links = {
        "0": np.zeros_like,
        "lo*Ts": lambda lam: lo * scalar.deformed_log(sc, lam),
        "Tt": lambda lam: scalar.deformed_log(tc, lam),
        "hi*Ts": lambda lam: hi * scalar.deformed_log(sc, lam),
    }
    return _decide_spectrum("thm-3.5", pairs, links, layouts, regimes, tol)


def check_tsallis_relation(A, B, s: float, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Relates two deformed entropies through exponential factors; requires
    the relative spectrum to sit at or above 1."""
    return _only(tsallis_relation_stack([A], [B], [s], [t], tol))


def roe_bounds_stack(A, B, tol: float = DEFAULT_TOL) -> list:
    """``check_roe_bounds`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B)
    k = len(pairs.errors)
    e = float(np.e)
    lo, hi = np.zeros(k), np.zeros(k)
    layouts, regimes = [None] * k, [None] * k
    for i in pairs.live():
        m, M = pairs.m[i], pairs.M[i]
        regime = regimes[i] = {"m": m, "M": M}
        if M <= 1.0 / e + REGIME_CUSHION:
            lo[i] = lo_i = -np.exp((e * m - 1.0) / (e * m * np.log(m)))
            hi[i] = hi_i = -np.exp(1.0 - e * M)
            layouts[i] = ("lo*A", "S", "hi*A", "0")
            regime.update({"case": "below-1-over-e", "lower_coef": lo_i, "upper_coef": hi_i})
        elif m >= 1.0 - REGIME_CUSHION and M <= e + REGIME_CUSHION:
            # coefficient continuously vanishes as m -> 1
            lo[i] = lo_i = 0.0 if m <= 1.0 + 1e-9 else np.exp((m - e) / (m * np.log(m)))
            hi[i] = hi_i = np.exp((min(M, e) - e) / e)
            layouts[i] = ("0", "lo*A", "S", "hi*A")
            regime.update({"case": "unit-to-e", "lower_coef": lo_i, "upper_coef": hi_i})
        else:
            regime["reason"] = "relative spectrum outside both regimes"
    lo, hi = lo[:, None], hi[:, None]
    links = {
        "lo*A": lambda lam: lo * np.ones_like(lam),
        "S": np.log,
        "hi*A": lambda lam: hi * np.ones_like(lam),
        "0": np.zeros_like,
    }
    return _decide_spectrum("thm-3.6", pairs, links, layouts, regimes, tol)


def check_roe_bounds(A, B, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Two-sided exponential estimates of the relative entropy in multiples
    of A, for a relative spectrum inside (0, 1/e] or [1, e]."""
    return _only(roe_bounds_stack([A], [B], tol))


def troe_linear_bound_stack(A, B, t, tol: float = DEFAULT_TOL) -> list:
    """``check_troe_linear_bound`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B, [_require(ti != 0.0, "t must be nonzero") for ti in t])
    slope, intercept = np.zeros(len(t)), np.zeros(len(t))
    layouts, regimes = [None] * len(t), [None] * len(t)
    for i in pairs.live():
        ti, m, M = t[i], pairs.m[i], pairs.M[i]
        regime = regimes[i] = {"t": ti, "m": m, "M": M}
        if m < 1.0 - 1e-9:
            regime["reason"] = "requires m >= 1"
            continue
        if M - m < 1e-8:
            regime["reason"] = "secant undefined for m == M"
            continue
        lt_m = scalar.deformed_log(ti, m)
        lt_M = scalar.deformed_log(ti, M)
        slope[i] = slope_i = (lt_M - lt_m) / (M - m)
        intercept[i] = intercept_i = (M * lt_m - m * lt_M) / (M - m)
        unit = ("B-A",) if m <= 1.0 + 1e-9 else ()
        if ti <= 1.0:
            layouts[i] = ("secant", "Tt") + unit
            regime["direction"] = "secant-below"
        else:
            layouts[i] = unit + ("Tt", "secant")
            regime["direction"] = "secant-above"
        regime.update({"slope": slope_i, "intercept": intercept_i, "unit_endpoint": bool(unit)})
    slope, intercept, tc = slope[:, None], intercept[:, None], _column(t)
    links = {
        "secant": lambda lam: slope * lam + intercept,
        "Tt": lambda lam: scalar.deformed_log(tc, lam),
        "B-A": lambda lam: lam - 1.0,
    }
    return _decide_spectrum("thm-3.11", pairs, links, layouts, regimes, tol)


def check_troe_linear_bound(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Secant-line bound on the deformed entropy over the relative spectrum.

    The deformed log is concave in its argument for t <= 1, so the entropy
    dominates the secant combination of B and A; for t >= 1 it is convex and
    the inequality reverses. When the spectrum reaches down to 1 the chain
    extends with B - A on the loose side.
    """
    return _only(troe_linear_bound_stack([A], [B], [t], tol))


def ordering_stack(A, B, p, tol: float = DEFAULT_TOL) -> list:
    """``check_ordering_S_Tp_Sp`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B, [_require(pi != 0.0, "p must be nonzero") for pi in p])
    pc = _column(p)
    links = {
        "S": np.log,
        "Tp": lambda lam: scalar.deformed_log(pc, lam),
        "Sp": lambda lam: lam**pc * np.log(lam),
    }
    layouts = [("S", "Tp", "Sp") if pi > 0 else ("Sp", "Tp", "S") for pi in p]
    regimes = [{"p": pi, "m": m, "M": M} for pi, m, M in zip(p, pairs.m, pairs.M)]
    return _decide_spectrum("prop-3.10", pairs, links, layouts, regimes, tol)


def check_ordering_S_Tp_Sp(A, B, p: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Ordering of the plain, deformed, and generalized entropies; the
    direction flips with the sign of p."""
    return _only(ordering_stack([A], [B], [p], tol))


# --- two-function operator comparison (thm-2.12) -------------------------------

TWO_FUNCTION_MODES = ("expectation", "congruence", "majorize")


def _each(specs, rows):
    """``eig_apply`` map sending row j of the eigenvalues through the
    evaluator of ``specs[rows[j]]``."""
    return lambda lam: np.array([specs[i].eval(row) for i, row in zip(rows, lam)])


def _hulls(*values) -> list:
    """The spectral hull (min, max) of each trial over its rows of the
    stacks of ascending eigenvalues ``values``."""
    lo = np.min([v[:, 0] for v in values], axis=0)
    hi = np.max([v[:, -1] for v in values], axis=0)
    return list(zip(lo.tolist(), hi.tolist()))


def _increments(f, g, mode, a, b, spectrum, tol, regime):
    """(f(b) - f(a), g(b) - g(a)) of a trial whose spectral hull ``spectrum``
    fits its interval [a, b] and whose function pair passes the gate there,
    else None (not applicable); records the reason in ``regime``."""
    spec_lo, spec_hi = spectrum
    a, b = float(a), float(b)
    regime.update({"a": a, "b": b})
    cushion = REGIME_CUSHION * max(1.0, abs(a), abs(b))
    if spec_lo < a - cushion or spec_hi > b + cushion:
        regime["reason"] = f"spectrum [{spec_lo}, {spec_hi}] escapes [{a}, {b}]"
        return None
    gate = two_function_gate(f, g, a, b, tol=tol)
    regime["gate"] = gate.checks
    regime["m_ratio"] = gate.m_ratio if np.isfinite(gate.m_ratio) else None
    if not gate.conditions_hold:
        regime["reason"] = "admissibility gate failed"
        return None
    df = f.eval(b) - f.eval(a)
    dg = g.eval(b) - g.eval(a)
    if mode != "expectation":
        if dg <= tol * max(1.0, abs(g.eval(a)), abs(g.eval(b))):
            regime["reason"] = "increment of g too small for the ratio form"
            return None
        regime["ratio"] = df / dg
    return df, dg


def _gated(mode, f, g, a, b, spectra, errors, tol) -> tuple:
    """The regime of each trial of a stack of one mode that ``errors`` does
    not refuse, and by trial the ``_increments`` of those that are
    applicable, ``spectra[i]`` being trial i's spectral hull; an exception
    of the gate becomes the trial's entry in ``errors``. The gate runs at
    ``max(tol, DEFAULT_TOL)``, so a negative ``tol`` loosens only links."""
    regimes, steps = [None] * len(errors), {}
    for i in [i for i, error in enumerate(errors) if error is None]:
        regime = regimes[i] = {"mode": mode, "fn_f": f[i].id, "fn_g": g[i].id}
        try:
            step = _increments(f[i], g[i], mode, a[i], b[i], spectra[i], max(tol, DEFAULT_TOL), regime)
        except TRIAL_ERRORS as exc:
            errors[i] = exc
            continue
        if step is not None:
            steps[i] = step
    return regimes, steps


def _worst_unit_vector(f, g, a, b, df, dg, lam) -> tuple:
    """(x, [i, j], w, lhs, rhs) of the unit vector h = sqrt(w) v_i + sqrt(1 -
    w) v_j of mean x = <Ah, h> at which phi(x) = df gc(x) - dg f(x) of one
    trial is least, and its two sides lhs = dg f(x) and rhs = df gc(x): at
    the eigenvalue l_i where phi is least, or at the root of phi' on a chord
    (l_j, l_{j+1}) where phi' turns from negative to positive, if phi is less
    there. ``lam`` holds the ascending eigenvalues; f and f' are read at
    points clipped to [a, b]."""
    g_lam = g.eval(lam)
    clipped = np.clip(lam, a, b)
    lower, upper = dg * f.eval(clipped), df * g_lam
    i = int(np.argmin(upper - lower))
    best = (upper[i] - lower[i], lam[i], [i, i], 1.0, lower[i], upper[i])
    fp = f.deriv(clipped)
    width = np.diff(lam)
    slope = np.divide(np.diff(g_lam), width, out=np.zeros_like(width), where=width > 0.0)
    turns = (width > 0.0) & (df * slope < dg * fp[:-1]) & (df * slope > dg * fp[1:])
    for j in np.flatnonzero(turns).tolist():
        lo, hi, s = lam[j], lam[j + 1], slope[j]
        root = _bisect(lambda x: df * s - dg * f.deriv(min(max(x, a), b)), lo, hi)
        w = (hi - root) / (hi - lo)
        x = w * lo + (1.0 - w) * hi
        lhs, rhs = dg * f.eval(min(max(x, a), b)), df * (w * g_lam[j] + (1.0 - w) * g_lam[j + 1])
        if rhs - lhs < best[0]:
            best = (rhs - lhs, x, [j, j + 1], w, lhs, rhs)
    return best[1:]


def _expectation(f, g, a, b, A, B, tol) -> list:
    """Expectation mode, decided at each trial's worst unit vector h; B is
    not read.

    In A's eigenbasis (l_i, v_i), a unit vector h has weights w_i = <h,
    v_i>**2 of mean x = <Ah, h> = sum w_i l_i, and the link's slack is
    df sum w_i g(l_i) - dg f(x), with (df, dg) the increments of (f, g) on
    [a, b]. For a fixed x its least value over the weights is phi(x) = df
    gc(x) - dg f(x), gc being the chord polyline through the points (l_i,
    g(l_i)), because the gate certifies that g is convex and df >= 0. With
    dg >= 0 and f concave, phi is convex, so ``_worst_unit_vector`` finds
    its minimum exactly; with dg < 0, which the gate allows within its
    slack, phi is concave on each chord and the minimum is at an l_i. The
    regime records the worst mean "x", the "pair" [i, j] and "weight" w of
    its witness h = sqrt(w) v_i + sqrt(1 - w) v_j, and "worst_rel_slack";
    the two sides at h are decided as (k, 1) rows.
    """
    A, errors_a = _symmetric_stack(A)
    eig_a, errors_pd = _pd_eig(A, "A")
    errors = _first(errors_a, errors_pd)
    regimes, steps = _gated("expectation", f, g, a, b, _hulls(eig_a.values), errors, tol)
    k = len(errors)
    layouts = [None] * k
    links = {"lhs(h)": np.zeros((k, 1)), "rhs(h)": np.zeros((k, 1))}
    for i, (df, dg) in steps.items():
        regime = regimes[i]
        x, pair, w, lhs, rhs = _worst_unit_vector(f[i], g[i], regime["a"], regime["b"], df, dg, eig_a.values[i])
        rel = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
        regime.update({"x": float(x), "pair": pair, "weight": float(w), "worst_rel_slack": float(rel)})
        links["lhs(h)"][i], links["rhs(h)"][i] = lhs, rhs
        layouts[i] = ("lhs(h)", "rhs(h)")
    return _decide("thm-2.12", links, layouts, regimes, errors, tol, lambda i, name: links[name][i].reshape(1, 1))


def _congruence(f, g, a, b, A, B, tol) -> list:
    """Congruence mode: f(X) <= ratio g(X), decided on the spectrum of X
    like the pair chains."""
    pairs = _Pairs(A, B)
    regimes, steps = _gated("congruence", f, g, a, b, _hulls(pairs.lam), pairs.errors, tol)
    rows, layouts = list(steps), [None] * len(pairs.errors)
    links = {"f(X)": np.zeros(pairs.lam.shape), "ratio*g(X)": np.zeros(pairs.lam.shape)}
    if rows:
        lam = pairs.lam[rows]
        links["f(X)"][rows] = _each(f, rows)(lam)
        links["ratio*g(X)"][rows] = _column([regimes[i]["ratio"] for i in rows]) * _each(g, rows)(lam)
        for i in rows:
            layouts[i] = ("f(X)", "ratio*g(X)")

    def lift(i, name):
        fn = f[i].eval if name == "f(X)" else lambda lam: regimes[i]["ratio"] * g[i].eval(lam)
        return pairs.lift(i, fn)

    return _decide("thm-2.12", links, layouts, regimes, pairs.errors, tol, lift)


def _majorize(f, g, a, b, A, B, tol) -> list:
    """Majorize mode: f(B) <= ratio g(A) where B <= A, by Loewner checks on
    the matrices. A's refusals come before B's, also when the B are not
    square."""
    A, errors_a = _symmetric_stack(A)
    eig_a, errors_pd_a = _pd_eig(A, "A")
    errors = _first(errors_a, errors_pd_a)
    try:
        B, errors_b = _symmetric_stack(B)
    except ValueError as exc:
        return _first(errors, [exc] * len(errors))
    errors = _first(errors, errors_b)
    if B.shape != A.shape:
        return _first(errors, [ValueError(f"dimension mismatch: {A.shape[1:]} vs {B.shape[1:]}")] * len(errors))
    eig_b, errors_pd_b = _pd_eig(B, "B")
    errors = _first(errors, errors_pd_b)
    regimes, steps = _gated("majorize", f, g, a, b, _hulls(eig_a.values, eig_b.values), errors, tol)
    rows, layouts = list(steps), [None] * len(errors)
    if rows:
        below = _loewner(B[rows], A[rows], max(tol, DEFAULT_TOL))
        for i, verdict in zip(rows, below):
            if not verdict.holds:
                regimes[i]["reason"] = "hypothesis B <= A fails"
        rows = [i for i, verdict in zip(rows, below) if verdict.holds]
    links = {"f(B)": np.zeros_like(A), "ratio*g(A)": np.zeros_like(A)}
    if rows:
        ratio = _column([regimes[i]["ratio"] for i in rows])[:, :, None]
        links["f(B)"][rows] = eig_apply(eig_b.take(rows), _each(f, rows))
        links["ratio*g(A)"][rows] = ratio * eig_apply(eig_a.take(rows), _each(g, rows))
        for i in rows:
            layouts[i] = ("f(B)", "ratio*g(A)")
    return _decide("thm-2.12", links, layouts, regimes, errors, tol, lambda i, name: links[name][i])


_MODE_STACKS = {"expectation": _expectation, "congruence": _congruence, "majorize": _majorize}


def two_function_stack(f, g, a, b, mode, A, B, tol: float = DEFAULT_TOL) -> list:
    """``check_two_function_operator`` over a stack of k trials: one outcome
    per trial.

    ``f``, ``g``, ``a``, ``b``, ``mode``, ``A`` and ``B`` hold one value
    per trial, [a, b] being the trial's interval, on which the gate runs.
    B is read outside expectation mode alone, and may be None there. A
    trial with an unknown mode or a missing B is refused; the others go to
    one stack per mode, which meets a trial's refusals in the order its
    one-trial evaluation meets them. Matrices of a mode that are not one
    stack of square matrices raise, as in the pair chains, except majorize
    mode's B, which refuses each trial after A's own refusals.
    """
    outcomes, rows = [None] * len(mode), {}
    for i, (m, b_i) in enumerate(zip(mode, B)):
        if m not in TWO_FUNCTION_MODES:
            outcomes[i] = ValueError(f"unknown mode {m!r}")
        elif m != "expectation" and b_i is None:
            outcomes[i] = ValueError(f"mode {m!r} requires B")
        else:
            rows.setdefault(m, []).append(i)
    for m, trials in rows.items():
        columns = ([column[i] for i in trials] for column in (f, g, a, b, A, B))
        for i, outcome in zip(trials, _MODE_STACKS[m](*columns, tol)):
            outcomes[i] = outcome
    return outcomes


def check_two_function_operator(
    f,
    g,
    A,
    B=None,
    mode="expectation",
    *,
    interval,
    tol: float = DEFAULT_TOL,
) -> OperatorChainVerdict:
    """Operator comparison of a gated function pair.

    ``interval`` is the [a, b] window on which the admissibility gate runs;
    a trial whose relevant spectrum escapes it is not applicable. Modes:

    - expectation: (g(b)-g(a)) f(<Ah,h>) <= (f(b)-f(a)) <g(A)h,h> for
      every unit vector h, decided exactly at the worst h, which lies in
      the span of at most two adjacent eigenvectors of A; the regime
      records it and the verdict carries its two sides.
    - congruence: sandwich comparison for a pair with relative spectrum in
      [a, b], scaled by the increment ratio.
    - majorize: f(B) <= ratio * g(A) for B <= A with both spectra in [a, b].

    ``tol`` decides the links; the hypothesis checks (the gate, the
    increment of g and majorize mode's B <= A) use ``max(tol, 1e-9)``, so
    that a negative ``tol`` makes failures instead of not-applicable trials.
    """
    a, b = interval
    return _only(two_function_stack([f], [g], [a], [b], [mode], [A], [B], tol))
