"""Relative operator entropies and their inequality chains under the
semidefinite order.

Every checker reduces to functional calculus on the congruence-normalized
matrix X = A**(-1/2) B A**(-1/2): each link is A**(1/2) f(X) A**(1/2) for
some scalar f. Congruence by A**(1/2) preserves the Loewner order and the
lifts of one X commute, so a link holds iff f_j(l) <= f_{j+1}(l) at every
eigenvalue l of X, and the chains are decided on the spectrum of X alone.

``chain_stacks`` is the one entry point of the matrix chains. It decides
trials of any of them at once, with one outcome per trial: its verdict, or
the error that refuses it, which touches no other trial. The public
``check_*`` functions are its one-trial case and raise that error. The
trials whose A and B share their shapes are a group. A pair chain is
declared once, as a ``PairChain`` in ``PAIR_CHAINS``: a refusal of one
pair's parameters, a case function that records the pair's case in its
regime, sets its coefficients and names its links, and a table of link
functions of the (k, n) eigenvalues. A group's pairs, whatever their chain,
are factored as one ``linalg._Pairs`` (one ``eigh`` call for every A, one
values-only ``eigvalsh`` call for the spectrum of every X), and
``_pair_stack`` decides each chain's rows of it, a slice, in one vectorized
pass. ``_compare`` makes every comparison of the package: a link's slack is
min over l of f_{j+1}(l) - f_j(l) on a spectrum, or the least eigenvalue of
the difference of two matrices, and its scale is max(1, max |f_j|, max
|f_{j+1}|). The link matrices, like the entropies, are lifted from the
factors of ``_Pairs``, one ``eigh`` of a pair's X serving them all, and
only when ``OperatorChainVerdict.links`` is read.

A group's trials of the two-function comparison of thm-2.12, whose function
pair, interval and mode vary from trial to trial, are one
``two_function_stack``, which evaluates one stack per mode that meets each
trial's refusals in the order its one-trial evaluation meets them.
Congruence mode is factored by ``_Pairs`` and decided on the spectrum of X;
the other modes validate A (and B) through ``linalg._pd_stack``, A's
refusals first, and one pass, ``_gated``, checks each trial's hypotheses.
Expectation mode is decided on the spectrum of A, at each trial's worst
unit vector h, which it finds exactly from the eigenvalues of A and the
values of f, f' and g at them. Majorize mode compares f(B) with a multiple
of g(A), which are not functions of one X, and is the one mode that makes
Loewner checks on matrices. The admissibility gate of each function pair
runs per trial.

Hypothesis mismatches (a pair outside a theorem's spectral regime) yield a
verdict with status "not-applicable"; only genuine link violations count as
failures. Bad inputs (non-PD, dimension mismatch, invalid or non-finite
parameters) are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import scalar
from .chains import DEFAULT_TOL, _bisect, two_function_gate
from .errors import TRIAL_ERRORS, NumericError
from .linalg import _first, _only, _Pairs, _pd_stack, eig_apply, matrix_to_obj

REGIME_CUSHION = 1e-12

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NOT_APPLICABLE = "not-applicable"


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


@dataclass
class LoewnerVerdict:
    """Semidefinite-order comparison X <= Y up to a relative tolerance."""

    holds: bool
    min_slack_eigenvalue: float
    tol: float
    scale: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "min_slack_eigenvalue": self.min_slack_eigenvalue,
            "tol": self.tol,
            "scale": self.scale,
        }


def _compare(lower: np.ndarray, upper: np.ndarray, tol: float) -> list:
    """One verdict lower[i] <= upper[i] per row of two stacks. The slack of
    (k, m, m) stacks of matrices is the least eigenvalue of upper - lower;
    of rows of values (link values f(l) on a spectrum, or the two sides of
    an expectation) it is min(upper - lower). The scale is max(1, max
    |lower|, max |upper|), and the verdict holds when slack >= -tol * scale."""
    axes = (1, 2) if lower.ndim == 3 else 1
    # upper - lower of two exactly symmetric matrices is exactly symmetric
    slack = np.linalg.eigvalsh(upper - lower)[:, 0] if lower.ndim == 3 else (upper - lower).min(axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(lower).max(axis=axes), np.abs(upper).max(axis=axes)))
    return [LoewnerVerdict(s >= -tol * c, s, tol, c) for s, c in zip(slack.tolist(), scale.tolist())]


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
            outcomes[i] = OperatorChainVerdict(chain_id, list, [], STATUS_NOT_APPLICABLE, tol, regimes[i])
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


@dataclass(frozen=True)
class PairChain:
    """The declaration of a pair chain, which ``_pair_stack`` reads.

    ``refuse(**p)`` is a message refusing pair i's parameters ``p``, or None.
    ``case(p, regime)`` records pair i's case (or the not-applicable
    "reason") in its regime {**p, "m", "M"}, sets its coefficients in p and
    returns its link names in chain order, or None; with no ``case`` every
    link applies, in table order. ``links[name](lam, c)`` maps the
    eigenvalues of X elementwise, ``c[key]`` being the column of a parameter
    or coefficient, 0 where a pair has none: (k, n) and (k, 1) to decide,
    one row to lift.
    """

    id: str
    links: dict
    refuse: Callable | None = None
    case: Callable | None = None


def _pair_stack(chain: PairChain, pairs, params: dict, tol) -> list:
    """One outcome per pair of the factored stack ``pairs`` (a
    ``linalg._Pairs``). ``params`` maps each parameter's name to its k
    values, pair i's being ``p``. A pair is refused by a non-finite
    parameter or by ``chain.refuse``, before any refusal of ``pairs``. An
    error in TRIAL_ERRORS that ``chain.case`` raises for pair i is its
    outcome and touches no other pair."""
    rows = [{name: values[i] for name, values in params.items()} for i in range(len(pairs.errors))]
    refusals = []
    for p in rows:
        bad = [f"{name} must be finite, got {v}" for name, v in p.items() if not math.isfinite(v)]
        message = bad[0] if bad else chain.refuse(**p) if chain.refuse else None
        refusals.append(None if message is None else ValueError(message))
    errors = _first(refusals, pairs.errors)
    links, case = chain.links, chain.case
    layouts, regimes, every_link = [None] * len(rows), [None] * len(rows), tuple(links)
    with np.errstate(over="ignore", invalid="ignore"):  # _decide fails a link that leaves float range
        for i in [i for i, error in enumerate(errors) if error is None]:
            regime = regimes[i] = {**rows[i], "m": pairs.m[i], "M": pairs.M[i]}
            try:
                layouts[i] = case(rows[i], regime) if case else every_link
            except TRIAL_ERRORS as exc:
                errors[i] = exc
        c = {key: _column([p.get(key, 0.0) for p in rows]) for key in set().union(*rows)}
        used = set().union(*filter(None, layouts))
        values = {name: fn(pairs.lam, c) for name, fn in links.items() if name in used}

    def lift(i, name):
        row = {key: column[i:i + 1] for key, column in c.items()}
        return pairs.lift(i, lambda lam: links[name](lam, row))

    return _decide(chain.id, values, layouts, regimes, errors, tol, lift)


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

PAIR_CHAINS: dict[str, PairChain] = {}  # by id, which ``chain_stacks`` reads


def _declare(chain_id, links, refuse=None, case=None) -> None:
    PAIR_CHAINS[chain_id] = PairChain(chain_id, links, refuse, case)


def _check(chain_id, tol, **params):
    """The verdict of one trial of ``chain_stacks``, its ``params`` mapping
    each name to one value; raises the error that refuses it."""
    (outcomes,) = chain_stacks([(chain_id, {name: [value] for name, value in params.items()})], tol)
    return _only(outcomes)


def _unit_t(t):
    return None if 0.0 < t <= 1.0 else f"need 0 < t <= 1, got {t!r}"


_declare("zou", {
    "harmonic": lambda lam, c: 1.0 - 1.0 / lam,
    "T-t": lambda lam, c: scalar.deformed_log(-c["t"], lam),
    "S": lambda lam, c: np.log(lam),
    "Tt": lambda lam, c: scalar.deformed_log(c["t"], lam),
    "B-A": lambda lam, c: lam - 1.0,
}, _unit_t)


def check_zou_chain(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Five-link entropy ordering between A - A B**(-1) A and B - A."""
    return _check("zou", tol, A=A, B=B, t=t)


def _refined_st_case(p, regime):
    m, M = regime["m"], regime["M"]
    if M < 1.0 - REGIME_CUSHION:
        regime["case"], endpoint = "M-below-1", M
    elif m > 1.0 + REGIME_CUSHION:
        regime["case"], endpoint = "m-above-1", m
    else:
        regime["case"], endpoint = "straddles-1", None
    p["add"] = regime["additive_term"] = 0.0 if endpoint is None else scalar.theta(p["t"], endpoint) / p["t"]
    return ("S+", "Tt")


_declare("thm-3.3", {
    "S+": lambda lam, c: np.log(lam) + c["add"],
    "Tt": lambda lam, c: scalar.deformed_log(c["t"], lam),
}, _unit_t, _refined_st_case)


def check_refined_ST(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Entropy ordering sharpened by an additive term at the spectral
    endpoint; the case depends on where [m, M] sits relative to 1."""
    return _check("thm-3.3", tol, A=A, B=B, t=t)


def _tsallis_relation_case(p, regime):
    if regime["m"] < 1.0 - REGIME_CUSHION:
        regime["reason"] = "requires m >= 1"
        return None
    s, t, m, M = p["s"], p["t"], max(regime["m"], 1.0), max(regime["M"], 1.0)
    x_s, x_t = (m, M) if t >= s else (M, m)
    p["lo"], p["hi"] = np.exp(scalar.eta(x_s, s) * (t - s)), np.exp(scalar.eta(x_t, t) * (t - s))
    regime["case"] = "t-above-s" if t >= s else "s-above-t"
    return ("0", "lo*Ts", "Tt", "hi*Ts")


_declare("thm-3.5", {
    "0": lambda lam, c: np.zeros_like(lam),
    "lo*Ts": lambda lam, c: c["lo"] * scalar.deformed_log(c["s"], lam),
    "Tt": lambda lam, c: scalar.deformed_log(c["t"], lam),
    "hi*Ts": lambda lam, c: c["hi"] * scalar.deformed_log(c["s"], lam),
}, lambda s, t: None if s > 0.0 and t > 0.0 else f"need s, t > 0, got s={s!r}, t={t!r}", _tsallis_relation_case)


def check_tsallis_relation(A, B, s: float, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Relates two deformed entropies through exponential factors; requires
    the relative spectrum to sit at or above 1."""
    return _check("thm-3.5", tol, A=A, B=B, s=s, t=t)


def _roe_case(p, regime):
    m, M, e = regime["m"], regime["M"], np.e
    if M <= 1.0 / e + REGIME_CUSHION:
        p["lo"] = -np.exp((e * m - 1.0) / (e * m * np.log(m)))
        p["hi"] = -np.exp(1.0 - e * M)
        regime["case"], layout = "below-1-over-e", ("lo*A", "S", "hi*A", "0")
    elif m >= 1.0 - REGIME_CUSHION and M <= e + REGIME_CUSHION:
        # coefficient continuously vanishes as m -> 1
        p["lo"] = 0.0 if m <= 1.0 + 1e-9 else np.exp((m - e) / (m * np.log(m)))
        p["hi"] = np.exp((min(M, e) - e) / e)
        regime["case"], layout = "unit-to-e", ("0", "lo*A", "S", "hi*A")
    else:
        regime["reason"] = "relative spectrum outside both regimes"
        return None
    regime.update(lower_coef=p["lo"], upper_coef=p["hi"])
    return layout


_declare("thm-3.6", {
    "lo*A": lambda lam, c: c["lo"] * np.ones_like(lam),
    "S": lambda lam, c: np.log(lam),
    "hi*A": lambda lam, c: c["hi"] * np.ones_like(lam),
    "0": lambda lam, c: np.zeros_like(lam),
}, case=_roe_case)


def check_roe_bounds(A, B, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Two-sided exponential estimates of the relative entropy in multiples
    of A, for a relative spectrum inside (0, 1/e] or [1, e]."""
    return _check("thm-3.6", tol, A=A, B=B)


def _troe_case(p, regime):
    t, m, M = p["t"], regime["m"], regime["M"]
    if m < 1.0 - 1e-9:
        regime["reason"] = "requires m >= 1"
        return None
    if M - m < 1e-8:
        regime["reason"] = "secant undefined for m == M"
        return None
    lt_m, lt_M = scalar.deformed_log(t, m), scalar.deformed_log(t, M)
    p["slope"] = (lt_M - lt_m) / (M - m)
    p["intercept"] = (M * lt_m - m * lt_M) / (M - m)
    unit = ("B-A",) if m <= 1.0 + 1e-9 else ()
    regime["direction"] = "secant-below" if t <= 1.0 else "secant-above"
    regime.update(slope=p["slope"], intercept=p["intercept"], unit_endpoint=bool(unit))
    return ("secant", "Tt") + unit if t <= 1.0 else unit + ("Tt", "secant")


_declare("thm-3.11", {
    "secant": lambda lam, c: c["slope"] * lam + c["intercept"],
    "Tt": lambda lam, c: scalar.deformed_log(c["t"], lam),
    "B-A": lambda lam, c: lam - 1.0,
}, lambda t: None if t != 0.0 else "t must be nonzero", _troe_case)


def check_troe_linear_bound(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Secant-line bound on the deformed entropy over the relative spectrum.

    The deformed log is concave in its argument for t <= 1, so the entropy
    dominates the secant combination of B and A; for t >= 1 it is convex and
    the inequality reverses. When the spectrum reaches down to 1 the chain
    extends with B - A on the loose side.
    """
    return _check("thm-3.11", tol, A=A, B=B, t=t)


_declare("prop-3.10", {
    "S": lambda lam, c: np.log(lam),
    "Tp": lambda lam, c: scalar.deformed_log(c["p"], lam),
    "Sp": lambda lam, c: lam ** c["p"] * np.log(lam),
}, lambda p: None if p != 0.0 else "p must be nonzero",
    lambda p, regime: ("S", "Tp", "Sp") if p["p"] > 0 else ("Sp", "Tp", "S"))


def check_ordering_S_Tp_Sp(A, B, p: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Ordering of the plain, deformed, and generalized entropies; the
    direction flips with the sign of p."""
    return _check("prop-3.10", tol, A=A, B=B, p=p)


# --- two-function operator comparison (thm-2.12) -------------------------------

TWO_FUNCTION_MODES = ("expectation", "congruence", "majorize")


def _each(specs, rows, errors):
    """``eig_apply`` map sending row j of the eigenvalues through the
    evaluator of ``specs[rows[j]]``, or to zeros for a trial refused in
    ``errors``, where an error in TRIAL_ERRORS that it raises goes."""

    def apply(lam):
        out = np.zeros_like(lam)
        for j, i in enumerate(rows):
            if errors[i] is None:
                try:
                    out[j] = specs[i].eval(lam[j])
                except TRIAL_ERRORS as exc:
                    errors[i] = exc
        return out

    return apply


def _gated(mode, f, g, a, b, spectra, errors, tol) -> tuple:
    """The regime of each trial of a stack of one mode that ``errors`` does
    not refuse, and by trial the increments (f(b) - f(a), g(b) - g(a)) of
    those that are applicable. Trial i is refused unless b > a, and is not
    applicable, with the reason in its regime, when its spectral hull over
    its rows of the stacks of ascending eigenvalues ``spectra`` escapes [a,
    b], when its function pair fails the gate there, or, outside
    expectation mode, when the increment of g is too small for the ratio
    form. A refusal or an exception of the gate becomes the trial's entry in
    ``errors``. The gate runs at ``max(tol, DEFAULT_TOL)``, so a negative
    ``tol`` loosens only links."""
    lo = np.min([v[:, 0] for v in spectra], axis=0).tolist()
    hi = np.max([v[:, -1] for v in spectra], axis=0).tolist()
    tol = max(tol, DEFAULT_TOL)
    regimes, steps = [None] * len(errors), {}
    for i in [i for i, error in enumerate(errors) if error is None]:
        regime = regimes[i] = {"mode": mode, "fn_f": f[i].id, "fn_g": g[i].id}
        try:
            a_i, b_i = float(a[i]), float(b[i])
            regime.update({"a": a_i, "b": b_i})
            if not b_i > a_i:  # the gate's own refusal, before the hull check
                errors[i] = ValueError(f"need b > a, got a={a_i!r}, b={b_i!r}")
                continue
            cushion = REGIME_CUSHION * max(1.0, abs(a_i), abs(b_i))
            if lo[i] < a_i - cushion or hi[i] > b_i + cushion:
                regime["reason"] = f"spectrum [{lo[i]}, {hi[i]}] escapes [{a_i}, {b_i}]"
                continue
            gate = two_function_gate(f[i], g[i], a_i, b_i, tol=tol)
        except TRIAL_ERRORS as exc:
            errors[i] = exc
            continue
        regime["gate"] = gate.checks
        regime["m_ratio"] = gate.m_ratio if np.isfinite(gate.m_ratio) else None
        if not gate.conditions_hold:
            regime["reason"] = "admissibility gate failed"
            continue
        fa, fb, ga, gb = gate.ends
        df, dg = fb - fa, gb - ga
        if mode != "expectation":
            if dg <= tol * max(1.0, abs(ga), abs(gb)):
                regime["reason"] = "increment of g too small for the ratio form"
                continue
            regime["ratio"] = df / dg
        steps[i] = df, dg
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
    _, eig_a, errors = _pd_stack(A, "A")
    regimes, steps = _gated("expectation", f, g, a, b, [eig_a.values], errors, tol)
    k = len(errors)
    layouts = [None] * k
    links = {"lhs(h)": np.zeros((k, 1)), "rhs(h)": np.zeros((k, 1))}
    for i, (df, dg) in steps.items():
        regime = regimes[i]
        try:
            x, pair, w, lhs, rhs = _worst_unit_vector(f[i], g[i], regime["a"], regime["b"], df, dg, eig_a.values[i])
        except TRIAL_ERRORS as exc:
            errors[i] = exc
            continue
        rel = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
        regime.update({"x": float(x), "pair": pair, "weight": float(w), "worst_rel_slack": float(rel)})
        links["lhs(h)"][i], links["rhs(h)"][i] = lhs, rhs
        layouts[i] = ("lhs(h)", "rhs(h)")
    return _decide("thm-2.12", links, layouts, regimes, errors, tol, lambda i, name: links[name][i].reshape(1, 1))


def _congruence(f, g, a, b, A, B, tol) -> list:
    """Congruence mode: f(X) <= ratio g(X), decided on the spectrum of X
    like the pair chains."""
    pairs = _Pairs(A, B)
    regimes, steps = _gated("congruence", f, g, a, b, [pairs.lam], pairs.errors, tol)
    rows, layouts = list(steps), [None] * len(pairs.errors)
    links = {"f(X)": np.zeros(pairs.lam.shape), "ratio*g(X)": np.zeros(pairs.lam.shape)}
    if rows:
        lam = pairs.lam[rows]
        links["f(X)"][rows] = _each(f, rows, pairs.errors)(lam)
        links["ratio*g(X)"][rows] = _column([regimes[i]["ratio"] for i in rows]) * _each(g, rows, pairs.errors)(lam)
        for i in rows:
            layouts[i] = ("f(X)", "ratio*g(X)")

    def lift(i, name):
        fn = f[i].eval if name == "f(X)" else lambda lam: regimes[i]["ratio"] * g[i].eval(lam)
        return pairs.lift(i, fn)

    return _decide("thm-2.12", links, layouts, regimes, pairs.errors, tol, lift)


def _majorize(f, g, a, b, A, B, tol) -> list:
    """Majorize mode: f(B) <= ratio g(A) where B <= A, by Loewner checks on
    the matrices. A's refusals come before B's, also when the B are not
    square or not of A's shape."""
    A, eig_a, errors = _pd_stack(A, "A")
    try:
        B, eig_b, errors_b = _pd_stack(B, "B")
        if B.shape != A.shape:
            raise ValueError(f"dimension mismatch: {A.shape[1:]} vs {B.shape[1:]}")
    except ValueError as exc:
        return _first(errors, [exc] * len(errors))
    errors = _first(errors, errors_b)
    regimes, steps = _gated("majorize", f, g, a, b, [eig_a.values, eig_b.values], errors, tol)
    rows, layouts = list(steps), [None] * len(errors)
    if rows:
        below = _compare(B[rows], A[rows], max(tol, DEFAULT_TOL))
        for i, verdict in zip(rows, below):
            if not verdict.holds:
                regimes[i]["reason"] = "hypothesis B <= A fails"
        rows = [i for i, verdict in zip(rows, below) if verdict.holds]
    links = {"f(B)": np.zeros_like(A), "ratio*g(A)": np.zeros_like(A)}
    if rows:
        ratio = _column([regimes[i]["ratio"] for i in rows])[:, :, None]
        links["f(B)"][rows] = eig_apply(eig_b.take(rows), _each(f, rows, errors))
        links["ratio*g(A)"][rows] = ratio * eig_apply(eig_a.take(rows), _each(g, rows, errors))
        for i in rows:
            layouts[i] = ("f(B)", "ratio*g(A)")
    return _decide("thm-2.12", links, layouts, regimes, errors, tol, lambda i, name: links[name][i])


_MODE_STACKS = {"expectation": _expectation, "congruence": _congruence, "majorize": _majorize}


def two_function_stack(fn_f, fn_g, a, b, mode, A, B, tol: float = DEFAULT_TOL) -> list:
    """``check_two_function_operator`` over a stack of k trials: one outcome
    per trial.

    ``fn_f``, ``fn_g``, ``a``, ``b``, ``mode``, ``A`` and ``B`` hold one
    value per trial, [a, b] being the trial's interval, on which the gate
    runs. B is read outside expectation mode alone, and may be None there.
    A trial with an unknown mode or a missing B is refused; the others go to
    one stack per mode, which meets a trial's refusals in the order its
    one-trial evaluation meets them. An error that a mode's stack raises
    for all its trials, such as for matrices that are not square, is the
    outcome of each; majorize mode refuses a B of another shape per trial,
    after A's own refusals.
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
        columns = ([column[i] for i in trials] for column in (fn_f, fn_g, a, b, A, B))
        try:
            decided = _MODE_STACKS[m](*columns, tol)
        except TRIAL_ERRORS as exc:  # raised for the whole stack, as for each of its trials
            decided = [exc] * len(trials)
        for i, outcome in zip(trials, decided):
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

    ``interval`` is the [a, b] window, b > a, on which the admissibility
    gate runs; a trial whose relevant spectrum escapes it is not
    applicable. Modes:

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
    return _check("thm-2.12", tol, fn_f=f, fn_g=g, a=a, b=b, mode=mode, A=A, B=B)


# --- the one entry point of the matrix chains ----------------------------------

def chain_stacks(stacks: list, tol) -> list:
    """Decide trials of several matrix chains at once (see the module
    docstring): ``stacks`` holds each chain's (id, columns), ``columns``
    mapping the name of each of its params to one value per trial. One
    outcome list per chain: each trial's verdict, or the error in
    TRIAL_ERRORS that refuses it, bit for bit as it is alone. An error
    raised for a whole group, such as a dimension mismatch, is the outcome
    of each of its trials."""
    groups, outcomes = {}, []
    for c, (_, columns) in enumerate(stacks):
        outcomes.append([None] * len(columns["A"]))
        for i, (a, b) in enumerate(zip(columns["A"], columns["B"])):
            groups.setdefault((np.shape(a), np.shape(b)), {}).setdefault(c, []).append(i)
    for group in groups.values():
        picks = [(stacks[c][1], i) for c, rows in group.items() if stacks[c][0] != "thm-2.12" for i in rows]
        pairs, lo = None, 0
        for c, rows in group.items():
            chain_id, columns = stacks[c]
            picked = {name: [values[i] for i in rows] for name, values in columns.items()}
            try:
                if chain_id == "thm-2.12":
                    decided = two_function_stack(**picked, tol=tol)
                else:
                    chain, lo = PAIR_CHAINS[chain_id], lo + len(rows)
                    # a _Pairs that raises for the group raises alike for each of its chains
                    pairs = pairs or _Pairs([m["A"][i] for m, i in picks], [m["B"][i] for m, i in picks])
                    view = pairs if len(rows) == len(picks) else pairs.take(slice(lo - len(rows), lo))
                    params = {name: values for name, values in picked.items() if name not in ("A", "B")}
                    decided = _pair_stack(chain, view, params, tol)
            except TRIAL_ERRORS as exc:  # raised for the whole group
                decided = [exc] * len(rows)
            for i, outcome in zip(rows, decided):
                outcomes[c][i] = outcome
    return outcomes
