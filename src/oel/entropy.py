"""Relative operator entropies and their inequality chains under the
semidefinite order.

Every checker reduces to functional calculus on the congruence-normalized
matrix X = A**(-1/2) B A**(-1/2): each link is A**(1/2) f(X) A**(1/2) for
some scalar f. Congruence by A**(1/2) preserves the Loewner order and the
lifts of one X commute, so a link holds iff f_j(l) <= f_{j+1}(l) at every
eigenvalue l of X, and the chains are decided on the spectrum of X alone.

``chain_stacks`` is the one entry point of the matrix chains. It decides
trials of any of them at once, with one outcome per trial: its verdict, or
the error that refuses it, which touches no other trial. The outcomes are
the columns of one ``Decided`` record per chain, written in place: each
trial's error, or its status and least relative slack, which a fuzz run
reads; a verdict object is built by index, only where one is read. The
public ``check_*`` functions are its one-trial case and raise that error.
A trial's route is its chain id, or for thm-2.12 its mode. Its A, and then
its B where the route reads B, are read by ``linalg._square``, the one
cast, before either is validated, as the entropies read their pair; so
every route that reads B refuses a B of another shape before any refusal
of A's entries or definiteness. The trials whose A share a shape are a
group. Every A of a group, and majorize mode's B, is validated and
decomposed in one ``linalg._pd_stack`` call (one ``eigh``), and each route
takes its rows. A pair chain is declared once, as a ``PairChain`` in
``PAIR_CHAINS``: a refusal of one pair's parameters, a case function that
records the pair's case in its regime, sets its coefficients and names its
links, and a table of link functions of the (k, n) eigenvalues. The routes
that read X, the pair chains and congruence mode, share one
``linalg._Pairs`` per group (one ``eigvalsh`` call for every X), and each
evaluates the links of its rows of it, a slice, in one vectorized pass:
``_pair_stack`` for a pair chain. A route returns what it computed, its
trials' links, layouts, regimes and errors, and ``_settle`` writes them
into the chains' records: the refusals and not-applicable trials, then the
links of every route of a group decided together, in one array pass per
length of layout and shape of link. ``_compare`` makes every comparison of
the package: a link's slack is min over l of f_{j+1}(l) - f_j(l) on a
spectrum, or the least eigenvalue of the difference of two matrices, and
its scale is max(1, max |f_j|, max |f_{j+1}|). The link matrices, like the
entropies, are lifted from the factors of ``_Pairs``, one ``eigh`` of a
pair's X serving them all, and only when ``OperatorChainVerdict.links`` is
read.

The two-function comparison of thm-2.12 varies its function pair,
interval and mode from trial to trial. One pass, ``_gated``, checks each
trial's hypotheses, its pair's admissibility gate among them. Congruence
mode is decided on the spectrum of X. Expectation mode is decided at each
trial's worst unit vector h, found exactly from the eigenvalues of A and
the values of f, f' and g at them; it does not read B. Majorize mode
compares f(B) with a multiple of g(A), which are not functions of one X,
and is the one mode that makes Loewner checks on matrices.

Hypothesis mismatches (a pair outside a theorem's spectral regime) yield a
verdict with status "not-applicable"; only genuine link violations count as
failures. Bad inputs (non-PD, dimension mismatch, invalid or non-finite
parameters) are refused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import scalar
from .chains import DEFAULT_TOL, _root, two_function_gate
from .errors import TRIAL_ERRORS, NumericError
from .linalg import _first, _only, _Pairs, _pd_stack, _square, eig_apply, matrix_to_obj

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


class Decided:
    """The outcomes of a stack of trials of one chain, as columns, of which
    ``chain_stacks`` makes one per chain and writes each trial's outcome in
    place, at routing or by ``_settle``. Trial i's outcome is
    ``errors[i]``, the error that refuses it, or else a verdict of status
    ``status[i]`` whose least relative link slack is ``rel[i]`` (None when
    it decides no link); ``self[i]`` is that error, or the verdict, built
    here from the arrays of the pass that decided it. ``elapsed_s`` is the
    time ``chain_stacks`` spent in the chain's own routes."""

    def __init__(self, chain_id: str, tol: float, k: int):
        self.chain_id, self.tol, self.elapsed_s = chain_id, tol, 0.0
        self.errors, self.status, self.rel = [None] * k, [None] * k, [None] * k
        # per trial: its regime if it is not applicable, else (its layout,
        # its row of its route, its regime, the route's lift, the arrays of
        # its pass, its column there)
        self._at = [None] * k

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i: int):
        if self.errors[i] is not None:
            return self.errors[i]
        if self.status[i] == STATUS_NOT_APPLICABLE:
            return OperatorChainVerdict(self.chain_id, list, [], STATUS_NOT_APPLICABLE, self.tol, self._at[i])
        layout, s, regime, lift, (slack, scale, holds), j = self._at[i]
        columns = zip(holds[:, j].tolist(), slack[:, j].tolist(), scale[:, j].tolist())
        verdicts = [LoewnerVerdict(h, x, self.tol, c) for h, x, c in columns]
        build = lambda: [lift(s, name) for name in layout]
        return OperatorChainVerdict(self.chain_id, build, verdicts, self.status[i], self.tol, regime)


def _peak(V: np.ndarray) -> np.ndarray:
    """max |V[j, i]| of each link j and row i of a stack of link values
    ``V``, of shape (L, r, ...): not finite where V[j, i] is not."""
    return np.abs(V).max(axis=(2, 3) if V.ndim == 4 else 2)


def _compare(V: np.ndarray, tol: float, peak: np.ndarray) -> tuple:
    """Link j of row i of a stack of finite link values ``V``, of shape (L,
    r, ...), is V[j, i] <= V[j + 1, i]: (slack, scale, holds), each of shape
    (L - 1, r). The slack of (m, m) matrices is the least eigenvalue of
    their difference; of rows of values (link values f(l) on a spectrum, or
    the two sides of an expectation) it is the least difference. The scale
    is max(1, peak[j, i], peak[j + 1, i]), ``peak`` being ``_peak(V)``, and
    a link holds when slack >= -tol * scale."""
    # the difference of two exactly symmetric matrices is exactly symmetric
    slack = np.linalg.eigvalsh(V[1:] - V[:-1])[..., 0] if V.ndim == 4 else (V[1:] - V[:-1]).min(axis=2)
    scale = np.maximum(1.0, np.maximum(peak[:-1], peak[1:]))
    return slack, scale, slack >= -tol * scale


def _settle(routes: list, tol) -> None:
    """Write the outcomes of the ``(record, at, output)`` triples ``routes``
    into their ``Decided`` records, trial j of an output at ``at[j]``.

    An output is what a route computed, ``(links, layouts, regimes, errors,
    lift)``. ``links`` maps names to the links of its k trials: (k, n) rows
    of values f(l) at the ascending eigenvalues l of each pair's X, (k, 1)
    rows of one value, or (k, m, m) stacks of matrices. Trial j's chain is
    ``links[name][j]`` for the names in ``layouts[j]``, or not applicable,
    with regime ``regimes[j]``, when that layout is None; a refused trial's
    outcome is ``errors[j]``. ``lift(j, name)`` builds a link matrix of
    trial j when the ``links`` of its verdict are first read. The links of
    the trials of a layout are stacked as one (L, r, ...) array, and those
    of every layout of one length and one shape of link, whatever its route,
    are decided in one pass: one ``_peak`` call, whose finiteness fails a
    row with a non-finite entry in a link with NumericError, and one
    ``_compare`` call."""
    passes = {}
    for out, at, (links, layouts, regimes, errors, lift) in routes:
        by_layout = {}
        for j, layout in enumerate(layouts):
            if errors[j] is not None:
                out.errors[at[j]] = errors[j]
            elif layout is None:
                out.status[at[j]], out._at[at[j]] = STATUS_NOT_APPLICABLE, regimes[j]
            else:
                by_layout.setdefault(layout, []).append(j)
        for layout, rows in by_layout.items():
            V = np.array([links[name] for name in layout])
            V = V if len(rows) == len(layouts) else V[:, rows]
            passes.setdefault(V.shape[:1] + V.shape[2:], []).append((V, [(out, at[j], layout, j, regimes[j], lift) for j in rows]))
    for group in passes.values():
        V = np.concatenate([V for V, _ in group], axis=1) if len(group) > 1 else group[0][0]
        rows = [row for _, rows in group for row in rows]
        peak = _peak(V)
        finite = np.isfinite(peak).all(axis=0)
        if not finite.all():
            for out, i, *_ in [row for row, ok in zip(rows, finite.tolist()) if not ok]:
                out.errors[i] = NumericError(f"{out.chain_id}: chain link has non-finite entries")
            rows, V, peak = [row for row, ok in zip(rows, finite.tolist()) if ok], V[:, finite], peak[:, finite]
        arrays = slack, scale, holds = _compare(V, tol, peak)
        # min in link order, as Python's min takes it: the first of a tie of 0.0 and -0.0
        rel = map(min, zip(*(slack / scale).tolist()))
        for c, ((out, i, layout, j, regime, lift), ok, r) in enumerate(zip(rows, holds.all(axis=0).tolist(), rel)):
            out.status[i], out.rel[i], out._at[i] = STATUS_PASS if ok else STATUS_FAIL, r, (layout, j, regime, lift, arrays, c)


@dataclass(frozen=True)
class PairChain:
    """The declaration of a pair chain, which ``_pair_stack`` reads.

    ``refuse(**p)`` is a message refusing pair i's parameters ``p``, or None.
    ``case(p, regime)`` records pair i's case (or the not-applicable
    "reason") in its regime {**p, "m", "M"}, sets its coefficients in p and
    returns its link names in chain order, or None; with no ``case`` every
    link applies, in table order. ``links[name](lam, L, c)`` maps the
    eigenvalues of X elementwise, L being log(lam) and ``c[key]`` the column
    of a parameter or coefficient, 0 where a pair has none: (k, n) and (k,
    1) to decide, one row to lift.
    """

    id: str
    links: dict
    refuse: Callable | None = None
    case: Callable | None = None


def _pair_stack(chain: PairChain, pairs, params: dict) -> tuple:
    """The output, for ``_settle``, of the pairs of the factored stack
    ``pairs`` (a ``linalg._Pairs``). ``params`` maps each parameter's name
    to its k values, pair i's being ``p``. A pair is refused by a non-finite
    parameter, the first in ``params``, or by ``chain.refuse``, before any
    refusal of ``pairs``. An error in TRIAL_ERRORS that ``chain.case``
    raises for pair i is its outcome and touches no other pair."""
    k = len(pairs.errors)
    refusals = [None] * k
    for name, values in params.items():
        finite = np.isfinite(values)
        if not finite.all():
            for i in np.flatnonzero(~finite).tolist():
                refusals[i] = refusals[i] or ValueError(f"{name} must be finite, got {values[i]}")
    rows = [{name: values[i] for name, values in params.items()} for i in range(k)]
    if chain.refuse:
        for i in [i for i, refusal in enumerate(refusals) if refusal is None]:
            message = chain.refuse(**rows[i])
            refusals[i] = None if message is None else ValueError(message)
    errors = _first(refusals, pairs.errors)
    links, case = chain.links, chain.case
    layouts, regimes, every_link = [None] * k, [None] * k, tuple(links)
    with np.errstate(over="ignore", invalid="ignore"):  # _settle fails a link that leaves float range
        for i in [i for i, error in enumerate(errors) if error is None]:
            regime = regimes[i] = {**rows[i], "m": pairs.m[i], "M": pairs.M[i]}
            try:
                layouts[i] = case(rows[i], regime) if case else every_link
            except TRIAL_ERRORS as exc:
                errors[i] = exc
        c = {key: _column(values) for key, values in params.items()}
        c.update({key: _column([p.get(key, 0.0) for p in rows]) for key in set().union(*rows) - c.keys()})
        used, log_lam = set().union(*filter(None, layouts)), np.log(pairs.lam)
        values = {name: fn(pairs.lam, log_lam, c) for name, fn in links.items() if name in used}

    def lift(i, name):
        row = {key: column[i:i + 1] for key, column in c.items()}
        return pairs.lift(i, lambda lam: links[name](lam, np.log(lam), row))

    return values, layouts, regimes, errors, lift


# --- entropies --------------------------------------------------------------

def _entropy(A, B, fn, name: str) -> np.ndarray:
    """A**(1/2) fn(X) A**(1/2) for one pair, refused as the chains refuse it.
    A pair at which ``name`` leaves float range is refused with no numpy
    warning: before the lift when fn overflows on the spectrum of X, else
    when the lift does."""
    A = _square(A)
    pairs = _Pairs(*_pd_stack([A], ["A"])[1:], [_square(B, A.shape)])
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
    "harmonic": lambda lam, L, c: 1.0 - 1.0 / lam,
    "T-t": lambda lam, L, c: scalar._deformed_log(-c["t"], L),
    "S": lambda lam, L, c: L,
    "Tt": lambda lam, L, c: scalar._deformed_log(c["t"], L),
    "B-A": lambda lam, L, c: lam - 1.0,
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
    "S+": lambda lam, L, c: L + c["add"],
    "Tt": lambda lam, L, c: scalar._deformed_log(c["t"], L),
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
    "0": lambda lam, L, c: np.zeros_like(lam),
    "lo*Ts": lambda lam, L, c: c["lo"] * scalar._deformed_log(c["s"], L),
    "Tt": lambda lam, L, c: scalar._deformed_log(c["t"], L),
    "hi*Ts": lambda lam, L, c: c["hi"] * scalar._deformed_log(c["s"], L),
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
        if p["lo"] == -np.inf:  # below m = 5.26e-5: lo*A <= S holds, however far lo is below float range
            layout = layout[1:]
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
    "lo*A": lambda lam, L, c: c["lo"] * np.ones_like(lam),
    "S": lambda lam, L, c: L,
    "hi*A": lambda lam, L, c: c["hi"] * np.ones_like(lam),
    "0": lambda lam, L, c: np.zeros_like(lam),
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
    "secant": lambda lam, L, c: c["slope"] * lam + c["intercept"],
    "Tt": lambda lam, L, c: scalar._deformed_log(c["t"], L),
    "B-A": lambda lam, L, c: lam - 1.0,
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
    "S": lambda lam, L, c: L,
    "Tp": lambda lam, L, c: scalar._deformed_log(c["p"], L),
    "Sp": lambda lam, L, c: lam ** c["p"] * L,
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
        root = _root(lambda x: df * s - dg * f.deriv(min(max(x, a), b)), lo, hi)
        w = (hi - root) / (hi - lo)
        x = w * lo + (1.0 - w) * hi
        lhs, rhs = dg * f.eval(min(max(x, a), b)), df * (w * g_lam[j] + (1.0 - w) * g_lam[j + 1])
        if rhs - lhs < best[0]:
            best = (rhs - lhs, x, [j, j + 1], w, lhs, rhs)
    return best[1:]


def _expectation(f, g, a, b, eig_a, errors, tol) -> tuple:
    """Expectation mode, decided at each trial's worst unit vector h.

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
    the two sides at h are decided as (k, 1) rows. ``eig_a`` and ``errors``
    are the trials' rows of their group's factorization.
    """
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
    return links, layouts, regimes, errors, lambda i, name: links[name][i].reshape(1, 1)


def _congruence(f, g, a, b, pairs, tol) -> tuple:
    """Congruence mode: f(X) <= ratio g(X), decided like the pair chains on
    ``pairs``, its trials' slice of their group's one ``linalg._Pairs``."""
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

    return links, layouts, regimes, pairs.errors, lift


def _majorize(f, g, a, b, A, eig_a, B, eig_b, errors, tol) -> tuple:
    """Majorize mode: f(B) <= ratio g(A) where B <= A, by Loewner checks on
    ``A`` and ``B``, the trials' rows of their group's stack, as are
    ``eig_a`` and ``eig_b``; ``errors`` refuses a trial for A before B."""
    regimes, steps = _gated("majorize", f, g, a, b, [eig_a.values, eig_b.values], errors, tol)
    rows, layouts = list(steps), [None] * len(errors)
    if rows:
        V = np.array([B[rows], A[rows]])
        below = _compare(V, max(tol, DEFAULT_TOL), _peak(V))[2][0].tolist()
        for i, holds in zip(rows, below):
            if not holds:
                regimes[i]["reason"] = "hypothesis B <= A fails"
        rows = [i for i, holds in zip(rows, below) if holds]
    links = {"f(B)": np.zeros_like(A), "ratio*g(A)": np.zeros_like(A)}
    if rows:
        ratio = _column([regimes[i]["ratio"] for i in rows])[:, :, None]
        links["f(B)"][rows] = eig_apply(eig_b.take(rows), _each(f, rows, errors))
        links["ratio*g(A)"][rows] = ratio * eig_apply(eig_a.take(rows), _each(g, rows, errors))
        for i in rows:
            layouts[i] = ("f(B)", "ratio*g(A)")
    return links, layouts, regimes, errors, lambda i, name: links[name][i]


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
    ``Decided`` per chain: each trial's verdict, or the error in
    TRIAL_ERRORS that refuses it, bit for bit as it is alone. Its
    ``elapsed_s`` is the time of the chain's own routes, none of what its
    group shares: the casts, ``_pd_stack``, ``_Pairs`` and ``_settle``,
    which decides the links of every route of the group together."""
    groups, outcomes = {}, []
    for c, (chain_id, columns) in enumerate(stacks):
        outcomes.append(Decided(chain_id, tol, len(columns["A"])))
        errors = outcomes[c].errors
        for i, (a, b) in enumerate(zip(columns["A"], columns["B"])):
            route = chain_id
            if chain_id == "thm-2.12":  # its mode is its route, checked first, never read as a chain id
                route = columns["mode"][i]
                if route not in TWO_FUNCTION_MODES:
                    errors[i] = ValueError(f"unknown mode {route!r}")
                    continue
                if route != "expectation" and b is None:
                    errors[i] = ValueError(f"mode {route!r} requires B")
                    continue
            try:  # A, then B where the route reads it, before either is validated
                a = _square(a)
                if route != "expectation":  # which never reads B
                    b = _square(b, a.shape)
            except ValueError as exc:
                errors[i] = exc
                continue
            groups.setdefault(a.shape, {}).setdefault((c, route), []).append((i, a, b))
    for group in groups.values():
        # X routes first; majorize mode last, its B after every A
        routes = sorted(group.items(), key=lambda item: {"expectation": 1, "majorize": 2}.get(item[0][1], 0))
        trials = [trial for _, rows in routes for trial in rows]
        xs = sum(len(rows) for (_, route), rows in routes if route not in ("expectation", "majorize"))
        majorized = [b for (_, route), rows in routes if route == "majorize" for _, _, b in rows]
        M, eig, errors = _pd_stack([a for _, a, _ in trials] + majorized, ["A"] * len(trials) + ["B"] * len(majorized))
        pairs = _Pairs(eig.take(slice(0, xs)), errors[:xs], [b for _, _, b in trials[:xs]]) if xs else None
        lo, decided = 0, []
        for (c, route), rows in routes:
            here, started = slice(lo, lo + len(rows)), time.perf_counter()
            columns = {name: [values[i] for i, _, _ in rows] for name, values in stacks[c][1].items()}
            gated = [columns.get(name) for name in ("fn_f", "fn_g", "a", "b")]
            if route == "expectation":
                out = _expectation(*gated, eig.take(here), errors[here], tol)
            elif route == "majorize":
                b_rows = slice(here.start + len(majorized), here.stop + len(majorized))
                errors_ab = _first(errors[here], errors[b_rows])
                out = _majorize(*gated, M[here], eig.take(here), M[b_rows], eig.take(b_rows), errors_ab, tol)
            elif route == "congruence":
                out = _congruence(*gated, pairs.take(here), tol)
            else:
                params = {name: values for name, values in columns.items() if name not in ("A", "B")}
                out = _pair_stack(PAIR_CHAINS[route], pairs.take(here), params)
            decided.append((outcomes[c], [i for i, _, _ in rows], out))
            outcomes[c].elapsed_s += time.perf_counter() - started
            lo += len(rows)
        _settle(decided, tol)
    return outcomes
