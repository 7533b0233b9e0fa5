"""Relative operator entropies and their inequality chains under the
semidefinite order.

Every checker reduces to functional calculus on the congruence-normalized
matrix X = A**(-1/2) B A**(-1/2): each link is A**(1/2) f(X) A**(1/2) for
some scalar f. Congruence by A**(1/2) preserves the Loewner order and the
lifts of one X commute, so a link holds iff f_j(l) <= f_{j+1}(l) at every
eigenvalue l of X, and the chains are decided on the spectrum of X alone.

The matrix checkers work on a stack of k pairs of one shape: one ``eigh``
call factors every A and one values-only ``eigvalsh`` call gives the
spectrum of every X. A chain is a table of link functions evaluated on the
(k, n) eigenvalues, and one vectorized pass decides every link of the
stack; a link's slack is min over l of f_{j+1}(l) - f_j(l), the smallest
eigenvalue of the lifted difference, and its scale is max(1, max |f_j|,
max |f_{j+1}|) over the spectrum. The link matrices themselves are lifted
only when ``OperatorChainVerdict.links`` is read. ``<name>_stack(A, B,
..., tol)`` takes k matrices for A and for B and k values for each
parameter, and returns one outcome per pair: the verdict, or the exception
the pair's own evaluation raises, which does not touch the other pairs.
The public ``check_*`` functions are the k = 1 case and raise that
exception.

The two-function comparison of thm-2.12 (``two_function_stack``) stacks
trials whose function pair, interval and mode vary from trial to trial.
Congruence mode is decided on the spectrum of X like the pair chains. In
expectation mode each trial's seeded unit vectors h give the quadratic
forms <Ah,h> and <g(A)h,h> of the whole stack in one batched product, and
majorize mode compares f(B) with a multiple of g(A), which are not
functions of one X, by Loewner checks on the matrices. The admissibility
gate of each function pair runs per trial.

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
from .chains import DEFAULT_TOL, two_function_gate
from .errors import NumericError
from .linalg import (
    EigenDecomposition,
    LoewnerVerdict,
    _loewner,
    _only,
    _pd_eig,
    _relative_spectrum,
    _symmetric_stack,
    congruence_sandwich,
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


class _Pairs:
    """The relative spectra of a stack of k (A, B) pairs of one shape.

    ``lam`` holds the ascending eigenvalues of each X = A**(-1/2) B A**(-1/2),
    and ``m`` and ``M`` their extremes. ``errors[i]`` is the exception
    refusing pair i, or None; the first one found for a pair is kept. A
    refused pair stays in the stack, with zeros standing in for a refused
    matrix and ones for the eigenvalues of a refused factorization, so that
    stacked work stays finite; its verdict is dropped at the end.
    """

    def __init__(self, A, B, errors=None):
        self.A, errors_a = _symmetric_stack(A)
        self.B, errors_b = _symmetric_stack(B)
        if self.A.shape != self.B.shape:
            raise ValueError(f"dimension mismatch: {self.A.shape[1:]} vs {self.B.shape[1:]}")
        self.errors = list(errors) if errors is not None else [None] * len(self.A)
        self.refuse(errors_a)
        self.refuse(errors_b)
        eig_a, errors_a = _pd_eig(self.A, "A")
        self.refuse(errors_a)
        self.lam, errors_x = _relative_spectrum(eig_a, self.B)
        self.refuse(errors_x)
        self.m = self.lam[:, 0].tolist()
        self.M = self.lam[:, -1].tolist()

    def refuse(self, errors) -> None:
        self.errors = [old if old is not None else new for old, new in zip(self.errors, errors)]

    def live(self) -> list:
        """Indices of the pairs not refused."""
        return [i for i, e in enumerate(self.errors) if e is None]

    def decide(self, chain_id, links, layouts, regimes, tol) -> list:
        """``_decide`` of a chain whose link functions ``links`` map the (k, n)
        eigenvalues of X elementwise, with per-pair parameters as (k, 1)
        columns; pair i's link matrix lifts row i of its function."""
        shape = self.lam.shape

        def lift(i, name):
            fn = links[name]
            return congruence_sandwich(self.A[i], self.B[i], lambda lam: np.broadcast_to(fn(lam), shape)[i])

        values = {name: fn(self.lam) for name, fn in links.items()}
        return _decide(chain_id, values, layouts, regimes, self.errors, tol, lift)


def _single(outcomes: list):
    """The verdict of a one-pair stack; raises the pair's refusal."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    of matrices, and for rows of link values f(l) on a spectrum, pointwise,
    with slack min(upper - lower) and scale max(1, max |lower|, max |upper|)."""
    if lower.ndim == 3:
        return _loewner(lower, upper, tol)
    slack = (upper - lower).min(axis=1).tolist()
    scale = np.maximum(1.0, np.maximum(np.abs(lower).max(axis=1), np.abs(upper).max(axis=1))).tolist()
    return [LoewnerVerdict(s >= -tol * c, s, tol, c) for s, c in zip(slack, scale)]


def _decide(chain_id, links, layouts, regimes, errors, tol, lift) -> list:
    """One outcome per pair of a stack.

    ``links`` maps names to the links of every pair: (k, n) rows of values
    f(l) at the ascending eigenvalues l of each pair's X, or (k, m, m)
    stacks of matrices. Pair i's chain is ``links[name][i]`` for the names
    in ``layouts[i]``, or not applicable when that layout is None; a
    refused pair's outcome is its error. A link with a non-finite entry
    fails the pair with NumericError. Each link of the pairs sharing a
    layout is decided by one ``_compare`` call. ``lift(i, name)`` builds a
    link matrix of pair i, when its verdict's ``links`` is first read.
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


def _not_applicable(chain_id, tol, regime) -> OperatorChainVerdict:
    return OperatorChainVerdict(chain_id, list, [], STATUS_NOT_APPLICABLE, tol, regime)


# --- entropies --------------------------------------------------------------

def _entropy(A, B, fn) -> np.ndarray:
    """A**(1/2) fn(X) A**(1/2) for one pair, refused as the chains refuse it."""
    pairs = _Pairs([A], [B])
    _only(pairs.errors)
    return congruence_sandwich(pairs.A[0], pairs.B[0], fn)


def relative_entropy(A, B) -> np.ndarray:
    """A**(1/2) log(A**(-1/2) B A**(-1/2)) A**(1/2) for positive-definite A, B."""
    return _entropy(A, B, np.log)


def tsallis_entropy(A, B, t: float) -> np.ndarray:
    """Deformed-log analogue of the relative entropy; equals B - A at t = 1
    and converges to the relative entropy as t -> 0."""
    return _entropy(A, B, lambda lam: scalar.deformed_log(t, lam))


def generalized_entropy(A, B, t: float) -> np.ndarray:
    """Sandwich of x**t log(x); reduces to the relative entropy at t = 0."""
    return _entropy(A, B, lambda lam: lam**t * np.log(lam))


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
    return pairs.decide("zou", links, [layout] * len(regimes), regimes, tol)


def check_zou_chain(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Five-link entropy ordering between A - A B**(-1) A and B - A."""
    return _single(zou_stack([A], [B], [t], tol))


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
    return pairs.decide("thm-3.3", links, [tuple(links)] * len(t), regimes, tol)


def check_refined_ST(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Entropy ordering sharpened by an additive term at the spectral
    endpoint; the case depends on where [m, M] sits relative to 1."""
    return _single(refined_st_stack([A], [B], [t], tol))


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
    return pairs.decide("thm-3.5", links, layouts, regimes, tol)


def check_tsallis_relation(A, B, s: float, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Relates two deformed entropies through exponential factors; requires
    the relative spectrum to sit at or above 1."""
    return _single(tsallis_relation_stack([A], [B], [s], [t], tol))


def roe_bounds_stack(A, B, tol: float = DEFAULT_TOL) -> list:
    """``check_roe_bounds`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B)
    k = len(pairs.A)
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
    return pairs.decide("thm-3.6", links, layouts, regimes, tol)


def check_roe_bounds(A, B, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Two-sided exponential estimates of the relative entropy in multiples
    of A, for a relative spectrum inside (0, 1/e] or [1, e]."""
    return _single(roe_bounds_stack([A], [B], tol))


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
    return pairs.decide("thm-3.11", links, layouts, regimes, tol)


def check_troe_linear_bound(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Secant-line bound on the deformed entropy over the relative spectrum.

    The deformed log is concave in its argument for t <= 1, so the entropy
    dominates the secant combination of B and A; for t >= 1 it is convex and
    the inequality reverses. When the spectrum reaches down to 1 the chain
    extends with B - A on the loose side.
    """
    return _single(troe_linear_bound_stack([A], [B], [t], tol))


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
    return pairs.decide("prop-3.10", links, layouts, regimes, tol)


def check_ordering_S_Tp_Sp(A, B, p: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Ordering of the plain, deformed, and generalized entropies; the
    direction flips with the sign of p."""
    return _single(ordering_stack([A], [B], [p], tol))


# --- two-function operator comparison (thm-2.12) -------------------------------

TWO_FUNCTION_MODES = ("expectation", "congruence", "majorize")

# the refusals a trial of each mode can meet, in the order that evaluating
# the trial alone meets them (after a refused mode, which comes first)
_REFUSAL_ORDER = {
    "expectation": ("square_a", "valid_a", "pd_a"),
    "congruence": ("square_a", "square_b", "shape", "valid_a", "valid_b", "pd_a", "pd_x"),
    "majorize": ("square_a", "valid_a", "pd_a", "square_b", "valid_b", "shape", "pd_b"),
}


def _validated(M, k: int) -> tuple:
    """``_symmetric_stack`` of k matrices, plus the refusal of each when they
    do not form a stack of square matrices (then the stack is None)."""
    try:
        stack, errors = _symmetric_stack(M)
    except ValueError as exc:
        return None, [None] * k, [exc] * k
    return stack, errors, [None] * k


def _each(specs, rows):
    """``eig_apply`` map sending row j of the eigenvalues through the
    evaluator of ``specs[rows[j]]``."""
    return lambda lam: np.array([specs[i].eval(row) for i, row in zip(rows, lam)])


def _unit_vectors(seed: int, draws: int, n: int) -> np.ndarray:
    """``draws`` random unit vectors of R^n, from the Philox stream keyed by
    (seed, 0)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    H = rng.normal(size=(draws, n))
    H /= np.linalg.norm(H, axis=1)[:, None]
    return H


def _quadratic_forms(H: np.ndarray, M: np.ndarray) -> np.ndarray:
    """<M h, h> for every row h of each H[i] against M[i]."""
    return np.einsum("...ij,...ij->...i", H @ M, H)


class _Operands:
    """The matrices of a stack of k thm-2.12 trials, validated and factored.

    One ``eigh`` call factors every A and one the B of every majorize
    trial; one values-only ``eigvalsh`` call gives the spectrum ``lam_x`` of
    X = A**(-1/2) B A**(-1/2) for every congruence trial. ``errors[i]`` is
    the first refusal that evaluating trial i alone would meet, or None. As
    in ``_Pairs``, a refused matrix is zeros and a refused factorization the
    identity's; a B that no trial reads is zeros too. ``A`` is None when the A do not form a stack of
    square matrices, which refuses every trial.
    """

    def __init__(self, A, B, mode):
        k = len(mode)
        found = {name: [None] * k for name in ("mode", "shape", "square_b", "valid_b", "pd_x", "pd_b")}
        for i, (m, b) in enumerate(zip(mode, B)):
            if m not in TWO_FUNCTION_MODES:
                found["mode"][i] = ValueError(f"unknown mode {m!r}")
            elif m != "expectation" and b is None:
                found["mode"][i] = ValueError(f"mode {m!r} requires B")
        self.A, found["valid_a"], found["square_a"] = _validated(A, k)
        if self.A is not None:
            self.eig_a, found["pd_a"] = _pd_eig(self.A, "A")
            reads = [i for i in range(k) if found["mode"][i] is None and mode[i] != "expectation"]
            self._factor_b([B[i] for i in reads], reads, mode, found)
        self.errors = [
            next((found[name][i] for name in ("mode", *_REFUSAL_ORDER.get(m, ())) if found[name][i] is not None), None)
            for i, m in enumerate(mode)
        ]

    def _factor_b(self, B: list, reads: list, mode: list, found: dict) -> None:
        """Validate the B of the trials ``reads`` and factor X or B."""
        shape = self.A.shape
        self.B, self.lam_x = np.zeros(shape), np.ones(shape[:2])
        self.eig_b = EigenDecomposition(np.zeros(shape), np.ones(shape[:2]))
        if not reads:
            return
        B, valid, square = _validated(B, len(reads))
        for j, i in enumerate(reads):
            found["valid_b"][i], found["square_b"][i] = valid[j], square[j]
        if B is None:
            return
        if B.shape[1:] != shape[1:]:
            mismatch = ValueError(f"dimension mismatch: {shape[1:]} vs {B.shape[1:]}")
            for i in reads:
                found["shape"][i] = mismatch
            return
        self.B[reads] = B
        congruent = [i for i in reads if mode[i] == "congruence"]
        if congruent:
            self.lam_x[congruent], errors = _relative_spectrum(self.eig_a.take(congruent), self.B[congruent])
            _store(congruent, errors, found["pd_x"])
        major = [i for i in reads if mode[i] == "majorize"]
        if major:
            eig_b, errors = _pd_eig(self.B[major], "B")
            self.eig_b.vectors[major], self.eig_b.values[major] = eig_b.vectors, eig_b.values
            _store(major, errors, found["pd_b"])

    def spectrum(self, i: int, mode: str) -> tuple:
        """The spectral hull the trial's interval must contain."""
        if mode == "congruence":
            return float(self.lam_x[i, 0]), float(self.lam_x[i, -1])
        lo, hi = float(self.eig_a.values[i, 0]), float(self.eig_a.values[i, -1])
        if mode == "majorize":
            lo, hi = min(lo, float(self.eig_b.values[i, 0])), max(hi, float(self.eig_b.values[i, -1]))
        return lo, hi


def _store(rows: list, errors: list, found: list) -> None:
    """Put the refusals of ``rows`` of a stack in place."""
    for i, error in zip(rows, errors):
        found[i] = error


def _increments(f, g, mode, a, b, spectrum, tol, grid, regime):
    """(f(b) - f(a), g(b) - g(a)) of a trial whose spectrum fits its
    interval [a, b] (the spectrum itself where a is None) and whose function
    pair passes the gate there, else None (not applicable); records the
    reason in ``regime``."""
    spec_lo, spec_hi = spectrum
    if a is None:
        a, b = spectrum
    a, b = float(a), float(b)
    regime.update({"a": a, "b": b})
    cushion = REGIME_CUSHION * max(1.0, abs(a), abs(b))
    if spec_lo < a - cushion or spec_hi > b + cushion:
        regime["reason"] = f"spectrum [{spec_lo}, {spec_hi}] escapes [{a}, {b}]"
        return None
    gate = two_function_gate(f, g, a, b, grid=grid, tol=tol)
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


def two_function_stack(f, g, a, b, mode, A, B, vector_seed, tol: float = DEFAULT_TOL,
                       draws: int = 1000, grid: int = 257) -> list:
    """``check_two_function_operator`` over a stack of k trials: one outcome
    per trial.

    ``f``, ``g``, ``a``, ``b``, ``mode``, ``A``, ``B`` and ``vector_seed``
    hold one value per trial, [a, b] being the trial's interval (its
    spectral hull where a is None); the A share a shape, and so do the B
    that are read (B is ignored in expectation mode, and may be None there,
    and ``vector_seed`` is read in expectation mode alone). The
    matrices are factored as stacks, each batch of quadratic forms, g(A) and
    Loewner link is one stacked call, congruence mode is decided on the
    spectrum of X, and the admissibility gate and the unit vectors are per
    trial.
    """
    k = len(mode)
    ops = _Operands(A, B, mode)
    if ops.A is None:
        return ops.errors
    errors, regimes, layouts = ops.errors, [None] * k, [None] * k
    steps, unit_vectors = {}, {}
    for i in [i for i, error in enumerate(errors) if error is None]:
        regime = regimes[i] = {"mode": mode[i], "fn_f": f[i].id, "fn_g": g[i].id}
        try:
            step = _increments(f[i], g[i], mode[i], a[i], b[i], ops.spectrum(i, mode[i]), tol, grid, regime)
            if step is not None and mode[i] == "expectation":
                unit_vectors[i] = _unit_vectors(vector_seed[i], draws, ops.A.shape[1])
        except (ValueError, NumericError, OverflowError) as exc:
            errors[i] = exc
            continue
        if step is not None:
            steps[i] = step
    expect, congruent, major = ([i for i in steps if mode[i] == m] for m in TWO_FUNCTION_MODES)
    if major:
        below = _loewner(ops.B[major], ops.A[major], tol)
        for i, verdict in zip(major, below):
            if not verdict.holds:
                regimes[i]["reason"] = "hypothesis B <= A fails"
        major = [i for i, verdict in zip(major, below) if verdict.holds]

    links = {"lhs(h)": np.zeros((k, 1, 1)), "rhs(h)": np.zeros((k, 1, 1))}
    links.update({"f(X)": np.zeros(ops.A.shape[:2]), "ratio*g(X)": np.zeros(ops.A.shape[:2])})
    links.update({"f(B)": np.zeros_like(ops.A), "ratio*g(A)": np.zeros_like(ops.A)})
    if expect + major:
        gA = eig_apply(ops.eig_a.take(expect + major), _each(g, expect + major))
    if expect:
        H = np.stack([unit_vectors.pop(i) for i in expect])
        quad_A = _quadratic_forms(H, ops.A[expect])
        quad_g = _quadratic_forms(H, gA[: len(expect)])
        lo, hi = _column([regimes[i]["a"] for i in expect]), _column([regimes[i]["b"] for i in expect])
        f_quad = np.array([f[i].eval(row) for i, row in zip(expect, np.clip(quad_A, lo, hi))])
        lhs = _column([steps[i][1] for i in expect]) * f_quad
        rhs = _column([steps[i][0] for i in expect]) * quad_g
        rel = (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        for j, (i, w) in enumerate(zip(expect, np.argmin(rel, axis=1))):
            regimes[i].update({"draws": draws, "worst_rel_slack": float(rel[j, w])})
            links["lhs(h)"][i], links["rhs(h)"][i] = lhs[j, w], rhs[j, w]
            layouts[i] = ("lhs(h)", "rhs(h)")
    if congruent:
        lam = ops.lam_x[congruent]
        links["f(X)"][congruent] = _each(f, congruent)(lam)
        links["ratio*g(X)"][congruent] = _column([regimes[i]["ratio"] for i in congruent]) * _each(g, congruent)(lam)
        for i in congruent:
            layouts[i] = ("f(X)", "ratio*g(X)")
    if major:
        ratio = _column([regimes[i]["ratio"] for i in major])[:, :, None]
        links["f(B)"][major] = eig_apply(ops.eig_b.take(major), _each(f, major))
        links["ratio*g(A)"][major] = ratio * gA[len(expect):]
        for i in major:
            layouts[i] = ("f(B)", "ratio*g(A)")

    def lift(i, name):
        if name == "f(X)":
            return congruence_sandwich(ops.A[i], ops.B[i], f[i].eval)
        if name == "ratio*g(X)":
            return congruence_sandwich(ops.A[i], ops.B[i], lambda lam: regimes[i]["ratio"] * g[i].eval(lam))
        return links[name][i]

    return _decide("thm-2.12", links, layouts, regimes, errors, tol, lift)


def check_two_function_operator(
    f,
    g,
    A,
    B=None,
    mode="expectation",
    interval=None,
    tol: float = DEFAULT_TOL,
    draws: int = 1000,
    vector_seed: int = 0,
    grid: int = 257,
) -> OperatorChainVerdict:
    """Operator comparison of a gated function pair.

    ``interval`` is the [a, b] window on which the admissibility gate runs;
    it defaults to the relevant spectral hull. Modes:

    - expectation: (g(b)-g(a)) f(<Ah,h>) <= (f(b)-f(a)) <g(A)h,h> over
      seeded random unit vectors h; the verdict carries the worst pair.
    - congruence: sandwich comparison for a pair with relative spectrum in
      [a, b], scaled by the increment ratio.
    - majorize: f(B) <= ratio * g(A) for B <= A with both spectra in [a, b].
    """
    a, b = (None, None) if interval is None else interval
    return _single(two_function_stack([f], [g], [a], [b], [mode], [A], [B], [vector_seed], tol, draws, grid))
