"""Relative operator entropies and their inequality chains under the
semidefinite order.

Every checker reduces to functional calculus on the congruence-normalized
matrix X = A**(-1/2) B A**(-1/2): each link is A**(1/2) f(X) A**(1/2) for
some scalar f, so one eigendecomposition of X serves the whole chain.

The matrix checkers work on a stack of k pairs of one shape: one ``eigh``
call factors every A, one every X, one batched product forms each lift,
and one ``eigvalsh`` call decides every Loewner link of the stack.
``<name>_stack(A, B, ..., tol)`` takes k matrices for A and for B and k
values for each parameter, and returns one outcome per pair: the verdict,
or the exception the pair's own evaluation raises, which does not touch
the other pairs. The public ``check_*`` functions are the k = 1 case and
raise that exception.

Hypothesis mismatches (a pair outside a theorem's spectral regime) yield a
verdict with status "not-applicable"; only genuine link violations count as
failures. Bad inputs (non-PD, dimension mismatch, invalid parameters) raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scalar
from .chains import DEFAULT_TOL, two_function_gate
from .errors import NumericError
from .linalg import (
    _loewner,
    _normalize_pair,
    _only,
    _pd_eig,
    _pd_eig_one,
    _symmetric_stack,
    as_symmetric,
    eig_apply,
    matrix_to_obj,
    symmetrize,
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
    """Sandwich data shared by a stack of k (A, B) pairs of one shape.

    ``errors[i]`` is the exception refusing pair i, or None; the first one
    found for a pair is kept. A refused pair stays in the stack, with zeros
    standing in for a refused matrix and the identity's decomposition for a
    refused factorization, so that stacked work stays finite; its verdict is
    dropped at the end.
    """

    def __init__(self, A, B, errors=None, factor_b: bool = False):
        self.A, errors_a = _symmetric_stack(A)
        self.B, errors_b = _symmetric_stack(B)
        if self.A.shape != self.B.shape:
            raise ValueError(f"dimension mismatch: {self.A.shape[1:]} vs {self.B.shape[1:]}")
        self.errors = list(errors) if errors is not None else [None] * len(self.A)
        self.refuse(errors_a)
        self.refuse(errors_b)
        self.root, inner, errors_x = _normalize_pair(self.A, self.B)
        self.refuse(errors_x)
        self.eig_x, errors_x = _pd_eig(inner, "B relative to A")
        self.refuse(errors_x)
        if factor_b:
            self.eig_b, errors_b = _pd_eig(self.B, "B")
            self.refuse(errors_b)
        self.m = self.eig_x.values[:, 0].tolist()
        self.M = self.eig_x.values[:, -1].tolist()

    def refuse(self, errors) -> None:
        self.errors = [old if old is not None else new for old, new in zip(self.errors, errors)]

    def live(self) -> list:
        """Indices of the pairs not refused."""
        return [i for i, e in enumerate(self.errors) if e is None]

    def lift(self, fn) -> np.ndarray:
        """A**(1/2) fn(X) A**(1/2) for every pair; ``fn`` maps the (k, n)
        eigenvalues of X elementwise."""
        return symmetrize(self.root @ eig_apply(self.eig_x, fn) @ self.root)

    def zero(self) -> np.ndarray:
        return np.zeros_like(self.A)


def _pair(A, B) -> _Pairs:
    """The one-pair stack of (A, B); raises the pair's refusal."""
    pairs = _Pairs([A], [B])
    _only(pairs.errors)
    return pairs


def _single(outcomes: list):
    """The verdict of a one-pair stack; raises the pair's refusal."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class OperatorChainVerdict:
    chain_id: str
    links: list
    verdicts: list
    status: str
    tol: float
    regime: dict = field(default_factory=dict)

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


def _chains(chain_id, links, layouts, regimes, errors, tol) -> list:
    """One outcome per pair of a stack.

    ``links`` maps names to stacks of link matrices; pair i's chain is
    ``links[name][i]`` for the names in ``layouts[i]``, or not applicable
    when that layout is None. A refused pair's outcome is its error. Links
    are built from validated inputs through ``symmetrize`` or as sums and
    scalar multiples of exactly symmetric matrices, so they skip
    revalidation; only finiteness can fail, which fails the pair with
    NumericError. Pairs sharing a layout form a sub-stack, and every link
    of every sub-stack is decided by one ``_loewner`` call.
    """
    finite = {name: np.isfinite(mats).all(axis=(1, 2)).tolist() for name, mats in links.items()}
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
    lower, upper = [], []
    for layout, rows in groups.items():
        for x, y in zip(layout, layout[1:]):
            lower.append(links[x][rows])
            upper.append(links[y][rows])
    verdicts = iter(_loewner(np.concatenate(lower), np.concatenate(upper), tol) if lower else ())
    for layout, rows in groups.items():
        by_link = [[next(verdicts) for _ in rows] for _ in layout[1:]]
        for j, i in enumerate(rows):
            pair_verdicts = [link_verdicts[j] for link_verdicts in by_link]
            status = STATUS_PASS if all(v.holds for v in pair_verdicts) else STATUS_FAIL
            pair_links = [links[name][i] for name in layout]
            outcomes[i] = OperatorChainVerdict(chain_id, pair_links, pair_verdicts, status, tol, regimes[i])
    return outcomes


def _chain(chain_id, links, tol, regime) -> OperatorChainVerdict:
    """The verdict of one chain of single matrices."""
    names = tuple(range(len(links)))
    stacked = {name: link[None] for name, link in zip(names, links)}
    return _single(_chains(chain_id, stacked, [names], [regime], [None], tol))


def _not_applicable(chain_id, tol, regime) -> OperatorChainVerdict:
    return OperatorChainVerdict(chain_id, [], [], STATUS_NOT_APPLICABLE, tol, regime)


# --- entropies --------------------------------------------------------------

def relative_entropy(A, B) -> np.ndarray:
    """A**(1/2) log(A**(-1/2) B A**(-1/2)) A**(1/2) for positive-definite A, B."""
    return _pair(A, B).lift(np.log)[0]


def tsallis_entropy(A, B, t: float) -> np.ndarray:
    """Deformed-log analogue of the relative entropy; equals B - A at t = 1
    and converges to the relative entropy as t -> 0."""
    return _pair(A, B).lift(lambda lam: scalar.deformed_log(t, lam))[0]


def generalized_entropy(A, B, t: float) -> np.ndarray:
    """Sandwich of x**t log(x); reduces to the relative entropy at t = 0."""
    return _pair(A, B).lift(lambda lam: lam**t * np.log(lam))[0]


# --- chains -----------------------------------------------------------------

def zou_stack(A, B, t, tol: float = DEFAULT_TOL) -> list:
    """``check_zou_chain`` over a stack of pairs: one outcome per pair."""
    pairs = _Pairs(A, B, [_require(0.0 < ti <= 1.0, f"need 0 < t <= 1, got {ti!r}") for ti in t], factor_b=True)
    tc = _column(t)
    B_inv = eig_apply(pairs.eig_b, lambda lam: 1.0 / lam)
    links = {
        "harmonic": symmetrize(pairs.A - pairs.A @ B_inv @ pairs.A),
        "T-t": pairs.lift(lambda lam: scalar.deformed_log(-tc, lam)),
        "S": pairs.lift(np.log),
        "Tt": pairs.lift(lambda lam: scalar.deformed_log(tc, lam)),
        "B-A": pairs.B - pairs.A,
    }
    layout = tuple(links)
    regimes = [{"t": ti, "m": m, "M": M} for ti, m, M in zip(t, pairs.m, pairs.M)]
    return _chains("zou", links, [layout] * len(regimes), regimes, pairs.errors, tol)


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
    tc = _column(t)
    links = {
        "S+": pairs.lift(np.log) + add[:, None, None] * pairs.A,
        "Tt": pairs.lift(lambda lam: scalar.deformed_log(tc, lam)),
    }
    return _chains("thm-3.3", links, [tuple(links)] * len(t), regimes, pairs.errors, tol)


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
    sc, tc = _column(s), _column(t)
    T_s = pairs.lift(lambda lam: scalar.deformed_log(sc, lam))
    links = {
        "0": pairs.zero(),
        "lo*Ts": lo[:, None, None] * T_s,
        "Tt": pairs.lift(lambda lam: scalar.deformed_log(tc, lam)),
        "hi*Ts": hi[:, None, None] * T_s,
    }
    return _chains("thm-3.5", links, layouts, regimes, pairs.errors, tol)


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
    links = {
        "lo*A": lo[:, None, None] * pairs.A,
        "S": pairs.lift(np.log),
        "hi*A": hi[:, None, None] * pairs.A,
        "0": pairs.zero(),
    }
    return _chains("thm-3.6", links, layouts, regimes, pairs.errors, tol)


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
    tc = _column(t)
    links = {
        "secant": slope[:, None, None] * pairs.B + intercept[:, None, None] * pairs.A,
        "Tt": pairs.lift(lambda lam: scalar.deformed_log(tc, lam)),
        "B-A": pairs.B - pairs.A,
    }
    return _chains("thm-3.11", links, layouts, regimes, pairs.errors, tol)


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
        "S": pairs.lift(np.log),
        "Tp": pairs.lift(lambda lam: scalar.deformed_log(pc, lam)),
        "Sp": pairs.lift(lambda lam: lam**pc * np.log(lam)),
    }
    layouts = [("S", "Tp", "Sp") if pi > 0 else ("Sp", "Tp", "S") for pi in p]
    regimes = [{"p": pi, "m": m, "M": M} for pi, m, M in zip(p, pairs.m, pairs.M)]
    return _chains("prop-3.10", links, layouts, regimes, pairs.errors, tol)


def check_ordering_S_Tp_Sp(A, B, p: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Ordering of the plain, deformed, and generalized entropies; the
    direction flips with the sign of p."""
    return _single(ordering_stack([A], [B], [p], tol))


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
    if mode not in ("expectation", "congruence", "majorize"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("congruence", "majorize") and B is None:
        raise ValueError(f"mode {mode!r} requires B")
    regime = {"mode": mode, "fn_f": f.id, "fn_g": g.id}

    if mode == "congruence":
        pairs = _pair(A, B)
        spec_lo, spec_hi = pairs.m[0], pairs.M[0]
    else:
        A = as_symmetric(A)
        eig_a = _pd_eig_one(A, "A")
        spec_lo, spec_hi = float(eig_a.values[0]), float(eig_a.values[-1])
    if mode == "majorize":
        B = as_symmetric(B)
        if B.shape != A.shape:
            raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
        eig_b = _pd_eig_one(B, "B")
        spec_lo = min(spec_lo, float(eig_b.values[0]))
        spec_hi = max(spec_hi, float(eig_b.values[-1]))

    if interval is None:
        interval = (spec_lo, spec_hi)
    a, b = float(interval[0]), float(interval[1])
    regime.update({"a": a, "b": b})
    cushion = REGIME_CUSHION * max(1.0, abs(a), abs(b))
    if spec_lo < a - cushion or spec_hi > b + cushion:
        regime["reason"] = f"spectrum [{spec_lo}, {spec_hi}] escapes [{a}, {b}]"
        return _not_applicable("thm-2.12", tol, regime)

    gate = two_function_gate(f, g, a, b, grid=grid, tol=tol)
    regime["gate"] = gate.checks
    regime["m_ratio"] = gate.m_ratio if np.isfinite(gate.m_ratio) else None
    if not gate.conditions_hold:
        regime["reason"] = "admissibility gate failed"
        return _not_applicable("thm-2.12", tol, regime)

    df = f.eval(b) - f.eval(a)
    dg = g.eval(b) - g.eval(a)

    if mode == "expectation":
        rng = np.random.Generator(np.random.Philox(key=np.array([vector_seed, 0], dtype=np.uint64)))
        H = rng.normal(size=(draws, A.shape[0]))
        H /= np.linalg.norm(H, axis=1)[:, None]
        gA = eig_apply(eig_a, g.eval)
        quad_A = np.einsum("ij,jk,ik->i", H, A, H)
        quad_g = np.einsum("ij,jk,ik->i", H, gA, H)
        lhs = dg * f.eval(np.clip(quad_A, a, b))
        rhs = df * quad_g
        rel = (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst = int(np.argmin(rel))
        regime.update({"draws": draws, "worst_rel_slack": float(rel[worst])})
        links = [np.array([[lhs[worst]]]), np.array([[rhs[worst]]])]
        return _chain("thm-2.12", links, tol, regime)

    if dg <= tol * max(1.0, abs(g.eval(a)), abs(g.eval(b))):
        regime["reason"] = "increment of g too small for the ratio form"
        return _not_applicable("thm-2.12", tol, regime)
    ratio = df / dg
    regime["ratio"] = ratio

    if mode == "congruence":
        lhs = pairs.lift(f.eval)[0]
        rhs = ratio * pairs.lift(g.eval)[0]
        return _chain("thm-2.12", [lhs, rhs], tol, regime)

    # majorize
    below = _loewner(B[None], A[None], tol)[0]
    if not below.holds:
        regime["reason"] = "hypothesis B <= A fails"
        return _not_applicable("thm-2.12", tol, regime)
    fB = eig_apply(eig_b, f.eval)
    gA = eig_apply(eig_a, g.eval)
    return _chain("thm-2.12", [fB, ratio * gA], tol, regime)
