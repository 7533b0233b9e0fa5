"""Relative operator entropies and their inequality chains under the
semidefinite order.

Every checker reduces to functional calculus on the congruence-normalized
matrix X = A**(-1/2) B A**(-1/2): each link is A**(1/2) f(X) A**(1/2) for
some scalar f, so one eigendecomposition of X serves the whole chain.

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
    _pd_eig,
    as_symmetric,
    eig_apply,
    matrix_to_obj,
    symmetrize,
)

REGIME_CUSHION = 1e-12

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NOT_APPLICABLE = "not-applicable"


class _Context:
    """Shared sandwich data for one (A, B) pair."""

    def __init__(self, A, B):
        self.A = as_symmetric(A)
        self.B = as_symmetric(B)
        if self.A.shape != self.B.shape:
            raise ValueError(f"dimension mismatch: {self.A.shape} vs {self.B.shape}")
        self.root, inner = _normalize_pair(self.A, self.B)
        self.eig_x = _pd_eig(inner, "B relative to A")
        self.m = float(self.eig_x.values[0])
        self.M = float(self.eig_x.values[-1])

    def lift(self, fn) -> np.ndarray:
        return symmetrize(self.root @ eig_apply(self.eig_x, fn) @ self.root)

    def zero(self) -> np.ndarray:
        return np.zeros_like(self.A)


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


def _chain(chain_id, links, tol, regime) -> OperatorChainVerdict:
    """Links are built from validated inputs through ``symmetrize`` or as
    sums and scalar multiples of exactly symmetric matrices, so they skip
    revalidation; only finiteness can fail."""
    for mat in links:
        if not np.all(np.isfinite(mat)):
            raise NumericError(f"{chain_id}: chain link has non-finite entries")
    verdicts = [_loewner(links[i], links[i + 1], tol) for i in range(len(links) - 1)]
    status = STATUS_PASS if all(v.holds for v in verdicts) else STATUS_FAIL
    return OperatorChainVerdict(chain_id, list(links), verdicts, status, tol, regime)


def _not_applicable(chain_id, tol, regime) -> OperatorChainVerdict:
    return OperatorChainVerdict(chain_id, [], [], STATUS_NOT_APPLICABLE, tol, regime)


# --- entropies --------------------------------------------------------------

def relative_entropy(A, B) -> np.ndarray:
    """A**(1/2) log(A**(-1/2) B A**(-1/2)) A**(1/2) for positive-definite A, B."""
    return _Context(A, B).lift(np.log)


def tsallis_entropy(A, B, t: float) -> np.ndarray:
    """Deformed-log analogue of the relative entropy; equals B - A at t = 1
    and converges to the relative entropy as t -> 0."""
    return _Context(A, B).lift(lambda lam: scalar.deformed_log(t, lam))


def generalized_entropy(A, B, t: float) -> np.ndarray:
    """Sandwich of x**t log(x); reduces to the relative entropy at t = 0."""
    return _Context(A, B).lift(lambda lam: lam**t * np.log(lam))


# --- chains -----------------------------------------------------------------

def check_zou_chain(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Five-link entropy ordering between A - A B**(-1) A and B - A."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"need 0 < t <= 1, got {t!r}")
    ctx = _Context(A, B)
    B_inv = eig_apply(_pd_eig(ctx.B, "B"), lambda lam: 1.0 / lam)
    links = [
        symmetrize(ctx.A - ctx.A @ B_inv @ ctx.A),
        ctx.lift(lambda lam: scalar.deformed_log(-t, lam)),
        ctx.lift(np.log),
        ctx.lift(lambda lam: scalar.deformed_log(t, lam)),
        ctx.B - ctx.A,
    ]
    return _chain("zou", links, tol, {"t": t, "m": ctx.m, "M": ctx.M})


def check_refined_ST(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Entropy ordering sharpened by an additive term at the spectral
    endpoint; the case depends on where [m, M] sits relative to 1."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"need 0 < t <= 1, got {t!r}")
    ctx = _Context(A, B)
    if ctx.M < 1.0 - REGIME_CUSHION:
        case, endpoint = "M-below-1", ctx.M
    elif ctx.m > 1.0 + REGIME_CUSHION:
        case, endpoint = "m-above-1", ctx.m
    else:
        case, endpoint = "straddles-1", None
    add = 0.0 if endpoint is None else scalar.theta(t, endpoint) / t
    links = [
        ctx.lift(np.log) + add * ctx.A,
        ctx.lift(lambda lam: scalar.deformed_log(t, lam)),
    ]
    regime = {"t": t, "m": ctx.m, "M": ctx.M, "case": case, "additive_term": add}
    return _chain("thm-3.3", links, tol, regime)


def check_tsallis_relation(A, B, s: float, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Relates two deformed entropies through exponential factors; requires
    the relative spectrum to sit at or above 1."""
    if s <= 0.0 or t <= 0.0:
        raise ValueError(f"need s, t > 0, got s={s!r}, t={t!r}")
    ctx = _Context(A, B)
    regime = {"s": s, "t": t, "m": ctx.m, "M": ctx.M}
    if ctx.m < 1.0 - REGIME_CUSHION:
        regime["reason"] = "requires m >= 1"
        return _not_applicable("thm-3.5", tol, regime)
    m, M = max(ctx.m, 1.0), max(ctx.M, 1.0)
    if t >= s:
        lo = np.exp(scalar.eta(m, s) * (t - s))
        hi = np.exp(scalar.eta(M, t) * (t - s))
        regime["case"] = "t-above-s"
    else:
        lo = np.exp(scalar.eta(M, s) * (t - s))
        hi = np.exp(scalar.eta(m, t) * (t - s))
        regime["case"] = "s-above-t"
    T_s = ctx.lift(lambda lam: scalar.deformed_log(s, lam))
    T_t = ctx.lift(lambda lam: scalar.deformed_log(t, lam))
    links = [ctx.zero(), lo * T_s, T_t, hi * T_s]
    return _chain("thm-3.5", links, tol, regime)


def check_roe_bounds(A, B, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Two-sided exponential estimates of the relative entropy in multiples
    of A, for a relative spectrum inside (0, 1/e] or [1, e]."""
    ctx = _Context(A, B)
    m, M = ctx.m, ctx.M
    e = float(np.e)
    S = ctx.lift(np.log)
    regime = {"m": m, "M": M}
    if M <= 1.0 / e + REGIME_CUSHION:
        lo = -np.exp((e * m - 1.0) / (e * m * np.log(m)))
        hi = -np.exp(1.0 - e * M)
        links = [lo * ctx.A, S, hi * ctx.A, ctx.zero()]
        regime.update({"case": "below-1-over-e", "lower_coef": lo, "upper_coef": hi})
    elif m >= 1.0 - REGIME_CUSHION and M <= e + REGIME_CUSHION:
        # coefficient continuously vanishes as m -> 1
        lo = 0.0 if m <= 1.0 + 1e-9 else np.exp((m - e) / (m * np.log(m)))
        hi = np.exp((min(M, e) - e) / e)
        links = [ctx.zero(), lo * ctx.A, S, hi * ctx.A]
        regime.update({"case": "unit-to-e", "lower_coef": lo, "upper_coef": hi})
    else:
        regime["reason"] = "relative spectrum outside both regimes"
        return _not_applicable("thm-3.6", tol, regime)
    return _chain("thm-3.6", links, tol, regime)


def check_troe_linear_bound(A, B, t: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Secant-line bound on the deformed entropy over the relative spectrum.

    The deformed log is concave in its argument for t <= 1, so the entropy
    dominates the secant combination of B and A; for t >= 1 it is convex and
    the inequality reverses. When the spectrum reaches down to 1 the chain
    extends with B - A on the loose side.
    """
    if t == 0.0:
        raise ValueError("t must be nonzero")
    ctx = _Context(A, B)
    m, M = ctx.m, ctx.M
    regime = {"t": t, "m": m, "M": M}
    if m < 1.0 - 1e-9:
        regime["reason"] = "requires m >= 1"
        return _not_applicable("thm-3.11", tol, regime)
    if M - m < 1e-8:
        regime["reason"] = "secant undefined for m == M"
        return _not_applicable("thm-3.11", tol, regime)
    lt_m = scalar.deformed_log(t, m)
    lt_M = scalar.deformed_log(t, M)
    slope = (lt_M - lt_m) / (M - m)
    intercept = (M * lt_m - m * lt_M) / (M - m)
    secant = slope * ctx.B + intercept * ctx.A
    T_t = ctx.lift(lambda lam: scalar.deformed_log(t, lam))
    at_unit = m <= 1.0 + 1e-9
    if t <= 1.0:
        links = [secant, T_t] + ([ctx.B - ctx.A] if at_unit else [])
        regime["direction"] = "secant-below"
    else:
        links = ([ctx.B - ctx.A] if at_unit else []) + [T_t, secant]
        regime["direction"] = "secant-above"
    regime.update({"slope": slope, "intercept": intercept, "unit_endpoint": at_unit})
    return _chain("thm-3.11", links, tol, regime)


def check_ordering_S_Tp_Sp(A, B, p: float, tol: float = DEFAULT_TOL) -> OperatorChainVerdict:
    """Ordering of the plain, deformed, and generalized entropies; the
    direction flips with the sign of p."""
    if p == 0.0:
        raise ValueError("p must be nonzero")
    ctx = _Context(A, B)
    S = ctx.lift(np.log)
    T_p = ctx.lift(lambda lam: scalar.deformed_log(p, lam))
    S_p = ctx.lift(lambda lam: lam**p * np.log(lam))
    links = [S, T_p, S_p] if p > 0 else [S_p, T_p, S]
    return _chain("prop-3.10", links, tol, {"p": p, "m": ctx.m, "M": ctx.M})


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
        ctx = _Context(A, B)
        spec_lo, spec_hi = ctx.m, ctx.M
    else:
        A = as_symmetric(A)
        eig_a = _pd_eig(A, "A")
        spec_lo, spec_hi = float(eig_a.values[0]), float(eig_a.values[-1])
    if mode == "majorize":
        B = as_symmetric(B)
        if B.shape != A.shape:
            raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
        eig_b = _pd_eig(B, "B")
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
        gA = eig_apply(eig_a, lambda lam: np.array([g.eval(v) for v in lam]))
        quad_A = np.einsum("ij,jk,ik->i", H, A, H)
        quad_g = np.einsum("ij,jk,ik->i", H, gA, H)
        lhs = dg * np.array([f.eval(v) for v in np.clip(quad_A, a, b)])
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
        lhs = ctx.lift(lambda lam: np.array([f.eval(v) for v in lam]))
        rhs = ratio * ctx.lift(lambda lam: np.array([g.eval(v) for v in lam]))
        return _chain("thm-2.12", [lhs, rhs], tol, regime)

    # majorize
    below = _loewner(B, A, tol)
    if not below.holds:
        regime["reason"] = "hypothesis B <= A fails"
        return _not_applicable("thm-2.12", tol, regime)
    fB = eig_apply(eig_b, lambda lam: np.array([f.eval(v) for v in lam]))
    gA = eig_apply(eig_a, lambda lam: np.array([g.eval(v) for v in lam]))
    return _chain("thm-2.12", [fB, ratio * gA], tol, regime)
