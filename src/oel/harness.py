"""Randomized instance generation, chain fuzzing, counterexample shrinking,
and report emission.

Reproducibility model: every trial gets its own counter-based random stream
keyed by (seed, trial index), so reports are bit-identical for a fixed seed
regardless of execution order, and a failing trial can be regenerated in
isolation.

Generation model: ``fuzz_chain`` takes trials in consecutive blocks of
FUZZ_BLOCK. Every matrix chain has a ``ChainEntry.draw``, which draws each
trial from its own stream but leaves its matrices pending: a spectrum and a
Gaussian matrix per matrix, not yet factored (a pair (A, B), or thm-2.12's
single A, with the rank-one shift that makes its B in majorize mode).
``_realize`` then factors the pending matrices of a block that share a
dimension as one stack (one QR call for every Gaussian, one batched
``Q diag(l) Q^T``, and for pairs with a prescribed relative spectrum one
eigendecomposition for every A). Stacked LAPACK and BLAS calls are bitwise
equal to per-matrix calls, and ``ChainEntry.generate`` of such a chain is
the one-trial block, so a trial is bit for bit the same whether it is drawn
alone or in a block. Only scalar chains generate trial by trial.

Evaluation model: a matrix chain evaluates the trials of a block that share
their shapes as one stack (``ChainEntry.stack``), bitwise as each trial
alone (``ChainEntry.run``); pair chains are decided on the eigenvalues of
A^-1/2 B A^-1/2, with no link matrix built. Scalar chains run trial by
trial. Outcomes are merged back in trial order.

Declaration model: a chain is registered once, with its draw, its checker
and ``ChainEntry.params``, which ``run``, ``stack`` and ``oel verify`` read.
"""

from __future__ import annotations

import csv
import json
import numbers
import operator
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import chains, entropy, funcs
from .chains import DEFAULT_TOL, ChainVerdict
from .entropy import OperatorChainVerdict
from .errors import NumericError
from .funcs import REGISTRY, FunctionSpec
from .linalg import _pd_eig, eig_apply, eigendecomposition, matrix_to_obj, symmetrize

_U64 = (1 << 64) - 1


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial of one run."""
    key = np.array([seed & _U64, trial & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TrialStreams:
    """Reusable counter-based substreams, bit-identical to trial_rng.

    Rebuilding a Philox generator per trial costs more than many trials do;
    resetting the key and counter of one instance is an order of magnitude
    cheaper and produces the same stream.
    """

    def __init__(self, seed: int):
        self._bit_gen = np.random.Philox(key=np.array([seed & _U64, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bit_gen)
        self._template = self._bit_gen.state

    def rng(self, trial: int) -> np.random.Generator:
        state = self._template
        state["state"]["key"][1] = trial & _U64
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4  # mark the output buffer empty
        self._bit_gen.state = state
        return self._gen


# the values each key of ``GeneratorConfig.regime`` admits: thm-2.12's mode,
# and thm-3.3's and thm-3.6's case
_REFINED_CASES = ("below", "straddle", "above")
_ROE_CASES = ("low", "high")
_REGIME_CHOICES = {"mode": entropy.TWO_FUNCTION_MODES, "case": _REFINED_CASES + _ROE_CASES}
_M_MIN_MAX = 100.0  # thm-3.5 draws its relative spectrum from [m_min, _M_MIN_MAX]


@dataclass
class GeneratorConfig:
    seed: int = 0
    trials: int = 1000
    dim_range: tuple = (2, 8)
    scalar_range: tuple = (1e-3, 1e3)
    tol: float = DEFAULT_TOL
    regime: dict | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        lo, hi = self.dim_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad dim_range {self.dim_range!r}")
        slo, shi = self.scalar_range
        if not (0.0 < slo <= shi):
            raise ValueError(f"bad scalar_range {self.scalar_range!r}")
        for key, val in (self.regime or {}).items():
            if key == "m_min":  # a NaN fails the comparison
                ok = isinstance(val, numbers.Real) and not isinstance(val, bool) and 0.0 < val <= _M_MIN_MAX
            else:
                ok = val in _REGIME_CHOICES.get(key, ())
            if not ok:
                raise ValueError(f"bad regime entry {key}={val!r}; admitted: m_min in (0, 100], {_REGIME_CHOICES}")

    def regime_get(self, key, default):
        if self.regime and key in self.regime:
            return self.regime[key]
        return default


# --- low-level draws ---------------------------------------------------------

def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _orthogonal(G: np.ndarray) -> np.ndarray:
    """Orthogonal factors of a stack of Gaussian matrices, with the signs
    that make them Haar-distributed."""
    q, r = np.linalg.qr(G)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _meet(regime: tuple, lo: float = 0.0, hi: float = np.inf) -> tuple:
    """The part of a regime interval inside [lo, hi]; the regime interval
    alone when the two do not meet."""
    a, b = max(lo, regime[0]), min(hi, regime[1])
    return (a, b) if a <= b else regime


@dataclass
class _Pending:
    """Drawn matrices before factoring: the spectrum and Gaussian matrix of
    A and, for a pair, of a second matrix, in draw order. The second matrix
    is B itself, or, for a constrained pair, the middle factor C of
    B = A^(1/2) C A^(1/2). A single A with a ``shift`` and a unit vector
    ``v`` stands for the pair (A, A - shift v v^T)."""

    lam_a: np.ndarray
    G_a: np.ndarray
    lam_b: np.ndarray | None = None
    G_b: np.ndarray | None = None
    constrained: bool = False
    shift: float | None = None
    v: np.ndarray | None = None

    def drawn(self) -> list:
        """(spectrum, Gaussian matrix) of each matrix to factor."""
        return [(self.lam_a, self.G_a)] + ([] if self.lam_b is None else [(self.lam_b, self.G_b)])


def _draw_pair(rng, n, spectrum_a, spectrum_b, constrained=False) -> _Pending:
    """Draw spectrum, then Gaussian matrix, for each matrix in turn."""
    lam_a = spectrum_a()
    G_a = rng.normal(size=(n, n))
    lam_b = spectrum_b()
    G_b = rng.normal(size=(n, n))
    return _Pending(lam_a, G_a, lam_b, G_b, constrained)


def _realize(block: list) -> list:
    """The drawn params of a block with the pending draw of each trial (the
    one ``_Pending`` value) replaced in place by its matrices "A" and "B",
    or "A" alone for a single matrix without a shift.

    The draws of one dimension are factored as one stack: one QR call for
    every Gaussian, one batched ``Q diag(l) Q^T``, and for the constrained
    pairs one eigendecomposition for every A and one batched
    ``A^(1/2) C A^(1/2)``. A constrained pair whose A is not
    positive-definite raises the refusal of the first such trial.
    """
    pending = [next(val for val in p.values() if isinstance(val, _Pending)) for p in block]
    groups: dict = {}
    for i, d in enumerate(pending):
        groups.setdefault(len(d.lam_a), []).append(i)
    matrices = [None] * len(block)
    refusals = []
    for rows in groups.values():
        drawn = [pending[i].drawn() for i in rows]
        Q = _orthogonal(np.stack([G for d in drawn for _, G in d]))
        lam = np.stack([lam for d in drawn for lam, _ in d])
        M = symmetrize((Q * lam[:, None, :]) @ Q.swapaxes(1, 2))
        first = np.cumsum([0] + [len(d) for d in drawn])  # trial j's matrices are M[first[j]:first[j + 1]]
        cons = [j for j, i in enumerate(rows) if pending[i].constrained]
        if cons:
            at = first[cons]
            eig, errors = _pd_eig(M[at], "matrix")
            refusals += [(rows[j], error) for j, error in zip(cons, errors) if error is not None]
            root = eig_apply(eig, np.sqrt)
            M[at + 1] = symmetrize(root @ M[at + 1] @ root)
        for j, i in enumerate(rows):
            mats = matrices[i] = list(M[first[j]:first[j + 1]])
            if pending[i].shift is not None:
                mats.append(symmetrize(mats[0] - pending[i].shift * np.outer(pending[i].v, pending[i].v)))
    if refusals:
        raise min(refusals, key=lambda r: r[0])[1]
    realized = []
    for p, mats in zip(block, matrices):
        out = {}
        for key, val in p.items():
            if isinstance(val, _Pending):
                out.update(zip(("A", "B"), mats))
            else:
                out[key] = val
        realized.append(out)
    return realized


def _draw_dim(rng, cfg) -> int:
    lo, hi = cfg.dim_range
    return int(rng.integers(lo, hi + 1))


def _weights(rng, n) -> list:
    w = rng.exponential(size=n)
    w = w / w.sum()
    return [float(v) for v in w]


def gen_pd_matrix(cfg: GeneratorConfig, trial: int = 0) -> np.ndarray:
    """Positive-definite matrix with log-uniform spectrum from the config
    ranges; deterministic in (seed, trial)."""
    rng = trial_rng(cfg.seed, trial)
    lo, hi = cfg.scalar_range
    n = _draw_dim(rng, cfg)
    lam = log_uniform(rng, lo, hi, n)
    (params,) = _realize([{"A": _Pending(lam, rng.normal(size=(n, n)))}])
    return params["A"]


def _constrained(rng, n, m_target, M_target, lo, hi) -> _Pending:
    """Pending pair (A, B) whose relative spectrum is [m_target, M_target],
    endpoints attained by pinning the extreme eigenvalues of the normalized
    middle factor."""
    def middle():
        if n == 1:
            return np.array([m_target])
        if n == 2:
            return np.array([m_target, M_target])
        return np.concatenate([[m_target, M_target], rng.uniform(m_target, M_target, n - 2)])

    a_lo, a_hi = _meet((1e-2, 1e2), lo, hi)
    return _draw_pair(rng, n, lambda: log_uniform(rng, a_lo, a_hi, n), middle, constrained=True)


def gen_constrained_pair(cfg: GeneratorConfig, m_target: float, M_target: float, trial: int = 0):
    """Pair with prescribed tight relative spectral bounds."""
    if not 0.0 < m_target <= M_target:
        raise ValueError(f"need 0 < m <= M, got {m_target!r}, {M_target!r}")
    rng = trial_rng(cfg.seed, trial)
    lo, hi = cfg.scalar_range
    (params,) = _realize([{"pair": _constrained(rng, _draw_dim(rng, cfg), m_target, M_target, lo, hi)}])
    return params["A"], params["B"]


def _domain_points(rng, f: FunctionSpec, k: int, margin=0.02):
    lo, hi = f.domain
    return lo + (hi - lo) * rng.uniform(margin, 1.0 - margin, k)


def _ordered_pair(rng, f: FunctionSpec):
    lo, hi = f.domain
    s, t = np.sort(_domain_points(rng, f, 2))
    if t - s < 1e-6 * (hi - lo):
        t = min(t + 0.05 * (hi - lo), hi - 0.01 * (hi - lo))
    return float(s), float(t)


_LOGCONVEX_POOL = ("exp", "exp-pow-1", "exp-pow-2", "inv-pow-1", "inv-pow-2", "inv-sin", "neg-log", "lnt-x-2", "quad-exp-1-0", "geo-interp-1-4")
_LOGCONCAVE_POOL = ("log", "sin", "gauss", "pow-2", "geo-interp-1-4", "exp")
_GEOMCONVEX_POOL = ("exp", "exp-pow-1", "exp-pow-2", "inv-pow-1", "inv-pow-2", "inv-sin", "pow-2", "pow-3")
_INCREASING_POOL = ("exp", "exp-pow-1", "exp-pow-2", "log", "lnt-x-2")
_CONVEX_POOL = ("neg-log", "neg-log-wide", "exp", "exp-pow-2", "inv-pow-1", "pow-2", "quad-exp-1-0")
_ANY_POOL = tuple(REGISTRY)


def _pick(rng, ids) -> FunctionSpec:
    return REGISTRY[ids[int(rng.integers(len(ids)))]]


# --- two-function family -----------------------------------------------------

def gen_two_function_family(rng):
    """(f, g, a, b) satisfying the admissibility gate by construction:
    f = log and g a shallow affine function dominated by min f, with the
    increment condition enforced through the intercept."""
    a = float(rng.uniform(1.2, 3.0))
    b = a * float(rng.uniform(1.2, 2.5))
    fa, fb = np.log(a), np.log(b)
    c_min = fb * (b - a) / (fb - fa) - a
    c = c_min + float(rng.uniform(0.05, 2.0)) * max(1.0, abs(c_min))
    eps = float(rng.uniform(0.1, 1.0)) * fa / (b + c)
    f = funcs.log_wide()
    g = funcs.linear(eps, eps * c, domain=(0.0, max(50.0, b + 1.0)))
    return f, g, a, b


# --- chain registry -----------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One parameter of a chain, the key ``name`` of its params: ``oel
    verify`` parses ``--{option}``, or else the text ``default`` (none:
    required), with ``cli._PARSERS[parser]``; with ``parser`` None it is
    ``default``, with no flag. ``when`` tells from the params before it
    whether the chain reads it; if not, it is left out unless given."""

    name: str
    parser: str | None = "float"
    default: str | None = None
    flag: str | None = None  # when the option is not the name
    when: Callable | None = None

    @property
    def option(self) -> str | None:
        return None if self.parser is None else self.flag or self.name.replace("_", "-")


@dataclass(frozen=True)
class ChainEntry:
    """A chain and its one declaration ``params``: its ``Param``s in the
    argument order of its checker, the order its trials draw them in.

    ``generate(rng, cfg)`` draws the params of one trial and ``run(params,
    tol)`` evaluates them. ``stack(params_list, tol)``, for matrix chains,
    evaluates trials whose matrices share their shapes, one column per
    declared name, and returns one outcome per trial: its verdict, or the
    exception that refuses it; ``run`` is the one-trial stack.
    ``draw(rng, cfg)``, for matrix chains, draws the params of one trial
    with its matrices left pending for ``_realize``; such a chain's
    ``generate`` is ``_realize`` of the one-trial block."""

    id: str
    kind: str  # 'scalar' or 'operator'
    description: str
    params: tuple
    generate: Callable
    run: Callable
    stack: Callable | None = None
    draw: Callable | None = None


def _gen_prop21(rng, cfg):
    lo, hi = cfg.scalar_range
    a, b = log_uniform(rng, lo, hi, 2)
    return {"a": float(a), "b": float(b), "v": float(rng.uniform()), "n": int(rng.integers(1, 65))}


def _gen_minmax_square(rng, cfg):
    f = _pick(rng, _ANY_POOL)
    s, t = _ordered_pair(rng, f)
    return {"fn": f, "s": s, "t": t}


def _gen_minmax_power(rng, cfg):
    f = _pick(rng, _INCREASING_POOL)
    s, t = _ordered_pair(rng, f)
    if rng.uniform() < 0.15:
        p, q = 2.0, 0.0
    else:
        p, q = float(rng.uniform(1.0, 3.0)), float(rng.uniform(-1.5, 1.0))
    return {"fn": f, "s": s, "t": t, "p": p, "q": q}


def _gen_jensen(rng, cfg):
    f = _pick(rng, _CONVEX_POOL)
    k = int(rng.integers(2, 6))
    x = [float(v) for v in _domain_points(rng, f, k)]
    return {"fn": f, "w": _weights(rng, k), "x": x, "t": float(rng.uniform(1e-3, 1.0))}


def _gen_am_gm(rng, cfg):
    k = int(rng.integers(2, 6))
    x = [float(v) for v in log_uniform(rng, 1.0, 50.0, k)]
    return {"w": _weights(rng, k), "x": x, "t": float(rng.uniform(1e-3, 1.0))}


def _gen_two_points(pool, **fixed):
    def gen(rng, cfg):
        f = _pick(rng, pool)
        pts = _domain_points(rng, f, 2)
        return {"fn": f, "s": float(pts[0]), "t": float(pts[1]), **fixed}

    return gen


def _gen_geom_interp(rng, cfg):
    g = _pick(rng, _GEOMCONVEX_POOL)
    pts = _domain_points(rng, g, 2)
    return {"fn": g, "a": float(pts[0]), "b": float(pts[1]), "t": float(rng.uniform())}


def _gen_jensen_exp(kind):
    pool = _LOGCONVEX_POOL if kind == "log_convex" else _GEOMCONVEX_POOL

    def gen(rng, cfg):
        f = _pick(rng, pool)
        k = int(rng.integers(1, 5))
        pts = [float(v) for v in _domain_points(rng, f, k)]
        return {"fn": f, "w": _weights(rng, k), "a": pts, "kind": kind}

    return gen


def _gen_derived_logconvexity(rng, cfg):
    if rng.uniform() < 0.5:
        f = funcs.quad_exponential(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-1.0, 1.0)))
    else:
        pa, pb = log_uniform(rng, 0.1, 10.0, 2)
        f = funcs.geometric_interpolant(float(pa), float(pb))
    return {"fn": f, "u": float(rng.uniform()), "w": float(rng.uniform())}


def _gen_young_refinement(rng, cfg):
    lo, hi = cfg.scalar_range
    a, b = log_uniform(rng, lo, hi, 2)
    return {"a": float(a), "b": float(b), "t": float(rng.uniform())}


def _gen_tsallis_scalar(rng, cfg):
    x_lo, x_hi = _meet((1.0, 1e3), hi=cfg.scalar_range[1])
    s, t = log_uniform(rng, 0.05, 3.0, 2)
    return {"x": float(log_uniform(rng, x_lo, x_hi)), "s": float(s), "t": float(t)}


def _pair_in_range(rng, n, lo, hi) -> _Pending:
    return _draw_pair(rng, n, lambda: log_uniform(rng, lo, hi, n), lambda: log_uniform(rng, lo, hi, n))


def _draw_zou(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    return {"pair": _pair_in_range(rng, n, lo, hi), "t": float(rng.uniform(1e-3, 1.0))}


def _draw_refined_st(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    case = cfg.regime_get("case", None) or _REFINED_CASES[int(rng.integers(3))]
    if case == "below":
        m, M = np.sort(log_uniform(rng, *_meet((1e-3, 0.95), lo=lo), 2))
    elif case == "above":
        m, M = np.sort(log_uniform(rng, *_meet((1.02, 50.0), hi=hi), 2))
    else:
        m, M = float(rng.uniform(0.1, 1.0)), float(rng.uniform(1.0, 10.0))
    pair = _constrained(rng, n, float(m), float(M), lo, hi)
    return {"pair": pair, "t": float(rng.uniform(1e-3, 1.0))}


def _draw_tsallis_relation(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    m_lo = cfg.regime_get("m_min", 1.0)
    m, M = np.sort(log_uniform(rng, *_meet((m_lo, _M_MIN_MAX), hi=hi), 2))
    pair = _constrained(rng, n, float(m), float(M), lo, hi)
    s, t = log_uniform(rng, 0.05, 3.0, 2)
    return {"pair": pair, "s": float(s), "t": float(t)}


def _draw_roe(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    case = cfg.regime_get("case", None) or _ROE_CASES[int(rng.integers(2))]
    if case == "low":
        m, M = np.sort(log_uniform(rng, *_meet((1e-3, 1.0 / np.e), lo=lo), 2))
    else:
        m, M = np.sort(rng.uniform(1.0, np.e, 2))
    return {"pair": _constrained(rng, n, float(m), float(M), lo, hi)}


def _draw_troe(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    m = 1.0 if rng.uniform() < 0.3 else float(rng.uniform(1.0, 5.0))
    M = m + float(rng.uniform(0.1, 5.0))
    pair = _constrained(rng, n, m, M, lo, hi)
    bucket = int(rng.integers(3))
    if bucket == 0:
        t = float(rng.uniform(0.05, 1.0))
    elif bucket == 1:
        t = float(rng.uniform(1.0, 3.0))
    else:
        t = float(rng.uniform(-1.0, -0.05))
    return {"pair": pair, "t": t}


def _draw_ordering(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    p = float(log_uniform(rng, 0.05, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return {"pair": _pair_in_range(rng, n, lo, hi), "p": p}


def _draw_two_function(rng, cfg):
    n = _draw_dim(rng, cfg)
    f, g, a, b = gen_two_function_family(rng)
    mode = cfg.regime_get("mode", None) or entropy.TWO_FUNCTION_MODES[int(rng.integers(3))]
    params = {"fn_f": f, "fn_g": g, "a": a, "b": b, "mode": mode}
    if mode == "expectation":
        lam = rng.uniform(a, b, n)
        params["A"] = _Pending(lam, rng.normal(size=(n, n)))
        params["vector_seed"] = int(rng.integers(0, 2**32))
    elif mode == "congruence":
        params["pair"] = _constrained(rng, n, a, b, 0.5, 2.0)
    else:
        lam = np.sort(rng.uniform(a, b, n))
        G = rng.normal(size=(n, n))
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        shift = float(rng.uniform(0.0, max(lam[0] - a, 0.0)))
        params["A"] = _Pending(lam, G, shift=shift, v=v)  # B = A - shift v v^T
    return params


CHAINS: dict[str, ChainEntry] = {}


def _scalar_chain(cid, description, generate, check: str, params):
    """Register a scalar chain whose checker is ``chains.<check>``, looked up
    at each call like a direct call, so that perfbench's tracer sees it."""
    names = [prm.name for prm in params]
    # a tuple, for one name too; scalar trials take microseconds
    values = operator.itemgetter(*names) if len(names) > 1 else lambda p: (p[names[0]],)

    def run(p: dict, tol: float):
        return getattr(chains, check)(*values(p), tol)

    CHAINS[cid] = ChainEntry(cid, "scalar", description, params, generate, run)


def _operator_chain(cid, description, draw, check_stack: str, params):
    """Register a matrix chain whose stacked checker, ``entropy.<check_stack>``
    looked up likewise, takes one column per declared parameter."""

    def generate(rng, cfg):
        (p,) = _realize([draw(rng, cfg)])
        return p

    def stack(ps: list, tol: float) -> list:
        columns = [[p.get(prm.name) if prm.when else p[prm.name] for p in ps] for prm in params]
        return getattr(entropy, check_stack)(*columns, tol=tol)

    def run(p: dict, tol: float):
        return entropy._single(stack([p], tol))

    CHAINS[cid] = ChainEntry(cid, "operator", description, params, generate, run, stack, draw)


def _fn(default: str, name: str = "fn") -> Param:
    return Param(name, "function", default)


_A, _B = Param("A", "matrix"), Param("B", "matrix")
_S, _T, _W, _X = Param("s"), Param("t"), Param("w", "floats"), Param("x", "floats")

_scalar_chain(
    "prop-2.1", "root-sequence bounds squeezing the arithmetic-to-geometric mean ratio",
    _gen_prop21, "young_ratio_chain", (Param("a"), Param("b"), Param("v"), Param("n", "int")),
)
_scalar_chain(
    "thm-2.2", "min/max squeeze of a function increment by its squared difference quotient",
    _gen_minmax_square, "check_minmax_square", (_fn("exp"), _S, _T),
)
_scalar_chain(
    "rem-2.3", "power-exponent min/max squeeze for increasing functions",
    _gen_minmax_power, "check_minmax_power", (_fn("exp"), _S, _T, Param("p"), Param("q")),
)
_scalar_chain(
    "cor-2.4", "Jensen bound sharpened by a min-of-squares correction",
    _gen_jensen, "jensen_refinement", (_fn("neg-log-wide"), _W, _X, _T),
)
_scalar_chain(
    "cor-2.4-am-gm", "arithmetic-geometric mean gap bounded below by the Jensen correction",
    _gen_am_gm, "am_gm_refinement", (_W, _X, _T),
)
_scalar_chain(
    "thm-2.6-convex", "tangent-line ratio bounds for log-convex functions",
    _gen_two_points(_LOGCONVEX_POOL, mode="convex"), "logconvex_chain",
    (_fn("exp-pow-2"), _S, _T, Param("mode", None, "convex")),
)
_scalar_chain(
    "thm-2.6-concave", "tangent-line ratio bounds for log-concave functions",
    _gen_two_points(_LOGCONCAVE_POOL, mode="concave"), "logconvex_chain",
    (_fn("log"), _S, _T, Param("mode", None, "concave")),
)
_scalar_chain(
    "thm-2.7", "power-law ratio bounds for geometrically convex functions",
    _gen_two_points(_GEOMCONVEX_POOL), "geomconvex_chain", (_fn("exp"), _S, _T),
)
_scalar_chain(
    "cor-2.8", "bounds on the geometric-interpolation ratio of a geometrically convex function",
    _gen_geom_interp, "geom_interpolation_chain", (_fn("exp"), Param("a"), Param("b"), _T),
)
_scalar_chain(
    "cor-2.9-logconvex", "multiplicative Jensen bounds with log-derivative correction factors",
    _gen_jensen_exp("log_convex"), "jensen_exponential_bounds",
    (_fn("inv-pow-1"), _W, Param("a", "floats", flag="x"), Param("kind", None, "log_convex")),
)
_scalar_chain(
    "cor-2.9-geomconvex", "multiplicative Jensen bounds with power correction factors",
    _gen_jensen_exp("geometrically_convex"), "jensen_exponential_bounds",
    (_fn("exp"), _W, Param("a", "floats", flag="x"), Param("kind", None, "geometrically_convex")),
)
_scalar_chain(
    "lem-3.4", "exponential-factor relation between two deformed logarithms",
    _gen_tsallis_scalar, "tsallis_scalar_chain", (Param("x"), _S, _T),
)
_scalar_chain(
    "lem-3.7", "log-convexity of endpoint-normalized quotients",
    _gen_derived_logconvexity, "derived_logconvexity_check",
    (_fn("quad-exp-1-0"), Param("u"), Param("w")),
)
_scalar_chain(
    "cor-3.8", "exponential-factor refinement and reverse of the two-mean inequality",
    _gen_young_refinement, "young_refinement_chain", (Param("a"), Param("b"), _T),
)
_operator_chain(
    "zou", "five-link entropy ordering between A - A B^-1 A and B - A",
    _draw_zou, "zou_stack", (_A, _B, _T),
)
_operator_chain(
    "thm-3.3", "entropy ordering sharpened by a spectral-endpoint additive term",
    _draw_refined_st, "refined_st_stack", (_A, _B, _T),
)
_operator_chain(
    "thm-3.5", "exponential-factor relation between two deformed entropies",
    _draw_tsallis_relation, "tsallis_relation_stack", (_A, _B, _S, _T),
)
_operator_chain(
    "thm-3.6", "two-sided exponential estimates of the relative entropy in multiples of A",
    _draw_roe, "roe_bounds_stack", (_A, _B),
)
_operator_chain(
    "thm-3.11", "secant-line bound on the deformed entropy over the relative spectrum",
    _draw_troe, "troe_linear_bound_stack", (_A, _B, _T),
)
_operator_chain(
    "prop-3.10", "sign-dependent ordering of plain, deformed, and generalized entropies",
    _draw_ordering, "ordering_stack", (_A, _B, Param("p")),
)
_operator_chain(
    "thm-2.12", "operator comparison of a gated concave/convex function pair",
    _draw_two_function, "two_function_stack",
    (
        _fn("log-wide", "fn_f"), _fn("lin-0.04-0.12", "fn_g"),
        Param("a", default="1.5"), Param("b", default="4.0"), Param("mode", "str", "expectation"), _A,
        Param("B", "matrix", when=lambda p: p["mode"] != "expectation"),
        Param("vector_seed", "int", "0", flag="seed", when=lambda p: p["mode"] == "expectation"),
    ),
)


# --- fuzzing ------------------------------------------------------------------

@dataclass
class FuzzReport:
    chain_id: str
    trials_run: int
    not_applicable: int
    rejected: int
    failures: list
    min_slack: float | None
    seed: int
    elapsed_s: float
    slack_rows: list = field(default_factory=list)

    def to_obj(self, include_timing: bool = False) -> dict:
        return {
            "id": self.chain_id,
            "trials": self.trials_run,
            "failures": self.failures,
            "not_applicable": self.not_applicable,
            "rejected": self.rejected,
            "min_slack": self.min_slack,
            "elapsed_s": self.elapsed_s if include_timing else 0.0,
        }


def serialize_params(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if isinstance(val, np.ndarray):
            out[key] = matrix_to_obj(val) if val.ndim == 2 else [float(v) for v in val]
        elif isinstance(val, FunctionSpec):
            out[key] = val.id
        elif isinstance(val, (bool, str)) or val is None:
            out[key] = val
        elif isinstance(val, (int, np.integer)):
            out[key] = int(val)
        elif isinstance(val, (float, np.floating)):
            out[key] = float(val)
        elif isinstance(val, (list, tuple)):
            out[key] = [float(v) for v in val]
        else:
            out[key] = repr(val)
    return out


def _classify(verdict):
    """Returns (outcome, rel_slack) with outcome in {'pass','fail','na'}."""
    if isinstance(verdict, OperatorChainVerdict):
        if not verdict.applicable:
            return "na", None
        return ("pass" if verdict.ok else "fail"), verdict.min_rel_slack
    if isinstance(verdict, ChainVerdict):
        return ("pass" if verdict.ok else "fail"), verdict.min_rel_slack
    raise TypeError(f"unexpected verdict {verdict!r}")


FUZZ_BLOCK = 64  # trials drawn and evaluated together; bounds the stacks' memory


def _attempt(run, params: dict, tol: float):
    """The verdict of one trial, or the exception that refuses or fails it."""
    try:
        return run(params, tol)
    except (ValueError, NumericError, OverflowError) as exc:
        return exc


def _evaluate(entry: ChainEntry, params: list, tol: float) -> list:
    """One outcome per trial of a block, in trial order."""
    if entry.stack is None:
        return [_attempt(entry.run, p, tol) for p in params]
    groups: dict = {}
    for i, p in enumerate(params):
        groups.setdefault((np.shape(p["A"]), np.shape(p.get("B"))), []).append(i)
    outcomes = [None] * len(params)
    for rows in groups.values():
        stack = [params[i] for i in rows]
        try:
            results = entry.stack(stack, tol)
        except (ValueError, NumericError, OverflowError):
            # an error the stack cannot pin on one trial: evaluate each alone
            results = [_attempt(entry.run, p, tol) for p in stack]
        for i, result in zip(rows, results):
            outcomes[i] = result
    return outcomes


def fuzz_chain(chain_id: str, cfg: GeneratorConfig) -> FuzzReport:
    """Run cfg.trials seeded trials of one chain and aggregate the outcome.

    A non-finite chain evaluation counts as a failure: the generators are
    expected to keep instances inside float range, so an overflow is a bug
    worth surfacing, not an out-of-regime draw. A draw the chain refuses
    with ValueError (for instance a pair too ill-conditioned for the kernel's
    positive-definiteness floor) is counted as rejected; it is neither a
    failure nor not-applicable, and it does not abort the run.
    """
    if chain_id not in CHAINS:
        raise KeyError(f"unknown chain {chain_id!r}")
    entry = CHAINS[chain_id]
    start = time.perf_counter()
    failures = []
    slack_rows = []
    min_slack = None
    n_na = 0
    n_rejected = 0
    streams = TrialStreams(cfg.seed)
    for first in range(0, cfg.trials, FUZZ_BLOCK):
        trials = range(first, min(first + FUZZ_BLOCK, cfg.trials))
        if entry.draw is None:
            block = [entry.generate(streams.rng(trial), cfg) for trial in trials]
        else:
            block = _realize([entry.draw(streams.rng(trial), cfg) for trial in trials])
        for trial, params, verdict in zip(trials, block, _evaluate(entry, block, cfg.tol)):
            if isinstance(verdict, ValueError):
                n_rejected += 1
                continue
            if isinstance(verdict, Exception):
                failures.append({"trial": trial, "error": str(verdict), "params": serialize_params(params)})
                continue
            outcome, rel_slack = _classify(verdict)
            if outcome == "na":
                n_na += 1
                continue
            if rel_slack is not None:
                slack_rows.append((trial, rel_slack))
                if min_slack is None or rel_slack < min_slack:
                    min_slack = rel_slack
            if outcome == "fail":
                failures.append({"trial": trial, "min_rel_slack": rel_slack, "params": serialize_params(params)})
    return FuzzReport(
        chain_id=chain_id,
        trials_run=cfg.trials,
        not_applicable=n_na,
        rejected=n_rejected,
        failures=failures,
        min_slack=min_slack,
        seed=cfg.seed,
        elapsed_s=time.perf_counter() - start,
        slack_rows=slack_rows,
    )


def fuzz_all(cfg: GeneratorConfig, ids=None) -> list:
    return [fuzz_chain(cid, cfg) for cid in (ids or list(CHAINS))]


# --- shrinking ------------------------------------------------------------------

_CANONICAL = {
    "t": 0.5, "s": 0.5, "v": 0.5, "u": 0.5, "w": 0.5,
    "x": 1.0, "a": 1.0, "b": 1.0, "p": 1.0, "q": 0.0, "n": 1,
}


def _project_matrices(params: dict, k: int) -> dict:
    A = params["A"]
    eig = eigendecomposition(A)
    V = eig.vectors[:, -k:]  # leading eigenvectors
    out = dict(params)
    for key in ("A", "B"):
        if key in params and isinstance(params[key], np.ndarray):
            out[key] = symmetrize(V.T @ params[key] @ V)
    return out


def shrink_witness(chain_id: str, witness: dict, tol: float = DEFAULT_TOL, max_steps: int = 200) -> dict:
    """Greedily reduce a failing parameter set while the failure persists.

    Matrix pairs shrink by congruence projection onto leading eigenvectors;
    scalars bisect toward canonical values. The returned witness fails the
    same chain at the same tolerance.
    """
    entry = CHAINS[chain_id]

    def fails(p) -> bool:
        try:
            outcome, _ = _classify(entry.run(p, tol))
        except (ValueError, NumericError, OverflowError):
            return False
        return outcome == "fail"

    if not fails(witness):
        raise ValueError("witness does not fail the chain at this tolerance")
    params = dict(witness)
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        if isinstance(params.get("A"), np.ndarray) and params["A"].shape[0] > 1:
            steps += 1
            candidate = _project_matrices(params, params["A"].shape[0] - 1)
            if fails(candidate):
                params = candidate
                improved = True
                continue
        for key, canon in _CANONICAL.items():
            if steps >= max_steps:
                break
            val = params.get(key)
            if isinstance(val, bool) or not isinstance(val, (int, float, np.integer, np.floating)):
                continue
            if isinstance(val, (int, np.integer)):
                cand = int(canon + (int(val) - canon) // 2)
                if cand == val:
                    continue
            else:
                cand = 0.5 * (float(val) + float(canon))
                if abs(cand - val) <= 1e-12 * max(1.0, abs(float(val))):
                    continue
            steps += 1
            trial_params = dict(params)
            trial_params[key] = cand
            if fails(trial_params):
                params = trial_params
                improved = True
    return params


# --- report emission --------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return format(float(x), ".17g")


def _emit_json(obj) -> str:
    """Minimal JSON writer: floats carry 17 significant digits so every
    value round-trips exactly, and byte output is deterministic."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_document(reports: list, include_timing: bool = False) -> dict:
    return {
        "version": 4,
        "seed": reports[0].seed if reports else 0,
        "chains": [r.to_obj(include_timing) for r in reports],
    }


def dumps_report(reports: list, include_timing: bool = False) -> str:
    return _emit_json(report_document(reports, include_timing)) + "\n"


def write_report(reports: list, path, include_timing: bool = False) -> None:
    """Write the aggregate JSON report plus a CSV of per-trial slacks
    (columns chain_id, trial, min_link_slack) next to it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(reports, include_timing))
    csv_path = os.path.splitext(str(path))[0] + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain_id", "trial", "min_link_slack"])
        for rep in reports:
            for trial, slack in rep.slack_rows:
                writer.writerow([rep.chain_id, trial, _fmt_float(slack)])
