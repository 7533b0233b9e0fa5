"""Randomized instance generation, chain fuzzing and report emission.

Reproducibility model: every trial gets its own counter-based random stream
keyed by (seed, trial index), so reports are bit-identical for a fixed seed
regardless of execution order, and a failing trial can be regenerated in
isolation. One ``TrialStream`` serves a whole ``fuzz_all`` run: each trial of
every chain resets it to its own stream with ``at``.

Draw model: a draw costs about what its ``rng`` calls cost. Consecutive
uniforms, or exponentials, are one ``rng`` call, whose values a scalar draw
maps on Python floats as numpy maps them (a matrix spectrum stays an array,
``log_uniform``): ``lo + (hi - lo) * u`` is
``Generator.uniform`` bit for bit (``uniform``), and fewer than 8 values
summed in order are numpy's ``sum`` (``_weights``). ``np.log`` of a bound is
taken once (``_log``). Every ``exp`` and ``log`` stays a numpy call:
``math.exp`` differs from ``np.exp`` in the last bit at about one argument in
20 (``math.log`` at one in 2000), and so would the reports. An integer is
``draw_int`` of a ``TrialStream``, a copy of the bounded 32-bit Lemire draw of
``Generator.integers`` on the stream's own Philox words, bit for bit: an
``integers`` call costs numpy about 2 us, a word ``random_raw`` 0.24 us.

Generation model: ``fuzz_all`` is the one fuzz loop (``fuzz_chain`` is its
one-chain run). It takes trials in consecutive blocks of FUZZ_BLOCK and
draws each block for every chain of the run. A matrix chain's
``ChainEntry.draw`` draws each trial from its own stream but leaves its
matrices pending, at "A" with "B" None: a spectrum and a Gaussian matrix per
matrix (a pair (A, B), or thm-2.12's single A, with the rank-one shift that
makes its B in majorize mode). One ``_realize`` call then factors the
pending matrices of every matrix chain of the block, those of one dimension
as one stack; generation never refuses. Stacked LAPACK and BLAS calls are
bitwise equal to per-matrix calls, and ``ChainEntry.generate`` of such a
chain is the one-trial block, so a trial is bit for bit the same whether it
is drawn alone or in a block. Only scalar chains generate trial by trial.

Evaluation model: one ``entropy.chain_stacks`` call decides the trials of
every matrix chain of a block, which pins each error on its own trial; a
matrix chain's ``ChainEntry.run``, which ``oel verify`` calls, is its
one-trial call, so a trial's outcome is bit for bit the one it has alone.
Scalar chains run trial by trial.

Declaration model: a chain is registered once, with its draw, its checker
and ``ChainEntry.params``; every reader of a chain's params (``run``,
``oel verify``, serialization) reads their types there.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from . import chains, entropy, funcs
from .chains import DEFAULT_TOL
from .errors import TRIAL_ERRORS
from .funcs import REGISTRY, FunctionSpec
from .linalg import EigenDecomposition, eig_apply, load_matrix, matrix_to_obj, symmetrize

_U64 = (1 << 64) - 1


@functools.cache
def _stream_type() -> type:
    """``TrialStream``, the ``Generator`` class of a trial's stream, defined
    at its first use: subclassing ``np.random.Generator`` imports
    ``numpy.random``, which ``import oel`` leaves to the first draw."""

    class TrialStream(np.random.Generator):
        """The ``Generator`` of a run's trial streams: ``TrialStream(seed)``
        is built once, and ``at(trial)`` resets it to trial ``trial``'s
        Philox stream, keyed by (seed, trial). It adds ``draw_int(lo, hi)``,
        which is ``int(integers(lo, hi))`` at a span hi - lo of at most
        2**32, bit for bit.

        It reads numpy's bounded draw there (Lemire, "Fast random integer
        generation in an interval", ACM TOMACS 2019) on 32-bit halves of the
        Philox words (``random_raw``): the low half first, the high half kept
        in ``half`` for the next draw, as numpy's Philox keeps ``uinteger``. A
        draw of span 1 takes no word. The 64-bit draws (``random``,
        ``normal``, ``exponential``) neither read nor clear the half, in numpy
        as here; a stream that mixes ``integers`` and ``draw_int`` keeps two
        halves."""

        __slots__ = ("half", "_word", "_bits", "_key", "_state")

        def __init__(self, seed: int):
            self._key = [seed & _U64, 0]
            super().__init__(np.random.Philox(key=np.array(self._key, dtype=np.uint64)))
            self.half = None  # the high half of the last word, while unread
            self._bits = self.bit_generator
            self._word = self._bits.random_raw
            # the state of a fresh Philox stream of key ``_key``: Python ints
            # and lists, which numpy's setter reads faster than uint64 arrays
            self._state = {
                "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": self._key},
                "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }

        def at(self, trial: int):
            """This stream, reset to trial ``trial``'s: its key word, its
            Philox state and ``half``. A reset costs an order of magnitude
            less than building a stream."""
            self._key[1] = trial & _U64
            self._bits.state = self._state
            self.half = None
            return self

        def draw_int(self, lo: int, hi: int) -> int:
            span = hi - lo
            if span == 1:
                return lo
            if not 1 < span <= 1 << 32:
                raise ValueError(f"draw_int needs 1 <= hi - lo <= 2**32, got lo={lo!r}, hi={hi!r}")
            while True:  # the high half of u * span for a 32-bit u, unless its low half falls below 2**32 % span
                half = self.half
                if half is None:
                    word = self._word()
                    self.half, m = word >> 32, (word & 0xFFFFFFFF) * span
                else:
                    self.half, m = None, half * span
                low = m & 0xFFFFFFFF
                if low >= span or low >= (1 << 32) % span:  # the first test spares the modulo, as numpy's does
                    return lo + (m >> 32)

    return TrialStream


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial of one run, a ``TrialStream``."""
    return _stream_type()(seed).at(trial)


# the values each key of ``GeneratorConfig.regime`` admits: thm-2.12's mode,
# and thm-3.3's and thm-3.6's case
_REFINED_CASES = ("below", "straddle", "above")
_ROE_CASES = ("low", "high")
_REGIME_CHOICES = {"mode": entropy.TWO_FUNCTION_MODES, "case": _REFINED_CASES + _ROE_CASES}


@dataclass
class GeneratorConfig:
    seed: int = 0
    trials: int = 1000
    dim_range: tuple = (2, 8)
    scalar_range: tuple = (1e-3, 1e3)
    tol: float = DEFAULT_TOL
    regime: dict | None = None

    def __post_init__(self):
        try:  # a float seed or count breaks the run, a float dim_range draws outside it
            self.seed, self.trials = operator.index(self.seed), operator.index(self.trials)
            self.dim_range = tuple(operator.index(d) for d in self.dim_range)
        except TypeError as exc:
            raise ValueError(f"seed, trials and dim_range must be integers: {exc}") from None
        if not math.isfinite(self.tol):  # NaN would fail every link, inf pass every one
            raise ValueError(f"tol must be finite, got {self.tol!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        lo, hi = self.dim_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad dim_range {self.dim_range!r}")
        slo, shi = self.scalar_range
        if not (0.0 < slo <= shi < math.inf):  # an infinite end makes every matrix draw non-finite
            raise ValueError(f"bad scalar_range {self.scalar_range!r}")
        for key, val in (self.regime or {}).items():
            if val not in _REGIME_CHOICES.get(key, ()):
                raise ValueError(f"bad regime entry {key}={val!r}; admitted: {_REGIME_CHOICES}")


# --- low-level draws ---------------------------------------------------------

def uniform(rng, lo=0.0, hi=1.0, size=None):
    """``rng.uniform(lo, hi, size)``, bit for bit (see the module docstring)."""
    return lo + (hi - lo) * rng.random(size)


@functools.cache
def _log(bound: float) -> float:
    """``np.log`` of a bound, taken once per bound: the bounds are the
    generators' fixed ranges, never drawn values."""
    return float(np.log(bound))


def _log_scaled(us: list, lo, hi) -> list:
    """The uniforms ``us`` on [0, 1) as log-uniform draws on [lo, hi), a
    list of floats."""
    a, b = _log(lo), _log(hi)
    return np.exp([a + (b - a) * u for u in us]).tolist()


def log_uniform(rng, lo, hi, size=None):
    """``np.exp(rng.uniform(np.log(lo), np.log(hi), size))``, bit for bit: a
    float, or an array of ``size`` mapped on arrays, as a matrix spectrum is
    drawn. Scalar draws map their uniforms on floats (``_log_scaled``),
    which costs less below 5 values."""
    a, b = _log(lo), _log(hi)
    drawn = np.exp(a + (b - a) * rng.random(size))
    return drawn if size is not None else float(drawn)


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
    """Drawn matrices before factoring: the spectra and Gaussian matrices of
    A and, for a pair, of a second matrix, in draw order. The second matrix
    is B itself, or, for a constrained pair, the middle factor C of
    B = A^(1/2) C A^(1/2). A single A with a ``shift`` and a unit vector
    ``v`` stands for the pair (A, A - shift v v^T). The spectra are arrays."""

    spectra: list
    gaussians: list
    constrained: bool = False
    shift: float | None = None
    v: np.ndarray | None = None


def _realize(block: list) -> list:
    """``block``, the drawn params of its trials, with each trial's pending
    draw (the ``_Pending`` at "A") replaced in place by its matrix "A", and
    "B" where the trial holds that key (None until then), so that the key
    order is kept.

    The draws of one dimension are factored as one stack: one QR call for
    every Gaussian, one batched ``Q diag(l) Q^T``, and for the constrained
    pairs each such A's root ``Q diag(sqrt l) Q^T`` from its drawn factors
    and one batched ``A^(1/2) C A^(1/2)``; generation never refuses.
    """
    groups: dict = {}
    for p in block:
        groups.setdefault(len(p["A"].spectra[0]), []).append(p)
    for trials in groups.values():
        spectra, gaussians, first, cons = [], [], [0], []
        for p in trials:  # trial j's matrices are M[first[j]:first[j + 1]]
            d = p["A"]
            if d.constrained:
                cons.append(first[-1])
            spectra += d.spectra
            gaussians += d.gaussians
            first.append(len(gaussians))
        eig = EigenDecomposition(_orthogonal(np.array(gaussians)), np.array(spectra))
        M = eig_apply(eig, np.asarray)  # Q diag(l) Q^T
        if cons:
            at = np.array(cons)
            root = eig_apply(eig.take(at), np.sqrt)
            M[at + 1] = symmetrize(root @ M[at + 1] @ root)
        M = list(M)
        for p, i, j in zip(trials, first, first[1:]):
            d, mats = p["A"], M[i:j]
            if d.shift is not None:
                mats.append(symmetrize(mats[0] - d.shift * np.outer(d.v, d.v)))
            p.update(zip(("A", "B"), mats))
    return block


def _regime(rng, cfg, key: str, choices: tuple) -> str:
    """The regime's value at ``key`` if it is one of ``choices``, else one
    drawn at random: a case of another chain draws as no regime does."""
    value = (cfg.regime or {}).get(key)
    return value if value in choices else choices[rng.draw_int(0, len(choices))]


def _draw_dim(rng, cfg) -> int:
    lo, hi = cfg.dim_range
    return rng.draw_int(lo, hi + 1)


def _weights(rng, n) -> list:
    """``w / w.sum()`` of n exponentials: numpy sums fewer than 8 values in
    order, as ``reduce`` does (Python's ``sum`` compensates from 3.12 on)."""
    w = rng.exponential(size=n).tolist()
    total = functools.reduce(operator.add, w)
    return [v / total for v in w]


def _constrained(rng, n, m_target, M_target, lo, hi) -> _Pending:
    """Pending pair (A, B) whose relative spectrum is [m_target, M_target],
    endpoints attained by pinning the extreme eigenvalues of the normalized
    middle factor."""
    lam_a = log_uniform(rng, *_meet((1e-2, 1e2), lo, hi), n)
    G_a = rng.normal(size=(n, n))
    middle = [m_target, M_target][:n]
    if n > 2:  # the other eigenvalues uniform in between
        middle += [m_target + (M_target - m_target) * u for u in rng.random(n - 2).tolist()]
    return _Pending([lam_a, np.array(middle)], [G_a, rng.normal(size=(n, n))], constrained=True)


def _domain_points(rng, f: FunctionSpec, k: int) -> list:
    """k points uniform on the middle 96% of f's domain."""
    lo, hi = f.domain
    return [lo + (hi - lo) * (0.02 + (0.98 - 0.02) * u) for u in rng.random(k).tolist()]


def _ordered_pair(rng, f: FunctionSpec):
    lo, hi = f.domain
    s, t = sorted(_domain_points(rng, f, 2))
    if t - s < 1e-6 * (hi - lo):
        t = min(t + 0.05 * (hi - lo), hi - 0.01 * (hi - lo))
    return s, t


_LOGCONVEX_POOL = ("exp", "exp-pow-1", "exp-pow-2", "inv-pow-1", "inv-pow-2", "inv-sin", "neg-log", "lnt-x-2", "quad-exp-1-0", "geo-interp-1-4")
_LOGCONCAVE_POOL = ("log", "sin", "gauss", "pow-2", "geo-interp-1-4", "exp")
_GEOMCONVEX_POOL = ("exp", "exp-pow-1", "exp-pow-2", "inv-pow-1", "inv-pow-2", "inv-sin", "pow-2", "pow-3")
_INCREASING_POOL = ("exp", "exp-pow-1", "exp-pow-2", "log", "lnt-x-2")
_CONVEX_POOL = ("neg-log", "neg-log-wide", "exp", "exp-pow-2", "inv-pow-1", "pow-2", "quad-exp-1-0")
_ANY_POOL = tuple(REGISTRY)


def _pick(rng, ids) -> FunctionSpec:
    return REGISTRY[ids[rng.draw_int(0, len(ids))]]


# --- two-function family -----------------------------------------------------

def gen_two_function_family(rng):
    """(f, g, a, b) satisfying the admissibility gate by construction:
    f = log and g a shallow affine function dominated by min f, with the
    increment condition enforced through the intercept."""
    u = rng.random(4).tolist()  # each mapped onto its [lo, hi) as ``uniform`` maps it
    a = 1.2 + (3.0 - 1.2) * u[0]
    b = a * (1.2 + (2.5 - 1.2) * u[1])
    fa, fb = float(np.log(a)), float(np.log(b))
    c_min = fb * (b - a) / (fb - fa) - a
    c = c_min + (0.05 + (2.0 - 0.05) * u[2]) * max(1.0, abs(c_min))
    eps = (0.1 + (1.0 - 0.1) * u[3]) * fa / (b + c)
    return REGISTRY["log-wide"], funcs.linear(eps, eps * c), a, b


# --- chain registry -----------------------------------------------------------

def _floats(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _function(name: str) -> FunctionSpec:
    if name not in REGISTRY:
        raise ValueError(f"unknown function {name!r}; see `oel list --functions`")
    return REGISTRY[name]


# each parameter type, by ``Param.parser``: (how a value is parsed from its
# text, how a report writes it); None is a fixed value, its ``default``
_PARAM_TYPES = {
    "float": (float, float), "int": (int, int), "str": (str, str), None: (str, str),
    "floats": (_floats, lambda values: [float(v) for v in values]),
    "function": (_function, operator.attrgetter("id")), "matrix": (load_matrix, matrix_to_obj),
}


@dataclass(frozen=True)
class Param:
    """One parameter of a chain, the key ``name`` of its params, of the type
    ``parser`` (a key of ``_PARAM_TYPES``). ``oel verify`` reads it from
    ``--{option}``, or else from the text ``default`` (none: required),
    through ``parse``; a report writes it through ``write``. With ``parser``
    None it is ``default``, with no flag. ``when`` tells from the params
    before it whether the chain reads it; if not, it is left out."""

    name: str
    parser: str | None = "float"
    default: str | None = None
    flag: str | None = None  # when the option is not the name
    when: Callable | None = None

    @property
    def option(self) -> str | None:
        return None if self.parser is None else self.flag or self.name.replace("_", "-")

    def parse(self, text: str):
        return _PARAM_TYPES[self.parser][0](text)

    def write(self, value):
        return _PARAM_TYPES[self.parser][1](value)


@dataclass(frozen=True)
class ChainEntry:
    """A chain and its one declaration ``params``: its ``Param``s in the
    argument order of its checker, the order its trials draw them in.

    ``generate(rng, cfg)`` draws the params of one trial and ``run(params,
    tol)`` evaluates them. ``draw(rng, cfg)``, for matrix chains, draws the
    params of one trial with its matrices left pending for ``_realize``;
    such a chain's ``generate`` is ``_realize`` of the one-trial block, and
    its ``run`` the one-trial call of ``entropy.chain_stacks``."""

    id: str
    kind: str  # 'scalar' or 'operator'
    description: str
    params: tuple
    generate: Callable
    run: Callable
    draw: Callable | None = None


def _gen_prop21(rng, cfg):
    *u, v = rng.random(3).tolist()
    a, b = _log_scaled(u, *cfg.scalar_range)
    return {"a": a, "b": b, "v": v, "n": rng.draw_int(1, 65)}


def _gen_minmax_square(rng, cfg):
    f = _pick(rng, _ANY_POOL)
    s, t = _ordered_pair(rng, f)
    return {"fn": f, "s": s, "t": t}


def _gen_minmax_power(rng, cfg):
    f = _pick(rng, _INCREASING_POOL)
    s, t = _ordered_pair(rng, f)
    if rng.random() < 0.15:
        p, q = 2.0, 0.0
    else:
        u, v = rng.random(2).tolist()  # uniform on [1, 3) and on [-1.5, 1)
        p, q = 1.0 + (3.0 - 1.0) * u, -1.5 + (1.0 - -1.5) * v
    return {"fn": f, "s": s, "t": t, "p": p, "q": q}


def _gen_jensen(rng, cfg):
    f = _pick(rng, _CONVEX_POOL)
    k = rng.draw_int(2, 6)
    x = _domain_points(rng, f, k)
    return {"fn": f, "w": _weights(rng, k), "x": x, "t": uniform(rng, 1e-3, 1.0)}


def _gen_am_gm(rng, cfg):
    k = rng.draw_int(2, 6)
    x = _log_scaled(rng.random(k).tolist(), 1.0, 50.0)
    return {"w": _weights(rng, k), "x": x, "t": uniform(rng, 1e-3, 1.0)}


def _gen_two_points(pool, **fixed):
    def gen(rng, cfg):
        f = _pick(rng, pool)
        pts = _domain_points(rng, f, 2)
        return {"fn": f, "s": pts[0], "t": pts[1], **fixed}

    return gen


def _gen_geom_interp(rng, cfg):
    g = _pick(rng, _GEOMCONVEX_POOL)
    a, b = _domain_points(rng, g, 2)
    return {"fn": g, "a": a, "b": b, "t": rng.random()}


def _gen_jensen_exp(kind):
    pool = _LOGCONVEX_POOL if kind == "log_convex" else _GEOMCONVEX_POOL

    def gen(rng, cfg):
        f = _pick(rng, pool)
        k = rng.draw_int(1, 5)
        pts = _domain_points(rng, f, k)
        return {"fn": f, "w": _weights(rng, k), "a": pts, "kind": kind}

    return gen


def _gen_derived_logconvexity(rng, cfg):
    coin, x, y, u, w = rng.random(5).tolist()
    if coin < 0.5:  # uniform on [0, 2) and on [-1, 1)
        f = funcs.quad_exponential(0.0 + (2.0 - 0.0) * x, -1.0 + (1.0 - -1.0) * y)
    else:
        f = funcs.geometric_interpolant(*_log_scaled([x, y], 0.1, 10.0))
    return {"fn": f, "u": u, "w": w}


def _gen_young_refinement(rng, cfg):
    *u, t = rng.random(3).tolist()
    a, b = _log_scaled(u, *cfg.scalar_range)
    return {"a": a, "b": b, "t": t}


def _gen_tsallis_scalar(rng, cfg):
    s, t = _log_scaled(rng.random(2).tolist(), 0.05, 3.0)
    return {"x": log_uniform(rng, *_meet((1.0, 1e3), hi=cfg.scalar_range[1])), "s": s, "t": t}


def _pair_in_range(rng, n, lo, hi) -> _Pending:
    """Pending pair (A, B) with log-uniform spectra in [lo, hi]: spectrum,
    then Gaussian matrix, for each matrix in turn."""
    lam_a = log_uniform(rng, lo, hi, n)
    G_a = rng.normal(size=(n, n))
    lam_b = log_uniform(rng, lo, hi, n)
    return _Pending([lam_a, lam_b], [G_a, rng.normal(size=(n, n))])


def _draw_zou(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    return {"A": _pair_in_range(rng, n, lo, hi), "B": None, "t": uniform(rng, 1e-3, 1.0)}


def _draw_refined_st(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    case = _regime(rng, cfg, "case", _REFINED_CASES)
    if case == "below":
        m, M = sorted(_log_scaled(rng.random(2).tolist(), *_meet((1e-3, 0.95), lo=lo)))
    elif case == "above":
        m, M = sorted(_log_scaled(rng.random(2).tolist(), *_meet((1.02, 50.0), hi=hi)))
    else:  # uniform on [0.1, 1) and on [1, 10)
        u, v = rng.random(2).tolist()
        m, M = 0.1 + (1.0 - 0.1) * u, 1.0 + (10.0 - 1.0) * v
    return {"A": _constrained(rng, n, m, M, lo, hi), "B": None, "t": uniform(rng, 1e-3, 1.0)}


def _draw_tsallis_relation(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    m, M = sorted(_log_scaled(rng.random(2).tolist(), *_meet((1.0, 100.0), hi=hi)))
    pair = _constrained(rng, n, m, M, lo, hi)
    s, t = _log_scaled(rng.random(2).tolist(), 0.05, 3.0)
    return {"A": pair, "B": None, "s": s, "t": t}


def _draw_roe(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    case = _regime(rng, cfg, "case", _ROE_CASES)
    if case == "low":
        m, M = sorted(_log_scaled(rng.random(2).tolist(), *_meet((1e-3, 1.0 / np.e), lo=lo)))
    else:
        m, M = sorted([1.0 + (np.e - 1.0) * u for u in rng.random(2).tolist()])
    return {"A": _constrained(rng, n, m, M, lo, hi), "B": None}


def _draw_troe(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    m = 1.0 if rng.random() < 0.3 else uniform(rng, 1.0, 5.0)
    M = m + uniform(rng, 0.1, 5.0)
    pair = _constrained(rng, n, m, M, lo, hi)
    bucket = rng.draw_int(0, 3)
    if bucket == 0:
        t = uniform(rng, 0.05, 1.0)
    elif bucket == 1:
        t = uniform(rng, 1.0, 3.0)
    else:
        t = uniform(rng, -1.0, -0.05)
    return {"A": pair, "B": None, "t": t}


def _draw_ordering(rng, cfg):
    n = _draw_dim(rng, cfg)
    lo, hi = cfg.scalar_range
    p = log_uniform(rng, 0.05, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
    return {"A": _pair_in_range(rng, n, lo, hi), "B": None, "p": p}


def _draw_two_function(rng, cfg):
    n = _draw_dim(rng, cfg)
    f, g, a, b = gen_two_function_family(rng)
    mode = _regime(rng, cfg, "mode", entropy.TWO_FUNCTION_MODES)
    params = {"fn_f": f, "fn_g": g, "a": a, "b": b, "mode": mode}
    if mode == "expectation":
        lam = uniform(rng, a, b, n)
        params["A"] = _Pending([lam], [rng.normal(size=(n, n))])
    elif mode == "congruence":
        params["A"], params["B"] = _constrained(rng, n, a, b, 0.5, 2.0), None
    else:
        lam = np.sort(uniform(rng, a, b, n))
        G = rng.normal(size=(n, n))
        v = rng.normal(size=n)
        v /= math.sqrt(v.dot(v))  # np.linalg.norm(v), bit for bit
        shift = uniform(rng, 0.0, max(float(lam[0]) - a, 0.0))
        params["A"], params["B"] = _Pending([lam], [G], shift=shift, v=v), None  # B = A - shift v v^T
    return params


CHAINS: dict[str, ChainEntry] = {}


def _scalar_chain(cid, description, generate, check: str, params):
    """Register a scalar chain whose checker is ``chains.<check>``, looked up
    at each call like a direct call, so that perfbench's tracer sees it."""
    values = operator.itemgetter(*[prm.name for prm in params])  # a tuple: every scalar chain has several

    def run(p: dict, tol: float):
        return getattr(chains, check)(*values(p), tol)

    CHAINS[cid] = ChainEntry(cid, "scalar", description, params, generate, run)


def _operator_chain(cid, description, draw, params):
    """Register a matrix chain, whose ``run`` is the one-trial call of
    ``entropy.chain_stacks``, looked up likewise; a name that a trial
    leaves out, as thm-2.12's B in expectation mode, is None there."""

    def generate(rng, cfg):
        (p,) = _realize([draw(rng, cfg)])
        return p

    def run(p: dict, tol: float):
        return entropy._check(cid, tol, **{prm.name: p.get(prm.name) for prm in params})

    CHAINS[cid] = ChainEntry(cid, "operator", description, params, generate, run, draw)


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
    _draw_zou, (_A, _B, _T),
)
_operator_chain(
    "thm-3.3", "entropy ordering sharpened by a spectral-endpoint additive term",
    _draw_refined_st, (_A, _B, _T),
)
_operator_chain(
    "thm-3.5", "exponential-factor relation between two deformed entropies",
    _draw_tsallis_relation, (_A, _B, _S, _T),
)
_operator_chain(
    "thm-3.6", "two-sided exponential estimates of the relative entropy in multiples of A",
    _draw_roe, (_A, _B),
)
_operator_chain(
    "thm-3.11", "secant-line bound on the deformed entropy over the relative spectrum",
    _draw_troe, (_A, _B, _T),
)
_operator_chain(
    "prop-3.10", "sign-dependent ordering of plain, deformed, and generalized entropies",
    _draw_ordering, (_A, _B, Param("p")),
)
_operator_chain(
    "thm-2.12", "operator comparison of a gated concave/convex function pair",
    _draw_two_function, (
        _fn("log-wide", "fn_f"), _fn("lin-0.04-0.12", "fn_g"),
        Param("a", default="1.5"), Param("b", default="4.0"), Param("mode", "str", "expectation"), _A,
        Param("B", "matrix", when=lambda p: p["mode"] in ("congruence", "majorize")),
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


def serialize_params(entry: ChainEntry, params: dict) -> dict:
    """The JSON object of a trial's params: each declared name they hold, in
    declared order, written per its type (a matrix as ``{"n", "data"}``, a
    function as its id, a list as floats)."""
    return {prm.name: prm.write(params[prm.name]) for prm in entry.params if prm.name in params}


# trials drawn and evaluated together. A block holds them for every chain
# of the run: 64 trials * 7 matrix chains * 2 matrices * 8 n**2 bytes
# drawn, 7 MB at n = 32, where tracemalloc reads a peak of 35 MB per block
FUZZ_BLOCK = 64


def _attempt(run, params: dict, tol: float) -> tuple:
    """(error, status, least relative slack) of one scalar trial, as a
    column of ``entropy.Decided`` holds them: the exception that refuses or
    fails it, or its status and slack."""
    try:
        verdict = run(params, tol)
    except TRIAL_ERRORS as exc:
        return exc, None, None
    return None, entropy.STATUS_PASS if verdict.ok else entropy.STATUS_FAIL, verdict.min_rel_slack


def _charge(reports: list, since: float) -> float:
    """Share the time since ``since`` out equally to the ``elapsed_s`` of
    ``reports``; the time now."""
    now = time.perf_counter()
    for rep in reports:
        rep.elapsed_s += (now - since) / len(reports)
    return now


def fuzz_chain(chain_id: str, cfg: GeneratorConfig) -> FuzzReport:
    """``fuzz_all`` of the one chain ``chain_id``."""
    (report,) = fuzz_all(cfg, [chain_id])
    return report


def fuzz_all(cfg: GeneratorConfig, ids=None) -> list:
    """Run cfg.trials seeded trials of each chain in ``ids`` (None: every
    chain; an empty list draws nothing) and aggregate the outcome of each.

    A non-finite chain evaluation counts as a failure: the generators are
    expected to keep instances inside float range, so an overflow is a bug
    worth surfacing, not an out-of-regime draw. A draw the chain refuses
    with ValueError (for instance a pair too ill-conditioned for the kernel's
    positive-definiteness floor) is counted as rejected; it is neither a
    failure nor not-applicable, and it does not abort the run. A chain's
    ``elapsed_s`` is the time of its own work, its routes in
    ``entropy.chain_stacks`` among it, and an equal share of the work it
    shares with other chains, such as ``_realize``.
    """
    ids = list(CHAINS) if ids is None else ids
    for cid in ids:
        if cid not in CHAINS:
            raise KeyError(f"unknown chain {cid!r}")
    entries = [CHAINS[cid] for cid in ids]
    reports = [FuzzReport(entry.id, cfg.trials, 0, 0, [], None, cfg.seed, 0.0) for entry in entries]
    drawn = [j for j, entry in enumerate(entries) if entry.draw]
    stream, clock = trial_rng(cfg.seed, 0), time.perf_counter()
    for first in range(0, cfg.trials, FUZZ_BLOCK):
        trials = range(first, min(first + FUZZ_BLOCK, cfg.trials))
        blocks = []
        for rep, entry in zip(reports, entries):
            draw = entry.draw or entry.generate
            blocks.append([draw(stream.at(trial), cfg) for trial in trials])
            clock = _charge([rep], clock)
        decided = {}
        if drawn:  # realized together, and decided together
            _realize([p for j in drawn for p in blocks[j]])
            columns = [(entries[j].id, {prm.name: [p.get(prm.name) for p in blocks[j]] for prm in entries[j].params}) for j in drawn]
            decided = dict(zip(drawn, entropy.chain_stacks(columns, cfg.tol)))
            clock = _charge([reports[j] for j in drawn], clock + sum(decided[j].elapsed_s for j in drawn))
            for j in drawn:
                reports[j].elapsed_s += decided[j].elapsed_s
        for j, (rep, entry, block) in enumerate(zip(reports, entries, blocks)):
            if j in decided:
                outcomes = zip(decided[j].errors, decided[j].status, decided[j].rel)
            else:
                outcomes = [_attempt(entry.run, p, cfg.tol) for p in block]
            for trial, params, (error, status, rel_slack) in zip(trials, block, outcomes):
                if isinstance(error, ValueError):
                    rep.rejected += 1
                elif error is not None:
                    rep.failures.append({"trial": trial, "error": str(error), "params": serialize_params(entry, params)})
                elif status == entropy.STATUS_NOT_APPLICABLE:
                    rep.not_applicable += 1
                else:  # an applicable trial decided at least one link
                    rep.slack_rows.append((trial, rel_slack))
                    if status != entropy.STATUS_PASS:
                        failure = {"trial": trial, "min_rel_slack": rel_slack, "params": serialize_params(entry, params)}
                        rep.failures.append(failure)
            clock = _charge([rep], clock)
    for rep in reports:
        rep.min_slack = min((slack for _, slack in rep.slack_rows), default=None)
    return reports


# --- report emission --------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return "%.17g" % x if math.isfinite(x) else "null"  # format(x, ".17g"), bit for bit


# the JSON kind of each exact type that a report holds
_JSON_KINDS = {float: float, int: int, str: str, dict: dict, list: list}


def _json_kind(obj) -> type | None:
    """The JSON kind of a value of any other type: a subclass, a numpy
    scalar or a tuple; None for None and bools, which ``json.dumps`` writes."""
    if isinstance(obj, str):
        return str
    if obj is None or isinstance(obj, bool):
        return None
    if isinstance(obj, (int, np.integer)):
        return int
    if isinstance(obj, (float, np.floating)):
        return float
    if isinstance(obj, (list, tuple)):
        return list
    if isinstance(obj, dict):
        return dict
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit_json(obj) -> str:
    """Minimal JSON writer: floats carry 17 significant digits so every
    value round-trips exactly, and byte output is deterministic. A value is
    written by its JSON kind, found by its exact type where it can be."""
    kind = _JSON_KINDS.get(type(obj)) or _json_kind(obj)
    if kind is float:
        return _fmt_float(float(obj))
    if kind is dict:
        return "{" + ", ".join([f"{encode_basestring_ascii(str(k))}: {_emit_json(v)}" for k, v in obj.items()]) + "}"
    if kind is str:
        return encode_basestring_ascii(obj)  # json.dumps(obj), bit for bit
    if kind is list:
        return "[" + ", ".join(map(_emit_json, obj)) + "]"
    if kind is int:
        return str(int(obj))
    return json.dumps(obj)


def report_document(reports: list, include_timing: bool = False) -> dict:
    return {
        "version": 7,
        "seed": reports[0].seed if reports else 0,
        "chains": [r.to_obj(include_timing) for r in reports],
    }


def dumps_report(reports: list, include_timing: bool = False) -> str:
    return _emit_json(report_document(reports, include_timing)) + "\n"


def csv_sidecar(path) -> str:
    """The path of the CSV sidecar of the report at ``path``, which must not
    be ``path`` itself."""
    sidecar = os.path.splitext(str(path))[0] + ".csv"
    if sidecar == str(path):
        raise ValueError("the report path must not end in .csv, the name of its CSV sidecar")
    return sidecar


def write_report(reports: list, path, include_timing: bool = False) -> None:
    """Write the aggregate JSON report plus a CSV of per-trial slacks
    (columns chain_id, trial, min_link_slack) next to it, at
    ``csv_sidecar(path)``."""
    sidecar = csv_sidecar(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(reports, include_timing))
    # the rows csv.writer's excel dialect writes, in one call: no chain id or number needs quoting
    rows = "".join([f"{rep.chain_id},{trial},{_fmt_float(slack)}\r\n" for rep in reports for trial, slack in rep.slack_rows])
    with open(sidecar, "w", encoding="utf-8", newline="") as fh:
        fh.write("chain_id,trial,min_link_slack\r\n" + rows)
