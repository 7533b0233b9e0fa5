"""Registered scalar test functions with derivatives, domains, and
convexity-class flags.

A FunctionSpec is the unit the chain checkers consume: the flags declare
which chains a function is admissible for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import scalar
from .errors import DomainError

FLAG_NAMES = frozenset(
    {
        "convex",
        "concave",
        "log_convex",
        "log_concave",
        "geometrically_convex",
        "monotone_increasing",
        "monotone_decreasing",
    }
)


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function with evaluator, derivative, and declared shape flags.

    ``domain`` is an open interval (lo, hi) on which both callables are safe
    to evaluate and the flags are claimed to hold. Both callables take a
    float and return a float, or take an array and return the float array
    of values at its elements.
    """

    id: str
    domain: tuple[float, float]
    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain for {self.id!r}: {self.domain!r}")
        unknown = set(self.flags) - FLAG_NAMES
        if unknown:
            raise ValueError(f"unknown flags for {self.id!r}: {sorted(unknown)}")

    def has(self, flag: str) -> bool:
        return flag in self.flags

    def at(self, x: float, what: str) -> float:
        """The value at ``x``, a point of the open domain. Any other point,
        NaN and the endpoints included, is refused, named ``what``."""
        lo, hi = self.domain
        if not lo < x < hi:
            raise DomainError(f"{what} {x!r} outside domain {self.domain!r} of {self.id!r}")
        return self.eval(x)


# --- factories -----------------------------------------------------------

def _pointwise(fn):
    """``fn``, written with numpy operations, as an evaluator: a float at a
    scalar, and the float array of values at the elements of an array."""

    def evaluate(x):
        if isinstance(x, np.ndarray) and x.ndim:
            return np.asarray(fn(x), dtype=float)
        return float(fn(x))

    return evaluate


def exp_power(p: float) -> FunctionSpec:
    """exp(x**p) for p >= 1: log-convex, increasing, geometrically convex."""
    if p < 1.0:
        raise ValueError("exp_power requires p >= 1")
    return FunctionSpec(
        id=f"exp-pow-{p:g}",
        domain=(0.05, 2.0),
        eval=_pointwise(lambda x: np.exp(x**p)),
        deriv=_pointwise(lambda x: p * x ** (p - 1.0) * np.exp(x**p)),
        flags=frozenset({"log_convex", "convex", "monotone_increasing", "geometrically_convex"}),
    )


def inv_power(p: float) -> FunctionSpec:
    """x**(-p) for p > 0: log-convex and decreasing. Domain kept away from 0
    so the exponential bounds in the chains stay inside float range."""
    if p <= 0.0:
        raise ValueError("inv_power requires p > 0")
    return FunctionSpec(
        id=f"inv-pow-{p:g}",
        domain=(0.2, 5.0),
        eval=_pointwise(lambda x: x ** (-p)),
        deriv=_pointwise(lambda x: -p * x ** (-p - 1.0)),
        flags=frozenset({"log_convex", "convex", "monotone_decreasing", "geometrically_convex"}),
    )


def power(p: float) -> FunctionSpec:
    """x**p for p >= 1; the equality case of the geometric interpolation chain."""
    if p < 1.0:
        raise ValueError("power requires p >= 1")
    return FunctionSpec(
        id=f"pow-{p:g}",
        domain=(0.05, 5.0),
        eval=_pointwise(lambda x: x**p),
        deriv=_pointwise(lambda x: p * x ** (p - 1.0)),
        flags=frozenset({"convex", "monotone_increasing", "geometrically_convex", "log_concave"}),
    )


def deformed_log_in_t(x: float) -> FunctionSpec:
    """t -> deformed_log(t, x) for fixed x > 1: increasing, convex, and
    log-convex in the deformation index."""
    if x <= 1.0:
        raise ValueError("deformed_log_in_t requires x > 1 so the values stay positive")
    return FunctionSpec(
        id=f"lnt-x-{x:g}",
        domain=(-4.0, 4.0),
        eval=_pointwise(lambda t: scalar.deformed_log(t, x)),
        deriv=_pointwise(lambda t: scalar.deformed_log_t_derivative(t, x)),
        flags=frozenset({"log_convex", "convex", "monotone_increasing"}),
    )


def quad_exponential(c: float, d: float) -> FunctionSpec:
    """exp(c t**2 + d t) with c >= 0: the workhorse log-convex family."""
    if c < 0.0:
        raise ValueError("quad_exponential requires c >= 0")
    flags = {"log_convex", "convex"}
    return FunctionSpec(
        id=f"quad-exp-{c:g}-{d:g}",
        domain=(-0.5, 1.5),
        eval=_pointwise(lambda t: np.exp(c * t * t + d * t)),
        deriv=_pointwise(lambda t: (2.0 * c * t + d) * np.exp(c * t * t + d * t)),
        flags=frozenset(flags),
    )


def geometric_interpolant(a: float, b: float) -> FunctionSpec:
    """t -> a**(1-t) b**t; log-linear in t, hence both log-convex and log-concave."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("geometric_interpolant requires a, b > 0")
    r = np.log(b / a)
    return FunctionSpec(
        id=f"geo-interp-{a:g}-{b:g}",
        domain=(-0.5, 1.5),
        eval=_pointwise(lambda t: a * np.exp(r * t)),
        deriv=_pointwise(lambda t: a * r * np.exp(r * t)),
        flags=frozenset({"log_convex", "log_concave", "convex"} | ({"monotone_increasing"} if b > a else {"monotone_decreasing"} if b < a else set())),
    )


def linear(slope: float, intercept: float) -> FunctionSpec:
    """slope*x + intercept; convex and concave, monotone per the slope sign."""
    mono = (
        {"monotone_increasing"}
        if slope > 0
        else {"monotone_decreasing"}
        if slope < 0
        else set()
    )
    s = float(slope)
    return FunctionSpec(
        id=f"lin-{slope:g}-{intercept:g}",
        domain=(0.0, 50.0),
        eval=_pointwise(lambda x: slope * x + intercept),
        # the slope itself at a float, as ``_pointwise`` would make it, with no array built
        deriv=lambda x: np.full(x.shape, s) if isinstance(x, np.ndarray) and x.ndim else s,
        flags=frozenset({"convex", "concave"} | mono),
    )


def log_wide() -> FunctionSpec:
    """log x on a window above 1, where it is nonnegative increasing concave."""
    return FunctionSpec(
        id="log-wide",
        domain=(1.0 + 1e-9, 50.0),
        eval=_pointwise(lambda x: np.log(x)),
        deriv=_pointwise(lambda x: 1.0 / x),
        flags=frozenset({"concave", "monotone_increasing", "log_concave"}),
    )


def _neg_log() -> FunctionSpec:
    # log-convex only while log x <= -1, hence the 1/e right endpoint
    return FunctionSpec(
        id="neg-log",
        domain=(0.02, float(np.exp(-1.0))),
        eval=_pointwise(lambda x: -np.log(x)),
        deriv=_pointwise(lambda x: -1.0 / x),
        flags=frozenset({"log_convex", "convex", "monotone_decreasing"}),
    )


def _neg_log_wide() -> FunctionSpec:
    # plain convexity holds on the whole half line, unlike log-convexity
    return FunctionSpec(
        id="neg-log-wide",
        domain=(1e-6, 1e3),
        eval=_pointwise(lambda x: -np.log(x)),
        deriv=_pointwise(lambda x: -1.0 / x),
        flags=frozenset({"convex", "monotone_decreasing"}),
    )


def _log_unit_to_e() -> FunctionSpec:
    # log-concave only while log x >= ... the left endpoint stays above 1 so
    # the ratio chains can divide by f
    return FunctionSpec(
        id="log",
        domain=(1.0 + 1e-9, float(np.e)),
        eval=_pointwise(lambda x: np.log(x)),
        deriv=_pointwise(lambda x: 1.0 / x),
        flags=frozenset({"log_concave", "concave", "monotone_increasing"}),
    )


def _inv_sin() -> FunctionSpec:
    # shrunk away from the endpoints to avoid the blowup at 0 and pi/2
    return FunctionSpec(
        id="inv-sin",
        domain=(0.05, float(np.pi / 2 - 0.05)),
        eval=_pointwise(lambda x: 1.0 / np.sin(x)),
        deriv=_pointwise(lambda x: -np.cos(x) / np.sin(x) ** 2),
        flags=frozenset(
            {"log_convex", "convex", "monotone_decreasing", "geometrically_convex"}
        ),
    )


def _sin_spec() -> FunctionSpec:
    return FunctionSpec(
        id="sin",
        domain=(0.05, float(np.pi - 0.05)),
        eval=_pointwise(lambda x: np.sin(x)),
        deriv=_pointwise(lambda x: np.cos(x)),
        flags=frozenset({"log_concave", "concave"}),
    )


def _gauss() -> FunctionSpec:
    return FunctionSpec(
        id="gauss",
        domain=(-2.0, 2.0),
        eval=_pointwise(lambda x: np.exp(-x * x)),
        deriv=_pointwise(lambda x: -2.0 * x * np.exp(-x * x)),
        flags=frozenset({"log_concave"}),
    )


def _exp_spec() -> FunctionSpec:
    return FunctionSpec(
        id="exp",
        domain=(0.01, 5.0),
        eval=_pointwise(lambda x: np.exp(x)),
        deriv=_pointwise(lambda x: np.exp(x)),
        flags=frozenset({"log_convex", "log_concave", "convex", "monotone_increasing", "geometrically_convex"}),
    )


def default_registry() -> dict[str, FunctionSpec]:
    """Immutable-by-convention map of the named test functions."""
    specs = [
        _exp_spec(),
        exp_power(1.0),
        exp_power(2.0),
        inv_power(1.0),
        inv_power(2.0),
        power(2.0),
        power(3.0),
        _inv_sin(),
        _sin_spec(),
        _gauss(),
        _neg_log(),
        _neg_log_wide(),
        _log_unit_to_e(),
        deformed_log_in_t(2.0),
        quad_exponential(1.0, 0.0),
        geometric_interpolant(1.0, 4.0),
        log_wide(),
        # shallow affine partner passing the two-function gate with log-wide
        # on [1.5, 4]
        linear(0.04, 0.12),
    ]
    return {s.id: s for s in specs}


REGISTRY = default_registry()
