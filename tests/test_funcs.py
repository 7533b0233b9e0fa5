import numpy as np
import pytest

from oel.errors import DomainError
from oel.funcs import (
    REGISTRY,
    FunctionSpec,
    deformed_log_in_t,
    exp_power,
    geometric_interpolant,
    inv_power,
    linear,
    quad_exponential,
)


def check_derivative(f: FunctionSpec, rng, points: int = 100) -> float:
    """Compare f.deriv against central differences at random interior points.

    Returns the worst absolute excess over the allowance
    max(1e-6, 1e-6 * |f'|); nonpositive means the declared derivative is consistent.
    """
    lo, hi = f.domain
    worst = -np.inf
    for _ in range(points):
        x = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        h = max(1e-6, 1e-7 * abs(x)) * (hi - lo) / max(hi - lo, 1.0)
        h = min(h, (hi - lo) * 0.02)
        fd = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h)
        d = f.deriv(x)
        worst = max(worst, abs(fd - d) - max(1e-6, 1e-6 * abs(d)))
    return worst


def check_flags(f: FunctionSpec, rng, trials: int = 200, tol: float = 1e-9) -> dict:
    """Empirical midpoint tests for every declared flag.

    Returns {flag: worst_violation}; values <= tol*scale mean the flag held
    on all sampled pairs. This is a falsification gate, not a proof.
    """
    lo, hi = f.domain
    results = {flag: 0.0 for flag in f.flags}
    for _ in range(trials):
        u, w = lo + (hi - lo) * rng.uniform(0.02, 0.98, size=2)
        lam = rng.uniform()
        mix = lam * u + (1.0 - lam) * w
        fu, fw, fm = f.eval(u), f.eval(w), f.eval(mix)
        scale = max(1.0, abs(fu), abs(fw))
        if "convex" in f.flags:
            results["convex"] = max(results["convex"], (fm - (lam * fu + (1.0 - lam) * fw)) / scale)
        if "concave" in f.flags:
            results["concave"] = max(results["concave"], ((lam * fu + (1.0 - lam) * fw) - fm) / scale)
        if "log_convex" in f.flags:
            gap = np.log(fm) - (lam * np.log(fu) + (1.0 - lam) * np.log(fw))
            results["log_convex"] = max(results["log_convex"], gap)
        if "log_concave" in f.flags:
            gap = (lam * np.log(fu) + (1.0 - lam) * np.log(fw)) - np.log(fm)
            results["log_concave"] = max(results["log_concave"], gap)
        if "geometrically_convex" in f.flags:
            gmix = u**lam * w ** (1.0 - lam)
            gap = np.log(f.eval(gmix)) - (lam * np.log(fu) + (1.0 - lam) * np.log(fw))
            results["geometrically_convex"] = max(results["geometrically_convex"], gap)
        if "monotone_increasing" in f.flags and u != w:
            s, t = min(u, w), max(u, w)
            results["monotone_increasing"] = max(
                results["monotone_increasing"], (f.eval(s) - f.eval(t)) / scale
            )
        if "monotone_decreasing" in f.flags and u != w:
            s, t = min(u, w), max(u, w)
            results["monotone_decreasing"] = max(
                results["monotone_decreasing"], (f.eval(t) - f.eval(s)) / scale
            )
    return results


def test_registry_contains_named_functions():
    for name in ("exp-pow-2", "inv-pow-2", "inv-sin", "neg-log", "log", "lnt-x-2"):
        assert name in REGISTRY


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_derivatives_match_finite_differences(name):
    rng = np.random.default_rng(11)
    assert check_derivative(REGISTRY[name], rng, points=100) <= 0.0


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_flags_hold_empirically(name):
    rng = np.random.default_rng(13)
    worst = check_flags(REGISTRY[name], rng, trials=300)
    for flag, violation in worst.items():
        assert violation <= 1e-9, (flag, violation)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: exp_power(3.0),
        lambda: inv_power(0.5),
        lambda: quad_exponential(2.0, -1.0),
        lambda: geometric_interpolant(0.3, 7.0),
        lambda: deformed_log_in_t(5.0),
        lambda: linear(0.1, 0.2),
    ],
)
def test_factory_specs_are_self_consistent(factory):
    spec = factory()
    rng = np.random.default_rng(17)
    assert check_derivative(spec, rng, points=60) <= 0.0
    worst = check_flags(spec, rng, trials=200)
    assert all(v <= 1e-9 for v in worst.values()), worst


def test_bad_constructions_rejected():
    with pytest.raises(ValueError):
        exp_power(0.5)
    with pytest.raises(ValueError):
        inv_power(-1.0)
    with pytest.raises(ValueError):
        deformed_log_in_t(0.9)
    with pytest.raises(ValueError):
        FunctionSpec(id="bad", domain=(1.0, 1.0), eval=float, deriv=float)
    with pytest.raises(ValueError):
        FunctionSpec(id="bad", domain=(0.0, 1.0), eval=float, deriv=float, flags=frozenset({"wiggly"}))


def test_at_reads_points_of_the_open_domain():
    # inside the domain, at is eval bit for bit; the endpoints, NaN and a
    # point outside are refused, naming the point as the caller calls it
    rng = np.random.default_rng(5)
    for spec in REGISTRY.values():
        lo, hi = spec.domain
        inside = [np.nextafter(lo, hi), np.nextafter(hi, lo), *rng.uniform(lo, hi, 8)]
        for x in map(float, inside):
            assert np.float64(spec.at(x, "x")).tobytes() == np.float64(spec.eval(x)).tobytes()
        for x in (lo, hi, float("nan"), hi + 1.0):
            with pytest.raises(DomainError) as exc:
                spec.at(x, "sample point")
            assert str(exc.value) == f"sample point {x!r} outside domain {spec.domain!r} of {spec.id!r}"


def test_evaluators_accept_arrays():
    # every registered evaluator maps an array elementwise and a scalar to a
    # float; log and affine functions (the pair thm-2.12 fuzzes) agree bit
    # for bit, the others within a few ulps (numpy's vector pow is not libm's)
    rng = np.random.default_rng(23)
    for spec in REGISTRY.values():
        lo, hi = spec.domain
        xs = lo + (hi - lo) * rng.uniform(0.05, 0.95, (3, 5))
        for fn in (spec.eval, spec.deriv):
            scalar_vals = np.array([[fn(float(x)) for x in row] for row in xs])
            assert isinstance(fn(float(xs[0, 0])), float)
            out = fn(xs)
            assert out.shape == xs.shape and out.dtype == float
            if spec.id in ("log-wide", "lin-0.04-0.12"):
                assert np.array_equal(out, scalar_vals), spec.id
            else:
                assert np.allclose(out, scalar_vals, rtol=1e-13, atol=0.0), spec.id


def test_linear_derivative_is_the_slope_as_a_float_or_an_array():
    # at a float the slope itself, with no array built; at an array a float
    # array of its shape
    spec = linear(2, 0.5)
    assert type(spec.deriv(1.5)) is float and spec.deriv(1.5) == 2.0
    assert type(spec.deriv(np.float64(1.5))) is float
    for shape in ((3,), (2, 2)):
        out = spec.deriv(np.full(shape, 1.5))
        assert out.shape == shape and out.dtype == float and np.all(out == 2.0)
