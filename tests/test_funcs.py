import numpy as np
import pytest

from oel.funcs import (
    REGISTRY,
    FunctionSpec,
    check_derivative,
    check_flags,
    deformed_log_in_t,
    exp_power,
    geometric_interpolant,
    inv_power,
    linear,
    quad_exponential,
)


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


def test_domain_membership_helpers():
    spec = REGISTRY["log"]
    assert spec.contains(2.0)
    assert not spec.contains(0.5)
    with pytest.raises(Exception):
        spec.require(0.5)
    assert spec(2.0) == pytest.approx(np.log(2.0))


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
