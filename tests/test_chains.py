import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from oel import chains, scalar
from oel.errors import DomainError, NumericError
from oel.funcs import REGISTRY, FunctionSpec, linear, power, quad_exponential, geometric_interpolant
from test_scalar import geom_log_derivative

IDENT = FunctionSpec(
    id="ident", domain=(-10.0, 10.0), eval=lambda x: float(x), deriv=lambda x: 1.0,
    flags=frozenset({"monotone_increasing", "convex", "concave"}),
)
SQUARE = FunctionSpec(
    id="square", domain=(-5.0, 5.0), eval=lambda x: float(x * x), deriv=lambda x: 2.0 * x,
    flags=frozenset({"convex"}),
)
LOG1P = FunctionSpec(
    id="log1p", domain=(-0.5, 10.0), eval=lambda x: math.log1p(x), deriv=lambda x: 1.0 / (1.0 + x),
    flags=frozenset({"monotone_increasing", "concave"}),
)
SQRT = FunctionSpec(
    id="sqrt", domain=(0.01, 10.0), eval=math.sqrt, deriv=lambda x: 0.5 / math.sqrt(x),
    flags=frozenset({"monotone_increasing", "concave"}),
)
EXPSQ = FunctionSpec(
    id="exp-sq", domain=(-2.0, 2.0), eval=lambda x: math.exp(x * x), deriv=lambda x: 2.0 * x * math.exp(x * x),
    flags=frozenset({"log_convex", "convex"}),
)
NEG_LOG_WIDE = FunctionSpec(
    id="neg-log-wide", domain=(1e-6, 20.0), eval=lambda x: -math.log(x), deriv=lambda x: -1.0 / x,
    flags=frozenset({"convex", "monotone_decreasing"}),
)


def test_verdict_semantics():
    v = chains.verdict_from_values("demo", [1.0, 2.0, 3.0], 1e-9)
    assert v.ok and v.slacks == [1.0, 1.0] and v.scale == 3.0
    v = chains.verdict_from_values("demo", [1.0, 1.0 - 1e-6], 1e-9)
    assert not v.ok
    # slightly negative slack within tolerance still passes
    v = chains.verdict_from_values("demo", [1.0, 1.0 - 1e-12], 1e-9)
    assert v.ok
    with pytest.raises(NumericError):
        chains.verdict_from_values("demo", [1.0, math.inf], 1e-9)
    d = chains.verdict_from_values("demo", [0.0, 1.0], 1e-9, lambda: {"k": 1}).to_dict()
    assert d["pass"] is True and d["witness"] == {"k": 1}


def _old_verdict(chain_id, values, tol):
    """(ok, min_rel_slack, slacks, scale, values) as the verdict held them
    before its one pass: every slack listed, their ``min`` over the scale."""
    values = [float(v) for v in values]
    slacks = []
    scale = 1.0
    prev = None
    for v in values:
        if not math.isfinite(v):
            raise NumericError(f"{chain_id}: chain produced non-finite values {values!r}")
        if abs(v) > scale:
            scale = abs(v)
        if prev is not None:
            slacks.append(v - prev)
        prev = v
    ok = not slacks or min(slacks) >= -tol * scale
    return ok, (min(slacks) / scale if slacks else 0.0), slacks, scale, values


def _verdict_chains():
    """Value lists at the edges of the one pass, then random ones."""
    yield [0.0, 0.0, -0.0]  # slacks 0.0 then -0.0: min keeps the first
    yield [0.0, -0.0, -0.0]  # -0.0 then 0.0
    yield [1.0, 1.0, 0.0, 0.0]
    yield [-1.5e308, 1.5e308]  # a slack that overflows to inf
    yield [1.5e308, -1.5e308, 1.5e308]  # to -inf, then inf
    yield [0.25, 0.0]  # a two-value chain, as lem-3.7's [excess, 0]
    yield [-1e-17, 0.0]
    yield [0.0, np.float64(0.3) ** 2, np.log(np.float64(7.0))]  # numpy floats, as am-gm's psi/t
    yield [np.float64(2.0)]
    yield []
    rng = np.random.default_rng(11)
    for k in range(3000):
        size = 2 + k % 4
        yield (rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size=size)).tolist()


@pytest.mark.parametrize("tol", [1e-9, 0.0, -1.0, 0.5])
def test_one_pass_verdict_is_the_old_loop_bitwise(tol):
    for values in _verdict_chains():
        ok, rel, slacks, scale, floats = _old_verdict("demo", values, tol)
        v = chains.verdict_from_values("demo", values, tol, lambda: {"k": 1})
        assert (v.ok, repr(v.min_rel_slack), repr(v.slacks), repr(v.scale)) == (ok, repr(rel), repr(slacks), repr(scale)), values
        assert repr(v.to_dict()) == repr({"chain_id": "demo", "values": floats, "slacks": slacks, "pass": ok, "tol": tol, "witness": {"k": 1}})
        assert all(type(x) is float for x in v.values + v.slacks)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_one_pass_verdict_refuses_as_the_old_loop(bad):
    for values in ([bad, 1.0], [1.0, np.float64(2.0), bad], [bad]):
        with pytest.raises(NumericError) as old:
            _old_verdict("lem-3.4", values, 1e-9)
        with pytest.raises(NumericError) as new:
            chains.verdict_from_values("lem-3.4", values, 1e-9)
        assert str(new.value) == str(old.value)


def test_young_ratio_chain_cases():
    v = chains.young_ratio_chain(3.0, 3.0, 0.4, 5)
    assert v.ok and v.values == pytest.approx([0.0, 0.0, 0.0])
    v = chains.young_ratio_chain(1.0, 4.0, 0.5, 1)
    assert v.ok
    assert v.witness["lower"] == pytest.approx(math.exp(0.2), rel=1e-14)
    assert v.witness["upper"] == pytest.approx(math.exp(0.25), rel=1e-14)
    # extreme spread at n = 1 overflows the direct upper bound but the
    # log-space chain stays verifiable
    v = chains.young_ratio_chain(1e-3, 1e3, 0.0724, 1)
    assert v.ok and math.isinf(v.witness["upper"])
    # the mean ratio itself overflows (1e99 / 1e-260): refused by name
    with pytest.raises(DomainError, match="^prop-2.1's mean ratio must be positive and finite, got inf$"):
        chains.young_ratio_chain(1e-300, 1e100, 0.1, 3)


def test_minmax_square_examples():
    v = chains.check_minmax_square(IDENT, 0.0, 1.0)
    assert v.ok and v.values == pytest.approx([1.0, 1.0, 1.0])
    v = chains.check_minmax_square(SQUARE, 0.0, 1.0)
    assert v.ok and v.values == pytest.approx([1.0, 1.0, 1.0])
    v = chains.check_minmax_square(LOG1P, 0.0, 3.0)
    # frozen from a high-precision evaluation of (log 4)**2 / 3
    assert v.values == pytest.approx([0.6406040185576019, 1.3862943611198906, 3.0], rel=1e-14)
    assert v.ok
    with pytest.raises(ValueError):
        chains.check_minmax_square(IDENT, 1.0, 1.0)


def test_minmax_power_examples():
    v = chains.check_minmax_power(IDENT, 0.0, 2.0, 2.0, 0.0)
    assert v.ok and v.values == pytest.approx([2.0, 2.0, 2.0])
    v = chains.check_minmax_power(REGISTRY["exp"], 0.011, 1.011, 2.0, 0.0)
    assert v.ok
    v = chains.check_minmax_power(SQRT, 1.0, 4.0, 3.0, 0.5)
    assert v.ok
    with pytest.raises(ValueError):
        chains.check_minmax_power(SQRT, 1.0, 4.0, 0.5, 0.5)  # p < 1
    flat = FunctionSpec(
        id="flat", domain=(-5.0, 5.0), eval=lambda x: 1.0, deriv=lambda x: 0.0,
        flags=frozenset({"monotone_increasing"}),
    )
    # zero increment only admissible at (p, q) == (2, 0)
    assert chains.check_minmax_power(flat, 0.0, 1.0, 2.0, 0.0).ok
    with pytest.raises(ValueError):
        chains.check_minmax_power(flat, 0.0, 1.0, 3.0, 0.5)
    # non-monotone function rejected
    with pytest.raises(ValueError):
        chains.check_minmax_power(SQUARE, -1.0, 1.0, 2.0, 0.0)


def test_minmax_power_exp_frozen():
    v = chains.check_minmax_power(REGISTRY["exp"], 0.011, 1.011, 2.0, 0.0)
    diff = math.exp(1.011) - math.exp(0.011)
    assert v.values[1] == pytest.approx(diff, rel=1e-14)
    assert v.values[0] == pytest.approx(min(diff * diff, 1.0), rel=1e-14)


def test_jensen_refinement_examples():
    v = chains.jensen_refinement(NEG_LOG_WIDE, [0.5, 0.5], [3.0, 3.0], 1.0)
    assert v.ok and v.witness["psi"] == pytest.approx(0.0, abs=1e-15)
    assert v.values == pytest.approx([-math.log(3.0), -math.log(3.0)])
    v = chains.jensen_refinement(NEG_LOG_WIDE, [0.5, 0.5], [1.0, 4.0], 1.0)
    # frozen from a high-precision oracle
    assert v.values[0] == pytest.approx(-0.8664976873810377, rel=1e-13)
    assert v.values[1] == pytest.approx(-math.log(2.0), rel=1e-14)
    assert v.ok
    with pytest.raises(ValueError):
        chains.jensen_refinement(NEG_LOG_WIDE, [0.6, 0.5], [1.0, 4.0], 1.0)
    with pytest.raises(ValueError):
        chains.jensen_refinement(LOG1P, [1.0], [1.0], 0.5)  # not convex


def test_jensen_refinement_randomized():
    rng = np.random.default_rng(23)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        w = rng.exponential(size=k)
        w = list(w / w.sum())
        x = list(np.exp(rng.uniform(-2, 2, k)))
        t = float(rng.uniform(1e-3, 1.0))
        v = chains.jensen_refinement(NEG_LOG_WIDE, w, x, t)
        assert v.ok
        assert v.witness["psi"] >= 0.0


def test_am_gm_refinement():
    rng = np.random.default_rng(29)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        w = rng.exponential(size=k)
        w = list(w / w.sum())
        x = list(np.exp(rng.uniform(0.0, 3.0, k)))
        v = chains.am_gm_refinement(w, x, float(rng.uniform(1e-3, 1.0)))
        assert v.ok and len(v.values) == 4
    # below 1 the raw-gap link is dropped but the log-gap chain still holds
    v = chains.am_gm_refinement([0.5, 0.5], [0.37320508, 0.02679492], 1.0)
    assert v.ok and len(v.values) == 3


def test_logconvex_chain_examples():
    v = chains.logconvex_chain(EXPSQ, 0.0, 1.0, "convex")
    assert v.ok and v.values == pytest.approx([1.0, math.e, math.e**2], rel=1e-14)
    v = chains.logconvex_chain(REGISTRY["inv-pow-1"], 1.0, 2.0, "convex")
    assert v.values == pytest.approx([math.exp(-1.0), 0.5, math.exp(-0.5)], rel=1e-14)
    v = chains.logconvex_chain(EXPSQ, 0.7, 0.7, "convex")
    assert v.values == pytest.approx([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        chains.logconvex_chain(EXPSQ, 0.0, 1.0, "concave")


def test_logconcave_chain_reproduces_entropy_bound_form():
    # with f = log and s = e the chain reproduces the scalar bounds
    # exp((t-e)/(t log t)) <= log t <= exp((t-e)/e), frozen at t = 2
    log_spec = REGISTRY["log"]
    v = chains.logconvex_chain(log_spec, math.e - 1e-12, 2.0, "concave")
    assert v.ok
    assert v.values[0] == pytest.approx(0.5956328555321720, rel=1e-11)
    assert v.values[1] == pytest.approx(math.log(2.0), rel=1e-11)
    assert v.values[2] == pytest.approx(0.7677883899984204, rel=1e-11)


def test_logconvex_chain_any_argument_order():
    rng = np.random.default_rng(31)
    for _ in range(200):
        f = REGISTRY["exp-pow-2"]
        lo, hi = f.domain
        s, t = lo + (hi - lo) * rng.uniform(0.05, 0.95, 2)
        assert chains.logconvex_chain(f, float(s), float(t), "convex").ok


def test_geomconvex_chain_examples():
    v = chains.geomconvex_chain(power(3.0), 1.0, 2.0)
    assert v.ok and v.values == pytest.approx([8.0, 8.0, 8.0], rel=1e-14)
    v = chains.geomconvex_chain(REGISTRY["exp"], 1.0, 2.0)
    assert v.values == pytest.approx([2.0, math.e, 4.0], rel=1e-14)
    v = chains.geomconvex_chain(REGISTRY["exp"], 1.3, 1.3)
    assert v.values == pytest.approx([1.0, 1.0, 1.0])


def test_geom_interpolation_examples():
    v = chains.geom_interpolation_chain(power(2.0), 1.0, 3.0, 0.4)
    assert v.ok and v.values == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)
    v = chains.geom_interpolation_chain(REGISTRY["exp"], 1.0, 2.0, 1.0)
    assert v.ok
    v = chains.geom_interpolation_chain(REGISTRY["exp"], 1.0, 2.0, 0.0)
    assert v.values == pytest.approx([1.0, 1.0, 1.0])
    rng = np.random.default_rng(37)
    for _ in range(300):
        g = REGISTRY["inv-sin"]
        lo, hi = g.domain
        a, b = lo + (hi - lo) * rng.uniform(0.05, 0.95, 2)
        assert chains.geom_interpolation_chain(g, float(a), float(b), float(rng.uniform())).ok


def test_geom_interpolation_reads_g_three_times_and_g_prime_twice():
    # g at a, b and the interpolant serve the ratio and both log-derivatives
    calls = collections.Counter()
    g = REGISTRY["exp"]

    def counted(name):
        return lambda x: calls.update([name]) or getattr(g, name)(x)

    v = chains.geom_interpolation_chain(dataclasses.replace(g, eval=counted("eval"), deriv=counted("deriv")), 1.0, 2.0, 0.3)
    assert calls == {"eval": 3, "deriv": 2}
    witness = v.to_dict()["witness"]
    assert witness["G0"] == geom_log_derivative(g, 1.0, 2.0, 0.0)
    assert witness["Gt"] == geom_log_derivative(g, 1.0, 2.0, 0.3)


def test_jensen_exponential_bounds_examples():
    f = REGISTRY["inv-pow-1"]
    v = chains.jensen_exponential_bounds(f, [1.0], [1.7], "log_convex")
    assert v.values == pytest.approx([f.eval(1.7)] * 3, rel=1e-14)
    v = chains.jensen_exponential_bounds(f, [0.5, 0.5], [1.0, 2.0], "log_convex")
    # frozen: cosh(1/3)*(2/3) and ((e**0.5 + e**-0.25)/2)*(2/3)
    assert v.values[0] == pytest.approx(0.7040479118866263, rel=1e-13)
    assert v.values[1] == pytest.approx(0.75, rel=1e-14)
    assert v.values[2] == pytest.approx(0.8091740179238443, rel=1e-13)
    assert v.ok
    v = chains.jensen_exponential_bounds(REGISTRY["exp"], [0.5, 0.5], [1.0, 3.0], "geometrically_convex")
    assert v.ok
    with pytest.raises(ValueError):
        chains.jensen_exponential_bounds(REGISTRY["log"], [1.0], [2.0], "log_convex")


def test_derived_logconvexity_examples():
    f = quad_exponential(1.0, 0.0)
    v = chains.derived_logconvexity_check(f, 0.3, 0.3)
    assert v.ok and v.values[0] == pytest.approx(0.0, abs=1e-14)
    g = geometric_interpolant(1.0, 4.0)
    v = chains.derived_logconvexity_check(g, 0.0, 1.0)
    assert v.ok and abs(v.witness["h_gap"]) <= 1e-12  # h is identically 1 here
    v = chains.derived_logconvexity_check(f, 0.0, 1.0)
    assert v.ok
    rng = np.random.default_rng(41)
    for _ in range(200):
        spec = quad_exponential(float(rng.uniform(0, 3)), float(rng.uniform(-1, 1)))
        assert chains.derived_logconvexity_check(spec, float(rng.uniform()), float(rng.uniform())).ok


def test_young_refinement_examples():
    v = chains.young_refinement_chain(2.0, 2.0, 0.3)
    assert v.values == pytest.approx([0.0, 0.0, 0.0])
    assert v.witness["lower"] == pytest.approx(1.0)
    assert v.witness["upper"] == pytest.approx(1.0)
    v = chains.young_refinement_chain(4.0, 1.0, 0.25)
    assert v.ok and v.witness["refinement_regime"] is True
    assert v.witness["reversed_lower"] >= 1.0
    v = chains.young_refinement_chain(1.0, 4.0, 0.5)
    assert v.ok and v.witness["refinement_regime"] is False
    assert v.witness["phi"] == pytest.approx(-0.186294, abs=1e-6)
    # extreme spread: the multiplicative upper factor leaves float range but
    # the log-space chain stays verifiable
    v = chains.young_refinement_chain(151.7582639263683, 0.004828583485025447, 0.999174176436832)
    assert v.ok and math.isinf(v.witness["upper"])
    # b/a overflows or underflows: refused by name before any log, and not
    # decided as a non-finite chain (a failure when fuzzed)
    with pytest.raises(DomainError, match="^cor-3.8's b/a must be positive and finite, got inf$"):
        chains.young_refinement_chain(1e-200, 1e200, 0.5)
    with pytest.raises(DomainError, match="^cor-3.8's b/a must be positive and finite, got 0.0$"):
        chains.young_refinement_chain(1e300, 1e-300, 0.5)


def test_tsallis_scalar_examples():
    v = chains.tsallis_scalar_chain(1.0, 0.3, 0.9)
    assert v.ok and v.values == pytest.approx([0.0, 0.0, 0.0])
    v = chains.tsallis_scalar_chain(2.0, 0.7, 0.7)
    assert v.ok and v.values[0] == pytest.approx(v.values[2], rel=1e-14)
    v = chains.tsallis_scalar_chain(2.0, 0.5, 1.0)
    assert v.ok and v.values[1] == pytest.approx(1.0, rel=1e-14)  # deformed log at t=1 is x-1
    with pytest.raises(DomainError):
        chains.tsallis_scalar_chain(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        chains.tsallis_scalar_chain(2.0, 0.0, 1.0)


def _old_tsallis_values(x, s, t):
    """lem-3.4's values as computed before its guard: every kernel call
    under ``np.errstate``; the refusal's text where one leaves float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        ls, lt = scalar.deformed_log(s, x), scalar.deformed_log(t, x)
        rates = scalar.eta(x, s) * (t - s), scalar.eta(x, t) * (t - s)
    try:
        values = [math.exp(rates[0]) * ls, lt, math.exp(rates[1]) * ls]
    except OverflowError:
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        return f"lem-3.4's values must be within float range, got x={x!r}, s={s!r}, t={t!r}"
    return values


def test_tsallis_scalar_enters_errstate_only_where_a_value_can_overflow():
    rng = np.random.default_rng(31)
    cases = [(float(x), float(s), float(t)) for x, s, t in zip(np.exp(rng.uniform(0.0, 7.0, 500)), *rng.uniform(0.05, 3.0, (2, 500)))]
    # max(s, t) log x on either side of the guard at 709 and of 709.78
    for e in np.linspace(700.0, 720.0, 81):  # with an x of at most e**(720 / 1.02)
        s, t = rng.uniform(0.05, 3.0), rng.uniform(1.02, 3.0)
        cases += [(math.exp(e / t), s, t), (math.exp(e / t), t, s), (math.exp(e / t), t, t)]
    cases += [(1e300, 3.0, 0.05), (1e300, 0.05, 3.0), (math.exp(709.0), 1.0, 1.0), (math.exp(709.7), 1.0, 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, s, t in cases:
            try:
                got = chains.tsallis_scalar_chain(x, s, t).values
            except ValueError as exc:
                got = str(exc)
            old = _old_tsallis_values(x, s, t)
            assert repr(got) == repr(old), (x, s, t)


def _old_am_gm_values(w, x, t):
    """cor-2.4-am-gm's values with the two products as ``np.prod`` took them."""
    w, x = chains._weighted(w, x)
    arith = sum(wi * xi for wi, xi in zip(w, x))
    geom = float(np.prod([xi**wi for wi, xi in zip(w, x)]))
    gmix = float(np.prod([(t * xi + (1.0 - t) * arith) ** wi for wi, xi in zip(w, x)]))
    psi = min(np.log(arith / gmix) ** 2, t * t)
    values = [0.0, psi / t, float(np.log(arith / geom))]
    if min(x) >= 1.0:
        values.append(arith - geom)
    return [float(v) for v in values], geom


def test_products_are_numpy_prod_bitwise():
    rng = np.random.default_rng(37)
    for k in range(20000):
        factors = (np.exp(rng.normal(size=1 + k % 40) * 10.0 ** rng.integers(-2, 2))).tolist()
        assert repr(chains._prod(factors)) == repr(float(np.prod(factors))), factors
    for k in range(3000):
        size = 1 + k % 9
        w = rng.exponential(size=size)
        w = (w / w.sum()).tolist()
        x = np.exp(rng.uniform(-3.0, 4.0, size)).tolist()
        t = float(rng.uniform(1e-3, 1.0))
        v = chains.am_gm_refinement(w, x, t)
        values, geom = _old_am_gm_values(w, x, t)
        assert (repr(v.values), repr(v.witness["geom"])) == (repr(values), repr(geom)), (w, x, t)


def _form_min(f, g, a, b, points=4097) -> float:
    """Least value of the bilinear form F = (f(b)-f(a)) g - (g(b)-g(a)) f on
    a dense grid of [a, b]: the test's oracle for the form the gate certifies."""
    xs = np.linspace(a, b, points)
    fs, gs = f.eval(xs), g.eval(xs)
    return float(((fs[-1] - fs[0]) * gs - (gs[-1] - gs[0]) * fs).min())


def test_two_function_gate_rejects_chord_pair():
    # log against its own chord on [1, e]: the admissibility conditions
    # cannot hold (the ratio term is unbounded because min g = 0) and the
    # bilinear form dips negative
    f = REGISTRY["log-wide"]
    g = linear(1.0 / (math.e - 1.0), -1.0 / (math.e - 1.0))
    gate = chains.two_function_gate(f, g, 1.0001, math.e)
    assert not gate.conditions_hold
    assert not gate.checks["increment_condition"]
    assert gate.m_ratio > 1e3  # min g is nearly zero at the left endpoint
    form_min = _form_min(f, g, 1.0001, math.e)
    assert form_min == pytest.approx(-0.1233015614822445, abs=1e-3)
    assert form_min < -0.12


def test_two_function_gate_rejects_equal_strictly_monotone():
    f = REGISTRY["log-wide"]
    gate = chains.two_function_gate(f, f, 1.5, 3.0)
    assert not gate.conditions_hold


def test_two_function_gate_accepts_constructed_family_and_implication():
    from oel.harness import gen_two_function_family, trial_rng

    for trial in range(100):
        rng = trial_rng(99, trial)
        f, g, a, b = gen_two_function_family(rng)
        gate = chains.two_function_gate(f, g, a, b)
        assert gate.conditions_hold
        assert _form_min(f, g, a, b) >= -1e-9  # gate passing implies the form is nonnegative


def test_two_function_gate_registry_pair():
    f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    gate = chains.two_function_gate(f, g, 1.5, 4.0)
    assert gate.conditions_hold and _form_min(f, g, 1.5, 4.0) >= 0.0


def test_two_function_gate_reads_shape_from_the_declared_flags():
    # sin increases on [0.1, 1.4], but its flags do not declare it, so the
    # gate does not take it as increasing; every check is a plain bool
    gate = chains.two_function_gate(REGISTRY["sin"], REGISTRY["lin-0.04-0.12"], 0.1, 1.4)
    assert gate.checks["f_increasing"] is False and gate.checks["f_concave"] is True
    assert not gate.conditions_hold
    assert all(type(v) is bool for v in gate.checks.values())


def test_jensen_proof_step_monotone():
    # the segment average sum(w_i f(t x_i + (1-t) mean)) grows with t for
    # convex f: finite-difference check on random instances
    rng = np.random.default_rng(47)
    f = NEG_LOG_WIDE
    for _ in range(200):
        k = int(rng.integers(2, 5))
        w = rng.exponential(size=k)
        w = w / w.sum()
        x = np.exp(rng.uniform(-1.5, 1.5, k))
        mean = float(w @ x)
        t1, t2 = np.sort(rng.uniform(0, 1, 2))
        g = lambda t: float(sum(wi * f.eval(t * xi + (1 - t) * mean) for wi, xi in zip(w, x)))
        assert g(t2) >= g(t1) - 1e-12


def test_decreasing_geomconvex_implies_convex_chain():
    # 1/sin is decreasing and geometrically convex, so the four-step
    # comparison through both mean orders holds pointwise
    rng = np.random.default_rng(53)
    f = REGISTRY["inv-sin"]
    lo, hi = f.domain
    for _ in range(400):
        x, y = lo + (hi - lo) * rng.uniform(0.02, 0.98, 2)
        t = float(rng.uniform())
        arith = (1 - t) * x + t * y
        geom = x ** (1 - t) * y**t
        v1 = f.eval(arith)
        v2 = f.eval(geom)
        v3 = f.eval(x) ** (1 - t) * f.eval(y) ** t
        v4 = (1 - t) * f.eval(x) + t * f.eval(y)
        scale = max(1.0, v4)
        assert v1 <= v2 + 1e-9 * scale
        assert v2 <= v3 + 1e-9 * scale
        assert v3 <= v4 + 1e-9 * scale


def _counted(d):
    """``d``, counting its calls in ``calls``."""
    def counted(x):
        counted.calls += 1
        return d(x)

    counted.calls = 0
    return counted


def _root_brackets(seed: int, count: int):
    """(d, lo, hi) with d(lo) < 0 < d(hi), d increasing on floats near its
    sign change: expectation mode's d for f = log-wide and a drawn linear g,
    whose root is the logarithmic mean of [a, b], and exp(x) - exp(c) at a
    |c| >= 1, where exp takes a new value at each float."""
    from oel.harness import gen_two_function_family, trial_rng

    rng = np.random.default_rng(seed)
    for trial in range(count):
        f, g, a, b = gen_two_function_family(trial_rng(seed, trial))
        df, dg = f.eval(b) - f.eval(a), g.eval(b) - g.eval(a)
        s, x0 = dg / (b - a), (b - a) / df
        yield (lambda x, df=df, dg=dg, s=s, a=a, b=b, f=f: df * s - dg * f.deriv(min(max(x, a), b))), \
            float(rng.uniform(a, x0)), float(rng.uniform(x0, b))
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 20.0))
        yield (lambda x, c=c: math.exp(x) - math.exp(c)), c - float(rng.uniform(1e-9, 2.0)), c + float(rng.uniform(1e-9, 2.0))


def test_root_is_the_bisection_float_in_few_evaluations():
    # for a d nondecreasing on floats, Illinois steps reach the float that
    # 50-odd halvings find, in at most 16 evaluations
    brackets = 0
    for d, lo, hi in _root_brackets(29, 1000):
        assert d(lo) < 0.0 < d(hi)
        counted = _counted(d)
        assert chains._root(counted, lo, hi) == chains._bisect(d, lo, hi), (lo, hi)
        assert counted.calls <= 16, (lo, hi, counted.calls)
        brackets += 1
    assert brackets == 2000


def test_root_gallops_off_a_stretch_where_d_is_zero():
    # exp(x) - exp(c) at |c| < 1 is 0 on a stretch of floats about c (the
    # smaller |c|, the longer: ulp(c) is far below ulp(exp(c))), where every
    # secant ends on hi: runs of ever longer steps leave it, and the float
    # is still _bisect's, in fewer evaluations
    rng = np.random.default_rng(37)
    for _ in range(500):
        c = float(rng.uniform(-1.0, 1.0))
        d = lambda x, c=c: math.exp(x) - math.exp(c)
        lo, hi = c - float(rng.uniform(1e-9, 2.0)), c + float(rng.uniform(1e-9, 2.0))
        counted, halved = _counted(d), _counted(d)
        assert chains._root(counted, lo, hi) == chains._bisect(halved, lo, hi), (lo, hi)
        assert counted.calls <= 48 and counted.calls < halved.calls, (lo, hi, counted.calls, halved.calls)


def _holds_root_contract(d, x, lo, hi) -> bool:
    """d(x) < 0 and d at the next float up is not negative (NaN is not)."""
    return lo <= x < hi and d(x) < 0.0 and not d(math.nextafter(x, hi)) < 0.0


def test_root_keeps_its_contract_for_any_d():
    # a d that wiggles across 0 near its sign change, one that is NaN on a
    # band above it, and one that is NaN inside the whole bracket
    rng = np.random.default_rng(31)
    for _ in range(300):
        r = float(rng.uniform(-5.0, 5.0))
        lo, hi = r - float(rng.uniform(1e-6, 5.0)), r + float(rng.uniform(1e-6, 5.0))
        wiggly = lambda x: (x - r) + 1e-7 * math.sin(1e9 * x)
        band = lambda x: -1.0 if x < r else math.nan if x < r + 1e-3 else 1.0
        for d in (wiggly, band):
            if d(lo) < 0.0 < d(hi):
                x = chains._root(d, lo, hi)
                assert _holds_root_contract(d, x, lo, hi), (lo, hi, x)
    ends_only = lambda x: -1.0 if x == 1.0 else 1.0 if x == 2.0 else math.nan
    x = chains._root(ends_only, 1.0, 2.0)
    assert x == 1.0 and _holds_root_contract(ends_only, x, 1.0, 2.0)


def test_fuzz_all_finds_each_expectation_root_in_few_derivative_calls(monkeypatch):
    # every root of phi' in expectation mode, over one block of 8 trials per
    # n = 2..8, takes at most 12 scalar calls of f' (50-odd by bisection)
    from oel import entropy, funcs, harness

    log_wide, root = funcs.REGISTRY["log-wide"], entropy._root
    calls = collections.Counter()

    def deriv(x):
        calls["scalar f'"] += not isinstance(x, np.ndarray)
        return log_wide.deriv(x)

    def counted_root(d, lo, hi):
        calls["_root"] += 1
        return root(d, lo, hi)

    monkeypatch.setitem(funcs.REGISTRY, "log-wide", dataclasses.replace(log_wide, deriv=deriv))
    monkeypatch.setattr(entropy, "_root", counted_root)
    for i, n in enumerate(range(2, 9)):
        harness.fuzz_all(harness.GeneratorConfig(seed=100_000 + i, trials=8, dim_range=(n, n)))
    assert calls["_root"] >= 5
    assert calls["scalar f'"] <= 12 * calls["_root"], calls
