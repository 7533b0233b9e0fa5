import collections
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from oel import chains, entropy, funcs, linalg, scalar
from oel.errors import DomainError, NumericError
from oel.funcs import REGISTRY, FunctionSpec
from oel.harness import CHAINS, GeneratorConfig, fuzz_chain, trial_rng
from test_linalg import loewner_compare, relative_spectrum_bounds


def commuting_pair(rng, n, lo=-1.5, hi=1.5):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    la = np.exp(rng.uniform(lo, hi, n))
    lb = np.exp(rng.uniform(lo, hi, n))
    return (q * la) @ q.T, (q * lb) @ q.T, q, la, lb


def test_relative_entropy_examples():
    A = np.diag([2.0, 3.0])
    assert np.abs(entropy.relative_entropy(A, A)).max() <= 1e-12
    out = entropy.relative_entropy(np.eye(2), np.diag([2.0, 3.0]))
    assert np.allclose(out, np.diag([math.log(2.0), math.log(3.0)]), atol=1e-12)


def test_relative_entropy_commuting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        A, B, q, la, lb = commuting_pair(rng, n)
        out = entropy.relative_entropy(A, B)
        oracle = (q * (la * np.log(lb / la))) @ q.T
        assert np.abs(out - oracle).max() <= 1e-10 * (1.0 + np.abs(oracle).max())


def test_tsallis_entropy_examples():
    A = np.diag([1.5, 0.5])
    B = np.diag([2.0, 1.0])
    T1 = entropy.tsallis_entropy(A, B, 1.0)
    assert np.abs(T1 - (B - A)).max() <= 1e-12
    out = entropy.tsallis_entropy(np.eye(2), np.diag([4.0, 9.0]), 0.5)
    assert np.allclose(out, np.diag([2.0, 4.0]), atol=1e-12)


def test_generalized_entropy_examples():
    A = np.diag([2.0, 5.0])
    S0 = entropy.generalized_entropy(np.eye(2), A, 0.0)
    assert np.allclose(S0, entropy.relative_entropy(np.eye(2), A), atol=1e-12)
    out = entropy.generalized_entropy(np.eye(2), np.diag([math.e, math.e**2]), 1.0)
    assert np.allclose(out, np.diag([math.e, 2.0 * math.e**2]), atol=1e-10)


def test_entropy_limits_to_relative_entropy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        M = rng.normal(size=(n, n))
        A = (M + M.T) / 2 + np.eye(n) * 4.0
        M = rng.normal(size=(n, n))
        B = (M + M.T) / 2 + np.eye(n) * 4.0
        S = entropy.relative_entropy(A, B)
        bound = 1e-4 * (1.0 + np.abs(S).max())
        assert np.abs(entropy.tsallis_entropy(A, B, 1e-6) - S).max() <= bound
        assert np.abs(entropy.generalized_entropy(A, B, 1e-6) - S).max() <= bound


def test_entropy_homogeneity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A, B, *_ = commuting_pair(rng, n)
        c = float(np.exp(rng.uniform(-2, 2)))
        S = entropy.relative_entropy(A, B)
        Sc = entropy.relative_entropy(c * A, c * B)
        assert np.abs(Sc - c * S).max() <= 1e-10 * (1.0 + np.abs(c * S).max())


def test_tsallis_monotone_in_deformation_on_commuting_pairs():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A, B, *_ = commuting_pair(rng, n)
        t1, t2 = np.sort(rng.uniform(-1.5, 1.5, 2))
        v = loewner_compare(entropy.tsallis_entropy(A, B, t1), entropy.tsallis_entropy(A, B, t2), 1e-9)
        assert v.holds


def test_congruence_covariance_diagonal_scaling():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        la = np.exp(rng.uniform(-1, 1, n))
        lb = np.exp(rng.uniform(-1, 1, n))
        d = np.exp(rng.uniform(-1, 1, n))
        A, B = np.diag(la), np.diag(lb)
        D = np.diag(d)
        S = entropy.relative_entropy(D @ A @ D, D @ B @ D)
        oracle = np.diag(d * d * la * np.log(lb / la))
        assert np.abs(S - oracle).max() <= 1e-10 * (1.0 + np.abs(oracle).max())


def test_zou_chain():
    A = np.diag([1.2, 0.7])
    v = entropy.check_zou_chain(A, A, 0.5)
    assert v.ok and all(np.abs(link).max() <= 1e-10 for link in v.links)
    v = entropy.check_zou_chain(np.eye(2), np.diag([2.0, 0.5]), 0.5)
    assert v.ok and len(v.links) == 5
    with pytest.raises(ValueError):
        entropy.check_zou_chain(A, A, 0.0)
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        A, B, *_ = commuting_pair(rng, n)
        assert entropy.check_zou_chain(A, B, float(rng.uniform(0.01, 1.0))).ok


def test_refined_st_cases():
    v = entropy.check_refined_ST(np.diag([2.0, 1.0]), np.diag([2.0, 1.0]), 0.5)
    assert v.ok and v.regime["case"] == "straddles-1"
    assert v.regime["additive_term"] == 0.0
    v = entropy.check_refined_ST(np.eye(2), np.diag([2.0, 4.0]), 0.5)
    assert v.ok and v.regime["case"] == "m-above-1"
    assert v.regime["additive_term"] == pytest.approx(scalar.theta(0.5, 2.0) / 0.5, rel=1e-12)
    v = entropy.check_refined_ST(np.eye(2), 0.25 * np.eye(2), 0.5)
    assert v.ok and v.regime["case"] == "M-below-1"
    assert v.regime["additive_term"] == pytest.approx(scalar.theta(0.5, 0.25) / 0.5, rel=1e-12)


def test_tsallis_relation_cases_and_hypothesis():
    # 1x1 reduces to the scalar chain
    v = entropy.check_tsallis_relation(np.eye(1), np.diag([2.0]), 0.5, 1.0)
    assert v.ok and v.regime["case"] == "t-above-s"
    v = entropy.check_tsallis_relation(np.eye(2), np.diag([2.0, 3.0]), 1.0, 0.25)
    assert v.ok and v.regime["case"] == "s-above-t"
    # equality of the deformation indices collapses the factors
    v = entropy.check_tsallis_relation(np.eye(2), np.diag([2.0, 3.0]), 0.7, 0.7)
    assert v.ok
    # spectrum below 1 is out of regime, not a failure
    v = entropy.check_tsallis_relation(np.eye(2), np.diag([0.5, 2.0]), 0.5, 1.0)
    assert v.status == entropy.STATUS_NOT_APPLICABLE and not v.links
    with pytest.raises(ValueError):
        entropy.check_tsallis_relation(np.eye(2), np.diag([2.0, 3.0]), -0.5, 1.0)


def test_roe_bounds_low_regime_fixture():
    v = entropy.check_roe_bounds(np.eye(2), math.exp(-2.0) * np.eye(2))
    assert v.ok and v.regime["case"] == "below-1-over-e"
    lo = v.links[0][0, 0]
    mid = v.links[1][0, 0]
    hi = v.links[2][0, 0]
    assert lo == pytest.approx(-math.exp((math.e - 1.0) / 2.0), abs=1e-10)
    assert mid == pytest.approx(-2.0, abs=1e-10)
    assert hi == pytest.approx(-math.exp(1.0 - math.exp(-1.0)), abs=1e-10)


def test_roe_bounds_unit_regime():
    v = entropy.check_roe_bounds(np.eye(2), math.e * np.eye(2))
    assert v.ok and v.regime["case"] == "unit-to-e"
    assert v.links[1][0, 0] == pytest.approx(1.0, abs=1e-10)  # lower coefficient exp(0)
    assert v.links[3][0, 0] == pytest.approx(1.0, abs=1e-10)
    v = entropy.check_roe_bounds(np.eye(2), np.diag([1.5, 2.5]))
    assert v.ok
    v = entropy.check_roe_bounds(np.eye(2), np.diag([0.9, 1.5]))
    assert v.status == entropy.STATUS_NOT_APPLICABLE


def test_troe_linear_bound_directions():
    # degenerate relative spectrum: secant undefined
    v = entropy.check_troe_linear_bound(np.eye(2), 3.0 * np.eye(2), 0.5)
    assert v.status == entropy.STATUS_NOT_APPLICABLE
    v = entropy.check_troe_linear_bound(np.eye(2), np.diag([1.0, 3.0]), 0.5)
    assert v.ok and v.regime["direction"] == "secant-below" and len(v.links) == 3
    v = entropy.check_troe_linear_bound(np.eye(2), np.diag([1.0, 3.0]), 2.0)
    assert v.ok and v.regime["direction"] == "secant-above"
    v = entropy.check_troe_linear_bound(np.eye(2), np.diag([0.5, 3.0]), 0.5)
    assert v.status == entropy.STATUS_NOT_APPLICABLE
    with pytest.raises(ValueError):
        entropy.check_troe_linear_bound(np.eye(2), np.diag([1.0, 3.0]), 0.0)
    # interior eigenvalue: the entropy strictly dominates the secant for t < 1
    v = entropy.check_troe_linear_bound(np.eye(3), np.diag([1.0, 2.0, 4.0]), 0.5)
    assert v.ok
    gap = v.links[1] - v.links[0]
    assert linalg._eig(linalg.as_symmetric(gap)).values[-1] > 0.1


def test_ordering_chain():
    A = np.diag([1.0, 2.0])
    v = entropy.check_ordering_S_Tp_Sp(A, A, 1.0)
    assert v.ok and all(np.abs(link).max() <= 1e-12 for link in v.links)
    v = entropy.check_ordering_S_Tp_Sp(np.eye(2), np.diag([2.0, 0.5]), 1.0)
    assert v.ok
    v = entropy.check_ordering_S_Tp_Sp(np.eye(2), np.diag([2.0, 3.0]), -1.0)
    assert v.ok
    with pytest.raises(ValueError):
        entropy.check_ordering_S_Tp_Sp(np.eye(2), np.diag([2.0, 3.0]), 0.0)


def test_two_function_operator_modes():
    f = REGISTRY["log-wide"]
    g = REGISTRY["lin-0.04-0.12"]
    A = np.diag([1.5, 2.0, 4.0])
    v = entropy.check_two_function_operator(f, g, A, mode="expectation", interval=(1.5, 4.0))
    i, j = v.regime["pair"]
    assert v.ok and j - i in (0, 1) and 1.5 <= v.regime["x"] <= 4.0
    assert v.regime["worst_rel_slack"] == v.min_rel_slack
    # congruence mode on a pair with relative spectrum inside the window
    A2 = np.diag([1.0, 2.0])
    B2 = np.diag([1.5, 2.0 * 3.9])
    v = entropy.check_two_function_operator(f, g, A2, B2, mode="congruence", interval=(1.5, 4.0))
    assert v.ok
    # majorize mode with B <= A, both spectra inside the window
    A3 = np.diag([2.0, 4.0])
    B3 = np.diag([1.5, 3.0])
    v = entropy.check_two_function_operator(f, g, A3, B3, mode="majorize", interval=(1.5, 4.0))
    assert v.ok
    # hypothesis failure: B not below A
    v = entropy.check_two_function_operator(f, g, B3, A3, mode="majorize", interval=(1.5, 4.0))
    assert v.status == entropy.STATUS_NOT_APPLICABLE
    # gate failure surfaces as not-applicable
    v = entropy.check_two_function_operator(f, f, A, mode="expectation", interval=(1.5, 4.0))
    assert v.status == entropy.STATUS_NOT_APPLICABLE
    # spectrum escaping the window
    v = entropy.check_two_function_operator(f, g, np.diag([0.5, 2.0]), mode="expectation", interval=(1.5, 4.0))
    assert v.status == entropy.STATUS_NOT_APPLICABLE


def test_two_function_operator_endpoint_equality():
    # spectrum at the window endpoints where f and the secant-scaled g agree
    f = REGISTRY["log-wide"]
    g = REGISTRY["lin-0.04-0.12"]
    A = np.diag([1.5, 4.0])
    v = entropy.check_two_function_operator(f, g, A, A.copy(), mode="majorize", interval=(1.5, 4.0))
    assert v.ok


def test_operator_chain_serialization():
    v = entropy.check_zou_chain(np.eye(2), np.diag([2.0, 3.0]), 0.5)
    d = v.to_dict()
    assert d["chain_id"] == "zou" and d["pass"] is True
    assert len(d["links"]) == 5 and d["links"][0]["n"] == 2
    assert all(isinstance(x["holds"], bool) for x in d["verdicts"])


def _zou_scalar_oracle(lam_rel, t, tol=1e-9):
    """Eigenvalue-wise oracle for commuting pairs: the five-step scalar
    comparison applied to every relative eigenvalue."""
    for x in lam_rel:
        steps = [
            1.0 - 1.0 / x,
            scalar.deformed_log(-t, x),
            math.log(x),
            scalar.deformed_log(t, x),
            x - 1.0,
        ]
        if any(steps[i + 1] - steps[i] < -tol for i in range(4)):
            return False
    return True


def test_commuting_equivalence_scalar_oracle():
    # operator verdicts on simultaneously diagonalizable pairs must agree
    # with the conjunction of per-eigenvalue scalar verdicts
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A, B, q, la, lb = commuting_pair(rng, n)
        t = float(rng.uniform(0.05, 1.0))
        verdict = entropy.check_zou_chain(A, B, t)
        assert verdict.ok == _zou_scalar_oracle(lb / la, t)


def _same_verdict(a, b):
    assert a.status == b.status and a.regime == b.regime
    assert len(a.links) == len(b.links)
    assert all(np.array_equal(x, y) for x, y in zip(a.links, b.links))
    assert [v.to_dict() for v in a.verdicts] == [v.to_dict() for v in b.verdicts]


def test_stack_refusals_leave_other_pairs_unchanged():
    rng = np.random.default_rng(19)
    A, B = [], []
    for _ in range(6):
        a, b, *_ = commuting_pair(rng, 3)
        A.append(a)
        B.append(b)
    p = [0.5, 1.2, -0.7, 0.3, 0.9, -1.1]
    alone = [entropy.check_ordering_S_Tp_Sp(a, b, pi) for a, b, pi in zip(A, B, p)]
    A[1] = np.diag([1.0, -1.0, 2.0])  # not positive-definite
    B[2] = np.full((3, 3), np.nan)  # not finite
    p[3] = 0.0  # parameter refused
    B[4] = np.diag([1e3, 1e3, 1e3]) @ A[4]  # relative spectrum 1e3 ...
    p[4] = 400.0  # ... whose generalized entropy overflows
    A.append(1e-300 * np.eye(3))  # finite and positive-definite, but X = A^-1/2 B A^-1/2 overflows
    B.append(1e300 * np.eye(3))
    p.append(0.5)
    for pi in (math.nan, math.inf, -math.inf):  # refused by name before any arithmetic
        A.append(A[0])
        B.append(B[0])
        p.append(pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither the refusals nor the overflow warn
        (stacked,) = entropy.chain_stacks([("prop-3.10", {"A": A, "B": B, "p": p})], chains.DEFAULT_TOL)
        refusals = {
            1: (ValueError, "A must be positive-definite"),
            2: (ValueError, "matrix entries must be finite"),
            3: (ValueError, "p must be nonzero"),
            4: (NumericError, "prop-3.10: chain link has non-finite entries"),
            6: (ValueError, "B relative to A must be positive-definite: min eigenvalue nan"),
            7: (ValueError, "p must be finite, got nan"),
            8: (ValueError, "p must be finite, got inf"),
            9: (ValueError, "p must be finite, got -inf"),
        }
        for i, (expected, message) in refusals.items():
            with pytest.raises(expected, match=message) as single:
                entropy.check_ordering_S_Tp_Sp(A[i], B[i], p[i])
            assert type(stacked[i]) is type(single.value) and str(stacked[i]) == str(single.value)
    for i in (0, 5):
        _same_verdict(stacked[i], alone[i])


def test_pair_stack_pins_a_case_error_on_its_pair():
    # an error that a chain's case raises for one pair is that pair's
    # outcome, and the other pairs of the stack are decided as they are alone
    chain = entropy.PAIR_CHAINS["thm-3.3"]

    def case(p, regime):
        if p["t"] == 0.25:
            raise DomainError("no case at t = 0.25")
        return chain.case(p, regime)

    A = [np.diag([1.0, 2.0]), np.diag([2.0, 3.0]), np.eye(2)]
    B = [np.diag([1.5, 3.0]), np.diag([5.0, 4.0]), np.diag([0.5, 2.0])]
    t = [0.5, 0.25, 0.75]
    pairs = linalg._Pairs(*linalg._pd_stack(A, ["A"] * 3)[1:], B)
    stacked = entropy.Decided("thm-3.3", 1e-9, 3)
    entropy._settle([(stacked, [0, 1, 2], entropy._pair_stack(dataclasses.replace(chain, case=case), pairs, {"t": t}))], 1e-9)
    error = stacked.errors[1]
    assert isinstance(error, DomainError) and str(error) == "no case at t = 0.25" and stacked[1] is error
    assert stacked.status[1] is None and stacked.rel[1] is None
    for i in (0, 2):
        single = entropy.check_refined_ST(A[i], B[i], t[i])
        assert stacked.errors[i] is None and stacked.status[i] == single.status
        assert repr(stacked.rel[i]) == repr(single.min_rel_slack)
        _same_verdict(stacked[i], single)


def test_settle_takes_the_least_relative_slack_in_link_order():
    # a tie of 0.0 and -0.0, which "%.17g" prints differently, goes to the
    # earlier link, as Python's min over the verdicts' ratios takes it: row
    # 0's slacks are (0.0, -0.0), row 1's (-0.0, 0.0)
    zero = np.zeros((2, 1))
    links = {"a": zero, "b": zero, "c": -zero}
    layouts = [("a", "b", "c"), ("a", "c", "b")]
    decided = entropy.Decided("ties", 1e-9, 2)
    entropy._settle([(decided, [0, 1], (links, layouts, [{}, {}], [None, None], None))], 1e-9)
    assert [repr(rel) for rel in decided.rel] == ["0.0", "-0.0"]
    assert [repr(decided[i].min_rel_slack) for i in range(2)] == ["0.0", "-0.0"]
    assert decided.status == [entropy.STATUS_PASS] * 2


def test_compare_decides_a_stack_of_matrix_links_as_each_link_alone():
    # one eigvalsh of every link of a (L, r, m, m) stack is bitwise the
    # eigvalsh of each link's (r, m, m) differences
    V = linalg.symmetrize(np.random.default_rng(5).normal(size=(4, 3, 5, 5)))
    slack, scale, holds = entropy._compare(V, 1e-9, entropy._peak(V))
    for j in range(3):
        alone = np.linalg.eigvalsh(V[j + 1] - V[j])[:, 0]
        peak = np.maximum(np.abs(V[j]).max(axis=(1, 2)), np.abs(V[j + 1]).max(axis=(1, 2)))
        assert slack[j].tobytes() == alone.tobytes()
        assert scale[j].tobytes() == np.maximum(1.0, peak).tobytes()
        assert holds[j].tolist() == [s >= -1e-9 * c for s, c in zip(alone.tolist(), scale[j].tolist())]


def _spectral_pair(spectrum, seed):
    """A pair whose X = A^-1/2 B A^-1/2 has ``spectrum``, A and X in random
    eigenbases; with no spectrum, a pair whose A is not positive-definite."""
    if spectrum is None:
        return np.diag([1.0, -1.0, 2.0]), np.eye(3)
    rng = np.random.default_rng(seed)
    A = _rotated(rng, np.exp(rng.uniform(-1.0, 1.0, len(spectrum))))
    eig = linalg._eig(A[None])
    root = linalg.eig_apply(eig, np.sqrt)[0]
    B = root @ _rotated(rng, spectrum) @ root
    return A, (B + B.T) / 2.0


INF, NAN = math.inf, math.nan
NO_UNIT = [1.5, 2.0, 3.0]  # m > 1
STRADDLES = [0.5, 1.0, 2.0]
# chain -> (checker, rows of (spectrum of X, or None for a pair whose
# A is not positive-definite; params; the expected case, reason, direction
# or status, or the start of the refusal))
MIXED_STACKS = {
    "zou": (entropy.check_zou_chain, [
        (STRADDLES, {"t": 0.5}, "pass"),
        ([0.2, 3.0, 9.0], {"t": 1.0}, "pass"),
        (None, {"t": 0.5}, "A must be positive-definite"),
        (STRADDLES, {"t": 0.0}, "need 0 < t <= 1, got 0.0"),
        (STRADDLES, {"t": NAN}, "t must be finite, got nan"),
        (STRADDLES, {"t": -INF}, "t must be finite, got -inf"),
    ]),
    "thm-3.3": (entropy.check_refined_ST, [
        ([0.2, 0.5, 0.8], {"t": 0.5}, "M-below-1"),
        (NO_UNIT, {"t": 0.5}, "m-above-1"),
        (STRADDLES, {"t": 0.25}, "straddles-1"),
        (None, {"t": 0.5}, "A must be positive-definite"),
        (NO_UNIT, {"t": 1.5}, "need 0 < t <= 1, got 1.5"),
        (NO_UNIT, {"t": INF}, "t must be finite, got inf"),
    ]),
    "thm-3.5": (entropy.check_tsallis_relation, [
        (STRADDLES, {"s": 0.5, "t": 1.5}, "requires m >= 1"),
        (NO_UNIT, {"s": 0.5, "t": 1.5}, "t-above-s"),
        ([1.0, 1.2, 4.0], {"s": 1.5, "t": 0.5}, "s-above-t"),
        (None, {"s": 0.5, "t": 1.5}, "A must be positive-definite"),
        (NO_UNIT, {"s": -0.5, "t": 1.5}, "need s, t > 0, got s=-0.5, t=1.5"),
        (NO_UNIT, {"s": 0.5, "t": NAN}, "t must be finite, got nan"),
        (NO_UNIT, {"s": 1e300, "t": 0.5}, "thm-3.5: chain link has non-finite entries"),
    ]),
    "thm-3.6": (entropy.check_roe_bounds, [
        ([0.1, 0.2, 0.3], {}, "below-1-over-e"),
        ([1.2, 2.0, 2.5], {}, "unit-to-e"),
        ([1.0, 1.5, 2.0], {}, "unit-to-e"),  # lower coefficient 0
        (STRADDLES, {}, "relative spectrum outside both regimes"),
        (None, {}, "A must be positive-definite"),
    ]),
    "thm-3.11": (entropy.check_troe_linear_bound, [
        (STRADDLES, {"t": 0.5}, "requires m >= 1"),
        ([2.0, 2.0, 2.0], {"t": 0.5}, "secant undefined for m == M"),
        (NO_UNIT, {"t": 0.5}, "secant-below"),
        (NO_UNIT, {"t": 2.0}, "secant-above"),
        ([1.0, 2.0, 4.0], {"t": 0.5}, "secant-below"),  # unit endpoint
        ([1.0, 2.0, 4.0], {"t": -1.0}, "secant-below"),
        ([1.0, 2.0, 4.0], {"t": 2.0}, "secant-above"),
        (None, {"t": 0.5}, "A must be positive-definite"),
        (NO_UNIT, {"t": 0.0}, "t must be nonzero"),
        (NO_UNIT, {"t": -INF}, "t must be finite, got -inf"),
    ]),
    "prop-3.10": (entropy.check_ordering_S_Tp_Sp, [
        (STRADDLES, {"p": 0.5}, "pass"),
        (STRADDLES, {"p": -0.7}, "pass"),
        (None, {"p": 0.5}, "A must be positive-definite"),
        (STRADDLES, {"p": 0.0}, "p must be nonzero"),
        (STRADDLES, {"p": INF}, "p must be finite, got inf"),
        ([1e3, 1e3, 1e3], {"p": 400.0}, "prop-3.10: chain link has non-finite entries"),
    ]),
}
NONE_APPLICABLE = {
    "thm-3.5": [(STRADDLES, {"s": 0.5, "t": 1.5}), ([0.3, 2.0, 3.0], {"s": 2.0, "t": 1.0})],
    "thm-3.6": [(STRADDLES, {}), ([0.2, 0.3, 0.5], {})],
    "thm-3.11": [(STRADDLES, {"t": 0.5}), ([2.0, 2.0, 2.0], {"t": 2.0})],
}


def _stack_and_alone(chain_id, rows):
    """The outcomes of one stack of ``rows`` and of each row's own check."""
    check, _ = MIXED_STACKS[chain_id]
    pairs = [_spectral_pair(spectrum, seed) for seed, (spectrum, *_) in enumerate(rows)]
    A, B = (list(column) for column in zip(*pairs))
    params = {name: [p[name] for _, p, *_ in rows] for name in rows[0][1]}
    (stacked,), alone = entropy.chain_stacks([(chain_id, {"A": A, "B": B, **params})], chains.DEFAULT_TOL), []
    for (a, b), (_, p, *_) in zip(pairs, rows):
        try:
            alone.append(check(a, b, **p))
        except (ValueError, NumericError) as exc:
            alone.append(exc)
    return stacked, alone


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chain_id", MIXED_STACKS)
def test_mixed_stacks_match_each_pair_alone(chain_id):
    # one stack of each pair chain mixing every case, every not-applicable
    # reason, refused parameters and a pair that is not positive-definite:
    # each outcome is the pair's own check, and neither deciding nor
    # lifting a pair warns, whatever the other pairs' parameters
    rows = MIXED_STACKS[chain_id][1]
    stacked, alone = _stack_and_alone(chain_id, rows)
    for i, (outcome, single, (*_, expected)) in enumerate(zip(stacked, alone, rows)):
        if isinstance(single, Exception):
            assert type(outcome) is type(single) and str(outcome) == str(single), i
            assert str(single).startswith(expected), i
            continue
        _same_verdict(outcome, single)
        regime = single.regime
        assert expected == regime.get("case", regime.get("reason", regime.get("direction", single.status))), i
        assert single.applicable == ("reason" not in regime), i
        assert single.status != entropy.STATUS_FAIL, i


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chain_id", NONE_APPLICABLE)
def test_stack_with_no_applicable_pair(chain_id):
    stacked, alone = _stack_and_alone(chain_id, NONE_APPLICABLE[chain_id])
    for outcome, single in zip(stacked, alone):
        assert outcome.status == entropy.STATUS_NOT_APPLICABLE and not outcome.links
        _same_verdict(outcome, single)


@pytest.mark.parametrize("mode, A, B", [
    ("expectation", np.diag([1.5, 2.0, 4.0]), None),
    ("congruence", np.diag([1.0, 2.0]), np.diag([1.5, 7.8])),
    ("majorize", np.diag([2.0, 4.0]), np.diag([1.5, 3.0])),
])
def test_two_function_check_evaluates_f_and_g_once_at_each_endpoint(mode, A, B):
    # the gate hands back f and g at a and b, and the increments and the
    # scale of g's increment are formed from them
    a, b = 1.5, 4.0
    calls = collections.Counter()

    def counted(spec):
        def evaluate(x):
            if np.ndim(x) == 0 and x in (a, b):
                calls[spec.id, float(x)] += 1
            return spec.eval(x)

        return FunctionSpec(spec.id, spec.domain, evaluate, spec.deriv, spec.flags)

    f, g = counted(REGISTRY["log-wide"]), counted(REGISTRY["lin-0.04-0.12"])
    v = entropy.check_two_function_operator(f, g, A, B, mode=mode, interval=(a, b))
    assert v.ok
    assert calls == {(spec.id, x): 1 for spec in (f, g) for x in (a, b)}


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_overflowing_relative_spectrum_is_refused(n):
    # A and B are finite and positive-definite, but X = A^-1/2 B A^-1/2
    # overflows: to inf at n = 1, NaN at n = 2, and a matrix that LAPACK
    # cannot decompose at n >= 3; refused before any numpy warning
    A, B = 1e-300 * np.eye(n), 1e300 * np.eye(n)
    calls = [
        lambda: relative_spectrum_bounds(A, B),
        lambda: entropy.relative_entropy(A, B),
        lambda: entropy.check_zou_chain(A, B, 0.5),
        lambda: entropy.check_roe_bounds(A, B),
    ]
    message = "^B relative to A must be positive-definite: min eigenvalue nan, max nan$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: relative_spectrum_bounds(EMPTY, EMPTY),
        lambda: entropy.relative_entropy(EMPTY, EMPTY),
        lambda: loewner_compare(EMPTY, EMPTY),
        lambda: entropy.check_zou_chain(EMPTY, EMPTY, 0.5),
        lambda: entropy.check_two_function_operator(
            REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"], EMPTY, mode="expectation", interval=(1.5, 4.0)
        ),
    ],
    ids=["relative_spectrum_bounds", "relative_entropy", "loewner_compare", "check_zou_chain", "check_two_function_operator"],
)
def test_empty_matrix_is_refused(call):
    # a 0x0 matrix is square and symmetric, but has no extreme eigenvalue
    with pytest.raises(ValueError, match=r"^expected a non-empty matrix, got shape \(0, 0\)$"):
        call()


@pytest.mark.parametrize("kind", [entropy.tsallis_entropy, entropy.generalized_entropy])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_entropy_refuses_non_finite_index(kind, t):
    # refused before any arithmetic: no NaN matrix and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            kind(np.eye(2), np.diag([2.0, 3.0]), t)


_CI_A = np.array([[2.0, 0.5], [0.5, 1.0]])
_CI_B = np.array([[1.0, -0.3], [-0.3, 3.0]])  # the spectrum of X is about [0.446, 3.725]


@pytest.mark.parametrize(
    "kind, name",
    [(entropy.tsallis_entropy, "Tsallis"), (entropy.generalized_entropy, "generalized")],
)
@pytest.mark.parametrize("t", [800.0, 1e300, -1e300])
def test_entropy_refuses_an_index_it_overflows_at(kind, name, t):
    # a finite t at which fn overflows on the spectrum of X is refused
    # before the lift, naming the entropy and t, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(f"the {name} entropy at t = {t} overflows float range") + "$"):
            kind(_CI_A, _CI_B, t)


def test_entropy_refuses_a_lift_that_overflows():
    # x**t log x stays finite on the spectrum at t = 539.1, but the lift's
    # products do not: refused the same way
    m, M = relative_spectrum_bounds(_CI_A, _CI_B)
    assert all(math.isfinite(x**539.1 * math.log(x)) for x in (m, M))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the generalized entropy at t = 539.1 overflows float range$"):
            entropy.generalized_entropy(_CI_A, _CI_B, 539.1)


def _rotated(rng, lam):
    q, _ = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))
    M = (q * np.asarray(lam, dtype=float)) @ q.T
    return (M + M.T) / 2.0


def _two_function_stack(fn_f, fn_g, a, b, mode, A, B) -> list:
    """thm-2.12's outcomes from one ``chain_stacks`` call on its columns."""
    columns = {"fn_f": fn_f, "fn_g": fn_g, "a": a, "b": b, "mode": mode, "A": A, "B": B}
    (outcomes,) = entropy.chain_stacks([("thm-2.12", columns)], chains.DEFAULT_TOL)
    return outcomes


def test_two_function_stack_outcomes_match_single_trials():
    # one stack mixing the three modes, with refused and out-of-hypothesis
    # trials among valid ones: each outcome is the trial's own evaluation
    f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    rng = np.random.default_rng(29)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    A_maj = _rotated(rng, [2.0, 2.5, 3.5])
    asymmetric = A_maj - 0.1 * np.outer(v, v)
    asymmetric[0, 1] += 1e-3
    trials = [  # (mode, A, B)
        ("expectation", _rotated(rng, [1.6, 2.5, 3.9]), None),
        ("expectation", np.diag([-1.0, 2.0, 3.0]), None),  # A not positive-definite
        ("congruence", np.diag([1.0, 2.0, 0.5]), np.diag([1.6, 7.0, 1.9])),
        ("majorize", A_maj, A_maj - 0.1 * np.outer(v, v)),
        ("majorize", A_maj, asymmetric),  # B not symmetric
        ("majorize", A_maj, A_maj + 0.1 * np.outer(v, v)),  # B <= A fails
        ("expectation", _rotated(rng, [2.0, 2.0, 3.0]), np.eye(3)),  # B ignored
        ("congruence", np.eye(3), None),  # B missing
        ("bogus", np.eye(3), np.eye(3)),
    ]
    modes, A, B = (list(column) for column in zip(*trials))
    k = len(trials)
    stacked = _two_function_stack([f] * k, [g] * k, [1.5] * k, [4.0] * k, modes, A, B)
    statuses = []
    for i, (mode, a, b) in enumerate(trials):
        try:
            alone = entropy.check_two_function_operator(f, g, a, b, mode=mode, interval=(1.5, 4.0))
        except ValueError as exc:
            assert type(stacked[i]) is type(exc) and str(stacked[i]) == str(exc), i
            statuses.append(str(exc).split(":")[0])
            continue
        _same_verdict(stacked[i], alone)
        statuses.append(alone.status)
    assert statuses == [
        "pass", "A must be positive-definite", "pass", "pass", "matrix is not symmetric at (1, 0)",
        "not-applicable", "pass", "mode 'congruence' requires B", "unknown mode 'bogus'",
    ]
    assert stacked[5].regime["reason"] == "hypothesis B <= A fails"


def test_two_function_stack_refusal_order_follows_the_single_trial():
    # with several faults in one trial the first the one-trial evaluation
    # meets is the one reported: every mode that reads B checks the shapes
    # of A and B before either's validity, and reports A's own refusals
    # (entries, then definiteness) before B's
    f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    bad_a = np.array([[2.0, 1.0], [0.0, 2.0]])
    cases = [
        ("congruence", bad_a, np.eye(3), "dimension mismatch"),
        ("majorize", bad_a, np.eye(3), "dimension mismatch"),
        ("majorize", -np.eye(2), np.eye(3), "dimension mismatch"),
        ("majorize", 2.0 * np.eye(2), np.eye(3), "dimension mismatch"),
        ("majorize", 2.0 * np.eye(2), np.pad(bad_a, ((0, 1), (0, 1))), "dimension mismatch"),
        ("majorize", 2.0 * np.eye(2), -np.eye(2), "B must be positive-definite"),
        ("congruence", -np.eye(2), 2.0 * np.eye(2), "A must be positive-definite"),
        ("congruence", -np.eye(2), bad_a, "A must be positive-definite"),
        ("congruence", -np.eye(2), np.full((2, 2), np.nan), "A must be positive-definite"),
        ("congruence", np.eye(2), np.full((2, 2), np.nan), "matrix entries must be finite"),
        ("expectation", np.ones((2, 3)), None, "expected a square matrix"),
        # a B that is not square comes before A's own refusals in majorize
        # and congruence mode, and is not read in expectation mode
        ("majorize", bad_a, np.ones((2, 3)), "expected a square matrix"),
        ("congruence", bad_a, np.ones((2, 3)), "expected a square matrix"),
        ("expectation", -np.eye(2), np.ones((2, 3)), "A must be positive-definite"),
        # a mode that names a pair chain, or is unhashable, is unknown
        ("zou", np.eye(2), np.eye(2), "^unknown mode 'zou'$"),
        (["x"], np.eye(2), np.eye(2), r"^unknown mode \['x'\]$"),
    ]
    for mode, a, b, message in cases:
        with pytest.raises(ValueError, match=message):
            entropy.check_two_function_operator(f, g, a, b, mode=mode, interval=(1.5, 4.0))


def test_a_pair_is_refused_for_its_A_before_its_B():
    # A's own refusals come before any of B's, so a pair whose A is not
    # positive-definite is refused for that whatever is wrong with B
    f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    calls = [
        relative_spectrum_bounds,
        entropy.relative_entropy,
        lambda A, B: entropy.check_zou_chain(A, B, 0.5),
        entropy.check_roe_bounds,
        lambda A, B: entropy.check_two_function_operator(f, g, A, B, mode="congruence", interval=(1.5, 4.0)),
        lambda A, B: entropy.check_two_function_operator(f, g, A, B, mode="majorize", interval=(1.5, 4.0)),
    ]
    for B in (np.array([[2.0, 1.0], [0.0, 2.0]]), np.full((2, 2), np.nan)):
        for call in calls:
            with pytest.raises(ValueError, match="^A must be positive-definite: min eigenvalue -1.0, max -1.0$"):
                call(-np.eye(2), B)


def test_every_route_that_reads_B_refuses_a_B_of_another_shape_before_A():
    # a trial's A and then its B are read before either is validated, so a
    # B whose shape is not A's is a dimension mismatch whatever is wrong
    # with A, on each route that reads B: the six pair chains, congruence
    # mode and majorize mode, stacked or alone; expectation mode does not
    # read B, and refuses such a trial for A
    f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    A, B = [-np.eye(2), np.array([[2.0, 1.0], [0.0, 2.0]])], [np.eye(3)] * 2
    params = {"zou": {"t": 0.5}, "thm-3.3": {"t": 0.5}, "thm-3.5": {"s": 0.5, "t": 1.5}, "thm-3.6": {},
              "thm-3.11": {"t": 0.5}, "prop-3.10": {"p": 0.5}}
    assert params.keys() == entropy.PAIR_CHAINS.keys()
    modes = ["congruence", "majorize", "expectation"]
    two = {"fn_f": [f] * 6, "fn_g": [g] * 6, "a": [1.5] * 6, "b": [4.0] * 6, "mode": [m for m in modes for _ in A]}
    stacks = [(cid, {**{name: [value] * 2 for name, value in p.items()}, "A": A, "B": B}) for cid, p in params.items()]
    stacks.append(("thm-2.12", {**two, "A": A * 3, "B": B * 3}))
    refusals = [error for outcomes in entropy.chain_stacks(stacks, chains.DEFAULT_TOL) for error in outcomes.errors]
    assert all(type(error) is ValueError for error in refusals)
    mismatch = "dimension mismatch: (2, 2) vs (3, 3)"
    assert [str(error) for error in refusals[:-2]] == [mismatch] * (2 * 6 + 4)
    assert str(refusals[-2]).startswith("A must be positive-definite") and str(refusals[-1]).startswith("matrix is not symmetric")
    for a in A:
        for cid, p in params.items():
            with pytest.raises(ValueError, match=re.escape(mismatch)):
                entropy._check(cid, chains.DEFAULT_TOL, A=a, B=B[0], **p)
        for mode in modes[:2]:
            with pytest.raises(ValueError, match=re.escape(mismatch)):
                entropy.check_two_function_operator(f, g, a, B[0], mode=mode, interval=(1.5, 4.0))


FLAT_G = funcs.linear(0.0, 0.1)  # passes the gate with log-wide, but g has no increment


def _two_function_trials(mode) -> list:
    """Trials (f, g, a, b, A, B, expected) of one thm-2.12 mode: one that
    passes, one per not-applicable reason and one per refusal of the mode,
    each with its status, reason or the start of its refusal."""
    rng = np.random.default_rng(43)
    log, lin = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    bump = 0.1 * np.outer(v, v)
    non_finite, asymmetric = np.full((3, 3), np.nan), np.diag([2.0, 3.0, 3.5])
    asymmetric[0, 1] += 1e-3
    if mode == "congruence":
        A, B = _spectral_pair([1.6, 2.5, 3.9], 1)
        escapes = _spectral_pair([0.5, 2.0, 3.0], 2)
    else:  # B <= A, both spectra in [1.5, 4]
        A = _rotated(rng, [2.0, 2.5, 3.5])
        B = A - bump
        escapes = (A - np.eye(3), B) if mode == "expectation" else (A, A - np.eye(3))  # majorize: B escapes
    trials = [
        (log, lin, 1.5, 4.0, A, B, "pass"),
        (log, lin, 1.5, 4.0, *escapes, "spectrum ["),
        (log, log, 1.5, 4.0, A, B, "admissibility gate failed"),
        (log, FLAT_G, 1.5, 4.0, A, B, "pass" if mode == "expectation" else "increment of g too small"),
        (log, lin, 0.5, 4.0, A, B, "[0.5, 4.0] escapes domain"),
        (log, lin, 4.0, 1.5, A, B, "need b > a, got a=4.0, b=1.5"),
        (log, lin, 1.5, 4.0, -A, B, "A must be positive-definite"),
        (log, lin, 1.5, 4.0, non_finite, B, "matrix entries must be finite"),
        (log, lin, 1.5, 4.0, asymmetric, B, "matrix is not symmetric"),
    ]
    if mode == "congruence":
        trials.append((log, lin, 1.5, 4.0, A, -B, "B relative to A must be positive-definite"))
    if mode == "majorize":
        trials.append((log, lin, 1.5, 4.0, A, A + bump, "hypothesis B <= A fails"))
        trials.append((log, lin, 1.5, 4.0, A, -B, "B must be positive-definite"))
    if mode != "expectation":  # expectation mode does not read B
        trials.append((log, lin, 1.5, 4.0, A, non_finite, "matrix entries must be finite"))
        trials.append((log, lin, 1.5, 4.0, A, asymmetric, "matrix is not symmetric"))
    return trials


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", entropy.TWO_FUNCTION_MODES)
def test_two_function_stacks_of_one_mode_match_single_trials(mode):
    # one stack of each mode mixing every not-applicable reason and every
    # refusal: each outcome is the trial's own evaluation, regime keys in
    # the same order; an inverted interval is refused, not not-applicable
    trials = _two_function_trials(mode)
    f, g, a, b, A, B, _ = (list(column) for column in zip(*trials))
    stacked = _two_function_stack(f, g, a, b, [mode] * len(trials), A, B)
    for i, (f_i, g_i, a_i, b_i, A_i, B_i, expected) in enumerate(trials):
        try:
            single = entropy.check_two_function_operator(f_i, g_i, A_i, B_i, mode=mode, interval=(a_i, b_i))
        except ValueError as exc:
            assert type(stacked[i]) is type(exc) and str(stacked[i]) == str(exc), i
            assert str(exc).startswith(expected), i
            assert isinstance(exc, DomainError) == (a_i == 0.5), i
            continue
        _same_verdict(stacked[i], single)
        assert list(stacked[i].regime.items()) == list(single.regime.items()), i
        assert single.regime.get("reason", single.status).startswith(expected), i


def _raises_on_arrays(spec: FunctionSpec) -> FunctionSpec:
    """``spec`` with an evaluator that refuses every array: the gate, which
    reads it at points, passes, and evaluating it on a spectrum raises."""

    def evaluate(x):
        if isinstance(x, np.ndarray) and x.ndim:
            raise DomainError(f"{spec.id} refuses arrays")
        return spec.eval(x)

    return dataclasses.replace(spec, eval=evaluate)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", entropy.TWO_FUNCTION_MODES)
def test_two_function_stack_pins_an_evaluator_error_on_its_trial(mode):
    # an error that f raises on one trial's spectrum, after its gate passed,
    # is that trial's outcome (expectation mode meets it finding the worst
    # h, the others evaluating f on a spectrum); every other trial of the
    # stack is decided bit for bit as it is alone
    trials = _two_function_trials(mode)
    log, *rest = trials[0]
    trials.insert(1, (_raises_on_arrays(log), *rest))
    f, g, a, b, A, B, _ = (list(column) for column in zip(*trials))
    stacked = _two_function_stack(f, g, a, b, [mode] * len(trials), A, B)
    assert isinstance(stacked[1], DomainError) and str(stacked[1]) == "log-wide refuses arrays"
    for i, (f_i, g_i, a_i, b_i, A_i, B_i, _) in enumerate(trials):
        try:
            single = entropy.check_two_function_operator(f_i, g_i, A_i, B_i, mode=mode, interval=(a_i, b_i))
        except ValueError as exc:
            assert type(stacked[i]) is type(exc) and str(stacked[i]) == str(exc), i
            continue
        _same_verdict(stacked[i], single)
        assert list(stacked[i].regime.items()) == list(single.regime.items()), i


def _check_alone(chain_id, trial: dict):
    """The outcome of one trial's own check: its verdict, or its refusal."""
    try:
        if chain_id == "thm-2.12":
            interval = (trial["a"], trial["b"])
            return entropy.check_two_function_operator(
                trial["fn_f"], trial["fn_g"], trial["A"], trial["B"], mode=trial["mode"], interval=interval,
            )
        return MIXED_STACKS[chain_id][0](**trial)
    except (ValueError, NumericError) as exc:
        return exc


# a B that only its own trial is refused for: complex, a string entry, an
# entry that float() does not take, ragged, and 2 x 2 where A is 3 x 3
BAD_B = [np.eye(3) + 0j, [[1.0, 0.0, 0.0], [0.0, "x", 0.0], [0.0, 0.0, 1.0]],
         [[1.0, 0.0, 0.0], [0.0, {}, 0.0], [0.0, 0.0, 1.0]], [[1.0, 0.0], [0.0]], np.eye(2)]


@pytest.mark.filterwarnings("error")
def test_chain_stacks_of_every_matrix_chain_match_each_check_alone():
    # one call deciding every matrix chain together: the pair chains' rows
    # of MIXED_STACKS and thm-2.12's trials of every mode share the group
    # of 3 x 3 pairs, some rows are 2 x 2, expectation mode leaves B out,
    # in one group A and B differ in shape, which refuses each of its
    # trials, in another A is not square, and each chain and mode has a
    # trial for each of BAD_B among the 3 x 3 pairs. Every outcome is the
    # trial's own check: the same verdict, or the same exception and message
    mismatch = {"A": 2.0 * np.eye(2), "B": np.eye(3)}
    stacks = []
    for chain_id, (_, rows) in MIXED_STACKS.items():
        trials = []
        for seed, (spectrum, params, _) in enumerate(rows):
            A, B = _spectral_pair(spectrum, seed)
            trials.append({"A": A, "B": B, **params})
        A, B = _spectral_pair([1.2, 2.5], 7)
        trials += [{**trials[0], "A": A, "B": B}, {**trials[0], **mismatch}, *({**trials[0], "B": b} for b in BAD_B)]
        stacks.append((chain_id, trials))
    stacks[0][1].append({**stacks[0][1][0], "A": np.ones((2, 3)), "B": np.eye(2)})
    trials = []
    for mode in entropy.TWO_FUNCTION_MODES:
        first = len(trials)
        for f, g, a, b, A, B, _ in _two_function_trials(mode):
            trials.append({"fn_f": f, "fn_g": g, "a": a, "b": b, "mode": mode, "A": A, "B": B})
        trials.append({**trials[0], "mode": mode, **mismatch})
        trials += [{**trials[first], "B": b} for b in BAD_B]
    trials.append({**trials[0], "B": None})
    stacks.append(("thm-2.12", trials))
    columns = [(chain_id, {name: [t[name] for t in trials] for name in trials[0]}) for chain_id, trials in stacks]
    refusals, statuses = collections.Counter(), collections.Counter()
    for (chain_id, trials), outcomes in zip(stacks, entropy.chain_stacks(columns, chains.DEFAULT_TOL)):
        assert len(outcomes) == len(trials)
        # outcomes[i] is built by index from the columns; they hold what it does
        for i, (trial, outcome) in enumerate(zip(trials, outcomes)):
            single = _check_alone(chain_id, trial)
            if isinstance(single, Exception):
                assert type(outcome) is type(single) and str(outcome) == str(single), (chain_id, i)
                assert outcomes.errors[i] is outcome and outcomes.status[i] is None, (chain_id, i)
                refusals[str(single).split(":")[0]] += 1
                continue
            _same_verdict(outcome, single)
            assert list(outcome.regime.items()) == list(single.regime.items()), (chain_id, i)
            assert outcomes.errors[i] is None and outcomes.status[i] == single.status, (chain_id, i)
            rel = single.min_rel_slack if single.applicable else None
            assert repr(outcomes.rel[i]) == repr(rel), (chain_id, i)
            statuses[single.status] += 1
    assert statuses[entropy.STATUS_PASS] and statuses[entropy.STATUS_NOT_APPLICABLE], statuses
    assert refusals["prop-3.10"] == refusals["thm-3.5"] == 1  # a link left float range
    # two mismatched rows of each pair chain and of congruence and majorize
    # mode each; expectation mode does not read a bad B
    assert refusals["dimension mismatch"] == 2 * (len(MIXED_STACKS) + 2)
    assert refusals["expected a square matrix, got shape (2, 3)"] == 1
    for start in ("matrix entries must be real, got complex128", "could not convert string to float",
                  "matrix entries must be real numbers",
                  "setting an array element with a sequence"):
        assert sum(n for message, n in refusals.items() if message.startswith(start)) == len(MIXED_STACKS) + 2


# a convex g that is not affine, so that <g(A)h, h> differs from g(<Ah, h>):
# g(x) = 0.02 (9 + (x - 1.5)**2) passes the gate with f = log-wide on [1.5, 4],
# as 9 >= (b - a)**2 f(b) / (f(b) - f(a)) = 8.83 meets the increment condition
# and 0.02 <= f(a) / (9 + (b - a)**2) = 0.027 keeps g below f
QUAD_G = FunctionSpec("quad-g", (0.0, 50.0), lambda x: 0.02 * (9.0 + (x - 1.5) ** 2),
                      lambda x: 0.04 * (x - 1.5), frozenset({"convex"}))


def _interior_min_g(delta, c, x0=2.0011) -> FunctionSpec:
    """g(x) = delta (c + (x - x0)**2): convex, least at x0 inside [1.5, 4],
    which no grid of [1.5, 4] with 257 points hits."""
    return FunctionSpec("interior-min-g", (0.0, 50.0), lambda x: delta * (c + (x - x0) ** 2),
                        lambda x: 2.0 * delta * (x - x0), frozenset({"convex"}))


def test_gate_ratio_at_an_interior_minimum_of_g_matches_mpmath():
    # min g = 0.01 * 0.5 at x0, so m_ratio = log 4 / 0.005
    mpmath = pytest.importorskip("mpmath")
    gate = chains.two_function_gate(REGISTRY["log-wide"], _interior_min_g(0.01, 0.5), 1.5, 4.0)
    with mpmath.workdps(50):
        exact = mpmath.log(4) / (mpmath.mpf(0.01) * mpmath.mpf(0.5))
    assert gate.m_ratio == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def test_gate_refuses_a_pair_whose_increment_condition_fails_only_at_the_minimum_of_g():
    # c sits 4e-6 below K / df, the least c at which f(b) / min g = f(b) / (delta c)
    # meets the increment condition df >= m_ratio dg; a grid misses x0 by more
    # than 2e-3 and so overstates min g enough to admit the pair
    f, a, b, x0 = REGISTRY["log-wide"], 1.5, 4.0, 2.0011
    fa, fb = f.eval(a), f.eval(b)
    c = fb * ((b - x0) ** 2 - (a - x0) ** 2) / (fb - fa) - 4e-6
    g = _interior_min_g(fa / (2.0 * (c + (b - a) ** 2)), c, x0)
    gate = chains.two_function_gate(f, g, a, b)
    assert not gate.conditions_hold
    assert [k for k, v in gate.checks.items() if not v] == ["increment_condition"]
    A = _rotated(np.random.default_rng(5), [1.7, 2.4, 3.8])
    verdict = entropy.check_two_function_operator(f, g, A, mode="expectation", interval=(a, b))
    assert not verdict.applicable
    assert verdict.regime["reason"] == "admissibility gate failed"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expectation_worst_slack_matches_mpmath_oracle(n):
    # in 50-digit arithmetic, on the eigenvalues l of A, phi(x) = df gc(x) -
    # dg log x, gc the chord polyline through the points (l, g(l)), is least
    # at a vertex or where phi' = df slope - dg / x vanishes inside a chord
    mpmath = pytest.importorskip("mpmath")
    f, a, b = REGISTRY["log-wide"], 1.5, 4.0
    A = _rotated(np.random.default_rng(n), np.linspace(1.7, 3.8, n))
    verdict = entropy.check_two_function_operator(f, QUAD_G, A, mode="expectation", interval=(a, b))
    with mpmath.workdps(50):
        g = lambda x: mpmath.mpf(0.02) * (9 + (x - mpmath.mpf(a)) ** 2)
        df, dg = mpmath.log(b) - mpmath.log(a), g(mpmath.mpf(b)) - g(mpmath.mpf(a))
        lam = sorted(mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True))
        points = [(x, g(x)) for x in lam]  # (x, gc(x))
        for l0, l1 in zip(lam, lam[1:]):
            slope = (g(l1) - g(l0)) / (l1 - l0)
            root = dg / (df * slope)
            if l0 < root < l1:
                points.append((root, g(l0) + slope * (root - l0)))
        lhs, rhs = min(((dg * mpmath.log(x), df * gx) for x, gx in points), key=lambda s: s[1] - s[0])
        worst = (rhs - lhs) / max(1, abs(lhs), abs(rhs))
    assert verdict.regime["worst_rel_slack"] == pytest.approx(float(worst), abs=1e-13, rel=0.0)


def _expectation_witness(n):
    """An expectation-mode verdict on a random A of order n with spectrum in
    [1.5, 4], and its worst unit vector h rebuilt from the regime."""
    rng = np.random.default_rng(n)
    A = _rotated(rng, rng.uniform(1.5, 4.0, n))
    verdict = entropy.check_two_function_operator(REGISTRY["log-wide"], QUAD_G, A, mode="expectation", interval=(1.5, 4.0))
    eig = linalg._eig(linalg.as_symmetric(A))
    (i, j), w = verdict.regime["pair"], verdict.regime["weight"]
    h = math.sqrt(w) * eig.vectors[:, i] + math.sqrt(1.0 - w) * eig.vectors[:, j]
    return A, (eig.vectors * QUAD_G.eval(eig.values)) @ eig.vectors.T, verdict, h


def _expectation_sides(A, gA, H):
    """The two sides dg f(<Ah, h>) and df <g(A)h, h> of each row h of H."""
    f, a, b = REGISTRY["log-wide"], 1.5, 4.0
    df, dg = f.eval(b) - f.eval(a), QUAD_G.eval(b) - QUAD_G.eval(a)
    return dg * f.eval(np.clip(((H @ A) * H).sum(axis=1), a, b)), df * ((H @ gA) * H).sum(axis=1)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
def test_expectation_witness_reproduces_its_mean_and_sides(n):
    A, gA, verdict, h = _expectation_witness(n)
    assert h @ A @ h == pytest.approx(verdict.regime["x"], abs=1e-12, rel=0.0)
    (lhs,), (rhs,) = _expectation_sides(A, gA, h[None, :])
    lower, upper = verdict.links
    assert lhs == pytest.approx(lower[0, 0], abs=1e-12, rel=0.0)
    assert rhs == pytest.approx(upper[0, 0], abs=1e-12, rel=0.0)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
def test_expectation_minimum_is_not_beaten_by_random_unit_vectors(n):
    A, gA, verdict, _ = _expectation_witness(n)
    H = np.random.default_rng(1000 + n).normal(size=(10_000, n))
    H /= np.linalg.norm(H, axis=1)[:, None]
    lhs, rhs = _expectation_sides(A, gA, H)
    assert (rhs - lhs).min() >= verdict.verdicts[0].min_slack_eigenvalue - 1e-13


def test_expectation_on_a_multiple_of_the_identity():
    # every chord has zero width, or one of rounding size once rotated
    for A in (2.5 * np.eye(4), _rotated(np.random.default_rng(7), [2.5] * 4)):
        with np.errstate(all="raise"):
            v = entropy.check_two_function_operator(REGISTRY["log-wide"], QUAD_G, A, mode="expectation", interval=(1.5, 4.0))
        assert v.ok and math.isfinite(v.regime["worst_rel_slack"])
        assert v.regime["x"] == pytest.approx(2.5, abs=1e-12, rel=0.0)


def test_expectation_with_g_falling_within_the_gate_slack_is_decided_at_an_eigenvector():
    # g(b) - g(a) = -5e-10, which the gate admits: phi = df gc + |dg| f is then
    # concave on each chord, so its least value is at an eigenvalue of A
    f, a, b, centre = REGISTRY["log-wide"], 1.5, 4.0, 2.75 + 5e-9
    g = FunctionSpec("dip", (0.0, 50.0), lambda x: 0.02 * (1.0 + (x - centre) ** 2),
                     lambda x: 0.04 * (x - centre), frozenset({"convex"}))
    A = _rotated(np.random.default_rng(11), [1.6, 2.2, 2.7, 2.8, 3.3, 3.9])
    v = entropy.check_two_function_operator(f, g, A, mode="expectation", interval=(a, b))
    dg, df = g.eval(b) - g.eval(a), f.eval(b) - f.eval(a)
    assert -1e-9 < dg < 0.0 and v.ok
    (i, j), lam = v.regime["pair"], linalg._eig(linalg.as_symmetric(A)).values
    assert i == j and v.regime["weight"] == 1.0 and v.regime["x"] == lam[i]
    assert v.verdicts[0].min_slack_eigenvalue == (df * g.eval(lam) - dg * f.eval(lam)).min()


# the chains decided on the spectrum of X, with the regime that selects them
SPECTRAL_CHAINS = [
    *[(cid, None) for cid in ("zou", "thm-3.3", "thm-3.5", "thm-3.6", "thm-3.11", "prop-3.10")],
    ("thm-2.12", {"mode": "congruence"}),
]


@pytest.mark.parametrize("chain_id, regime", SPECTRAL_CHAINS)
def test_spectral_verdicts_match_loewner_checks_of_the_lifts(chain_id, regime):
    # on sampled non-commuting pairs, link j's verdict on the spectrum of X
    # holds at tol iff L_j - tol * scale * A <= L_{j+1} for the lazily built
    # lifts L (congruence by A**(1/2) carries the constant tol * scale to
    # tol * scale * A), wherever the margin exceeds 1e-8 * scale; the
    # tolerances put the threshold on both sides of tight links
    entry = CHAINS[chain_id]
    decided = collections.Counter()
    for n in range(1, 9):
        cfg = GeneratorConfig(seed=100 + n, dim_range=(n, n), regime=regime)
        for trial in range(5):
            params = entry.generate(trial_rng(cfg.seed, trial), cfg)
            for tol in (1e-2, 1e-8, 0.0, -1e-2):
                verdict = entry.run(params, tol)
                if not verdict.applicable:  # thm-2.12's gate reads tol too
                    continue
                assert len(verdict.links) == len(verdict.verdicts) + 1
                for v, lower, upper in zip(verdict.verdicts, verdict.links, verdict.links[1:]):
                    if abs(v.min_slack_eigenvalue + tol * v.scale) <= 1e-8 * v.scale:
                        continue
                    lifted = loewner_compare(lower - tol * v.scale * params["A"], upper, 0.0)
                    assert lifted.holds == v.holds, (n, trial, tol)
                    decided[v.holds] += 1
    # thm-2.12's gate fails at tol <= 0, so all its decided links hold
    assert decided[True] >= 20 and (decided[False] >= 10 or chain_id == "thm-2.12"), decided


def test_fuzzing_spectral_chains_lifts_no_matrix(monkeypatch):
    # the pair chains and thm-2.12's congruence mode are decided on the
    # spectrum of X alone, and expectation mode on its two sides as numbers:
    # no link matrix is lifted and no Loewner check of matrices runs; each
    # decided trial is a row of one layout's pass of values
    def forbidden(*args, **kwargs):
        raise AssertionError("called on the fuzz path")

    def values_only(links, *args, _compare=entropy._compare):
        if links.ndim == 4:  # a stack of link matrices
            forbidden()
        rows.append(links.shape[1])
        return _compare(links, *args)

    monkeypatch.setattr(entropy, "_compare", values_only)
    monkeypatch.setattr(linalg._Pairs, "lift", forbidden)
    for cid, regime in [*SPECTRAL_CHAINS, ("thm-2.12", {"mode": "expectation"})]:
        rows = []
        rep = fuzz_chain(cid, GeneratorConfig(seed=5, trials=20, regime=regime))
        assert len(rep.slack_rows) == 20 and not rep.failures, cid
        assert sum(rows) == 20, cid
