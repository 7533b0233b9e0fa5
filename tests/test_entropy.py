import collections
import math

import numpy as np
import pytest

from oel import entropy, scalar
from oel.errors import NumericError
from oel.funcs import REGISTRY
from oel.harness import CHAINS, GeneratorConfig, fuzz_chain, trial_rng
from oel.linalg import eigendecomposition, loewner_compare


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
    assert eigendecomposition(gap).values[-1] > 0.1


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
    assert v.ok and v.regime["draws"] == 1000
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
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 in the overflowing lift
        stacked = entropy.ordering_stack(A, B, p)
        refusals = {
            1: (ValueError, "A must be positive-definite"),
            2: (ValueError, "matrix entries must be finite"),
            3: (ValueError, "p must be nonzero"),
            4: (NumericError, "prop-3.10: chain link has non-finite entries"),
        }
        for i, (expected, message) in refusals.items():
            with pytest.raises(expected, match=message) as single:
                entropy.check_ordering_S_Tp_Sp(A[i], B[i], p[i])
            assert type(stacked[i]) is type(single.value) and str(stacked[i]) == str(single.value)
    for i in (0, 5):
        _same_verdict(stacked[i], alone[i])


def _rotated(rng, lam):
    q, _ = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))
    M = (q * np.asarray(lam, dtype=float)) @ q.T
    return (M + M.T) / 2.0


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
    trials = [  # (mode, A, B, vector_seed)
        ("expectation", _rotated(rng, [1.6, 2.5, 3.9]), None, 1),
        ("expectation", np.diag([-1.0, 2.0, 3.0]), None, 2),  # A not positive-definite
        ("congruence", np.diag([1.0, 2.0, 0.5]), np.diag([1.6, 7.0, 1.9]), 0),
        ("majorize", A_maj, A_maj - 0.1 * np.outer(v, v), 0),
        ("majorize", A_maj, asymmetric, 0),  # B not symmetric
        ("majorize", A_maj, A_maj + 0.1 * np.outer(v, v), 0),  # B <= A fails
        ("expectation", _rotated(rng, [2.0, 2.0, 3.0]), np.eye(3), 3),  # B ignored
        ("congruence", np.eye(3), None, 0),  # B missing
        ("bogus", np.eye(3), np.eye(3), 0),
    ]
    modes, A, B, seeds = (list(column) for column in zip(*trials))
    k = len(trials)
    stacked = entropy.two_function_stack([f] * k, [g] * k, [1.5] * k, [4.0] * k, modes, A, B, seeds)
    statuses = []
    for i, (mode, a, b, seed) in enumerate(trials):
        try:
            alone = entropy.check_two_function_operator(f, g, a, b, mode=mode, interval=(1.5, 4.0), vector_seed=seed)
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
    # meets is the one reported: congruence checks shapes before validity,
    # majorize checks A before B
    f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    bad_a = np.array([[2.0, 1.0], [0.0, 2.0]])
    cases = [
        ("congruence", bad_a, np.eye(3), "dimension mismatch"),
        ("majorize", bad_a, np.eye(3), "matrix is not symmetric"),
        ("majorize", -np.eye(2), np.eye(3), "A must be positive-definite"),
        ("majorize", 2.0 * np.eye(2), np.eye(3), "dimension mismatch"),
        ("majorize", 2.0 * np.eye(2), -np.eye(2), "B must be positive-definite"),
        ("congruence", -np.eye(2), 2.0 * np.eye(2), "A must be positive-definite"),
        ("congruence", np.eye(2), np.full((2, 2), np.nan), "matrix entries must be finite"),
        ("expectation", np.ones((2, 3)), None, "expected a square matrix"),
    ]
    for mode, a, b, message in cases:
        with pytest.raises(ValueError, match=message):
            entropy.check_two_function_operator(f, g, a, b, mode=mode, interval=(1.5, 4.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expectation_worst_slack_matches_mpmath_oracle(n):
    # every relative slack recomputed in 50-digit arithmetic from the same
    # unit vectors; f = log and g(x) = 0.04 x + 0.12, so g(A) = 0.04 A + 0.12 I
    mpmath = pytest.importorskip("mpmath")
    f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
    a, b, seed, draws = 1.5, 4.0, 50 + n, 1000
    A = _rotated(np.random.default_rng(n), np.linspace(1.7, 3.8, n))
    verdict = entropy.check_two_function_operator(f, g, A, mode="expectation", interval=(a, b), vector_seed=seed)
    H = entropy._unit_vectors(seed, draws, n)
    with mpmath.workdps(50):
        slope, intercept = mpmath.mpf(0.04), mpmath.mpf(0.12)
        df = mpmath.log(b) - mpmath.log(a)
        dg = slope * (b - a)
        rows = [[mpmath.mpf(x) for x in row] for row in A.tolist()]
        worst = mpmath.inf
        for h in H.tolist():
            h = [mpmath.mpf(x) for x in h]
            quad = mpmath.fsum(h[i] * rows[i][j] * h[j] for i in range(n) for j in range(n))
            lhs = dg * mpmath.log(min(max(quad, a), b))
            rhs = df * (slope * quad + intercept * mpmath.fsum(x * x for x in h))  # df <g(A)h, h>
            worst = min(worst, (rhs - lhs) / max(1, abs(lhs), abs(rhs)))
        assert verdict.regime["worst_rel_slack"] == pytest.approx(float(worst), abs=1e-13, rel=0.0)


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
    # spectrum of X alone: no link matrix is lifted and no Loewner check runs
    def forbidden(*args, **kwargs):
        raise AssertionError("called on the fuzz path")

    monkeypatch.setattr(entropy, "_loewner", forbidden)
    monkeypatch.setattr(entropy, "congruence_sandwich", forbidden)
    for cid, regime in SPECTRAL_CHAINS:
        rep = fuzz_chain(cid, GeneratorConfig(seed=5, trials=20, regime=regime))
        assert len(rep.slack_rows) == 20 and not rep.failures, cid
