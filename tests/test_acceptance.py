"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and pinning the tolerances and runtime budgets up front."""

import json
import math
import time

import numpy as np

from oel import entropy, scalar
from oel.cli import main
from oel.harness import CHAINS, GeneratorConfig, fuzz_chain
from oel.linalg import _eig, as_symmetric, symmetrize


def _report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_gap_functional_reference_values():
    got_a = scalar.phi(0.25, 4.0)
    got_b = scalar.phi(0.5, 4.0)
    ok = abs(got_a - 0.327991) <= 1e-6 and abs(got_b - (-0.186294)) <= 1e-6
    _report(1, ok, f"phi(1/4,4)={got_a:.6f}, phi(1/2,4)={got_b:.6f}")


def test_criterion_02_mean_ratio_chain_and_convergence():
    start = time.perf_counter()
    cfg = GeneratorConfig(seed=202, trials=10_000, tol=1e-9)
    rep = fuzz_chain("prop-2.1", cfg)
    elapsed = time.perf_counter() - start
    # convergence of the two bounds at n = 10**6 on the reference instance
    lo, ratio, hi = scalar.young_ratio_bounds(1.0, 4.0, 0.5, 10**6)
    converged = abs(hi - lo) <= 1e-6 * ratio
    # and at the quadratic rate log(ratio)**2 / n on random draws
    rng = np.random.default_rng(202)
    rate_ok = True
    for _ in range(200):
        a, b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2))
        lo, ratio, hi = scalar.young_ratio_bounds(float(a), float(b), float(rng.uniform()), 10**6)
        bound = 1.01 * ratio * math.log(ratio) ** 2 / 10**6 + 1e-9 * ratio
        rate_ok = rate_ok and (hi - lo) <= bound and lo <= ratio <= hi
    ok = not rep.failures and elapsed < 1.0 and converged and rate_ok
    _report(2, ok, f"failures={len(rep.failures)}, min_slack={rep.min_slack:.2e}, {elapsed:.2f}s < 1s")


def test_criterion_03_root_sequences_monotone():
    rng = np.random.default_rng(303)
    worst_a, worst_b = 0.0, 0.0
    for _ in range(1000):
        x = float(np.exp(rng.uniform(0.0, 7.0)))
        n = int(rng.integers(1, 64))
        a_n, b_n = scalar.ratio_sequences(x, n)
        a_next, b_next = scalar.ratio_sequences(x, n + 1)
        worst_a = max(worst_a, a_next - a_n)
        worst_b = max(worst_b, b_n - b_next)
    ok = worst_a <= 1e-12 and worst_b <= 1e-12
    _report(3, ok, f"max increase of a_n={worst_a:.2e}, max decrease of b_n={worst_b:.2e}")


SCALAR_SUITE = (
    "thm-2.2",
    "rem-2.3",
    "cor-2.4",
    "thm-2.6-convex",
    "thm-2.6-concave",
    "thm-2.7",
    "cor-2.8",
    "cor-2.9-logconvex",
    "cor-2.9-geomconvex",
    "lem-3.4",
    "lem-3.7",
    "cor-3.8",
)


def test_criterion_04_scalar_theorem_suite():
    start = time.perf_counter()
    failures = {}
    for cid in SCALAR_SUITE:
        rep = fuzz_chain(cid, GeneratorConfig(seed=404, trials=10_000, tol=1e-9))
        if rep.failures:
            failures[cid] = len(rep.failures)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(4, ok, f"{len(SCALAR_SUITE)} chains x 1e4 trials, failures={failures or 0}, {elapsed:.1f}s < 30s")


def test_criterion_05_eigensolver_accuracy():
    eig = _eig(as_symmetric([[2.0, 1.0], [1.0, 2.0]]))
    fixture_ok = abs(eig.values[0] - 1.0) <= 1e-12 and abs(eig.values[1] - 3.0) <= 1e-12
    rng = np.random.default_rng(505)
    worst_recon, worst_orth = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        M = rng.normal(size=(n, n))
        M = (M + M.T) / 2.0
        eig = _eig(as_symmetric(M))
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        worst_recon = max(worst_recon, float(np.abs(recon - M).max() / (1.0 + np.abs(M).max())))
        worst_orth = max(worst_orth, float(np.abs(eig.vectors.T @ eig.vectors - np.eye(n)).max()))
    ok = fixture_ok and worst_recon <= 1e-10 and worst_orth <= 1e-10
    _report(5, ok, f"fixture={fixture_ok}, recon={worst_recon:.1e}, orth={worst_orth:.1e}")


def test_criterion_06_operator_suite():
    start = time.perf_counter()
    runs = [
        ("zou", 1000, None),
        ("thm-3.3", 334, {"case": "below"}),
        ("thm-3.3", 333, {"case": "straddle"}),
        ("thm-3.3", 333, {"case": "above"}),
        ("thm-3.5", 1000, None),
        ("thm-3.6", 500, {"case": "low"}),
        ("thm-3.6", 500, {"case": "high"}),
        ("thm-3.11", 1000, None),
        ("prop-3.10", 1000, None),
        ("thm-2.12", 1000, {"mode": "expectation"}),
        ("thm-2.12", 1000, {"mode": "congruence"}),
        ("thm-2.12", 1000, {"mode": "majorize"}),
    ]
    failures = {}
    applicable_shortfall = {}
    for cid, trials, regime in runs:
        cfg = GeneratorConfig(seed=606, trials=trials, tol=1e-8, regime=regime)
        rep = fuzz_chain(cid, cfg)
        if rep.failures:
            failures[(cid, str(regime))] = len(rep.failures)
        if rep.not_applicable:
            applicable_shortfall[(cid, str(regime))] = rep.not_applicable
    # both deformation orderings and both secant directions must be exercised
    both_cases = (
        entropy.check_tsallis_relation(np.eye(2), np.diag([2.0, 3.0]), 0.5, 1.5).regime["case"]
        == "t-above-s"
        and entropy.check_tsallis_relation(np.eye(2), np.diag([2.0, 3.0]), 1.5, 0.5).regime["case"]
        == "s-above-t"
        and entropy.check_troe_linear_bound(np.eye(2), np.diag([1.0, 3.0]), 0.5).regime["direction"]
        == "secant-below"
        and entropy.check_troe_linear_bound(np.eye(2), np.diag([1.0, 3.0]), 2.0).regime["direction"]
        == "secant-above"
        and entropy.check_ordering_S_Tp_Sp(np.eye(2), np.diag([2.0, 3.0]), -1.0).ok
    )
    elapsed = time.perf_counter() - start
    ok = not failures and not applicable_shortfall and both_cases and elapsed < 120.0
    _report(6, ok, f"9k trials, failures={failures or 0}, na={applicable_shortfall or 0}, {elapsed:.0f}s < 120s")


def _commuting_instance(rng, n, x_lo, x_hi):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    la = np.exp(rng.uniform(-1.0, 1.0, n))
    x = np.exp(rng.uniform(np.log(x_lo), np.log(x_hi), n))
    A = symmetrize((q * la) @ q.T)
    B = symmetrize((q * (la * x)) @ q.T)
    return A, B, q, la, x


def _links_match(verdict, q, la, scalar_links, tol=1e-10):
    if len(verdict.links) != len(scalar_links):
        return False
    for link, vals in zip(verdict.links, scalar_links):
        oracle = symmetrize((q * (la * vals)) @ q.T)
        if np.abs(link - oracle).max() > tol * (1.0 + np.abs(oracle).max()):
            return False
    return True


def _scalar_conjunction(scalar_links, tol=1e-10):
    arrs = [np.asarray(v, dtype=float) for v in scalar_links]
    scale = max(1.0, max(float(np.abs(a).max()) for a in arrs))
    return all(
        float((arrs[i + 1] - arrs[i]).min()) >= -tol * scale for i in range(len(arrs) - 1)
    )


def test_criterion_07_commuting_oracle_equivalence():
    rng = np.random.default_rng(707)
    checked = 0
    agree = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        chain = ("zou", "thm-3.3", "thm-3.5", "thm-3.6", "thm-3.11", "prop-3.10", "thm-2.12")[
            checked % 7
        ]
        if chain == "zou":
            A, B, q, la, x = _commuting_instance(rng, n, 0.2, 5.0)
            t = float(rng.uniform(0.05, 1.0))
            v = entropy.check_zou_chain(A, B, t)
            links = [
                1.0 - 1.0 / x,
                scalar.deformed_log(-t, x),
                np.log(x),
                scalar.deformed_log(t, x),
                x - 1.0,
            ]
        elif chain == "thm-3.3":
            A, B, q, la, x = _commuting_instance(rng, n, 0.2, 5.0)
            t = float(rng.uniform(0.05, 1.0))
            v = entropy.check_refined_ST(A, B, t)
            m, M = float(x.min()), float(x.max())
            add = scalar.theta(t, M) / t if M < 1 else scalar.theta(t, m) / t if m > 1 else 0.0
            links = [np.log(x) + add, scalar.deformed_log(t, x)]
        elif chain == "thm-3.5":
            A, B, q, la, x = _commuting_instance(rng, n, 1.0, 6.0)
            s, t = (float(u) for u in np.exp(rng.uniform(np.log(0.2), np.log(2.0), 2)))
            v = entropy.check_tsallis_relation(A, B, s, t)
            m, M = float(x.min()), float(x.max())
            if t >= s:
                lo, hi = math.exp(scalar.eta(m, s) * (t - s)), math.exp(scalar.eta(M, t) * (t - s))
            else:
                lo, hi = math.exp(scalar.eta(M, s) * (t - s)), math.exp(scalar.eta(m, t) * (t - s))
            ls = scalar.deformed_log(s, x)
            links = [np.zeros_like(x), lo * ls, scalar.deformed_log(t, x), hi * ls]
        elif chain == "thm-3.6":
            lo_r, hi_r = ((0.05, 1.0 / math.e) if checked % 2 else (1.0, math.e))
            A, B, q, la, x = _commuting_instance(rng, n, lo_r, hi_r)
            v = entropy.check_roe_bounds(A, B)
            m, M = float(x.min()), float(x.max())
            e = math.e
            if M <= 1.0 / e + 1e-12:
                c_lo = -math.exp((e * m - 1.0) / (e * m * math.log(m)))
                c_hi = -math.exp(1.0 - e * M)
                links = [c_lo * np.ones_like(x), np.log(x), c_hi * np.ones_like(x), np.zeros_like(x)]
            else:
                c_lo = 0.0 if m <= 1.0 + 1e-9 else math.exp((m - e) / (m * math.log(m)))
                c_hi = math.exp((min(M, e) - e) / e)
                links = [np.zeros_like(x), c_lo * np.ones_like(x), np.log(x), c_hi * np.ones_like(x)]
        elif chain == "thm-3.11":
            A, B, q, la, x = _commuting_instance(rng, n, 1.0, 6.0)
            m, M = float(x.min()), float(x.max())
            if M - m < 1e-6:
                continue
            t = float(rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 2.5)]))
            v = entropy.check_troe_linear_bound(A, B, t)
            slope = (scalar.deformed_log(t, M) - scalar.deformed_log(t, m)) / (M - m)
            inter = (M * scalar.deformed_log(t, m) - m * scalar.deformed_log(t, M)) / (M - m)
            secant = slope * x + inter
            unit = [x - 1.0] if m <= 1.0 + 1e-9 else []
            if t <= 1.0:
                links = [secant, scalar.deformed_log(t, x)] + unit
            else:
                links = unit + [scalar.deformed_log(t, x), secant]
        elif chain == "prop-3.10":
            A, B, q, la, x = _commuting_instance(rng, n, 0.2, 5.0)
            p = float(rng.choice([rng.uniform(0.1, 2.0), rng.uniform(-2.0, -0.1)]))
            v = entropy.check_ordering_S_Tp_Sp(A, B, p)
            parts = [np.log(x), scalar.deformed_log(p, x), x**p * np.log(x)]
            links = parts if p > 0 else parts[::-1]
        else:
            from oel.funcs import REGISTRY

            f, g = REGISTRY["log-wide"], REGISTRY["lin-0.04-0.12"]
            A, B, q, la, x = _commuting_instance(rng, n, 1.5, 4.0)
            v = entropy.check_two_function_operator(f, g, A, B, mode="congruence", interval=(1.5, 4.0))
            ratio = (f.eval(4.0) - f.eval(1.5)) / (g.eval(4.0) - g.eval(1.5))
            links = [np.log(x), ratio * (0.04 * x + 0.12)]
        if not v.applicable:
            continue
        agree = agree and (v.ok == _scalar_conjunction(links))
        agree = agree and _links_match(v, q, la, links)
        checked += 1
    ok = agree and checked >= 190
    _report(7, ok, f"{checked} commuting instances, verdicts and links agree at 1e-10")


def _random_pd(rng, n, lo=-1.5, hi=1.5):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    return symmetrize((q * np.exp(rng.uniform(lo, hi, n))) @ q.T)


def test_criterion_08_deformation_limits():
    rng = np.random.default_rng(808)
    worst_t, worst_s = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = _random_pd(rng, n)
        B = _random_pd(rng, n)
        S = entropy.relative_entropy(A, B)
        bound = 1e-4 * (1.0 + float(np.abs(S).max()))
        worst_t = max(worst_t, float(np.abs(entropy.tsallis_entropy(A, B, 1e-6) - S).max()) / bound)
        worst_s = max(worst_s, float(np.abs(entropy.generalized_entropy(A, B, 1e-6) - S).max()) / bound)
    ok = worst_t <= 1.0 and worst_s <= 1.0
    _report(8, ok, f"max normalized deviation: deformed={worst_t:.2e}, generalized={worst_s:.2e}")


def test_criterion_09_entropy_bound_fixture():
    v = entropy.check_roe_bounds(np.eye(2), math.exp(-2.0) * np.eye(2))
    values = [v.links[0][0, 0], v.links[1][0, 0], v.links[2][0, 0]]
    expect = [-math.exp((math.e - 1.0) / 2.0), -2.0, -math.exp(1.0 - math.exp(-1.0))]
    ok = v.ok and all(abs(g - e) <= 1e-4 for g, e in zip(values, expect))
    _report(9, ok, f"chain=({values[0]:.4f}, {values[1]:.4f}, {values[2]:.4f}) vs ({expect[0]:.4f}, {expect[1]:.4f}, {expect[2]:.4f})")


def test_criterion_10_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["fuzz", "all", "--seed", "42", "--trials", "15", "--out", str(out1)]) == 0
    assert main(["fuzz", "all", "--seed", "42", "--trials", "15", "--out", str(out2)]) == 0
    same = out1.read_bytes() == out2.read_bytes()
    same_csv = (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    doc = json.loads(out1.read_text())
    covered = {c["id"] for c in doc["chains"]} == set(CHAINS)
    _report(10, same and same_csv and covered, f"byte-identical={same}, csv={same_csv}, all {len(CHAINS)} chains")
