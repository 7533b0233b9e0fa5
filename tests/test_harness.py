import collections
import csv
import dataclasses
import json
import math
import time
import warnings

import numpy as np
import pytest

from oel import entropy, funcs, harness, linalg, scalar
from oel.errors import NumericError
from oel.funcs import REGISTRY, FunctionSpec
from oel.harness import CHAINS, GeneratorConfig, TrialStreams, fuzz_chain, trial_rng
from test_linalg import count_eig_calls, relative_spectrum_bounds

OPERATOR_CHAINS = [cid for cid, entry in CHAINS.items() if entry.kind == "operator"]


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(trials=0)
    with pytest.raises(ValueError):
        GeneratorConfig(dim_range=(0, 4))
    with pytest.raises(ValueError):
        GeneratorConfig(scalar_range=(-1.0, 2.0))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_tol(tol):
    # NaN would fail every link with positive slack, inf pass every link
    with pytest.raises(ValueError, match="tol must be finite"):
        GeneratorConfig(tol=tol)


@pytest.mark.parametrize("scalar_range", [(1e-3, float("inf")), (float("inf"), float("inf"))])
def test_config_rejects_infinite_scalar_range(scalar_range):
    # an infinite end draws non-finite matrices, so that every draw of the
    # chains built on the range is rejected and nothing is tested
    with pytest.raises(ValueError, match="bad scalar_range"):
        GeneratorConfig(scalar_range=scalar_range)


@pytest.mark.parametrize("regime", [
    {"bogus": 1.0},
    {"mode": "bogus"},
    {"mode": None},
    {"case": "bogus"},
    # m_min is not a key: thm-3.5 draws [m, M] from [1, 100]
    {"m_min": 200.0},
    {"m_min": 0.0},
    {"m_min": -1.0},
    {"m_min": float("nan")},
    {"m_min": float("inf")},
    {"m_min": "2"},
    {"m_min": True},
])
def test_config_rejects_bad_regime(regime):
    with pytest.raises(ValueError):
        GeneratorConfig(regime=regime)


@pytest.mark.parametrize("config", [
    {"seed": 1.5},
    {"seed": "1"},
    {"trials": 2.5},
    {"trials": 2.0},
    {"dim_range": (1.5, 2)},
    {"dim_range": (2, 3.0)},
])
def test_config_rejects_non_integer_counts(config):
    # a float seed or trial count would break the run at its first use, and
    # dim_range=(1.5, 2) would draw n = 1, outside the range
    with pytest.raises(ValueError, match="must be integers"):
        GeneratorConfig(**config)


def test_config_takes_numpy_integers_as_ints():
    cfg = GeneratorConfig(seed=np.int64(3), trials=np.int32(5), dim_range=(np.int64(2), np.uint8(3)))
    assert (cfg.seed, cfg.trials, cfg.dim_range) == (3, 5, (2, 3))
    assert all(type(v) is int for v in (cfg.seed, cfg.trials, *cfg.dim_range))
    plain = GeneratorConfig(seed=3, trials=5, dim_range=(2, 3))
    assert harness.dumps_report([fuzz_chain("zou", cfg)]) == harness.dumps_report([fuzz_chain("zou", plain)])


@pytest.mark.parametrize("cid, case", [("thm-3.3", "low"), ("thm-3.3", "high"), ("thm-3.6", "below"), ("thm-3.6", "straddle")])
def test_case_of_another_chain_draws_as_no_regime(cid, case):
    # each chain reads only its own cases, so another chain's case must
    # leave its draws as they are with no regime
    def run(regime):
        rep = fuzz_chain(cid, GeneratorConfig(seed=9, trials=50, regime=regime))
        return harness.dumps_report([rep]), rep.slack_rows  # the JSON report and its CSV rows

    assert run({"case": case}) == run(None)


def test_config_accepts_every_regime_value():
    # the keys and values the generators read
    regimes = [None, {}]
    regimes += [{"mode": mode} for mode in entropy.TWO_FUNCTION_MODES]
    regimes += [{"case": case} for case in ("below", "straddle", "above", "low", "high")]
    for regime in regimes:
        GeneratorConfig(regime=regime)


def test_trial_streams_match_fresh_generators():
    streams = TrialStreams(1234)
    for trial in (0, 1, 7, 10**9, 2**63):
        fresh = trial_rng(1234, trial)
        reused = streams.rng(trial)
        assert fresh.uniform() == reused.uniform()
        assert fresh.integers(0, 100) == reused.integers(0, 100)
        assert np.array_equal(fresh.normal(size=4), reused.normal(size=4))


def _philox_state(rng) -> dict:
    state = rng.bit_generator.state
    return {
        "counter": [int(v) for v in state["state"]["counter"]], "key": [int(v) for v in state["state"]["key"]],
        "buffer": [int(v) for v in state["buffer"]],
        **{name: int(state[name]) for name in ("buffer_pos", "has_uint32", "uinteger")},
    }


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_a_reused_stream_is_a_fresh_stream_field_for_field(seed):
    streams = TrialStreams(seed)
    # what the trial before leaves behind: a 32-bit half-word held (an odd
    # number of 32-bit integer draws), a Philox output buffer stopped
    # partway (random draws, one 64-bit word each), or both
    leftovers = [
        lambda g: g.integers(0, 10, dtype=np.int32),
        lambda g: g.integers(0, 10, size=3, dtype=np.int32),
        lambda g: g.random(3),
        lambda g: (g.random(5), g.integers(0, 10, dtype=np.int32)),
    ]
    for leftover in leftovers:
        for trial in (0, 1, 7, 10**9, 2**63):
            leftover(streams.rng(trial + 1))
            assert _philox_state(streams.rng(trial)) == _philox_state(trial_rng(seed, trial)), (seed, trial)
    # the leftovers do leave state that a reset must clear
    dirty = trial_rng(seed, 3)
    leftovers[-1](dirty)
    state = _philox_state(dirty)
    assert state["has_uint32"] == 1 and state["buffer_pos"] not in (0, 4)


# every span a generator draws an integer from (a regime's case, a dimension
# 1..8, a pool, k and n; a fixed dimension is span 1, which takes no word),
# one at which Lemire's draw rejects about half the words, and the full
# 32-bit span
_INT_SPANS = [1, 2, 3, 4, 5, 7, 8, 10, 18, 64, 2**31 + 1, 2**32]


def _stream(cls, seed: int, trial: int):
    """A ``cls`` on trial_rng's Philox stream of (seed, trial)."""
    return cls(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


@pytest.mark.parametrize("seed, trial", [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)])
def test_draw_int_is_generator_integers_word_for_word(seed, trial):
    # 64-bit draws between the integer draws leave numpy's buffered half as
    # it is, in either order; each call is made on both streams and compared
    others = [
        lambda g: [g.random()], lambda g: g.random(3).tolist(), lambda g: g.normal(size=2).tolist(),
        lambda g: [g.exponential()], lambda g: g.exponential(size=5).tolist(),
    ]
    ours, theirs = trial_rng(seed, trial), _stream(np.random.Generator, seed, trial)
    assert type(ours) is harness._stream_type() and ours.half is None
    pick = np.random.default_rng(5)
    for step in range(3000):
        span = _INT_SPANS[step % len(_INT_SPANS)]
        lo = int(pick.integers(-5, 5))
        drawn = [ours.draw_int(lo, lo + span) for _ in range(1 + step % 3)]
        assert drawn == [int(theirs.integers(lo, lo + span)) for _ in drawn], (step, span)
        other = others[int(pick.integers(len(others)))]
        assert other(ours) == other(theirs), step
    assert ours.random() == theirs.random()


def test_draw_int_rejects_like_numpy_at_a_span_of_half_the_words():
    # at span 2**31 + 1, 2**32 % span = 2**31 - 1: about half the halves
    # are rejected, so the draws read about twice the words they would
    ours, theirs = trial_rng(3, 4), trial_rng(3, 4)
    read, word = [], ours._word
    ours._word = lambda: read.append(1) or word()
    span = 2**31 + 1
    drawn = [ours.draw_int(0, span) for _ in range(400)]
    assert drawn == [int(theirs.integers(0, span)) for _ in drawn]
    assert 300 < len(read) < 500, len(read)  # 200 words with no rejection
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("lo, hi", [(0, 2**32 + 1), (0, 2**40), (3, 3), (5, 2)])
def test_draw_int_refuses_a_span_numpy_draws_from_64_bit_words_or_none(lo, hi):
    with pytest.raises(ValueError, match="draw_int needs"):
        trial_rng(1, 2).draw_int(lo, hi)


def test_a_reused_stream_clears_the_half_a_trial_leaves():
    streams = TrialStreams(77)
    for trial in (0, 1, 2**63):
        streams.rng(trial + 1).draw_int(0, 5)  # an odd number of integer draws leaves a half
        assert streams._gen.half is not None
        reused, fresh = streams.rng(trial), trial_rng(77, trial)
        assert reused.half is None
        assert [reused.draw_int(0, 7) for _ in range(5)] == [fresh.draw_int(0, 7) for _ in range(5)]


def test_fuzz_all_carries_no_half_word_from_chain_to_chain():
    # rem-2.3 draws one integer per trial, so its second block, of 5
    # trials, ends with a half-word held; cor-2.4's trials, of two integers
    # each, must still draw as they do alone
    cfg = GeneratorConfig(seed=5, trials=69)
    together = harness.fuzz_all(cfg, ["rem-2.3", "cor-2.4"])
    alone = [fuzz_chain(cid, cfg) for cid in ("rem-2.3", "cor-2.4")]
    assert harness.dumps_report(together) == harness.dumps_report(alone)
    assert [rep.slack_rows for rep in together] == [rep.slack_rows for rep in alone]


class _NumpyIntegers(np.random.Generator):
    """A stream whose integer draw is numpy's ``integers`` call itself, as
    the generators drew before ``TrialStream.draw_int``."""

    def draw_int(self, lo, hi):
        return int(self.integers(lo, hi))


def test_every_chain_draws_what_numpy_integers_drew_bitwise():
    # the old draws, by their numpy calls, are the oracle of every generator
    configs = [GeneratorConfig(seed=48), GeneratorConfig(seed=49, dim_range=(1, 8))]
    configs += [GeneratorConfig(seed=50, regime={"case": c}) for c in ("below", "straddle", "above", "low", "high")]
    for cfg in configs:
        for cid, entry in CHAINS.items():
            for trial in range(40):
                numpy_drawn = entry.generate(_stream(_NumpyIntegers, cfg.seed, trial), cfg)
                assert _fingerprint(entry.generate(trial_rng(cfg.seed, trial), cfg)) == _fingerprint(numpy_drawn), (cid, trial)


# every (lo, hi) a generator draws uniformly from with literal ends, and the
# ends whose logarithms log_uniform draws from
_UNIFORM_RANGES = [
    (0.0, 1.0), (0.02, 0.98), (1.2, 3.0), (1.2, 2.5), (0.05, 2.0), (0.1, 1.0), (1e-3, 1.0), (1.0, 3.0),
    (-1.5, 1.0), (0.0, 2.0), (-1.0, 1.0), (1.0, 10.0), (1.0, np.e), (1.0, 5.0), (0.1, 5.0), (0.05, 1.0),
    (-1.0, -0.05),
]
_LOG_UNIFORM_RANGES = [
    (1e-3, 1e3), (1.0, 50.0), (0.1, 10.0), (0.05, 3.0), (1e-2, 1e2), (1e-3, 0.95), (1.02, 50.0),
    (1.0, 100.0), (1e-3, 1.0 / np.e), (0.05, 2.0), (1.0, 1e3),
]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def test_uniform_is_generator_uniform_bitwise():
    ranges = _UNIFORM_RANGES + [(np.log(lo), np.log(hi)) for lo, hi in _LOG_UNIFORM_RANGES]
    ends = np.random.default_rng(3)
    for trial in range(1000):
        # drawn ends, like a constrained pair's [m, M] or thm-2.12's [a, b] and shift
        m, M = sorted(ends.uniform(1e-3, 100.0, 2).tolist())
        ours, theirs = trial_rng(42, trial), trial_rng(42, trial)
        for lo, hi in ranges + [(m, M), (0.0, M)]:
            for size in (None, 1, 5):
                assert _bits(harness.uniform(ours, lo, hi, size)) == _bits(theirs.uniform(lo, hi, size)), (trial, lo, hi, size)
        assert _bits(harness.uniform(ours)) == _bits(theirs.uniform())
        assert ours.random() == theirs.random()  # still in step


# the draws are written on Python floats, with one rng call per vector; each
# old numpy formula is their oracle, on a fresh stream per trial


def test_log_uniform_is_exp_of_a_log_bounded_uniform_bitwise():
    ends = np.random.default_rng(4)
    for trial in range(300):
        m, M = sorted(ends.uniform(1e-3, 100.0, 2).tolist())
        for lo, hi in _LOG_UNIFORM_RANGES + [(m, M), (1e-300, 1e300)]:
            for size in (None, 2, 1 + trial % 32):
                ours, theirs = trial_rng(43, trial), trial_rng(43, trial)
                drawn = harness.log_uniform(ours, lo, hi, size)
                assert type(drawn) is (float if size is None else np.ndarray)
                assert _bits(drawn) == _bits(np.exp(theirs.uniform(np.log(lo), np.log(hi), size))), (trial, lo, hi, size)
                assert ours.random() == theirs.random()  # still in step


def test_weights_are_exponentials_over_their_numpy_sum_bitwise():
    for trial in range(2000):
        for k in range(1, 8):
            ours, theirs = trial_rng(44, 8 * trial + k), trial_rng(44, 8 * trial + k)
            w = theirs.exponential(size=k)
            assert _bits(harness._weights(ours, k)) == _bits(w / w.sum()), (trial, k)
            assert ours.random() == theirs.random()


def test_domain_points_are_one_uniform_per_point_bitwise():
    for trial in range(500):
        f = REGISTRY[list(REGISTRY)[trial % len(REGISTRY)]]
        lo, hi = f.domain
        for k in (1, 2, 5):
            ours, theirs = trial_rng(45, trial), trial_rng(45, trial)
            expected = [lo + (hi - lo) * theirs.uniform(0.02, 0.98) for _ in range(k)]
            assert _bits(harness._domain_points(ours, f, k)) == _bits(expected), (f.id, k)
            assert ours.random() == theirs.random()


def _old_factory(kind: str, p: float, q: float) -> FunctionSpec:
    """The parametric factories as numpy scalars built them: each flag set
    formed per call, each id by ``format``."""
    if kind == "linear":
        mono = {"monotone_increasing"} if p > 0 else {"monotone_decreasing"} if p < 0 else set()
        return FunctionSpec(f"lin-{p:g}-{q:g}", (0.0, 50.0), lambda x: p * x + q, lambda x: p + 0.0 * x, frozenset({"convex", "concave"} | mono))
    if kind == "quad_exponential":
        return FunctionSpec(
            f"quad-exp-{p:g}-{q:g}", (-0.5, 1.5), lambda t: np.exp(p * t * t + q * t),
            lambda t: (2.0 * p * t + q) * np.exp(p * t * t + q * t), frozenset({"log_convex", "convex"}),
        )
    r = np.log(q / p)
    mono = {"monotone_increasing"} if q > p else {"monotone_decreasing"} if q < p else set()
    return FunctionSpec(
        f"geo-interp-{p:g}-{q:g}", (-0.5, 1.5), lambda t: p * np.exp(r * t), lambda t: p * r * np.exp(r * t),
        frozenset({"log_convex", "log_concave", "convex"} | mono),
    )


@pytest.mark.parametrize("kind, params", [
    ("linear", [(0.04, 0.12), (-0.5, 3.0), (0.0, 1.0), (np.float64(0.0123456789), np.float64(0.98765432))]),
    ("quad_exponential", [(1.0, 0.0), (0.0, -1.0), (1.9999, -0.333333333), (0.5, 1e-7)]),
    ("geometric_interpolant", [(1.0, 4.0), (4.0, 1.0), (2.5, 2.5), (0.1000001, 9.87654321)]),
])
def test_factories_build_the_functions_they_built_before(kind, params):
    for p, q in params:
        assert _fingerprint({0: getattr(funcs, kind)(p, q)}) == _fingerprint({0: _old_factory(kind, p, q)}), (kind, p, q)


def test_two_function_family_is_drawn_as_before_bitwise():
    for trial in range(2000):
        ours, theirs = trial_rng(46, trial), trial_rng(46, trial)
        a = theirs.uniform(1.2, 3.0)
        b = a * theirs.uniform(1.2, 2.5)
        fa, fb = np.log(a), np.log(b)
        c_min = fb * (b - a) / (fb - fa) - a
        c = c_min + theirs.uniform(0.05, 2.0) * max(1.0, abs(c_min))
        eps = theirs.uniform(0.1, 1.0) * fa / (b + c)
        f, g, a_ours, b_ours = harness.gen_two_function_family(ours)
        assert f is REGISTRY["log-wide"] and (a_ours, b_ours) == (a, b)
        assert _fingerprint({0: g}) == _fingerprint({0: _old_factory("linear", eps, eps * c)}), trial
        assert ours.random() == theirs.random()


def test_gen_pd_matrix_contract():
    # zou draws A and B with log-uniform spectra from scalar_range
    from test_linalg import loewner_compare

    generate = CHAINS["zou"].generate
    p = generate(trial_rng(5, 3), GeneratorConfig(seed=5, dim_range=(1, 1)))
    assert p["A"].shape == p["B"].shape == (1, 1) and p["A"][0, 0] > 0 and p["B"][0, 0] > 0
    cfg = GeneratorConfig(seed=5, dim_range=(2, 6))
    p1, p2 = generate(trial_rng(5, 3), cfg), generate(trial_rng(5, 3), cfg)
    lo, hi = cfg.scalar_range
    for name in ("A", "B"):
        M = p1[name]
        assert np.array_equal(M, p2[name])
        eigs = np.linalg.eigvalsh(M)
        assert eigs.min() > 0.0
        assert eigs.min() >= lo * 0.99 and eigs.max() <= hi * 1.01
        strict = loewner_compare(np.zeros_like(M), M, tol=0.0)
        assert strict.holds and strict.min_slack_eigenvalue > 0.0


def _constrained_pair(trial: int, m: float, M: float):
    """A 3 x 3 pair with relative spectrum [m, M], realized as a block of one."""
    cfg = GeneratorConfig(seed=11)
    p = harness._realize([{"A": harness._constrained(trial_rng(cfg.seed, trial), 3, m, M, *cfg.scalar_range), "B": None}])[0]
    return p["A"], p["B"]


def test_gen_constrained_pair_recovers_targets():
    A, B = _constrained_pair(0, 2.0, 5.0)
    m, M = relative_spectrum_bounds(A, B)
    assert m == pytest.approx(2.0, abs=1e-9)
    assert M == pytest.approx(5.0, abs=1e-9)
    A, B = _constrained_pair(1, 1.0, 1.0)
    assert np.abs(A - B).max() <= 1e-9 * (1.0 + np.abs(A).max())


def test_fuzz_unknown_chain():
    with pytest.raises(KeyError, match="unknown chain 'no-such-chain'"):
        fuzz_chain("no-such-chain", GeneratorConfig(trials=1))
    with pytest.raises(KeyError, match="unknown chain 'no-such-chain'"):
        harness.fuzz_all(GeneratorConfig(trials=1), ["zou", "no-such-chain"])


def test_fuzz_all_of_no_chain_draws_nothing(monkeypatch):
    # only ids=None means every chain: an empty selection runs none
    def no_draw(self, trial):
        raise AssertionError("no chain to draw")

    monkeypatch.setattr(harness.TrialStreams, "rng", no_draw)
    assert harness.fuzz_all(GeneratorConfig(seed=1, trials=200), []) == []


def test_fuzz_determinism_bitwise():
    cfg = GeneratorConfig(seed=42, trials=25)
    for cid in ("prop-2.1", "cor-3.8", "thm-3.3", "thm-2.12"):
        r1 = fuzz_chain(cid, cfg)
        r2 = fuzz_chain(cid, cfg)
        assert r1.to_obj() == r2.to_obj()
        assert r1.slack_rows == r2.slack_rows


def test_fuzz_regime_soundness():
    # generators honor their hypotheses: no not-applicable draws
    cfg = GeneratorConfig(seed=3, trials=40)
    for cid in ("thm-3.5", "thm-3.6", "thm-3.11", "thm-2.12"):
        rep = fuzz_chain(cid, cfg)
        assert rep.not_applicable == 0, cid
        assert rep.trials_run == 40
        assert not rep.failures, cid


def test_fuzz_report_invariant():
    cfg = GeneratorConfig(seed=3, trials=30)
    rep = fuzz_chain("zou", cfg)
    assert rep.trials_run == 30
    assert len(rep.slack_rows) + rep.not_applicable == 30
    assert rep.min_slack == min(s for _, s in rep.slack_rows)


def test_fuzz_counts_ill_conditioned_draws_as_rejected():
    # the relative spectrum of such wide draws falls under the kernel's
    # positive-definiteness floor; the run records those draws and goes on
    cfg = GeneratorConfig(seed=0, trials=200, scalar_range=(1e-7, 1e7))
    for cid in ("zou", "prop-3.10"):
        rep = fuzz_chain(cid, cfg)
        assert rep.rejected > 0, cid
        assert not rep.failures, cid
        assert len(rep.slack_rows) + rep.not_applicable + rep.rejected == 200, cid
        assert rep.to_obj()["rejected"] == rep.rejected


PAIR_CHAINS = ["zou", "thm-3.3", "thm-3.5", "thm-3.6", "thm-3.11", "prop-3.10"]

# (pass, fail, not-applicable, rejected) per chain, as report version 3
# counted them before the pair chains were decided on the spectrum of X;
# every chain a config runs and does not list passes every trial. The one
# change: zou's trial 33 at scalar_range (1e-7, 1e7), whose B (eigenvalues
# 7.4e-7 .. 9.6e5) only the factorization of B refused, now passes. thm-2.12
# checks its hypotheses at max(tol, 1e-9), so at tol -1 its trials fail
# instead of being not-applicable, and at tol 0 none is not-applicable.
PINNED_COUNTS = [
    ("fuzz-all-seed-42", {"seed": 42, "trials": 60}, list(CHAINS), {}),
    ("fuzz-all-seed-7", {"seed": 7, "trials": 60}, list(CHAINS), {}),
    *[
        (f"n-{n}", {"seed": 0, "trials": 20, "dim_range": (n, n)}, OPERATOR_CHAINS,
         {"thm-3.11": (0, 0, 20, 0)} if n == 1 else {})
        for n in range(1, 9)
    ],
    ("tol-minus-1", {"seed": 42, "trials": 60, "tol": -1.0}, OPERATOR_CHAINS,
     {cid: (0, 60, 0, 0) for cid in [*PAIR_CHAINS, "thm-2.12"]}),
    ("tol-zero", {"seed": 42, "trials": 60, "tol": 0.0}, ["thm-2.12"], {}),
    ("wide-scalar-range", {"seed": 0, "trials": 200, "scalar_range": (1e-7, 1e7)}, OPERATOR_CHAINS,
     {"zou": (42, 0, 0, 158), "prop-3.10": (51, 0, 0, 149)}),
    # draws whose b/a leaves float range are refused by name before any log
    ("extreme-scalar-range", {"seed": 3, "trials": 600, "scalar_range": (1e-300, 1e300)}, ["prop-2.1", "cor-3.8"],
     {"prop-2.1": (567, 0, 0, 33), "cor-3.8": (468, 0, 0, 132)}),
]


@pytest.mark.parametrize("config, ids, expected", [case[1:] for case in PINNED_COUNTS],
                         ids=[case[0] for case in PINNED_COUNTS])
def test_outcome_counts_are_pinned(config, ids, expected):
    cfg = GeneratorConfig(**config)
    got = {}
    for rep in harness.fuzz_all(cfg, ids):
        decided = rep.trials_run - rep.not_applicable - rep.rejected
        got[rep.chain_id] = (decided - len(rep.failures), len(rep.failures), rep.not_applicable, rep.rejected)
    assert got == {cid: expected.get(cid, (cfg.trials, 0, 0, 0)) for cid in ids}


def test_write_report_roundtrip(tmp_path):
    cfg = GeneratorConfig(seed=21, trials=10)
    reports = [fuzz_chain("prop-2.1", cfg), fuzz_chain("cor-3.8", cfg)]
    path = tmp_path / "report.json"
    harness.write_report(reports, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 7 and doc["seed"] == 21
    assert [c["id"] for c in doc["chains"]] == ["prop-2.1", "cor-3.8"]
    for chain in doc["chains"]:
        assert chain["trials"] == 10
        assert chain["failures"] == []
        assert chain["elapsed_s"] == 0.0
        assert isinstance(chain["min_slack"], float)
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain_id", "trial", "min_link_slack"]
    assert len(rows) == 21
    # csv slacks round-trip to the report values
    assert float(rows[1][2]) == reports[0].slack_rows[0][1]


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("tol", [1e-9, -1.0])
def test_fuzz_all_equals_chain_by_chain_runs(seed, tol, tmp_path, monkeypatch):
    # fuzz_all builds one stream generator for the whole run, and every
    # trial of every chain resets it to its own stream; it realizes and
    # factors the matrices of all chains together. Its reports and CSV rows
    # are those of one fuzz_chain call per chain, over two blocks of mixed n
    calls = []

    def counted(*args):
        calls.append(args)
        return trial_rng(*args)

    cfg = GeneratorConfig(seed=seed, trials=70, tol=tol, dim_range=(2, 8))
    by_chain = [fuzz_chain(cid, cfg) for cid in CHAINS]
    monkeypatch.setattr(harness, "trial_rng", counted)
    together = harness.fuzz_all(cfg)
    assert len(calls) == 1
    for name, reports in (("by_chain", by_chain), ("together", together)):
        harness.write_report(reports, tmp_path / f"{name}.json")
    assert harness.dumps_report(together) == harness.dumps_report(by_chain)
    assert (tmp_path / "together.csv").read_bytes() == (tmp_path / "by_chain.csv").read_bytes()
    assert [rep.chain_id for rep in together] == list(CHAINS)


@pytest.mark.parametrize("mode", [None, *entropy.TWO_FUNCTION_MODES])
def test_fuzz_all_realizes_a_block_once_and_factors_the_pair_chains_together(monkeypatch, mode):
    # at a fixed n, one block makes one _realize call for every matrix
    # chain, one eigh of every A (and of majorize mode's B), and one _Pairs
    # for the six pair chains and thm-2.12's congruence trials, which each
    # decide their own rows of it, whatever thm-2.12's modes are; each
    # matrix that a route reads is cast once (_square): an A per trial, and
    # a B per trial but in expectation mode
    calls = {"_realize": 0, "_Pairs": 0, "_pair_stack": [], "_square": 0}
    realize, pairs_init, pair_stack = harness._realize, linalg._Pairs.__init__, entropy._pair_stack
    square = linalg._square

    def counted_realize(block):
        calls["_realize"] += 1
        return realize(block)

    def counted_pairs(self, *args):
        calls["_Pairs"] += 1
        pairs_init(self, *args)

    def counted_pair_stack(chain, pairs, params):
        calls["_pair_stack"].append((chain.id, len(pairs.errors)))
        output = pair_stack(chain, pairs, params)
        assert [len(column) for column in output[1:4]] == [len(pairs.errors)] * 3  # one outcome per pair
        return output

    def counted_square(*args):
        calls["_square"] += 1
        return square(*args)

    cfg = GeneratorConfig(seed=3, trials=harness.FUZZ_BLOCK, dim_range=(4, 4), regime=None if mode is None else {"mode": mode})
    expected = harness.dumps_report([fuzz_chain(cid, cfg) for cid in CHAINS])
    monkeypatch.setattr(harness, "_realize", counted_realize)
    monkeypatch.setattr(linalg._Pairs, "__init__", counted_pairs)
    monkeypatch.setattr(entropy, "_pair_stack", counted_pair_stack)
    for module in (linalg, entropy):
        monkeypatch.setattr(module, "_square", counted_square)
    eig_calls = count_eig_calls(monkeypatch)
    assert harness.dumps_report(harness.fuzz_all(cfg)) == expected
    assert calls["_realize"] == 1 and calls["_Pairs"] == 1
    # 2 x 64 for each pair chain, 64 A of thm-2.12 and its B outside expectation mode
    assert calls["_square"] == {None: 878, "expectation": 832, "congruence": 896, "majorize": 896}[mode]
    assert eig_calls["eigh"] == 1
    if mode is None:  # the modes mixed: X's spectra, majorize mode's B <= A, then its links
        assert eig_calls["eigvalsh"] == 3
    assert calls["_pair_stack"] == [(cid, cfg.trials) for cid in entropy.PAIR_CHAINS]


def test_fuzz_all_makes_one_record_per_matrix_chain_and_block(monkeypatch):
    # each chain_stacks call makes one Decided per chain, which routing and
    # _settle write in place; no route builds one
    made, init = [], entropy.Decided.__init__

    def counted(self, chain_id, tol, k):
        made.append((chain_id, k))
        init(self, chain_id, tol, k)

    monkeypatch.setattr(entropy.Decided, "__init__", counted)
    cfg = GeneratorConfig(seed=3, trials=harness.FUZZ_BLOCK + 6, dim_range=(2, 4))
    harness.fuzz_all(cfg)
    assert made == [(cid, harness.FUZZ_BLOCK) for cid in OPERATOR_CHAINS] + [(cid, 6) for cid in OPERATOR_CHAINS]


def test_csv_sidecar_is_csv_writer_output(tmp_path):
    # the sidecar is written as one string, byte for byte what csv.writer writes
    reports = harness.fuzz_all(GeneratorConfig(seed=4, trials=3, dim_range=(2, 2)))
    path = tmp_path / "report.json"
    harness.write_report(reports, path)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain_id", "trial", "min_link_slack"])
        for rep in reports:
            for trial, slack in rep.slack_rows:
                writer.writerow([rep.chain_id, trial, harness._fmt_float(slack)])
    assert (tmp_path / "report.csv").read_bytes() == expected.read_bytes()
    assert len(expected.read_bytes().splitlines()) > len(CHAINS)


def test_csv_sidecar_writes_a_non_finite_slack_as_null(tmp_path):
    rep = harness.FuzzReport("zou", 4, 0, 0, [], -1.5, 0, 0.0, [(0, math.inf), (1, math.nan), (2, -1.5), (3, np.float64(0.25))])
    harness.write_report([rep], tmp_path / "r.json")
    assert (tmp_path / "r.csv").read_bytes() == b"chain_id,trial,min_link_slack\r\nzou,0,null\r\nzou,1,null\r\nzou,2,-1.5\r\nzou,3,0.25\r\n"


def test_write_report_empty(tmp_path):
    path = tmp_path / "empty.json"
    harness.write_report([], path)
    doc = json.loads(path.read_text())
    assert doc == {"version": 7, "seed": 0, "chains": []}


def test_report_timing_flag(tmp_path):
    cfg = GeneratorConfig(seed=2, trials=5)
    rep = fuzz_chain("prop-2.1", cfg)
    assert rep.elapsed_s > 0.0
    obj = rep.to_obj(include_timing=True)
    assert obj["elapsed_s"] == rep.elapsed_s
    assert rep.to_obj()["elapsed_s"] == 0.0


def test_fuzz_all_charges_each_matrix_chain_its_own_route(monkeypatch):
    # a slow zou route is charged to zou alone; an equal split of
    # chain_stacks would charge each of the 7 matrix chains a seventh of it
    delay, pair_stack = 0.7, entropy._pair_stack

    def slow_zou(chain, *args):
        if chain.id == "zou":
            time.sleep(delay)
        return pair_stack(chain, *args)

    monkeypatch.setattr(entropy, "_pair_stack", slow_zou)
    reports = harness.fuzz_all(GeneratorConfig(seed=1, trials=8, dim_range=(3, 3)))
    elapsed = {rep.chain_id: rep.elapsed_s for rep in reports}
    assert elapsed["zou"] >= delay
    assert all(elapsed[cid] < delay / 14 for cid in OPERATOR_CHAINS if cid != "zou"), elapsed
    assert all(chain["elapsed_s"] == 0.0 for chain in harness.report_document(reports)["chains"])


def test_passing_fuzz_all_builds_no_verdict_object(monkeypatch):
    # the matrix chains' outcomes are read from the columns of their records:
    # no OperatorChainVerdict or LoewnerVerdict is built on a passing run
    built = collections.Counter()
    for cls in (entropy.OperatorChainVerdict, entropy.LoewnerVerdict):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cfg = GeneratorConfig(seed=3, trials=70)
    reports = harness.fuzz_all(cfg)
    assert not any(rep.failures for rep in reports)
    for cid in OPERATOR_CHAINS:
        (rep,) = [rep for rep in reports if rep.chain_id == cid]
        assert rep.slack_rows and len(rep.slack_rows) + rep.not_applicable + rep.rejected == cfg.trials, cid
    assert not built
    # the counts see a verdict built by index, with its links' verdicts
    CHAINS["zou"].run(CHAINS["zou"].generate(trial_rng(cfg.seed, 0), cfg), cfg.tol)
    assert built == {"OperatorChainVerdict": 1, "LoewnerVerdict": 4}


def test_json_emitter_float_roundtrip():
    values = [0.1, 1.0 / 3.0, 1e308, -2.5e-308, 123456789.123456789, 0.0]
    emitted = harness._emit_json(values)
    parsed = json.loads(emitted)
    assert parsed == values
    assert harness._emit_json(float("nan")) == "null"
    assert harness._emit_json({"a": True, "b": None}) == '{"a": true, "b": null}'


@pytest.mark.parametrize("text", ["", "zou", 'a "quoted" \\ path', "tab\tnew\nline\x00", "caf\u00e9 \u2264 \U0001d53c"])
def test_json_emitter_writes_strings_as_json_dumps(text):
    assert harness._emit_json(text) == json.dumps(text)
    assert harness._emit_json({text: [text]}) == "{" + json.dumps(text) + ": [" + json.dumps(text) + "]}"


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


@pytest.mark.parametrize("value, text", [
    (True, "true"), (False, "false"), (None, "null"),
    (np.float64(0.1), "0.10000000000000001"), (np.float64("nan"), "null"), (np.float32(0.1), "0.10000000149011612"),
    (np.int64(-7), "-7"), ((1, 2.5, "a", None), '[1, 2.5, "a", null]'),
    (_Float(0.1), "0.10000000000000001"), (_Float(2.0), "2"), (_Str('a"b'), '"a\\"b"'),
    (_Dict(x=1.5, y=[True, (np.int64(3),)]), '{"x": 1.5, "y": [true, [3]]}'),
    ({"k": _Float(-0.0), 1: float("inf")}, '{"k": -0, "1": null}'),
])
def test_json_emitter_writes_every_other_type_by_its_kind(value, text):
    # the exact built-in types go by their type; bools, None, numpy
    # scalars, tuples and subclasses by isinstance, into the same writers
    assert harness._emit_json(value) == text


def test_json_emitter_refuses_other_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        harness._emit_json({1, 2})


def test_failures_recorded_with_serialized_params():
    cfg = GeneratorConfig(seed=13, trials=4, tol=-1.0)  # impossible demand: slack >= +scale
    rep = fuzz_chain("cor-3.8", cfg)
    assert rep.failures and len(rep.failures) <= 4
    first = rep.failures[0]
    assert set(first) == {"trial", "min_rel_slack", "params"}
    assert isinstance(first["params"]["a"], float)
    rep_op = fuzz_chain("zou", GeneratorConfig(seed=13, trials=2, tol=-1.0))
    assert rep_op.failures
    assert rep_op.failures[0]["params"]["A"]["n"] >= 2


def test_arithmetic_errors_are_recorded_as_failures(monkeypatch):
    # a check that raises an ArithmeticError, here a quotient by
    # (t - s)**(p - 1), which underflows to 0 at p = 2000: recorded with its
    # error, and the run goes on
    def generate(rng, cfg):
        return {"fn": REGISTRY["exp"], "s": 0.5, "t": 1.0, "p": 2000.0 if rng.random() < 0.5 else 2.0, "q": 0.0}

    def run(p, tol):
        if p["p"] == 2000.0:
            return 1.0 / (p["t"] - p["s"]) ** (p["p"] - 1.0)
        return checked(p, tol)

    checked = CHAINS["rem-2.3"].run
    monkeypatch.setitem(CHAINS, "rem-2.3", dataclasses.replace(CHAINS["rem-2.3"], generate=generate, run=run))
    rep = fuzz_chain("rem-2.3", GeneratorConfig(seed=3, trials=8))
    errors = [f for f in rep.failures if "error" in f]
    assert errors and all(f["error"] == "float division by zero" and f["params"]["p"] == 2000.0 for f in errors)
    assert len(errors) + len(rep.slack_rows) == 8


# how a failure record writes a value of each declared parameter type
_WRITTEN = {
    "matrix": lambda val: {"n": val.shape[0], "data": val.tolist()},
    "function": lambda val: val.id,
    "floats": lambda val: [float(v) for v in val],
    "float": float,
    "int": int,
    "str": str,
    None: str,
}


def test_failure_records_write_declared_params_per_type():
    # at tol=-1 every applicable link fails, so every chain and every
    # thm-2.12 mode leaves records that send its params through serialize_params
    configs = [GeneratorConfig(seed=3, trials=12, dim_range=(1, 3), tol=-1.0)]
    configs += [GeneratorConfig(seed=3, trials=6, tol=-1.0, regime={"mode": mode}) for mode in entropy.TWO_FUNCTION_MODES]
    seen = set()
    for cfg in configs:
        for entry in CHAINS.values():
            if cfg.regime and entry.id != "thm-2.12":
                continue
            rep = fuzz_chain(entry.id, cfg)
            assert rep.failures, entry.id
            for record in rep.failures:
                drawn = entry.generate(trial_rng(cfg.seed, record["trial"]), cfg)
                held = [prm for prm in entry.params if prm.name in drawn]
                assert list(record["params"]) == [prm.name for prm in held] == list(drawn), entry.id
                for prm in held:
                    written = record["params"][prm.name]
                    assert written == _WRITTEN[prm.parser](drawn[prm.name]), (entry.id, prm.name)
                    assert type(written) is type(_WRITTEN[prm.parser](drawn[prm.name]))
                    if prm.parser == "floats":
                        assert all(type(v) is float for v in written)
                    seen.add(prm.parser)
    assert seen == set(_WRITTEN)


def _per_trial_reference(chain_id: str, cfg: GeneratorConfig) -> dict:
    """What fuzz_chain aggregates, from generating and running each trial on
    its own: CHAINS[chain_id].generate on the trial's stream, then .run."""
    entry = CHAINS[chain_id]
    rows, failures, na, rejected = [], [], 0, 0
    for trial in range(cfg.trials):
        params = entry.generate(trial_rng(cfg.seed, trial), cfg)
        try:
            verdict = entry.run(params, cfg.tol)
        except ValueError:
            rejected += 1
            continue
        except (NumericError, OverflowError) as exc:
            failures.append({"trial": trial, "error": str(exc), "params": harness.serialize_params(entry, params)})
            continue
        if not verdict.applicable:
            na += 1
            continue
        slack = verdict.min_rel_slack
        rows.append((trial, slack))
        if not verdict.ok:
            failures.append({"trial": trial, "min_rel_slack": slack, "params": harness.serialize_params(entry, params)})
    return {
        "slack_rows": rows,
        "failures": failures,
        "not_applicable": na,
        "rejected": rejected,
        "min_slack": min((s for _, s in rows), default=None),
    }


def _stacked_vs_per_trial_configs():
    for cid in OPERATOR_CHAINS:
        yield cid, GeneratorConfig(seed=31, trials=150)  # blocks mix n
        yield cid, GeneratorConfig(seed=32, trials=70, dim_range=(4, 4))  # full stacks
    for cid in ("zou", "prop-3.10"):  # rejections inside stacks
        yield cid, GeneratorConfig(seed=0, trials=100, scalar_range=(1e-7, 1e7))
    yield "zou", GeneratorConfig(seed=33, trials=20, tol=-1.0)  # every trial fails
    for case in ("below", "straddle", "above"):
        yield "thm-3.3", GeneratorConfig(seed=34, trials=40, regime={"case": case})
    for case in ("low", "high"):
        yield "thm-3.6", GeneratorConfig(seed=35, trials=40, regime={"case": case})
    for mode in ("expectation", "congruence", "majorize"):
        yield "thm-2.12", GeneratorConfig(seed=36, trials=20, regime={"mode": mode})


def test_stacked_fuzz_matches_per_trial_runs_bitwise():
    # fuzz_chain evaluates the trials of a block that share a shape as one
    # stack; every per-trial outcome must be bit for bit the one-trial run
    seen = {"slack_rows": 0, "failures": 0, "rejected": 0}
    for cid, cfg in _stacked_vs_per_trial_configs():
        rep = fuzz_chain(cid, cfg)
        got = {
            "slack_rows": rep.slack_rows,
            "failures": rep.failures,
            "not_applicable": rep.not_applicable,
            "rejected": rep.rejected,
            "min_slack": rep.min_slack,
        }
        ref = _per_trial_reference(cid, cfg)
        # repr tells every float bit pattern apart, -0.0 from 0.0 included
        assert repr(got) == repr(ref), (cid, cfg)
        seen["slack_rows"] += len(ref["slack_rows"])
        seen["failures"] += len(ref["failures"])
        seen["rejected"] += ref["rejected"]
    # the comparison is only as strong as the outcomes it meets
    assert all(count > 0 for count in seen.values()), seen


DRAWN_CHAINS = [cid for cid, entry in CHAINS.items() if entry.draw is not None]


def _fingerprint(params: dict) -> list:
    """Keys in order, with the bytes of every array, a function's id, domain,
    flags and the bytes of its values and derivatives on a grid inside its
    domain, and the repr of every other value."""
    out = []
    for key, val in params.items():
        if isinstance(val, np.ndarray):
            out.append((key, val.shape, val.tobytes()))
        elif isinstance(val, FunctionSpec):
            xs = np.linspace(*val.domain, 9)[1:-1]
            out.append((key, val.id, val.domain, sorted(val.flags), val.eval(xs).tobytes(), val.deriv(xs).tobytes()))
        else:
            out.append((key, repr(val)))
    return out


def _block_vs_per_trial_configs():
    for cid in DRAWN_CHAINS:
        yield cid, GeneratorConfig(seed=41, trials=150)  # blocks mix n
        yield cid, GeneratorConfig(seed=42, trials=40, dim_range=(1, 1))
        yield cid, GeneratorConfig(seed=43, trials=70, scalar_range=(1e-7, 1e7))
    for case in ("below", "straddle", "above"):
        yield "thm-3.3", GeneratorConfig(seed=44, trials=40, regime={"case": case})
    for case in ("low", "high"):
        yield "thm-3.6", GeneratorConfig(seed=45, trials=40, regime={"case": case})
    for mode in entropy.TWO_FUNCTION_MODES:
        yield "thm-2.12", GeneratorConfig(seed=46, trials=70, regime={"mode": mode})


def test_block_generation_matches_per_trial_generation_bitwise():
    # fuzz_chain draws each trial alone but factors the matrices of a block
    # as stacks; every trial must be bit for bit the one generated alone
    assert set(DRAWN_CHAINS) == {"zou", "thm-3.3", "thm-3.5", "thm-3.6", "thm-3.11", "prop-3.10", "thm-2.12"}
    assert set(DRAWN_CHAINS) == set(OPERATOR_CHAINS)
    for cid, cfg in _block_vs_per_trial_configs():
        entry = CHAINS[cid]
        streams = TrialStreams(cfg.seed)
        for first in range(0, cfg.trials, harness.FUZZ_BLOCK):
            trials = range(first, min(first + harness.FUZZ_BLOCK, cfg.trials))
            block = harness._realize([entry.draw(streams.rng(k), cfg) for k in trials])
            assert len(block) == len(trials)
            for k, params in zip(trials, block):
                alone = entry.generate(trial_rng(cfg.seed, k), cfg)
                assert _fingerprint(params) == _fingerprint(alone), (cid, cfg, k)


@pytest.mark.parametrize("scalar_range", [(5.0, 5.0), (1e-6, 1e-5), (1e5, 1e9)])
def test_every_chain_runs_at_any_accepted_scalar_range(scalar_range):
    # regime intervals that miss the scalar range fall back to the regime
    # interval alone instead of asking for an empty draw
    cfg = GeneratorConfig(seed=1, trials=30, scalar_range=scalar_range)
    for cid in CHAINS:
        rep = fuzz_chain(cid, cfg)
        assert rep.trials_run == 30, cid
        assert not rep.failures, cid
    assert harness._meet((1e-2, 1e2), 1e-3, 1e3) == (1e-2, 1e2)
    assert harness._meet((1e-2, 1e2), 5.0, 1e9) == (5.0, 1e2)
    assert harness._meet((1e-2, 1e2), 1e5, 1e9) == (1e-2, 1e2)


def test_generation_decomposes_nothing(monkeypatch):
    # a constrained pair's A^(1/2) is built from the factors that built A,
    # so drawing and realizing a block calls no eigensolver
    def refuse(*args, **kwargs):
        raise AssertionError("generation called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    configs = [(cid, GeneratorConfig(seed=47, trials=40)) for cid in ("thm-3.3", "thm-3.5", "thm-3.6", "thm-3.11")]
    configs.append(("thm-2.12", GeneratorConfig(seed=47, trials=40, regime={"mode": "congruence"})))
    for cid, cfg in configs:
        streams = TrialStreams(cfg.seed)
        block = harness._realize([CHAINS[cid].draw(streams.rng(k), cfg) for k in range(cfg.trials)])
        assert all({"A", "B"} <= set(params) for params in block), cid
    A, B = _constrained_pair(0, 2.0, 5.0)
    assert A.shape == B.shape == (3, 3)


def test_fingerprint_tells_equal_functions_from_different_ones():
    from oel import funcs

    rng = np.random.default_rng(3)
    assert _fingerprint({"g": funcs.linear(0.5, 1.0)}) == _fingerprint({"g": funcs.linear(0.5, 1.0)})
    # same id (slopes agree to six digits), different function
    assert funcs.linear(0.5, 1.0).id == funcs.linear(0.5 + 1e-9, 1.0).id
    assert _fingerprint({"g": funcs.linear(0.5, 1.0)}) != _fingerprint({"g": funcs.linear(0.5 + 1e-9, 1.0)})
    f1, *_ = harness.gen_two_function_family(rng)
    f2, *_ = harness.gen_two_function_family(rng)
    assert _fingerprint({"f": f1}) == _fingerprint({"f": f2})


@pytest.mark.parametrize(
    "cid, builder, min_slack",
    [("prop-2.1", "young_ratio_bounds", 9.949262762734405e-14), ("cor-3.8", "phi", 4.390386428878978e-07)],
)
def test_fuzzing_builds_no_witness(monkeypatch, cid, builder, min_slack):
    # the witness-only arithmetic runs when a verdict is printed, never while
    # fuzzing; the outcome is what it was when every trial built its witness
    def refuse(*args):
        raise AssertionError(f"{builder} ran while fuzzing {cid}")

    monkeypatch.setattr(scalar, builder, refuse)
    rep = fuzz_chain(cid, GeneratorConfig(seed=1, trials=500))
    assert (rep.trials_run, rep.failures, rep.not_applicable, rep.rejected) == (500, [], 0, 0)
    assert rep.min_slack == min_slack


@pytest.mark.parametrize("scalar_range", [(1e-3, 1e3), (1e-7, 1e7)])
def test_witness_builders_neither_raise_nor_warn(scalar_range):
    # every refusal happens before a verdict is returned: the witness of
    # every decided scalar verdict builds without an error or a warning
    cfg = GeneratorConfig(seed=1, trials=2000, scalar_range=scalar_range)
    for cid, entry in CHAINS.items():
        if entry.kind != "scalar":
            continue
        streams = TrialStreams(cfg.seed)
        for trial in range(cfg.trials):  # at these ranges every draw is decided
            verdict = entry.run(entry.generate(streams.rng(trial), cfg), cfg.tol)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert verdict.to_dict()["witness"], (cid, trial)
