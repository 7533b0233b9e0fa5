"""Tests of the benchmark itself: run with
``python -m pytest perfbench/tests`` from the repository root."""

import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import refspeed
import worker
from tracer import FLAG_EIG, SPAN_DTYPE, Tracer, layer_costs, package_modules

ROOT = Path(__file__).resolve().parents[2]
LAYERS = ["chains", "cli", "entropy", "funcs", "harness", "linalg", "scalar"]


@pytest.fixture
def tracer():
    t = Tracer()
    yield t
    if t.installed:
        t.uninstall()


def traced(tracer, fn, *args, **kwargs):
    tracer.reset()
    tracer.install()
    try:
        fn(*args, **kwargs)
    finally:
        tracer.uninstall()
    return layer_costs(tracer.spans(), tracer.layers, tracer.func_names)


def _namespaces(tracer):
    return [tracer.package, *tracer.modules.values()]


def test_discovery_reaches_every_module_and_uninstall_restores(tracer):
    assert tracer.layers == LAYERS
    before = [dict(vars(mod)) for mod in _namespaces(tracer)]
    chains_before = dict(tracer.harness.CHAINS)
    eigh = np.linalg.eigh
    tracer.install()
    assert np.linalg.eigh is not eigh
    wrapped_layers = set()
    for mod, old in zip(_namespaces(tracer), before):
        for name, val in old.items():
            if inspect.isfunction(val) and val.__module__.startswith("oel."):
                now = getattr(mod, name)
                assert now is not val and now.__wrapped__ is val, f"{mod.__name__}.{name} not wrapped"
                wrapped_layers.add(val.__module__.split(".")[1])
    assert sorted(wrapped_layers) == LAYERS
    assert all(e.generate is not chains_before[c].generate for c, e in tracer.harness.CHAINS.items())
    tracer.uninstall()
    for mod, old in zip(_namespaces(tracer), before):
        assert all(vars(mod)[k] is v for k, v in old.items())
    assert all(tracer.harness.CHAINS[c] is e for c, e in chains_before.items())
    assert np.linalg.eigh is eigh


def test_every_oel_module_is_a_layer_or_holds_no_functions(tracer):
    for name, mod in package_modules().items():
        owns = any(inspect.isfunction(v) and v.__module__ == mod.__name__ for v in vars(mod).values())
        assert owns == (name in tracer.layers)


def test_zou_trial_traces_seven_eigendecompositions_and_seventeen_validations(tracer):
    from oel import harness

    cfg = harness.GeneratorConfig(seed=5, trials=1, dim_range=(4, 4))
    costs = traced(tracer, harness.fuzz_chain, "zou", cfg)
    assert costs["linalg.eig_calls"] == 7
    assert costs["linalg.validate_calls"] == 17
    assert costs["linalg.loewner_calls"] == 4
    assert costs["entropy.calls"] == 1


def test_scalar_suite_does_no_linalg_or_entropy_work(tracer, tmp_path):
    work = worker.ScalarSuite(seed=3, tmp=tmp_path)
    worker.Passes(len(work.plan)).run(work, tracer=tracer)
    costs = layer_costs(tracer.spans(), tracer.layers, tracer.func_names)
    assert costs["linalg.eig_calls"] == 0
    assert costs["linalg.calls"] == 0
    assert costs["entropy.calls"] == 0
    assert costs["chains.calls"] == worker.SCALAR_TRIALS * len(work.plan)
    assert costs["cli.calls"] == len(work.plan)


def test_tracing_repeats_counts_and_leaves_outputs_unchanged(tracer, tmp_path):
    work = worker.FuzzAll(seed=2, tmp=tmp_path)
    work.plan = work.plan[:2]
    plain, traced_passes, counts = worker.Passes(2), worker.Passes(2), []
    plain.run(work)
    for _ in range(2):
        traced_passes.run(work, tracer=tracer)
        costs = layer_costs(tracer.spans(), tracer.layers, tracer.func_names)
        counts.append({k: v for k, v in costs.items() if not k.endswith("_us")})
    assert traced_passes.identical and traced_passes.results == plain.results
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eig_calls"] > 0 and counts[0]["funcs.eval_calls"] > 0


def test_operator_wide_plan_runs_every_thm_2_12_mode_once(tmp_path):
    work = worker.OperatorWide(seed=4, tmp=tmp_path)
    modes = [regime["mode"] for cid, _, regime in work.plan if cid == "thm-2.12"]
    assert sorted(modes) == sorted(worker.WIDE_MODES)
    assert all(regime is None for cid, _, regime in work.plan if cid != "thm-2.12")


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_every_unit_of_a_plan_has_its_own_seed(workload, tmp_path):
    plan = worker.WORKLOADS[workload](seed=4, tmp=tmp_path).plan
    seeds = [unit[1] for unit in plan]
    assert len(set(seeds)) == len(seeds)


def test_fuzz_all_units_run_many_trials_per_chain_at_one_n(tmp_path):
    work = worker.FuzzAll(seed=6, tmp=tmp_path)
    assert [n for n, _ in work.plan] == list(range(2, 9))
    work.plan = work.plan[:2]
    passes = worker.Passes(2)
    passes.run(work)
    chains = len(work.harness.CHAINS)
    assert [r.attempted for r in passes.results] == [chains * worker.FUZZ_ALL_TRIALS] * 2
    assert len(passes.seconds) == 1 and passes.trials_per_s() > 0


def test_pass_times_are_scaled_to_reference_speed():
    passes = worker.Passes(1)
    passes.results = [worker.UnitResult(attempted=10, na=2, failed=0, digest="")]
    passes.seconds, passes.reference_seconds = [2.0, 6.0], [2.0, 3.0]
    assert passes.trials_per_s() == pytest.approx(8 / 2.5)
    assert passes.trials_per_s(min, at_reference_speed=False) == pytest.approx(8 / 2.0)
    assert refspeed.at_reference_speed(6.0, before=1.5, after=2.5) == pytest.approx(3.0)
    assert refspeed.slowdown(0.0) > 0


def test_layer_self_times_partition_the_root_span(tracer):
    from oel import harness

    costs = traced(tracer, harness.fuzz_chain, "thm-3.3", harness.GeneratorConfig(seed=1, trials=3))
    spans = tracer.spans()
    root = spans[spans["parent"] < 0]
    total = float((root["end"] - root["start"]).sum()) * 1e6
    per_layer = sum(costs[f"{name}.self_us"] for name in tracer.layers if name != "harness")
    per_layer += sum(costs[f"harness.{part}_us"] for part in ("self", "generate", "emit"))
    assert per_layer == pytest.approx(total, rel=1e-9)


def _spans(rows):
    """rows of (parent, layer, flags, start, end); ids are the row numbers."""
    return np.array([(i, p, lay, 0, 0, f, s, e) for i, (p, lay, f, s, e) in enumerate(rows)], dtype=SPAN_DTYPE)


def test_layer_costs_counts_nested_eigendecompositions_once():
    spans = _spans([
        (-1, 0, 0, 0.0, 10.0),  # caller in layer 0
        (0, 1, FLAG_EIG, 1.0, 9.0),  # helper returning its callee's decomposition
        (1, 1, FLAG_EIG, 2.0, 8.0),  # the solver
        (0, 1, FLAG_EIG, 9.0, 9.5),  # a second, separate decomposition
    ])
    costs = layer_costs(spans, ["a", "b"], ["x.f"])
    assert costs["linalg.eig_calls"] == 2
    assert costs["linalg.eig_us"] == pytest.approx(6.5e6)
    assert costs["a.self_us"] == pytest.approx(1.5e6)  # 10 - 8 - 0.5
    assert costs["b.self_us"] == pytest.approx(8.5e6)
    assert costs["b.calls"] == 2  # the nested same-layer call is not a boundary


def test_oracle_accepts_oel_and_rejects_a_perturbed_entropy(monkeypatch):
    ok, worst = oracle.check_relative_entropy(11)
    assert ok and worst < oracle.TOLERANCE
    import oel.entropy

    real = oel.entropy.relative_entropy
    monkeypatch.setattr(oel.entropy, "relative_entropy", lambda A, B: real(A, B) * (1 + 1e-10))
    assert not oracle.check_relative_entropy(11)[0]


def test_runner_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "fuzz-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
