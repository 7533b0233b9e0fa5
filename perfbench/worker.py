"""One workload process of the benchmark; ``run.py`` starts it.

Modes:

- ``probe``: set up (import ``oel``, build the registry, one warm-up call per
  chain), print ``ready`` and exit. ``run.py`` times launches of it.
- ``timed``: set up, print ``ready``, make whole passes through the
  workload's plan of units until the next pass would end after ``--seconds``
  (at least MIN_PASSES passes), then run the output checks and print one JSON
  result line.
- ``traced``: like ``timed``, but an untraced pass first, then traced and
  untraced passes in turn; report the per-layer costs of the traced ones.

A unit is one call of a public ``oel`` entry point (``oel.cli.main``,
``oel.harness.fuzz_chain``, or ``oel.harness.fuzz_all`` and ``write_report``)
with many trials, on inputs drawn from its own seed. Chunks of the
reference kernel of ``refspeed`` run between units and tell how fast the
machine ran; ``trials_per_s`` divides a pass's decided trials by the median
over passes of the pass time at reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import envinfo
import oel.cli
import oel.harness
import refspeed
from tracer import Tracer, layer_costs

SCALAR_TRIALS = 200  # per scalar chain and unit (the CLI default)
SCALAR_SEEDS = 5
# `oel fuzz all` draws n from 2..8 per trial, and under the Jacobi solver one
# draw costs up to 50x another, so a few hundred draws differ by 10-20% from
# seed to seed. fuzz-all runs what `oel fuzz all --trials T --out` runs, once
# per n with n fixed, so that every seed asks the same work of a pass.
FUZZ_ALL_DIMS = range(2, 9)
FUZZ_ALL_TRIALS = 8  # per chain and unit
WIDE_DIM = 32  # fixed, so every seed asks the same kernel work of each trial
WIDE_TRIALS = 2  # per chain (and thm-2.12 mode) and unit
# thm-2.12 draws one of three modes, whose trials differ 7x in cost at n = 32;
# the plan runs each mode as a unit of its own, so that every seed asks the same mix
WIDE_MODES = ("expectation", "congruence", "majorize")
MIN_PASSES = 2  # the byte-identity check compares executions
SEED_STRIDE = 100_000


def unit_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + i


@dataclass(frozen=True)
class UnitResult:
    attempted: int
    na: int
    failed: int
    digest: str  # sha256 of everything the unit emitted, for the determinism check
    report_bytes: int = 0  # bytes written to report files

    @property
    def decided(self) -> int:
        return self.attempted - self.na


def result_of(document: dict, emitted: bytes, report_bytes: int = 0) -> UnitResult:
    chains = document["chains"]
    return UnitResult(
        attempted=sum(c["trials"] for c in chains),
        na=sum(c["not_applicable"] for c in chains),
        failed=sum(len(c["failures"]) for c in chains),
        digest=hashlib.sha256(emitted).hexdigest(),
        report_bytes=report_bytes,
    )


class Workload:
    """A workload is a plan of units, each one call of an oel entry point on
    inputs drawn from the seed. Subclasses define the plan, a warm-up, how a
    unit runs, and how its outcome is read back."""

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.harness = oel.harness
        self.seed = seed
        self.tmp = tmp
        self.plan = self.units(seed)

    def units(self, seed: int) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def execute(self, i: int) -> None:
        """Run unit ``i``; the only part that is timed and traced."""
        raise NotImplementedError

    def _out(self, i: int) -> Path:
        return self.tmp / f"unit-{i}.json"

    def collect(self, i: int) -> UnitResult:
        """Outcome of the last execution of unit ``i``, from the report it wrote."""
        raw = self._out(i).read_bytes()
        sidecar = self._out(i).with_suffix(".csv").read_bytes()
        return result_of(json.loads(raw), raw + sidecar, len(raw) + len(sidecar))


def cli_fuzz(chain: str, trials: int, seed: int, out: Path) -> None:
    code = oel.cli.main(["fuzz", chain, "--trials", str(trials), "--seed", str(seed), "--out", str(out)])
    if code not in (0, 1):  # 1 means a link failed, which the report records
        raise RuntimeError(f"oel fuzz {chain} exited with {code}")


class ScalarSuite(Workload):
    name = "scalar-suite"

    def units(self, seed):
        ids = [cid for cid, e in self.harness.CHAINS.items() if e.kind == "scalar"]
        return [(cid, unit_seed(seed, i)) for i, cid in enumerate(ids * SCALAR_SEEDS)]

    def warmup(self):
        for i, (cid, _) in enumerate(self.plan[: len(self.plan) // SCALAR_SEEDS]):
            cli_fuzz(cid, 1, self.seed, self._out(i))

    def execute(self, i):
        cid, seed = self.plan[i]
        cli_fuzz(cid, SCALAR_TRIALS, seed, self._out(i))


class FuzzAll(Workload):
    name = "fuzz-all"

    def units(self, seed):
        return [(n, unit_seed(seed, i)) for i, n in enumerate(FUZZ_ALL_DIMS)]

    def warmup(self):
        self.execute(0)  # every chain at the smallest n

    def execute(self, i):
        n, seed = self.plan[i]
        cfg = self.harness.GeneratorConfig(seed=seed, trials=FUZZ_ALL_TRIALS, dim_range=(n, n))
        self.harness.write_report(self.harness.fuzz_all(cfg), self._out(i))


class OperatorWide(Workload):
    name = "operator-wide"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.reports = {}

    def units(self, seed):
        ids = [cid for cid, e in self.harness.CHAINS.items() if e.kind == "operator" and cid != "thm-2.12"]
        pairs = [(cid, None) for cid in ids] + [("thm-2.12", {"mode": mode}) for mode in WIDE_MODES]
        return [(cid, unit_seed(seed, i), regime) for i, (cid, regime) in enumerate(pairs)]

    def _fuzz(self, i, dim):
        cid, seed, regime = self.plan[i]
        cfg = self.harness.GeneratorConfig(seed=seed, trials=WIDE_TRIALS, dim_range=(dim, dim), regime=regime)
        self.reports[i] = self.harness.fuzz_chain(cid, cfg)

    def warmup(self):
        # small matrices: warms every code path without paying n = 32 Jacobi sweeps per launch
        for i in range(len(self.plan)):
            self._fuzz(i, 2)

    def execute(self, i):
        self._fuzz(i, WIDE_DIM)

    def collect(self, i):  # nothing is written to disk: compare the serialized report instead
        reports = [self.reports[i]]
        emitted = self.harness.dumps_report(reports) + repr(reports[0].slack_rows)
        return result_of(self.harness.report_document(reports), emitted.encode())


WORKLOADS = {w.name: w for w in (ScalarSuite, FuzzAll, OperatorWide)}


class Passes:
    """Timings and outcomes of repeated whole passes through a plan."""

    def __init__(self, size: int):
        self.seconds = []  # per pass, as measured
        self.reference_seconds = []  # per pass, at the reference speed of refspeed
        self.unit_seconds = [[] for _ in range(size)]
        self.results = [None] * size
        self.identical = True  # every execution of a unit emitted the same bytes

    def run(self, work: Workload, tracer=None) -> None:
        """One whole pass. Outcomes are read after it, with the tracer removed."""
        if tracer is not None:
            tracer.reset()
            tracer.install()
        total = reference = 0.0
        before = refspeed.slowdown(0.0)
        try:
            for i in range(len(work.plan)):
                t0 = time.perf_counter()
                work.execute(i)
                dt = time.perf_counter() - t0
                after = refspeed.slowdown(dt)
                self.unit_seconds[i].append(dt)
                total += dt
                reference += refspeed.at_reference_speed(dt, before, after)
                before = after
            self.seconds.append(total)
            self.reference_seconds.append(reference)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for i in range(len(work.plan)):
            res = work.collect(i)
            if self.results[i] is None:
                self.results[i] = res
            self.identical &= res == self.results[i]

    def total(self, every_pass: bool = False) -> UnitResult:
        """Sum over the units of one pass, or over every pass."""
        k = len(self.seconds) if every_pass else 1
        return UnitResult(
            attempted=sum(r.attempted for r in self.results) * k,
            na=sum(r.na for r in self.results) * k,
            failed=sum(r.failed for r in self.results) * k,
            digest="",
            report_bytes=sum(r.report_bytes for r in self.results) * k,
        )

    def trials_per_s(self, pick=statistics.median, at_reference_speed: bool = True) -> float:
        """Decided trials of a pass over the ``pick`` of the pass times."""
        seconds = self.reference_seconds if at_reference_speed else self.seconds
        return self.total().decided / pick(seconds)


def timed_phase(work: Workload, seconds: float) -> Passes:
    """At least MIN_PASSES passes, and more while another one ends in time."""
    out = Passes(len(work.plan))
    start = time.perf_counter()
    while True:
        out.run(work)
        done = len(out.seconds)
        if done >= MIN_PASSES and (time.perf_counter() - start) * (done + 1) / done > seconds:
            return out


def traced_phase(work: Workload, seconds: float) -> tuple:
    """An untraced pass, then traced and untraced passes in turn, at least
    once and more while another pair ends in time."""
    tracer = Tracer()
    plain, traced, costs, first = Passes(len(work.plan)), Passes(len(work.plan)), [], None
    start = time.perf_counter()
    plain.run(work)
    while True:
        traced.run(work, tracer=tracer)
        spans = tracer.spans()
        first = spans if first is None else first
        costs.append(layer_costs(spans, tracer.layers, tracer.func_names))
        plain.run(work)
        done = len(costs)
        if (time.perf_counter() - start) * (done + 1) / done > seconds:
            return plain, traced, costs, first, tracer


COUNT_KEYS = ("calls", "eig_calls", "validate_calls", "loewner_calls", "eval_calls", "spans")


def cli_fuzz_all_repeats(tmp: Path, seed: int) -> bool:
    """``oel fuzz all`` writes byte-identical reports in two executions."""
    emitted = []
    for k in range(2):
        out = tmp / f"cli-fuzz-all-{k}.json"
        cli_fuzz("all", 2, seed, out)
        emitted.append(out.read_bytes() + out.with_suffix(".csv").read_bytes())
    return emitted[0] == emitted[1]


def per_layer(plain: Passes, traced: Passes, costs: list) -> tuple:
    """Per-trial layer metrics: the fastest traced pass for times, and the
    counts of one pass, which every traced pass must repeat exactly."""
    plan = traced.total()
    counts = [{k: v for k, v in c.items() if k.rsplit(".", 1)[-1] in COUNT_KEYS} for c in costs]
    metrics = {
        key: (counts[0][key] if key in counts[0] else min(c[key] for c in costs)) / plan.attempted
        for key in costs[0]
    }
    metrics["harness.report_bytes"] = plan.report_bytes / plan.attempted
    metrics["harness.na_share"] = plan.na / plan.attempted
    metrics["harness.failed_share"] = plan.failed / plan.attempted
    metrics["trace.overhead_share"] = 1.0 - traced.trials_per_s() / plain.trials_per_s()
    return metrics, all(c == counts[0] for c in counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    ap.add_argument("--out", type=Path, required=True, help="directory for reports (tmp/) and spans (spans/)")
    args = ap.parse_args(argv)

    tmp = args.out / "tmp" / args.workload
    tmp.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, tmp)
    # the CLI prints a summary line per chain to stderr
    with open(os.devnull, "w") as quiet, contextlib.redirect_stderr(quiet):
        work.warmup()
        print(json.dumps({"ready": True}), flush=True)
        if args.mode == "probe":
            return 0
        refspeed.chunk()  # the first call pays one-time costs
        checks = {}
        if args.mode == "timed":
            timed = timed_phase(work, args.seconds)
            metrics = {
                "trials_per_s": timed.trials_per_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            checks["executions_byte_identical"] = timed.identical
            runs = [timed]
            detail = {
                "pass_seconds": timed.seconds,
                "unit_seconds": timed.unit_seconds,
                "unit_decided": [r.decided for r in timed.results],
                "pass_seconds_at_reference_speed": timed.reference_seconds,
                "trials_per_s_fastest_pass_as_measured": timed.trials_per_s(min, at_reference_speed=False),
            }
        else:
            plain, traced, costs, spans, tracer = traced_phase(work, args.seconds)
            metrics, checks["trace_counts_repeat"] = per_layer(plain, traced, costs)
            checks["executions_byte_identical"] = plain.identical and traced.identical
            checks["tracing_leaves_outputs_unchanged"] = plain.results == traced.results
            runs = [plain, traced]
            detail = {
                "layers": tracer.layers,
                "plain_pass_seconds": plain.seconds,
                "traced_pass_seconds": traced.seconds,
                "plain_pass_seconds_at_reference_speed": plain.reference_seconds,
                "traced_pass_seconds_at_reference_speed": traced.reference_seconds,
            }
            (args.out / "spans").mkdir(exist_ok=True)
            np.savez(args.out / "spans" / f"{args.workload}.npz", spans=spans,
                     funcs=np.array(tracer.func_names), layers=np.array(tracer.layers))
        totals = [p.total(every_pass=True) for p in runs]
        checks["failed_share_zero"] = sum(t.failed for t in totals) == 0
        checks["cli_fuzz_all_byte_identical"] = cli_fuzz_all_repeats(tmp, args.seed)
    import oracle  # imported late: mpmath must not count in the workload's setup time or memory

    checks["relative_entropy_oracle"], detail["oracle_worst_rel_err"] = oracle.check_relative_entropy(args.seed)
    print(json.dumps({
        "attempted": sum(t.attempted for t in totals),
        "failed": sum(t.failed for t in totals),
        "na": sum(t.na for t in totals),
        "metrics": metrics,
        "checks": checks,
        "detail": detail,
        "env": envinfo.collect(args.seed),
        "oel": str(Path(oel.__file__).resolve().parent),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
