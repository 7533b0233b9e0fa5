"""Check that the working tree prints the same bytes as a parent revision.

    python tools/samebytes.py --parent <rev>

The parent is exported with ``git archive`` into a temporary directory; the
checkout is only read. In each tree, subprocesses with ``PYTHONPATH=src``
run

- the fuzz configs of ``FUZZ_CONFIGS``: ``harness.fuzz_all``, each
  operator chain's ``harness.fuzz_chain``, and each scalar chain's at the
  200 trials of a default ``oel fuzz <id>``, each writing its JSON report
  and CSV sidecar, compared byte for byte;
- the ``oel`` calls of ``CLI_CALLS``, every ``oel verify`` and ``oel
  compute`` call of the CI workflow, and its ``oel fuzz`` calls that
  compare ``fuzz all`` with one chain alone or are refused, among them,
  on the matrix files of ``MATRICES`` and next to the
  directories of ``DIRECTORIES``, comparing stdout, stderr and exit code.

Every config whose output differs between the trees is printed, then one
summary line; the exit status is 1 if any config differs, else 0. Only the
standard library and git are used here; the trees' own code runs in the
subprocesses. The check is opt-in: report bytes depend on the machine's
BLAS, so the test suite pins no hash.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OPERATOR_CHAINS = ("zou", "thm-3.3", "thm-3.5", "thm-3.6", "thm-3.11", "prop-3.10", "thm-2.12")
SCALAR_CHAINS = (
    "prop-2.1", "thm-2.2", "rem-2.3", "cor-2.4", "cor-2.4-am-gm", "thm-2.6-convex", "thm-2.6-concave", "thm-2.7",
    "cor-2.8", "cor-2.9-logconvex", "cor-2.9-geomconvex", "lem-3.4", "lem-3.7", "cor-3.8",
)
TRIALS = 70  # one full block of 64 trials and part of a second
SCALAR_TRIALS = 200  # the oel fuzz default: three full blocks and 8 trials of a fourth
SEEDS = (1, 7, 42)
TOLS = (1e-9, -1.0)


def _fuzz_configs() -> list:
    """(name, runner, GeneratorConfig fields): a runner is "all" or a chain id."""
    configs = []
    for seed in SEEDS:
        for tol in TOLS:
            base = {"seed": seed, "trials": TRIALS, "tol": tol}
            for dims in ((2, 8), (3, 3), (1, 4)):
                for runner in ("all",) + OPERATOR_CHAINS:
                    configs.append((runner, {**base, "dim_range": dims}))
            configs.append(("all", {**base, "trials": 8, "dim_range": (32, 32)}))
            regimes = [{"mode": m} for m in ("expectation", "congruence", "majorize")]
            regimes += [{"case": c} for c in ("below", "straddle", "above", "low", "high")]
            for regime in regimes:
                configs.append(("all", {**base, "regime": regime}))
        for scalars in ((1e-7, 1e7), (5.0, 5.0)):
            configs.append(("all", {"seed": seed, "trials": TRIALS, "scalar_range": scalars}))
        configs += [(cid, {"seed": seed, "trials": SCALAR_TRIALS}) for cid in SCALAR_CHAINS]
    return [(f"fuzz {runner} {json.dumps(fields, sort_keys=True)}", runner, fields) for runner, fields in configs]


FUZZ_CONFIGS = _fuzz_configs()

# run in each tree, in a scratch directory: reads FUZZ_CONFIGS as JSON on
# stdin, prints one JSON object mapping each config's name to the sha256 of
# its report and CSV, or to the error that stopped it
_FUZZ_DRIVER = """
import hashlib, json, sys
from pathlib import Path
from oel import harness
out = {}
for name, runner, fields in json.load(sys.stdin):
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}
    try:
        cfg = harness.GeneratorConfig(**fields)
        reports = harness.fuzz_all(cfg) if runner == "all" else [harness.fuzz_chain(runner, cfg)]
        harness.write_report(reports, "r.json")
        out[name] = hashlib.sha256(Path("r.json").read_bytes() + Path("r.csv").read_bytes()).hexdigest()
    except Exception as exc:
        out[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(out))
"""


def _matrix(rows) -> str:
    return json.dumps({"n": len(rows), "data": rows})


MATRICES = {
    "a.json": _matrix([[2.0, 0.5], [0.5, 1.0]]),
    "b.json": _matrix([[1.0, -0.3], [-0.3, 3.0]]),
    "c.json": _matrix([[4.0, 1.0], [1.0, 2.5]]),
    "big.json": _matrix([[9e307, 0.0], [0.0, 1.0]]),
    "tiny.json": _matrix([[1e-300, 0.0], [0.0, 1e-300]]),
    "huge.json": _matrix([[1e300, 0.0], [0.0, 1e300]]),
    "ta.json": _matrix([[2.5, 0.5], [0.5, 3.0]]),
    "tb.json": _matrix([[2.1, 0.5], [0.5, 2.6]]),
    "bad.json": "{ nope",
    "sa.json": _matrix([[0.9, 0.2], [0.2, 1.0]]),
    "t3.json": _matrix([[2.5, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 2.0]]),
    "t3d.json": _matrix([[1.55, 0.0, 0.0], [0.0, 2.2, 0.0], [0.0, 0.0, 3.8]]),
    "i.json": _matrix([[1.0, 0.0], [0.0, 1.0]]),
    "small.json": _matrix([[1e-5, 0.0], [0.0, 0.3]]),
    "weird.json": '{"n": 2, "data": [[1.0, {}], [{}, 1.0]]}',
    "strings.json": '{"n": 2, "data": [["2", "0.5"], ["0.5", "1e0"]]}',
    "illcond.json": _matrix([[1e-6, 0.0], [0.0, 1e6]]),
}

DIRECTORIES = ("somedir", "out.csv")  # report paths that are, or whose CSV sidecar is, a directory

CLI_CALLS = [
    # scalar verify smoke test
    "verify prop-2.1 --a 1 --b 4 --v 0.5 --n 1",
    "verify prop-2.1 --a 0.001 --b 1000 --v 0.0724 --n 1",
    "verify cor-3.8 --a 4 --b 1 --t 0.25",
    "verify cor-2.4-am-gm --w 0.5,0.5 --x 2 --t 1",
    "verify rem-2.3 --fn exp --s 0.5 --t 1 --p 2000 --q 0",
    "verify cor-2.8 --fn geo-interp-1-4 --a 1 --b -0.3 --t 0.2",
    "verify cor-2.4 --w nan,0.5 --x 1,2 --t 0.9",
    "verify lem-3.4 --x 2.5 --s inf --t 1.5",
    "verify lem-3.4 --x 1e300 --s 3 --t 0.05",
    "verify lem-3.4 --x 1e300 --s 0.05 --t 3",
    "verify rem-2.3 --fn exp --s 0.5 --t 0.6 --p 1 --q -400",
    # operator verify smoke test
    "verify zou --A a.json --B b.json --t 0.5",
    "verify thm-3.3 --A a.json --B b.json --t 0.5",
    "verify thm-3.5 --A a.json --B c.json --s 0.5 --t 1.5",
    "verify thm-3.11 --A a.json --B c.json --t 0.5",
    "verify thm-3.11 --A a.json --B c.json --t 2",
    "verify prop-3.10 --A a.json --B b.json --p 0.5",
    "verify thm-2.12 --A a.json --B c.json --mode congruence",
    "verify thm-3.5 --A a.json --B b.json --s 1.5 --t 0.5",
    "verify thm-3.6 --A a.json --B b.json",
    "verify thm-3.6 --A i.json --B small.json",
    "verify thm-3.11 --A a.json --B c.json --t -inf",
    "verify prop-3.10 --A a.json --B b.json --p 1e300",
    "verify thm-3.6 --A big.json --B a.json",
    "compute S --A big.json --B a.json",
    "verify zou --A a.json --B weird.json --t 0.5",
    "verify zou --A a.json --B strings.json --t 0.5",
    "verify zou --A i.json --B illcond.json --t 0.5",
    "compute S --A a.json --B weird.json",
    "compute S --A a.json --B b.json",
    "compute T --t 0.5 --A a.json --B b.json",
    "compute St --t 0.5 --A a.json --B b.json",
    "compute S --A tiny.json --B huge.json",
    "verify thm-3.6 --A tiny.json --B huge.json",
    "compute T --t nan --A a.json --B b.json",
    "compute St --t inf --A a.json --B b.json",
    "compute T --t 800 --A a.json --B b.json",
    "verify thm-2.12 --A ta.json --mode expectation",
    "verify thm-2.12 --A t3d.json --mode expectation",
    "verify thm-2.12 --A ta.json --B tb.json --mode majorize",
    "verify thm-2.12 --A ta.json --B ta.json --mode congruence",
    "verify thm-2.12 --A ta.json --B bad.json --mode expectation",
    "verify thm-2.12 --A ta.json --mode expectation --seed 7",
    "verify thm-2.12 --fn-f sin --A sa.json --a 0.5 --b 1.4 --mode expectation",
    "verify thm-2.12 --A ta.json --a 3 --b 4 --mode expectation",
    "verify thm-2.12 --A ta.json --a 0.5",
    "verify thm-2.12 --A ta.json --a 4 --b 3",
    "verify thm-2.12 --A t3.json --B a.json --mode majorize",
    "verify thm-2.12 --A ta.json --mode bogus",
    "verify cor-2.4 --fn quad-exp-1-0 --w 0.5,0.5 --x -0.3,0.5 --t 0.5",
    "verify cor-2.4 --fn quad-exp-1-0 --w 0.5,0.5 --x=-0.3,0.5 --t 0.5",
    # package and determinism smoke test: fuzz all against one chain alone,
    # a refused tolerance and refused report paths
    "fuzz all --trials 69 --seed 5 --out all.json",
    *[f"fuzz {cid} --trials 69 --seed 5 --out one.json" for cid in ("zou", "thm-2.12", "cor-2.4", "cor-2.9-logconvex")],
    "fuzz zou --trials 2 --tol nan",
    "fuzz zou --trials 2 --out r.csv",
    "fuzz all --trials 2000 --out no-such-dir/r.json",
    "fuzz all --trials 2000 --out somedir",
    "fuzz zou --trials 50 --out out.json",
    "fuzz zou --trials 2 --out=",  # an empty report path (split() keeps no empty word)
]


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def outputs(tree: Path, scratch: Path) -> dict:
    """Each config's output in ``tree``, by config name."""
    proc = subprocess.run(
        [sys.executable, "-c", _FUZZ_DRIVER], input=json.dumps(FUZZ_CONFIGS), capture_output=True,
        text=True, env=_env(tree), cwd=scratch, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"samebytes: the fuzz driver failed in {tree}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    for name, text in MATRICES.items():
        (scratch / name).write_text(text + "\n", encoding="utf-8")
    for name in DIRECTORIES:
        (scratch / name).mkdir()
    for call in CLI_CALLS:
        proc = subprocess.run(
            [sys.executable, "-m", "oel.cli", *call.split()], capture_output=True, env=_env(tree), cwd=scratch,
            check=False,
        )
        digest = hashlib.sha256(proc.stdout + b"\0" + proc.stderr).hexdigest()
        out[f"oel {call}"] = f"exit {proc.returncode}, stdout+stderr {digest}"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare the working tree with (default HEAD)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent], capture_output=True, check=False)
        if archive.returncode != 0:
            raise SystemExit(f"samebytes: git archive {args.parent} failed: {archive.stderr.decode().strip()}")
        parent = tmp / "parent"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(parent, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        results = []
        for name, tree in (("parent", parent), ("change", ROOT)):
            (tmp / name / "run").mkdir(parents=True)
            results.append(outputs(tree, tmp / name / "run"))
    before, after = results
    differing = [name for name in before if before[name] != after.get(name)]
    for name in differing:
        print(f"differs: {name}\n  parent: {before[name]}\n  change: {after.get(name)}")
    print(f"samebytes: {len(differing)} of {len(before)} configs differ from {args.parent}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
