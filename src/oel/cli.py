"""Command-line front end.

Verbs: ``compute`` evaluates an entropy on matrix files, ``verify`` runs one
chain on explicit parameters, ``fuzz`` runs seeded random suites and writes
the JSON report, ``list`` enumerates registered chains with their options.

``verify`` knows no chain by name: its flags are the options of every
chain's ``harness.ChainEntry.params`` declaration, and ``_build_params``
reads a chain's params from them in one loop over that declaration.

Exit codes: 0 pass, 1 inequality failure, 2 usage or domain error,
3 hypothesis not applicable. Output is JSON unless --pretty is given; floats
are printed with 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import chains, entropy, harness
from .chains import ChainVerdict
from .errors import TRIAL_ERRORS
from .funcs import REGISTRY
from .harness import CHAINS, GeneratorConfig, _emit_json
from .linalg import load_matrix, matrix_to_obj

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_NOT_APPLICABLE = 3


def _tolerance(tol: float | None) -> float:
    """``--tol``, else the default; a finite one, as NaN would fail every
    link and inf pass every one."""
    if tol is None:
        return chains.DEFAULT_TOL
    if not math.isfinite(tol):
        raise ValueError(f"--tol must be finite, got {tol}")
    return tol


def _parsed(option: str, parse, text):
    """``parse(text)``, the value of ``--{option}``, which a refusal names."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"--{option}: {exc}") from exc


def _build_params(chain_id: str, args) -> dict:
    """The params of a chain from the verify flags, read through the chain's
    ``params`` declaration."""
    params, missing = {}, []
    for prm in CHAINS[chain_id].params:
        if prm.when is not None and not prm.when(params):
            continue  # the chain does not read it here, so its flag is not read either
        text = None if prm.option is None else getattr(args, prm.option)
        if text is None:
            text = prm.default
        if text is None:
            missing.append(f"--{prm.option}")
            continue
        params[prm.name] = _parsed(prm.option, prm.parse, text)
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")
    return params


def _print_verdict(verdict, pretty: bool):
    if pretty:
        if isinstance(verdict, ChainVerdict):
            print(f"chain {verdict.chain_id}: {'PASS' if verdict.ok else 'FAIL'}")
            for i, v in enumerate(verdict.values):
                print(f"  value[{i}] = {v:.17g}")
            print(f"  min relative slack = {verdict.min_rel_slack:.3e} (tol {verdict.tol:g})")
        else:
            print(f"chain {verdict.chain_id}: {verdict.status.upper()}")
            for key, val in verdict.regime.items():
                print(f"  {key} = {val}")
            if verdict.verdicts:
                worst = verdict.min_rel_slack
                print(f"  min relative slack = {worst:.3e} (tol {verdict.tol:g})")
    else:
        print(_emit_json(verdict.to_dict()))


def cmd_compute(args) -> int:
    A, B = (_parsed(option, load_matrix, getattr(args, option)) for option in ("A", "B"))
    if args.kind in ("T", "St") and args.t is None:
        raise ValueError(f"--t is required for kind {args.kind}")
    if args.kind == "S":
        result = entropy.relative_entropy(A, B)
    elif args.kind == "T":
        result = entropy.tsallis_entropy(A, B, args.t)
    else:
        result = entropy.generalized_entropy(A, B, args.t)
    obj = matrix_to_obj(result)
    if args.pretty:
        for row in obj["data"]:
            print("  ".join(f"{v: .10g}" for v in row))
    else:
        print(_emit_json(obj))
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.chain not in CHAINS:
        raise ValueError(f"unknown chain {args.chain!r}; run `oel list`")
    params = _build_params(args.chain, args)
    verdict = CHAINS[args.chain].run(params, args.tol)
    _print_verdict(verdict, args.pretty)
    if not verdict.applicable:
        return EXIT_NOT_APPLICABLE
    return EXIT_PASS if verdict.ok else EXIT_FAIL


def cmd_fuzz(args) -> int:
    ids = list(CHAINS) if args.chain == "all" else [args.chain]
    for cid in ids:
        if cid not in CHAINS:
            raise ValueError(f"unknown chain {cid!r}; run `oel list`")
    if args.out is not None:  # refused before any trial runs
        folder = os.path.dirname(args.out) or "."
        try:
            if not args.out:
                raise ValueError("the report path is empty")
            sidecar = harness.csv_sidecar(args.out)
            if not os.path.isdir(folder):
                raise ValueError(f"{folder!r} is not a directory")
            if os.path.isdir(args.out):
                raise ValueError(f"{args.out!r} is a directory")
            if os.path.isdir(sidecar):
                raise ValueError(f"its CSV sidecar {sidecar!r} is a directory")
        except ValueError as exc:
            raise ValueError(f"--out {args.out}: {exc}") from None
    cfg = GeneratorConfig(seed=args.seed, trials=args.trials, tol=args.tol)
    reports = harness.fuzz_all(cfg, ids)
    if args.out:
        harness.write_report(reports, args.out, include_timing=args.timing)
    else:
        sys.stdout.write(harness.dumps_report(reports, include_timing=args.timing))
    total_failures = sum(len(r.failures) for r in reports)
    if args.pretty or args.out:
        for rep in reports:
            slack = "n/a" if rep.min_slack is None else f"{rep.min_slack:.3e}"
            print(
                f"{rep.chain_id}: trials={rep.trials_run} failures={len(rep.failures)} "
                f"not_applicable={rep.not_applicable} rejected={rep.rejected} min_slack={slack}",
                file=sys.stderr,
            )
    return EXIT_PASS if total_failures == 0 else EXIT_FAIL


def cmd_list(args) -> int:
    if args.functions:
        for name, spec in REGISTRY.items():
            flags = ",".join(sorted(spec.flags))
            print(f"{name}: domain=({spec.domain[0]:g}, {spec.domain[1]:g}) flags={flags}")
        return EXIT_PASS
    for cid, entry in CHAINS.items():
        options = (f"--{p.option}" + ("" if p.default is None else f"={p.default}") for p in entry.params if p.option)
        print(f"{cid} [{entry.kind}] {' '.join(options)}: {entry.description}")
    return EXIT_PASS


@functools.cache  # once per process: the verify options alone take a millisecond to add
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oel",
        description="Compute relative operator entropies and verify or fuzz their inequality chains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_list = sub.add_parser("list", help="enumerate registered chains or functions")
    p_list.add_argument("--functions", action="store_true", help="list registered scalar functions")

    p_comp = sub.add_parser("compute", help="evaluate an entropy on matrix files")
    p_comp.add_argument("kind", choices=["S", "T", "St"])
    p_comp.add_argument("--A", required=True, help="path to the first matrix (JSON)")
    p_comp.add_argument("--B", required=True, help="path to the second matrix (JSON)")
    p_comp.add_argument("--t", type=float, default=None, help="deformation parameter")
    p_comp.add_argument("--pretty", action="store_true")

    p_ver = sub.add_parser(
        "verify", help="evaluate one chain on explicit parameters",
        epilog="`oel list` shows the options of each chain; matrix options take JSON matrix files",
    )
    p_ver.add_argument("chain")
    for option in dict.fromkeys(prm.option for entry in CHAINS.values() for prm in entry.params if prm.option):
        p_ver.add_argument(f"--{option}", dest=option)
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--pretty", action="store_true")

    p_fuzz = sub.add_parser("fuzz", help="run seeded random trials of one chain or all")
    p_fuzz.add_argument("chain", help="chain id or 'all'")
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--tol", type=float, default=None)
    p_fuzz.add_argument("--out", type=str, default=None, help="report path, not ending in .csv (the .csv sidecar is derived)")
    p_fuzz.add_argument(
        "--timing", action="store_true",
        help="record wall-clock elapsed_s (off by default to keep reports byte-reproducible)",
    )
    p_fuzz.add_argument("--pretty", action="store_true")
    return parser


_CLI_ERRORS = (*TRIAL_ERRORS, KeyError, OSError)

_NEGATIVE_VALUE = re.compile(r"-([0-9.]|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list) -> list:
    """``--opt -0.3,0.5`` as ``--opt=-0.3,0.5``. argparse takes a value that
    starts with a minus sign and is not a plain negative number (``-0.3,0.5``,
    ``-1e-3``, ``-inf``) for an option; no option of ``oel`` looks like one."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.verb in ("verify", "fuzz"):
            args.tol = _tolerance(args.tol)
        # looked up at each call, not bound into the cached parser, so that a
        # replaced ``cmd_*`` (a test's or a tracer's) is the one that runs
        return globals()[f"cmd_{args.verb}"](args)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
