"""Command-line front end.

Verbs: ``compute`` evaluates an entropy on matrix files, ``verify`` runs one
chain on explicit parameters, ``fuzz`` runs seeded random suites and writes
the JSON report, ``list`` enumerates registered chains.

Exit codes: 0 pass, 1 inequality failure, 2 usage or domain error,
3 hypothesis not applicable. Output is JSON unless --pretty is given; floats
are printed with 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import chains, entropy, harness
from .chains import ChainVerdict
from .entropy import OperatorChainVerdict
from .errors import NumericError
from .funcs import REGISTRY
from .harness import CHAINS, GeneratorConfig, _emit_json
from .linalg import load_matrix, matrix_to_obj

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_NOT_APPLICABLE = 3


def _default_tol() -> float:
    raw = os.environ.get("OEL_DEFAULT_TOL")
    if raw is None:
        return chains.DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"OEL_DEFAULT_TOL={raw!r} is not a float") from exc


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + n for n in missing)}")


def _fn(args, attr, default_id):
    name = getattr(args, attr, None) or default_id
    if name not in REGISTRY:
        raise ValueError(f"unknown function {name!r}; see `oel list --functions`")
    return REGISTRY[name]


def _build_params(chain_id: str, args) -> dict:
    entry = CHAINS[chain_id]
    if entry.kind == "operator":
        # expectation mode of thm-2.12 reads A alone
        needs_b = chain_id != "thm-2.12" or (args.mode or "expectation") != "expectation"
        _require(args, "A", *(("B",) if needs_b else ()))
        params = {"A": load_matrix(args.A)}
        if args.B is not None:
            params["B"] = load_matrix(args.B)
        if chain_id in ("zou", "thm-3.3", "thm-3.11"):
            _require(args, "t")
            params["t"] = args.t
        elif chain_id == "thm-3.5":
            _require(args, "s", "t")
            params.update({"s": args.s, "t": args.t})
        elif chain_id == "prop-3.10":
            _require(args, "p")
            params["p"] = args.p
        elif chain_id == "thm-2.12":
            params.update(
                {
                    "fn_f": _fn(args, "fn_f", "log-wide"),
                    "fn_g": _fn(args, "fn_g", "lin-0.04-0.12"),
                    "a": args.a if args.a is not None else 1.5,
                    "b": args.b if args.b is not None else 4.0,
                    "mode": args.mode or "expectation",
                    "vector_seed": args.seed or 0,
                }
            )
        return params
    if chain_id == "prop-2.1":
        _require(args, "a", "b", "v", "n")
        return {"a": args.a, "b": args.b, "v": args.v, "n": args.n}
    if chain_id == "thm-2.2":
        _require(args, "s", "t")
        return {"fn": _fn(args, "fn", "exp"), "s": args.s, "t": args.t}
    if chain_id == "rem-2.3":
        _require(args, "s", "t", "p", "q")
        return {"fn": _fn(args, "fn", "exp"), "s": args.s, "t": args.t, "p": args.p, "q": args.q}
    if chain_id == "cor-2.4":
        _require(args, "w", "x", "t")
        return {"fn": _fn(args, "fn", "neg-log-wide"), "w": _floats(args.w), "x": _floats(args.x), "t": args.t}
    if chain_id == "cor-2.4-am-gm":
        _require(args, "w", "x", "t")
        return {"w": _floats(args.w), "x": _floats(args.x), "t": args.t}
    if chain_id in ("thm-2.6-convex", "thm-2.6-concave"):
        _require(args, "s", "t")
        default = "exp-pow-2" if chain_id.endswith("convex") else "log"
        return {
            "fn": _fn(args, "fn", default),
            "s": args.s,
            "t": args.t,
            "mode": "convex" if chain_id.endswith("convex") else "concave",
        }
    if chain_id == "thm-2.7":
        _require(args, "s", "t")
        return {"fn": _fn(args, "fn", "exp"), "s": args.s, "t": args.t}
    if chain_id == "cor-2.8":
        _require(args, "a", "b", "t")
        return {"fn": _fn(args, "fn", "exp"), "a": args.a, "b": args.b, "t": args.t}
    if chain_id in ("cor-2.9-logconvex", "cor-2.9-geomconvex"):
        _require(args, "w", "x")
        kind = "log_convex" if chain_id.endswith("logconvex") else "geometrically_convex"
        default = "inv-pow-1" if kind == "log_convex" else "exp"
        return {"fn": _fn(args, "fn", default), "w": _floats(args.w), "a": _floats(args.x), "kind": kind}
    if chain_id == "lem-3.4":
        _require(args, "x", "s", "t")
        return {"x": float(args.x), "s": args.s, "t": args.t}
    if chain_id == "lem-3.7":
        _require(args, "u", "w")
        return {"fn": _fn(args, "fn", "quad-exp-1-0"), "u": args.u, "w": float(args.w)}
    if chain_id == "cor-3.8":
        _require(args, "a", "b", "t")
        return {"a": args.a, "b": args.b, "t": args.t}
    raise ValueError(f"no parameter builder for chain {chain_id!r}")


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
    _require(args, "A", "B")
    A = load_matrix(args.A)
    B = load_matrix(args.B)
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
    if isinstance(verdict, OperatorChainVerdict) and not verdict.applicable:
        return EXIT_NOT_APPLICABLE
    return EXIT_PASS if verdict.ok else EXIT_FAIL


def cmd_fuzz(args) -> int:
    ids = list(CHAINS) if args.chain == "all" else [args.chain]
    for cid in ids:
        if cid not in CHAINS:
            raise ValueError(f"unknown chain {cid!r}; run `oel list`")
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
        print(f"{cid} [{entry.kind}]: {entry.description}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oel",
        description="Compute relative operator entropies and verify or fuzz their inequality chains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_list = sub.add_parser("list", help="enumerate registered chains or functions")
    p_list.add_argument("--functions", action="store_true", help="list registered scalar functions")
    p_list.set_defaults(fn_cmd=cmd_list)

    p_comp = sub.add_parser("compute", help="evaluate an entropy on matrix files")
    p_comp.add_argument("kind", choices=["S", "T", "St"])
    p_comp.add_argument("--A", required=True, help="path to the first matrix (JSON)")
    p_comp.add_argument("--B", required=True, help="path to the second matrix (JSON)")
    p_comp.add_argument("--t", type=float, default=None, help="deformation parameter")
    p_comp.add_argument("--pretty", action="store_true")
    p_comp.set_defaults(fn_cmd=cmd_compute)

    p_ver = sub.add_parser("verify", help="evaluate one chain on explicit parameters")
    p_ver.add_argument("chain")
    p_ver.add_argument("--A", help="matrix file for operator chains")
    p_ver.add_argument("--B", help="matrix file for operator chains")
    for flag in ("a", "b", "s", "t", "v", "p", "q", "u"):
        p_ver.add_argument(f"--{flag}", type=float, default=None)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--x", type=str, default=None, help="point list (csv) or scalar, by chain")
    p_ver.add_argument("--w", type=str, default=None, help="weight list (csv) or scalar, by chain")
    p_ver.add_argument("--fn", type=str, default=None, help="registered function id")
    p_ver.add_argument("--fn-f", dest="fn_f", type=str, default=None)
    p_ver.add_argument("--fn-g", dest="fn_g", type=str, default=None)
    p_ver.add_argument("--mode", choices=["expectation", "congruence", "majorize"], default=None)
    p_ver.add_argument("--seed", type=int, default=0, help="seed for sampled unit vectors")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--pretty", action="store_true")
    p_ver.set_defaults(fn_cmd=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="run seeded random trials of one chain or all")
    p_fuzz.add_argument("chain", help="chain id or 'all'")
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--tol", type=float, default=None)
    p_fuzz.add_argument("--out", type=str, default=None, help="report path (.csv sidecar is derived)")
    p_fuzz.add_argument(
        "--timing", action="store_true",
        help="record wall-clock elapsed_s (off by default to keep reports byte-reproducible)",
    )
    p_fuzz.add_argument("--pretty", action="store_true")
    p_fuzz.set_defaults(fn_cmd=cmd_fuzz)
    return parser


_CLI_ERRORS = (ValueError, KeyError, OSError, NumericError, OverflowError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tol", None) is None and args.verb in ("verify", "fuzz"):
            args.tol = _default_tol()
        return args.fn_cmd(args)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
