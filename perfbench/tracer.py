"""Span tracer that instruments the ``oel`` package from outside.

Installing a :class:`Tracer` replaces, in every ``oel`` module namespace,

- each module-level function, in the module that defines it,
- each function a module takes from another ``oel`` module (module
  attributes and ``from``-imports alike),
- the ``generate``/``run`` callables of each ``harness.CHAINS`` entry,
- the evaluators of the ``FunctionSpec`` objects the generators hand out,
- ``numpy.linalg`` eigen-solvers, as probes that count eigendecompositions
  without opening a layer of their own,

with wrappers that record one span per call: id, parent id, layer, function,
stage, start, end and flags. Layers are keyed by module name, so the metrics
survive renaming or deleting single functions. :meth:`Tracer.uninstall`
restores every replaced object. The source files are never edited.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

import oel

# stage of a span: 0 the fuzz loop, 1 inside a generator, 2 inside a report writer
_GENERATE, _EMIT = 1, 2
# public report writers: everything they call belongs to the emit stage
EMIT_ROOTS = ("write_report", "dumps_report")
NUMPY_EIG = ("eigh", "eigvalsh", "eig", "eigvals")

FLAG_EIG = 1  # produced eigenvalues: a numpy eigen-solver or an EigenDecomposition
FLAG_EVAL = 2  # a FunctionSpec evaluator or derivative
_PROBE = -1  # layer placeholder: the span takes its parent's layer

SPAN_DTYPE = np.dtype([
    ("id", np.int64), ("parent", np.int64), ("layer", np.int16), ("func", np.int32),
    ("stage", np.int8), ("flags", np.int8), ("start", np.float64), ("end", np.float64),
])


def package_modules() -> dict:
    """Every submodule of ``oel``, imported, keyed by its short name."""
    return {info.name: importlib.import_module(f"oel.{info.name}") for info in pkgutil.iter_modules(oel.__path__)}


class Tracer:
    def __init__(self):
        self.package = oel
        self.modules = package_modules()
        self.harness = self.modules["harness"]
        self.function_spec = self.modules["funcs"].FunctionSpec
        linalg = self.modules["linalg"]
        self._eig_types = (linalg.EigenDecomposition,) if hasattr(linalg, "EigenDecomposition") else ()
        self.layers = sorted(
            name for name, mod in self.modules.items()
            if any(self._owner(val) == name for val in vars(mod).values())
        )
        self._layer_ids = {name: i for i, name in enumerate(self.layers)}
        self.func_names: list = []
        self._func_ids: dict = {}
        self.records: list = []
        self._stack: list = []
        self._next = 0
        self._wrapped: dict = {}  # original function -> wrapper
        self._specs: dict = {}  # FunctionSpec -> traced copy
        self._undo: list = []
        self.installed = False

    def _owner(self, val):
        """Layer name of an ``oel`` function, None for anything else."""
        if inspect.isfunction(val) and val.__module__.startswith("oel."):
            return val.__module__[len("oel."):]
        return None

    def _func_id(self, name: str) -> int:
        fid = self._func_ids.get(name)
        if fid is None:
            fid = self._func_ids[name] = len(self.func_names)
            self.func_names.append(name)
        return fid

    def _wrap(self, fn, layer: int, name: str, stage=None, flags: int = 0):
        """Wrapper recording one span per call of ``fn``.

        ``stage`` None inherits the caller's stage. ``flags`` are set on every
        span; FLAG_EIG is also set when the call returns an EigenDecomposition.
        """
        func = self._func_id(name)
        records, stack, clock, eig_types = self.records, self._stack, time.perf_counter, self._eig_types
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            if stack:
                parent, pstage, player = stack[-1]
            else:
                parent, pstage, player = -1, 0, -1
            st = pstage if stage is None else stage
            lay = player if layer == _PROBE else layer
            stack.append((sid, st, lay))
            mark = flags
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, eig_types):
                    mark |= FLAG_EIG
                return result
            finally:
                t1 = clock()
                stack.pop()
                records.append((sid, parent, lay, func, st, mark, t0, t1))

        return traced

    def _function_wrapper(self, fn):
        wrapper = self._wrapped.get(fn)
        if wrapper is None:
            layer = self._owner(fn)
            stage = _EMIT if fn.__name__ in EMIT_ROOTS else None
            wrapper = self._wrap(fn, self._layer_ids[layer], f"{layer}.{fn.__qualname__}", stage)
            self._wrapped[fn] = wrapper
        return wrapper

    def _patch(self, obj, name, value):
        old = getattr(obj, name)
        setattr(obj, name, value)
        self._undo.append(lambda: setattr(obj, name, old))

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        namespaces = [self.package, *self.modules.values()]
        for mod in namespaces:
            for name, val in list(vars(mod).items()):
                if self._owner(val) in self._layer_ids:
                    self._patch(mod, name, self._function_wrapper(val))
        # numpy's solvers are dispatcher objects, not plain functions: match by identity
        probes = {}
        for n in NUMPY_EIG:
            fn = getattr(np.linalg, n)
            probes[id(fn)] = (fn, self._wrap(fn, _PROBE, f"numpy.linalg.{n}", flags=FLAG_EIG))
            self._patch(np.linalg, n, probes[id(fn)][1])
        for mod in namespaces:
            for name, val in list(vars(mod).items()):
                hit = probes.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, name, hit[1])
        chains = self.harness.CHAINS
        harness_id = self._layer_ids["harness"]
        for cid, entry in list(chains.items()):
            gen = self._wrap(entry.generate, harness_id, f"harness.CHAINS[{cid}].generate", _GENERATE)
            run = self._wrap(entry.run, harness_id, f"harness.CHAINS[{cid}].run")
            chains[cid] = dataclasses.replace(entry, generate=self._spec_tracing(gen), run=run)
            self._undo.append(functools.partial(chains.__setitem__, cid, entry))
        self.installed = True

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._wrapped.clear()
        self._specs.clear()
        self.installed = False

    def _spec_tracing(self, generate):
        """Generator whose FunctionSpec parameters come back with traced evaluators."""
        spec_type = self.function_spec

        def gen(rng, cfg):
            params = generate(rng, cfg)
            for key, val in params.items():
                if isinstance(val, spec_type):
                    params[key] = self._traced_spec(val)
            return params

        return gen

    def _traced_spec(self, spec):
        traced = self._specs.get(spec)
        if traced is None:
            wrap = {
                attr: self._wrap(
                    getattr(spec, attr), self._layer_ids["funcs"], f"funcs.FunctionSpec.{attr}", flags=FLAG_EVAL
                )
                for attr in ("eval", "deriv")
            }
            traced = self._specs[spec] = dataclasses.replace(spec, **wrap)
        return traced

    def reset(self) -> None:
        self.records.clear()
        self._next = 0

    def spans(self) -> np.ndarray:
        """The recorded spans as a structured array ordered by span id."""
        arr = np.array(self.records, dtype=SPAN_DTYPE)
        return arr[np.argsort(arr["id"], kind="stable")]


def layer_costs(spans: np.ndarray, layers: list, func_names: list) -> dict:
    """Totals over one traced batch of spans (ids 0..N-1 in order).

    A span's exclusive time is its duration minus its direct children's.
    A layer's self time is the exclusive time of its spans, so time in child
    spans of other layers is not counted twice; for ``harness`` it leaves out
    the generate and emit stages, which are reported on their own. A
    boundary call is a span whose parent lies in another layer. An
    eigendecomposition is an EIG span with no EIG span below it, so a helper
    returning its callee's decomposition is not counted again.
    """
    n = spans.shape[0]
    if n and not np.array_equal(spans["id"], np.arange(n)):
        raise ValueError("span ids must be 0..N-1")
    parent, layer = spans["parent"], spans["layer"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    excl = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
    boundary = parent_layer != layer

    eig = (spans["flags"] & FLAG_EIG) != 0
    covered = np.zeros(n, dtype=bool)  # has an EIG span somewhere below
    frontier = parent[eig]
    while frontier.size:
        frontier = np.unique(frontier[frontier >= 0])
        frontier = frontier[~covered[frontier]]
        covered[frontier] = True
        frontier = parent[frontier]
    eig &= ~covered

    short = np.array([f.rsplit(".", 1)[-1] for f in func_names] or [""], dtype=object)[spans["func"]]
    loewner = short == "loewner_compare"

    def self_us(mask):
        return float(excl[mask].sum()) * 1e6

    out = {"spans": int(n)}
    for i, name in enumerate(layers):
        out[f"{name}.self_us"] = self_us(layer == i)
        out[f"{name}.calls"] = int(((layer == i) & boundary).sum())
    if "harness" in layers:  # generation and report emission have metrics of their own
        harness = layer == layers.index("harness")
        out["harness.generate_us"] = self_us(harness & (spans["stage"] == _GENERATE))
        out["harness.emit_us"] = self_us(harness & (spans["stage"] == _EMIT))
        out["harness.self_us"] = self_us(harness & (spans["stage"] == 0))
    out["linalg.eig_us"] = float(dur[eig].sum()) * 1e6
    out["linalg.eig_calls"] = int(eig.sum())
    out["linalg.validate_calls"] = int((short == "as_symmetric").sum())
    out["linalg.loewner_us"] = float(dur[loewner].sum()) * 1e6
    out["linalg.loewner_calls"] = int(loewner.sum())
    out["funcs.eval_calls"] = int(((spans["flags"] & FLAG_EVAL) != 0).sum())
    return out
