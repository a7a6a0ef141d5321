"""In-process traced run: spans around the calls into each library layer.

The tracer rebinds module attributes of the imported `kacmax` package to
timing wrappers; nothing under `src/` is edited.  Targets are looked up when
tracing starts, so a function that a refactor removed or took off the hot
path shows up as `calls = 0` with a note instead of an error.  Spans (name,
start, end, parent, job) are kept in flat arrays in memory and turned into
per-layer figures once the run ends.  Every job runs on freshly imported
`kacmax` modules, so a module-level cache that one job fills is not there for
the next, just as in a new `kacmax` process.
"""

from __future__ import annotations

import importlib
import io
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import shape_count

FAMILIES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str
    span: str
    # records work counts at the boundary: (tracer, args, kwargs, result)
    on_return: Callable | None = None
    # names the span from the call's arguments: (args, kwargs) -> name
    span_of_call: Callable | None = None


def _family_span(args, kwargs) -> str:
    family = args[0] if args else kwargs.get("family")
    return f"tuple_sets.enumerate_M.f{family}"


def _on_weights(tracer, args, kwargs, report):
    tracer.counts["maximal_weights.weights_out"] += len(report.weights)


def _on_tuples(tracer, args, kwargs, tuples):
    tracer.counts["tuple_sets.tuples_out"] += len(tuples)
    tracer.counts["tuple_sets.empty_calls"] += not tuples


def _on_shapes(tracer, args, kwargs, total):
    ell, k = (list(args) + [kwargs.get("ell"), kwargs.get("k")])[:2]
    tracer.counts["patterns.shapes"] += shape_count(ell, k)


def _on_elements(tracer, args, kwargs, elements):
    tracer.counts["young_crystal.elements_out"] += len(elements)


LAYERS = (
    Layer("kacmax.cli", "main", "cli.main"),
    Layer("kacmax.maximal_weights", "maximal_dominant_weights",
          "maximal_weights.maximal_dominant_weights", _on_weights),
    Layer("kacmax.maximal_weights", "verify_count_conjecture",
          "maximal_weights.verify_count_conjecture"),
    Layer("kacmax.tuple_sets", "enumerate_M", "tuple_sets.enumerate_M", _on_tuples, _family_span),
    Layer("kacmax.affine_core", "weight_from_x", "affine_core.weight_from_x"),
    Layer("kacmax.lattice_paths", "count_T", "lattice_paths.count_T"),
    Layer("kacmax.patterns", "count_avoiding", "patterns.count_avoiding", _on_shapes),
    Layer("kacmax.young_crystal", "enumerate_weight_space",
          "young_crystal.enumerate_weight_space", _on_elements),
    Layer("kacmax.young_crystal", "is_crystal_element", "young_crystal.is_crystal_element"),
)


class Tracer:
    """Span recorder.  One span per wrapped call, in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.counts: dict[str, float] = defaultdict(int)
        self.current_job = -1
        self._stack: list[int] = []

    def name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn, layer: Layer):
        fixed_id = self.name_id(layer.span)
        span_of_call = layer.span_of_call
        on_return = layer.on_return
        stack, names, starts, ends, parents, jobs = (
            self._stack, self.name, self.start, self.end, self.parent, self.job
        )

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(fixed_id if span_of_call is None else self.name_id(span_of_call(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NodeBudgetExceeded":
                    self.counts["young_crystal.budget_refusals"] += 1
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover
    (children are clipped to the parent and overlaps count once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, reach = 0.0, lo
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


@contextmanager
def installed(tracer: Tracer):
    """Rebind every `kacmax` module attribute that holds a layer function to
    its traced wrapper; yields the notes on layers that could not be found."""
    notes: list[str] = []
    patched = []
    for layer in LAYERS:
        try:
            home = importlib.import_module(layer.module)
        except ImportError as exc:
            notes.append(f"{layer.span}: module {layer.module} not importable ({exc})")
            continue
        fn = getattr(home, layer.attr, None)
        if not callable(fn):
            notes.append(f"{layer.span}: {layer.module}.{layer.attr} not found")
            continue
        wrapper = tracer.wrap(fn, layer)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "kacmax" and getattr(mod, layer.attr, None) is fn:
                setattr(mod, layer.attr, wrapper)
                patched.append((mod, layer.attr, fn))
    try:
        yield notes
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


def fresh_kacmax() -> None:
    """Drop every imported `kacmax` module and import `kacmax.cli` (which
    imports the whole package) again."""
    for name in [n for n in sys.modules if n.split(".")[0] == "kacmax"]:
        del sys.modules[name]
    importlib.import_module("kacmax.cli")


def run_fresh(argv: list[str], tracer: Tracer | None = None) -> tuple[int | None, bytes, float, list[str]]:
    """One job in-process on fresh `kacmax` modules, traced when a tracer is
    given.  Returns the exit code, stdout, the job's seconds (the import not
    included) and the notes on layers that could not be found."""
    fresh_kacmax()
    if tracer is None:
        t = perf_counter()
        code, out = run_in_process(argv)
        return code, out, perf_counter() - t, []
    tracer.current_job += 1
    with installed(tracer) as notes:
        t = perf_counter()
        code, out = run_in_process(argv)
        return code, out, perf_counter() - t, notes


def run_in_process(argv: list[str]) -> tuple[int | None, bytes]:
    """`kacmax <argv>` through `kacmax.cli.main`, looked up at call time so a
    traced wrapper is used when one is installed."""
    cli = importlib.import_module("kacmax.cli")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode()


def layer_metrics(tracer: Tracer, passes: int):
    """Per-layer figures per traced pass, as name -> (value, unit).  Returns
    the figures an optimisation can move, the counts that the math and the
    job list fix (any change there is an output bug), and notes on layers
    never called."""
    selfs = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i in range(len(tracer.start)):
        span = tracer.names[tracer.name[i]]
        calls[span] += 1
        total[span] += tracer.end[i] - tracer.start[i]
        own[span] += selfs[i]
    families = [f"tuple_sets.enumerate_M.f{f}" for f in FAMILIES]
    calls["tuple_sets.enumerate_M"] = sum(calls[f] for f in families)
    total["tuple_sets.enumerate_M"] = sum(total[f] for f in families)
    c = tracer.counts

    def per_pass(value: float, unit: str) -> tuple[float, str]:
        return value / passes, unit

    mdw = "maximal_weights.maximal_dominant_weights"
    m = {
        "cli.main.calls": per_pass(calls["cli.main"], "count"),
        "cli.main.s": per_pass(total["cli.main"], "s"),
        "cli.self_s": per_pass(own["cli.main"], "s"),
        "cli.stdout_bytes": per_pass(c["cli.stdout_bytes"], "bytes"),
        f"{mdw}.calls": per_pass(calls[mdw], "count"),
        f"{mdw}.s": per_pass(total[mdw], "s"),
        f"{mdw}.self_s": per_pass(own[mdw], "s"),
        "maximal_weights.verify_count_conjecture.s":
            per_pass(total["maximal_weights.verify_count_conjecture"], "s"),
        "tuple_sets.enumerate_M.calls": per_pass(calls["tuple_sets.enumerate_M"], "count"),
        "tuple_sets.enumerate_M.s": per_pass(total["tuple_sets.enumerate_M"], "s"),
    }
    m.update({f"{f}.s": per_pass(total[f], "s") for f in families})
    tuples = c["tuple_sets.tuples_out"]
    m.update({
        "tuple_sets.tuples_out": per_pass(tuples, "count"),
        "tuple_sets.empty_frac": (_ratio(c["tuple_sets.empty_calls"], calls["tuple_sets.enumerate_M"]), "frac"),
        "tuple_sets.useful_frac": (_ratio(c["maximal_weights.weights_out"], tuples), "frac"),
    })
    for span in ("affine_core.weight_from_x", "lattice_paths.count_T", "patterns.count_avoiding",
                 "young_crystal.enumerate_weight_space", "young_crystal.is_crystal_element"):
        m[f"{span}.calls"] = per_pass(calls[span], "count")
        m[f"{span}.s"] = per_pass(total[span], "s")
    m["young_crystal.budget_refusals"] = per_pass(c["young_crystal.budget_refusals"], "count")
    fixed = {
        name: per_pass(c[name], "count")
        for name in ("maximal_weights.weights_out", "patterns.shapes", "young_crystal.elements_out")
    }
    notes = [
        f"{layer.span}: never called on this workload (calls = 0)"
        for layer in LAYERS
        if calls[layer.span] == 0
    ]
    return m, fixed, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
