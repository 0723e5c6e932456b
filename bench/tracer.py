"""Span tracer for the benchmark's traced runs.

The library carries no instrumentation.  ``Tracer.install`` wraps, from the
outside, the public functions and class constructors of every scalekit
module, and rebinds every module-level name that refers to a wrapped
function (``refines`` inside ``metric``, the package re-exports, ...) so that
calls between modules are traced too.

A span is a list ``[name, start, end, parent, op, count, error]``:
``parent`` indexes the enclosing span (-1 at the top), ``op`` is the
operation id, ``count`` is the work a span did where it has a natural
measure (points validated, pairs stored, refinement verdicts, heavy pairs
returned) and ``error`` is true when an ``InstanceError`` left the call.
Spans stay in memory; the caller writes them out when the run ends.

``layer_metrics`` turns spans into the per-layer metrics of BENCHMARK.json.
It needs no scalekit import, so the harness can aggregate spans written by
child interpreters.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("model", "instances", "catalogues", "cli", "scales", "metric",
           "entourages", "bounded", "oscillation", "duality", "algebra_comm",
           "algebra_noncomm", "translation", "reports")

# methods traced besides constructors and module-level functions
METHODS = {"bounded.BoundedStructure": ("ideal_components",)}

# fmt_value and truncation_label are leaf formatters called once per label or
# report, where a span would cost more than the call; build_parser is left in
# cli.main's self time, which stands for parsing and emitting
SKIP = frozenset({"model.fmt_value", "reports.truncation_label",
                  "cli.build_parser"})


def _points(args, out):
    return sum(len(e) for e in args[0].elements)


def _pairs(args, out):
    return len(args[0].pairs)


def _hit(args, out):
    return int(bool(out))


def _returned(args, out):
    return len(out)


COUNTS = {"scales.Cover": _points, "entourages.Entourage": _pairs,
          "scales.refines": _hit, "oscillation.heavy_pairs": _returned}


class Tracer:
    """Records spans for calls into scalekit; ``install``/``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, error_type):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except error_type:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scalekit
        from scalekit.model import InstanceError
        mods = {m: importlib.import_module("scalekit." + m) for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = "%s.%s" % (short, attr)
                if (attr.startswith("_") or name in SKIP
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    self._set(obj, "__init__",
                              self._wrap(name, obj.__init__, InstanceError))
                    for meth in METHODS.get(name, ()):
                        self._set(obj, meth, self._wrap(
                            "%s.%s" % (short, meth), getattr(obj, meth),
                            InstanceError))
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(name, obj, InstanceError))
        for mod in (scalekit, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


# -- aggregation -------------------------------------------------------------

def _module(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def op_accounting(spans, walls: dict) -> dict:
    """Per operation: (sum of span self times, uncovered remainder, wall).

    The remainder is the operation's wall time not inside any top-level
    span; self times plus remainder must give the wall time back.  Spans
    with operation None were recorded between operations and are skipped.
    """
    selfs = self_times(spans)
    out = {op: [0.0, wall, wall] for op, wall in walls.items()}
    for s, st in zip(spans, selfs):
        if s[4] is None:
            continue
        acc = out[s[4]]
        acc[0] += st
        if s[3] < 0:
            acc[1] -= s[2] - s[1]
    return {op: tuple(v) for op, v in out.items()}


# name -> (unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    [("%s.self_s" % m, "s") for m in MODULES]
    + [("%s.errors" % m, "count") for m in MODULES]
    + [(n, "count") for n in ("model.Space.calls", "scales.Cover.calls",
                              "scales.Cover.points", "scales.refines.calls",
                              "metric.ball_cover.calls",
                              "entourages.Entourage.calls",
                              "entourages.Entourage.pairs",
                              "bounded.BoundedStructure.calls",
                              "bounded.desk_weakly_bounded.calls",
                              "oscillation.heavy_pairs.pairs")]
    + [("scales.refines.hit_ratio", "ratio"),
       ("metric.ball_cover.per_scan", "count/scan")]
    + [("%s.self_s" % n, "s") for n in (
        "model.Space", "instances.load_space", "instances.bundled", "cli.main",
        "scales.Cover", "scales.star_family", "scales.refines",
        "scales.check_ls_base", "scales.check_ss_base",
        "metric.ball_cover", "metric.mesh", "metric.lebesgue_number",
        "entourages.Entourage", "entourages.compose",
        "entourages.metric_entourage", "entourages.check_coarse_axioms",
        "entourages.check_uniform_axioms",
        "bounded.BoundedStructure", "bounded.ideal_components",
        "bounded.desk_weakly_bounded", "bounded.witness_space",
        "oscillation.heavy_pairs", "oscillation.is_slowly_oscillating",
        "duality.ls_membership", "duality.continuously_controlled_check",
        "duality.theorem75_agreement", "duality.wright_c0_check",
        "algebra_comm.stone_weierstrass_desk_test",
        "algebra_noncomm.f_bounded", "algebra_noncomm.operator_norm",
        "translation.check_translation_ls")]
    + [("cli.import_s", "s"), ("trace.overhead_s", "s")]
)

SCANS = ("metric.mesh", "metric.lebesgue_number")


def layer_metrics(spans, cli_errors: int = 0) -> dict:
    """Per-layer values from spans, every PER_LAYER name except the two the
    harness measures itself (cli.import_s, trace.overhead_s)."""
    selfs = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    counts: dict = {}
    vals = {name: 0.0 for name, _ in PER_LAYER}
    scans = scan_balls = 0
    for s, st in zip(spans, selfs):
        name = s[0]
        mod = _module(name)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        vals["%s.self_s" % mod] += st
        if s[5] is not None:
            counts[name] = counts.get(name, 0) + s[5]
        # an error leaves a layer when the caller is outside the module
        if s[6] and (s[3] < 0 or _module(spans[s[3]][0]) != mod):
            vals["%s.errors" % mod] += 1
        if name in SCANS:
            scans += 1
        elif name == "metric.ball_cover" and s[3] >= 0 and spans[s[3]][0] in SCANS:
            scan_balls += 1
    vals["cli.errors"] += cli_errors
    for key in vals:
        base, _, kind = key.rpartition(".")
        if kind == "calls":
            vals[key] = calls.get(base, 0)
        elif kind == "self_s" and base in self_s and "." in base:
            vals[key] = self_s[base]
    vals["scales.Cover.points"] = counts.get("scales.Cover", 0)
    vals["entourages.Entourage.pairs"] = counts.get("entourages.Entourage", 0)
    vals["oscillation.heavy_pairs.pairs"] = counts.get("oscillation.heavy_pairs", 0)
    n_ref = calls.get("scales.refines", 0)
    vals["scales.refines.hit_ratio"] = (counts.get("scales.refines", 0) / n_ref
                                        if n_ref else 0.0)
    vals["metric.ball_cover.per_scan"] = scan_balls / scans if scans else 0.0
    del vals["cli.import_s"], vals["trace.overhead_s"]
    return vals
