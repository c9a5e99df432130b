"""Per-layer tracing from outside gext: spans around its public functions.

`install` replaces each traced function with a wrapper in every ``gext``
module namespace that bound it at import time (``syzygies``, for example,
is bound in groebner, gmod, resolve, homext and the package itself), and
methods on their class.  A wrapper opens a span, calls the original and
closes the span; a span's self time is its duration minus the time of its
direct child spans.  Spans are folded into totals as they close, so memory
stays flat however many calls a pass makes.

Monomial arithmetic is far too fine-grained for spans: `install_counters`
only counts calls, in a pass of its own.

All statistics are additive (calls, seconds, sums), so passes that run in
several processes can be summed; `layer_metrics` forms the ratios last.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (gext module, attribute, span name)
TRACED = [
    ("sheafext", "global_ext_sum", "sheafext.global_ext_sum"),
    ("sheafext", "truncation_bound", "sheafext.truncation_bound"),
    ("sheafext", "s_betti", "sheafext.s_betti"),
    ("sheafext", "cotangent_module", "sheafext.cotangent_module"),
    ("sheafext", "yoneda_extension", "sheafext.yoneda_extension"),
    ("sheafext", "nonsplit_extension_coords",
     "sheafext.nonsplit_extension_coords"),
    ("homext", "ext_module", "homext.ext_module"),
    ("homext", "hom_module", "homext.hom_module"),
    ("homext", "express_in_generators", "homext.express_in_generators"),
    ("groebner", "syzygies", "groebner.syzygies"),
    ("groebner", "minimal_generators", "groebner.minimal_generators"),
    ("groebner", "groebner_basis", "groebner.groebner_basis"),
    ("groebner", "GroebnerBasis.reduce", "groebner.GroebnerBasis.reduce"),
    ("resolve", "free_resolution", "resolve.free_resolution"),
    ("resolve", "betti_stats", "resolve.betti_stats"),
    ("gmod", "subquotient", "gmod.subquotient"),
    ("gmod", "prune", "gmod.prune"),
    ("gmod", "truncate_module", "gmod.truncate_module"),
    ("gmod", "kernel_of_map", "gmod.kernel_of_map"),
    ("gmod", "image_of", "gmod.image_of"),
    ("gmod", "submodule_equals", "gmod.submodule_equals"),
    ("gmod", "graded_component", "gmod.graded_component"),
    ("gmod", "restrict_scalars", "gmod.restrict_scalars"),
    ("gmod", "krull_dim", "gmod.krull_dim"),
    ("gmod", "GradedModule.relations_gb", "gmod.relations_gb"),
    ("ring", "Ring.__init__", "ring.Ring"),
    ("ring", "Ring.quotient_groebner", "ring.Ring.quotient_groebner"),
    ("ring", "parse_polynomial", "ring.parse_polynomial"),
    ("script", "parse_script", "script.parse_script"),
    ("script", "run_script", "script.run_script"),
    ("cli", "record_payload", "cli.record_payload"),
]

MONOMIAL_OPS = ("mul", "divides", "lcm", "quotient")

# span whose children show whether a cached value was reused
_CACHE_MISS_CHILD = {
    "sheafext.s_betti": "resolve.free_resolution",
    "gmod.relations_gb": "groebner.groebner_basis",
}
_KERNEL_PARENTS = ("homext.ext_module", "homext.hom_module")

_MARK = "__bench_span__"


def _gext_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gext" or name.startswith("gext."))]


class Recorder:
    """Open-span stack plus additive totals keyed by metric name."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.stack = []      # frames: [span name, child seconds, child names]
        self.paused = False

    def call(self, name, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0, set()]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            stats = self.stats
            stats[name + ".calls"] += 1
            stats[name + ".self_s"] += dt - frame[1]
            miss_child = _CACHE_MISS_CHILD.get(name)
            if miss_child is not None and miss_child not in frame[2]:
                stats[name + ".hits"] += 1
            if parent is not None:
                parent[1] += dt
                parent[2].add(name)
                if name == "groebner.syzygies" and parent[0] in _KERNEL_PARENTS:
                    stats["homext.kernel_syz_s"] += dt


def _count_inputs(stats, name, bound):
    """Work counts read from public arguments, before the call."""
    gens = bound.arguments["gens"] = list(bound.arguments["gens"])
    if name == "groebner.syzygies":
        stats[name + ".tracked_in"] += len(gens)
        stats[name + ".untracked_in"] += len(list(bound.arguments["rels"]))
    else:
        stats[name + ".nonzero_in"] += sum(1 for g in gens if not g.is_zero())


def _count_outputs(stats, name, result):
    """Work counts read from public return values."""
    if name == "groebner.syzygies":
        stats[name + ".cols_out"] += result.source.rank
    elif name == "groebner.minimal_generators":
        stats[name + ".kept"] += len(result[0])
    elif name == "resolve.free_resolution":
        stats[name + ".total_rank"] += sum(f.rank for f in result.free_modules)


def _wrap(recorder, name, fn):
    counted_inputs = name in ("groebner.syzygies",
                              "groebner.minimal_generators")
    signature = inspect.signature(fn) if counted_inputs else None

    def wrapper(*args, **kwargs):
        if recorder.paused:
            return fn(*args, **kwargs)
        if counted_inputs:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            _count_inputs(recorder.stats, name, bound)
            args, kwargs = bound.args, bound.kwargs
        result = recorder.call(name, fn, args, kwargs)
        _count_outputs(recorder.stats, name, result)
        return result

    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _MARK, name)
    return wrapper


def _owners():
    """Import every traced module first (the package does not import cli),
    so that every namespace binding a traced function is seen."""
    return {module: importlib.import_module("gext." + module)
            for module, _, _ in TRACED}


def install(recorder):
    """Wrap every traced function wherever gext bound it."""
    owners = _owners()
    for module, attr, name in TRACED:
        owner = owners[module]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, _wrap(recorder, name, cls.__dict__[method]))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(recorder, name, original)
        for ns in _gext_namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)


def audit():
    """(wrapped, unwrapped) bindings of traced functions across gext."""
    owners = _owners()
    wrapped = unwrapped = 0
    for module, attr, _ in TRACED:
        owner = owners[module]
        if "." in attr:
            cls_name, method = attr.split(".")
            fn = vars(getattr(owner, cls_name))[method]
            if hasattr(fn, _MARK):
                wrapped += 1
            else:
                unwrapped += 1
            continue
        fn = getattr(owner, attr)
        original = getattr(fn, "__wrapped__", fn)
        for ns in _gext_namespaces():
            for value in vars(ns).values():
                if value is fn or value is original:
                    if hasattr(value, _MARK):
                        wrapped += 1
                    else:
                        unwrapped += 1
    return wrapped, unwrapped


class Counters:
    """Call counts of the monomial primitives; nothing counts while paused."""

    def __init__(self):
        self.stats = {f"monomial.{op}.calls": 0 for op in MONOMIAL_OPS}
        self.paused = False


def install_counters(counters):
    """Count calls of the packed-monomial primitives (no timing)."""
    from gext.monomial import MonomialContext
    stats = counters.stats
    for op in MONOMIAL_OPS:
        original = getattr(MonomialContext, op)
        key = f"monomial.{op}.calls"

        def counted(self, a, b, _original=original, _key=key):
            if not counters.paused:
                stats[_key] += 1
            return _original(self, a, b)

        setattr(MonomialContext, op, counted)


def per_layer_names():
    """Every per-layer metric name, in report order."""
    names = []
    for _, _, span in TRACED:
        names += [span + ".calls", span + ".self_s"]
    names += ["sheafext.s_betti.hit_ratio", "gmod.relations_gb.hit_ratio",
              "homext.kernel_syz_s",
              "groebner.syzygies.tracked_in", "groebner.syzygies.untracked_in",
              "groebner.syzygies.cols_out",
              "groebner.minimal_generators.nonzero_in",
              "groebner.minimal_generators.kept_ratio",
              "resolve.free_resolution.total_rank"]
    names += [f"monomial.{op}.calls" for op in MONOMIAL_OPS]
    names.append("trace.overhead_ratio")
    return names


def layer_metrics(traced: dict, counted: dict, overhead_ratio: float):
    """Per-layer metric values from summed traced and counting statistics."""
    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for _, _, span in TRACED:
        values[span + ".calls"] = traced.get(span + ".calls", 0)
        values[span + ".self_s"] = traced.get(span + ".self_s", 0.0)
    for span in _CACHE_MISS_CHILD:
        values[span + ".hit_ratio"] = ratio(traced.get(span + ".hits", 0),
                                            traced.get(span + ".calls", 0))
    values["homext.kernel_syz_s"] = traced.get("homext.kernel_syz_s", 0.0)
    for key in ("groebner.syzygies.tracked_in",
                "groebner.syzygies.untracked_in", "groebner.syzygies.cols_out",
                "groebner.minimal_generators.nonzero_in",
                "resolve.free_resolution.total_rank"):
        values[key] = traced.get(key, 0)
    values["groebner.minimal_generators.kept_ratio"] = ratio(
        traced.get("groebner.minimal_generators.kept", 0),
        traced.get("groebner.minimal_generators.nonzero_in", 0))
    for op in MONOMIAL_OPS:
        key = f"monomial.{op}.calls"
        values[key] = counted.get(key, 0)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: int(values[name]) if _is_count(name) else values[name]
            for name in per_layer_names()}


def _is_count(name):
    return name.endswith((".calls", "_in", ".cols_out", ".total_rank"))
