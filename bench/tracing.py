"""Per-layer tracing of pathvar from outside the package.

Tracer.install() replaces each traced function with a wrapper in every
loaded pathvar module namespace that binds it (modules import each other's
functions by name, so patching only the defining module would miss calls),
and replaces traced methods on their class.  Each wrapper records a span:
calls and self time, where self time is the span's duration minus that of
the traced spans it encloses.  A few wrappers also count work items.
numerics.interval and the Dyadic operators are not wrapped: they are too
hot, so their cost lands in the self time of their traced callers.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (metric prefix, defining module, attribute or Class.method)
SPANS = (
    ("core.chords.chord_deltas_exact", "pathvar.core.chords", "chord_deltas_exact"),
    ("core.chords.polyline_length", "pathvar.core.chords", "polyline_length"),
    ("core.paths.as_polyline", "pathvar.core.paths", "as_polyline"),
    ("core.paths.path_from_json", "pathvar.core.paths", "path_from_json"),
    ("core.partitions.merge_partitions", "pathvar.core.partitions", "merge_partitions"),
    ("core.certificates.Certificate.to_json_dict", "pathvar.core.certificates", "Certificate.to_json_dict"),
    ("core.certificates.decimal_down", "pathvar.core.certificates", "decimal_down"),
    ("core.certificates.decimal_up", "pathvar.core.certificates", "decimal_up"),
    ("numerics.dyadic.sqrt_down", "pathvar.numerics.dyadic", "sqrt_down"),
    ("numerics.dyadic.sqrt_up", "pathvar.numerics.dyadic", "sqrt_up"),
    ("numerics.trig.pi_enclosure", "pathvar.numerics.trig", "pi_enclosure"),
    ("numerics.trig.cos_enclosure", "pathvar.numerics.trig", "cos_enclosure"),
    ("numerics.trig.sin_enclosure", "pathvar.numerics.trig", "sin_enclosure"),
    ("numerics.trig.atan_enclosure", "pathvar.numerics.trig", "atan_enclosure"),
    ("numerics.ratpoly.sturm_isolate", "pathvar.numerics.ratpoly", "sturm_isolate"),
    ("numerics.ratpoly.refine_root", "pathvar.numerics.ratpoly", "refine_root"),
    ("variation.Direction.rational_approx", "pathvar.variation", "Direction.rational_approx"),
    ("variation.Direction.components", "pathvar.variation", "Direction.components"),
    ("variation.directional_variation_on_partition", "pathvar.variation", "directional_variation_on_partition"),
    ("variation.length_upper_bound", "pathvar.variation", "length_upper_bound"),
    ("variation.two_direction_length_bound", "pathvar.variation", "two_direction_length_bound"),
    ("oracles.achieve_variation", "pathvar.oracles", "PolylineOracle.achieve_variation"),
    ("oracles.achieve_variation", "pathvar.oracles", "PolynomialVariationOracle.achieve_variation"),
    ("oracles.achieve_length", "pathvar.oracles", "PolylineOracle.achieve_length"),
    ("oracles.achieve_length", "pathvar.rectify", "CroftonLengthOracle.achieve_length"),
    ("oracles.uniform_witness", "pathvar.oracles", "PolylineOracle.uniform_witness"),
    ("oracles.uniform_witness", "pathvar.oracles", "PolynomialVariationOracle.uniform_witness"),
    ("oracles.sampled_bracket", "pathvar.oracles", "sampled_bracket"),
    ("oracles.sampled_length_bracket", "pathvar.oracles", "sampled_length_bracket"),
    ("rectify.crofton_partition", "pathvar.rectify", "crofton_partition"),
    ("rectify.build_direction_net", "pathvar.rectify", "build_direction_net"),
    ("rectify.refinement_gain_bound", "pathvar.rectify", "refinement_gain_bound"),
    ("rectify.certified_length", "pathvar.rectify", "certified_length"),
    ("rectify.certified_variation", "pathvar.rectify", "certified_variation"),
    ("rectify.variation_order_decide", "pathvar.rectify", "variation_order_decide"),
    ("cli.main", "pathvar.cli", "main"),
)

# wrapped for a call count only: too hot for a span of its own
COUNTED = (("core.paths.eval_rational", "pathvar.core.paths", "eval_rational"),)

# work counters: (metric, unit)
COUNTERS = (
    ("core.chords.chord_deltas_exact.chords", "count"),
    ("core.partitions.merge_partitions.points_out", "count"),
    ("variation.directional_variation_on_partition.interval_route", "count"),
    ("rectify.net_size", "count"),
    ("rectify.net_nodes_evaluated", "count"),
    ("rectify.net_walk_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in dict.fromkeys(s[0] for s in SPANS):
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [(c[0] + ".calls", "count") for c in COUNTED]
    out += list(COUNTERS)
    return out


class Tracer:
    """Collects calls, self time and work counts of the wrapped functions.

    Spans nest through a stack; the workloads run one query at a time on
    one thread, which is what makes a single stack correct."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        after = _AFTER.get(name)
        before = _BEFORE.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded package."""
        for name, module, attr in SPANS:
            self._patch(name, module, attr, self._span)
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, self._count)

    def _patch(self, name, module_name, attr, make):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(name, original))
            self._undo.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapped = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pathvar" or mod_name.startswith("pathvar.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw totals, mergeable across processes with merge()."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}


def merge(total: dict, part: dict) -> None:
    for key in ("calls", "self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value


def layer_metrics(totals: dict, cycles: int, overhead: float) -> dict:
    """Per-cycle values of every per-layer metric, zero where unused."""
    calls, self_s, counts = totals.get("calls", {}), totals.get("self_s", {}), totals.get("counts", {})
    out = {}
    for name, unit in metric_names():
        if name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0) / cycles
        elif name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0) / cycles
        elif name == "rectify.net_walk_ratio":
            size = counts.get("rectify.net_size", 0)
            value = counts.get("rectify.net_nodes_evaluated", 0) / size if size else 0.0
        elif name == "trace.overhead_ratio":
            value = overhead
        else:
            value = counts.get(name, 0) / cycles
        out[name] = {"value": value, "unit": unit}
    return out


# -- work counters, run before or after the wrapped call -------------------------------


def _chords_out(tracer, result):
    if result is not None:
        tracer.counts["core.chords.chord_deltas_exact.chords"] += len(result)


def _points_out(tracer, result):
    tracer.counts["core.partitions.merge_partitions.points_out"] += len(result)


def _net_size(tracer, result):
    tracer.counts["rectify.net_size"] += result[1].node_count


def _interval_route(tracer, args, kwargs):
    d = kwargs["d"] if "d" in kwargs else args[2]
    if d.exact_ray() is None:
        tracer.counts["variation.directional_variation_on_partition.interval_route"] += 1


def _net_node(tracer, args, kwargs):
    # an oracle call made directly by the net walk, not by the mass bound
    if tracer.parent() == "rectify.crofton_partition":
        tracer.counts["rectify.net_nodes_evaluated"] += 1


_AFTER = {
    "core.chords.chord_deltas_exact": _chords_out,
    "core.partitions.merge_partitions": _points_out,
    "rectify.crofton_partition": _net_size,
}
_BEFORE = {
    "variation.directional_variation_on_partition": _interval_route,
    "oracles.achieve_variation": _net_node,
}
