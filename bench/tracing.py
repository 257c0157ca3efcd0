"""Per-layer timings for the traced run.

Every public function of the eight ratiolab modules (the names in each
module's ``__all__``) is wrapped, and the wrapper is bound wherever a
ratiolab module holds that function: in the defining module and in every
module that imported the name. Calls inside ``run_claims``, the samplers or
the dataset writers therefore go through the wrappers too.

A wrapper records a span per call; a span's self time is its duration minus
the spans opened inside it. Generator functions (the samplers) get one span
per item produced. The ``Generator`` handed to ``sample_ordered_cubics`` is
wrapped to count the uniform variates drawn.

Wrappers are installed only for the traced run and removed after it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = ("kernel", "cubic", "ratios", "sampling", "theorems", "mapping", "records", "cli")

#: Functions whose result gives the number of items they handled.
_ITEM_COUNTS = {
    ("mapping", "sweep_w_grid"): len,
    ("mapping", "trace_boundary"): len,
    ("mapping", "emit_dataset"): int,
}
_DRAW_COUNTED = ("sampling", "sample_ordered_cubics")


class CountingGenerator:
    """Stands in for a numpy ``Generator`` and counts uniform variates."""

    def __init__(self, rng, counter: list):
        self._rng = rng
        self._counter = counter

    def uniform(self, low=0.0, high=1.0, size=None):
        self._counter[0] += 1 if size is None else math.prod(
            (size,) if isinstance(size, int) else size)
        return self._rng.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Stat:
    __slots__ = ("calls", "items", "total", "self_time", "draws")

    def __init__(self):
        self.calls = 0
        self.items = 0
        self.total = 0.0
        self.self_time = 0.0
        self.draws = [0]


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter
        count = _ITEM_COUNTS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if count is not None:
                stat.items += count(result)
            return result

        return traced

    def _wrap_generator(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter
        count_draws = key == _DRAW_COUNTED

        @functools.wraps(fn)
        def traced(n, rng, *args, **kwargs):
            if count_draws:
                rng = CountingGenerator(rng, stat.draws)
            stat.calls += 1
            it = fn(n, rng, *args, **kwargs)
            while True:
                child = [0.0]
                stack.append(child)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat.total += dt
                    stat.self_time += dt - child[0]
                    if stack:
                        stack[-1][0] += dt
                stat.items += 1
                yield item

        return traced

    # -- installation

    def install(self) -> None:
        modules = [importlib.import_module(f"ratiolab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
                wrappers[id(fn)] = (fn, wrap((layer, name), fn))
        for mod in modules + [importlib.import_module("ratiolab")]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- metrics

    def get(self, layer, name) -> Stat:
        return self.stats.get((layer, name)) or Stat()

    def us_per_call(self, layer, name):
        s = self.get(layer, name)
        return s.total / s.calls * 1e6 if s.calls else None

    def s_per_call(self, layer, name):
        s = self.get(layer, name)
        return s.total / s.calls if s.calls else None

    def us_per_item(self, layer, name):
        s = self.get(layer, name)
        return s.total / s.items * 1e6 if s.items else None

    def layer_self_s(self, layer):
        stats = [s for (lay, _), s in self.stats.items() if lay == layer and s.calls]
        return sum(s.self_time for s in stats) if stats else None


def per_layer_metrics(tr: Tracer, import_s: float) -> dict[str, tuple[float | None, str]]:
    """The per-layer metrics by name, as (value, unit); None marks a layer
    whose wrapper recorded no calls."""
    sampling = [s for (lay, _), s in tr.stats.items() if lay == "sampling" and s.items]
    sampled = sum(s.items for s in sampling)
    ordered = tr.get(*_DRAW_COUNTED)
    f, g = tr.get("ratios", "f_extension"), tr.get("ratios", "g_extension")
    claims = tr.get("theorems", "run_claims")
    m = {
        "sampling.us_per_config": (
            sum(s.total for s in sampling) / sampled * 1e6 if sampled else None, "us"),
        "sampling.draws_per_config": (
            ordered.draws[0] / ordered.items if ordered.items else None, "count"),
        "cubic.order_roots_us": (tr.us_per_call("cubic", "order_roots"), "us"),
        "cubic.normalize_us": (tr.us_per_call("cubic", "normalize"), "us"),
        "cubic.assess_admissibility_us": (tr.us_per_call("cubic", "assess_admissibility"), "us"),
        "cubic.bruteforce_us": (tr.us_per_call("cubic", "critical_points_bruteforce"), "us"),
        "kernel.principal_sqrt_us": (tr.us_per_call("kernel", "principal_sqrt"), "us"),
        "ratios.direct_us": (tr.us_per_call("ratios", "ratios_direct"), "us"),
        "ratios.via_w_us": (tr.us_per_call("ratios", "ratios_via_w"), "us"),
        "ratios.closed_form_us": (
            (f.total + g.total) / f.calls * 1e6 if f.calls and g.calls else None, "us"),
        "ratios.boundary_us": (tr.us_per_call("ratios", "boundary_sigma1"), "us"),
        "theorems.check_bounds_us": (tr.us_per_call("theorems", "check_bounds"), "us"),
        "theorems.scan_lemma1_s": (tr.s_per_call("theorems", "scan_lemma1"), "s"),
        "theorems.scan_lemma2_s": (tr.s_per_call("theorems", "scan_lemma2"), "s"),
        "theorems.self_s": (claims.self_time if claims.calls else None, "s"),
        "mapping.sweep_us_per_point": (tr.us_per_item("mapping", "sweep_w_grid"), "us"),
        "mapping.trace_us_per_point": (tr.us_per_item("mapping", "trace_boundary"), "us"),
        "mapping.emit_us_per_row": (tr.us_per_item("mapping", "emit_dataset"), "us"),
        "mapping.inellipse_us": (tr.us_per_call("mapping", "steiner_inellipse"), "us"),
        "records.csv_row_us": (tr.us_per_call("records", "csv_row"), "us"),
        "records.jsonl_line_us": (tr.us_per_call("records", "jsonl_line"), "us"),
        "cli.import_s": (import_s, "s"),
    }
    for layer in LAYERS:
        if layer != "theorems":
            m[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    return m
