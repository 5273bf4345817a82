"""Outside-in tracer for the squarefibers package.

The tracer changes no file of the package.  It replaces public functions
by timing wrappers in every ``squarefibers.*`` module namespace that binds
the same object (``from .ffpoly import factorize`` copies the binding, so
patching the defining module alone would miss callers), and patches the
hot ``Poly`` and ``Field`` methods on their classes with counters only.

Spans are kept in memory as parallel arrays and written out once, after
the last operation.  A span holds name, start, end, parent span and the
id of the CLI operation that caused it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

# Functions timed as spans, by defining module.
SPANNED = {
    "ffpoly": ("is_irreducible", "factorize", "pow_mod", "monic_irreducibles",
               "root_order", "minimal_polynomial_of_power"),
    "gl_classes": ("centralizer_order", "element_order_of_class", "inverse_class"),
    "power_poly": ("classify2",),
    "square_fibers": ("square_root_classes", "count_square_roots", "square_class",
                      "closed_form_count"),
    "real_classes": ("real_class_count_direct", "real_class_count_theorem",
                     "count_unity_roots_gf", "s2_cardinality"),
    "matrices": ("mat_mul", "mat_inv", "char_poly", "mat_rank"),
    "brute_oracle": ("enumerate_group", "square_fiber_counts", "real_classes_oracle",
                     "s2_oracle", "conjugacy_classes", "inverse_positions",
                     "class_data_of_element", "save_table", "load_table",
                     "build_table"),
    "formats": ("class_data_from_json", "class_data_to_json"),
    "cli": ("build_parser", "run"),
}
# Generator functions: each resumption is a span, each item is counted.
GENERATORS = {"gl_classes": ("enumerate_classes",)}
# Called too often for spans; only the calls are counted.
COUNTED = {"partitions": ("gamma_exponent",), "real_classes": ("count_order_dividing",)}
# lru_cache-wrapped functions whose cache_info() deltas give hit ratios.
CACHED = ("ffpoly.monic_irreducibles", "ffpoly.root_order",
          "ffpoly.minimal_polynomial_of_power", "power_poly.classify2",
          "brute_oracle.build_table")
# Functions whose second argument is a cache file: its size is counted.
FILE_ARG = {"brute_oracle.save_table": "after", "brute_oracle.load_table": "before"}
HANDLER_SPAN = "cli.handler"

# The per-layer metrics of a traced run: (name, unit, better).
LAYER_METRICS = (
    ("ffpoly.is_irreducible.calls", "count", "lower"),
    ("ffpoly.is_irreducible.self_s", "s", "lower"),
    ("ffpoly.factorize.calls", "count", "lower"),
    ("ffpoly.factorize.self_s", "s", "lower"),
    ("ffpoly.pow_mod.calls", "count", "lower"),
    ("ffpoly.pow_mod.self_s", "s", "lower"),
    ("ffpoly.monic_irreducibles.self_s", "s", "lower"),
    ("ffpoly.monic_irreducibles.hit_ratio", "ratio", "higher"),
    ("ffpoly.root_order.hit_ratio", "ratio", "higher"),
    ("ffpoly.minimal_polynomial_of_power.self_s", "s", "lower"),
    ("ffpoly.minimal_polynomial_of_power.hit_ratio", "ratio", "higher"),
    ("ffpoly.Poly.divmod.calls", "count", "lower"),
    ("ffpoly.Poly.mul.calls", "count", "lower"),
    ("ffpoly.Field.ext_ops.calls", "count", "lower"),
    ("gl_classes.enumerate_classes.calls", "count", "lower"),
    ("gl_classes.enumerate_classes.yielded", "count", "lower"),
    ("gl_classes.enumerate_classes.self_s", "s", "lower"),
    ("gl_classes.centralizer_order.calls", "count", "lower"),
    ("gl_classes.centralizer_order.self_s", "s", "lower"),
    ("gl_classes.element_order_of_class.calls", "count", "lower"),
    ("gl_classes.element_order_of_class.self_s", "s", "lower"),
    ("gl_classes.inverse_class.self_s", "s", "lower"),
    ("partitions.gamma_exponent.calls", "count", "lower"),
    ("power_poly.classify2.calls", "count", "lower"),
    ("power_poly.classify2.self_s", "s", "lower"),
    ("power_poly.classify2.hit_ratio", "ratio", "higher"),
    ("square_fibers.square_root_classes.calls", "count", "lower"),
    ("square_fibers.square_root_classes.self_s", "s", "lower"),
    ("square_fibers.count_square_roots.calls", "count", "lower"),
    ("square_fibers.count_square_roots.self_s", "s", "lower"),
    ("square_fibers.square_class.calls", "count", "lower"),
    ("square_fibers.square_class.self_s", "s", "lower"),
    ("square_fibers.closed_form_count.self_s", "s", "lower"),
    ("real_classes.real_class_count_direct.self_s", "s", "lower"),
    ("real_classes.real_class_count_theorem.self_s", "s", "lower"),
    ("real_classes.count_unity_roots_gf.self_s", "s", "lower"),
    ("real_classes.s2_cardinality.calls", "count", "lower"),
    ("real_classes.s2_cardinality.self_s", "s", "lower"),
    ("real_classes.count_order_dividing.calls", "count", "lower"),
    ("matrices.mat_mul.calls", "count", "lower"),
    ("matrices.mat_mul.self_s", "s", "lower"),
    ("matrices.mat_inv.calls", "count", "lower"),
    ("matrices.mat_inv.self_s", "s", "lower"),
    ("matrices.char_poly.self_s", "s", "lower"),
    ("matrices.mat_rank.self_s", "s", "lower"),
    ("brute_oracle.enumerate_group.self_s", "s", "lower"),
    ("brute_oracle.square_fiber_counts.self_s", "s", "lower"),
    ("brute_oracle.real_classes_oracle.self_s", "s", "lower"),
    ("brute_oracle.s2_oracle.self_s", "s", "lower"),
    ("brute_oracle.conjugacy_classes.calls", "count", "lower"),
    ("brute_oracle.conjugacy_classes.self_s", "s", "lower"),
    ("brute_oracle.inverse_positions.calls", "count", "lower"),
    ("brute_oracle.inverse_positions.self_s", "s", "lower"),
    ("brute_oracle.class_data_of_element.calls", "count", "lower"),
    ("brute_oracle.class_data_of_element.self_s", "s", "lower"),
    ("brute_oracle.save_table.self_s", "s", "lower"),
    ("brute_oracle.save_table.bytes", "bytes", "lower"),
    ("brute_oracle.load_table.self_s", "s", "lower"),
    ("brute_oracle.load_table.bytes", "bytes", "lower"),
    ("brute_oracle.build_table.hit_ratio", "ratio", "higher"),
    ("formats.class_data_from_json.self_s", "s", "lower"),
    ("formats.class_data_to_json.calls", "count", "lower"),
    ("formats.class_data_to_json.self_s", "s", "lower"),
    ("cli.build_parser.calls", "count", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    """In-memory span store plus call counters and cache statistics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    # -- per-operation cache statistics ------------------------------------

    def op_begin(self, op_id: int) -> None:
        self.op_id = op_id
        for name, fn in self._caches.items():
            info = fn.cache_info()
            self._cache_base[name] = (info.hits, info.misses)

    def op_end(self) -> None:
        for name, fn in self._caches.items():
            info = fn.cache_info()
            hits, misses = self._cache_base[name]
            self.counts[name + ".hits"] += info.hits - hits
            self.counts[name + ".misses"] += info.misses - misses
        self.op_id = -1

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs an
        untraced run to compare against."""
        calls: Counter = Counter()
        own: Counter = Counter()
        for nid, s in zip(self.span_name, self_times(self.start, self.end, self.parent)):
            calls[nid] += 1
            own[nid] += s
        stats: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            stats[name + ".calls"] = calls[nid]
            stats[name + ".self_s"] = own[nid]
        # Counters win over span counts: a generator's spans are its
        # resumptions, while its counter holds the calls.
        stats.update(self.counts)
        for name in CACHED:
            hits = self.counts[name + ".hits"]
            lookups = hits + self.counts[name + ".misses"]
            stats[name + ".hit_ratio"] = hits / lookups if lookups else 0.0
        return {
            metric: float(stats.get(metric, 0))
            for metric, _, _ in LAYER_METRICS
            if metric != "trace.overhead"
        }

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": list(zip(self.span_name, self.start, self.end,
                                      self.parent, self.op)),
                },
                fh,
                separators=(",", ":"),
            )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [e - s - c for s, e, c in zip(start, end, covered)]


# -- wrappers ------------------------------------------------------------------


def _span_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        sid = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(sid)

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    counts = tracer.counts
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        counts[name + ".calls"] += 1
        it = fn(*args, **kwargs)
        while True:
            sid = begin(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                finish(sid)
            counts[name + ".yielded"] += 1
            yield item

    return wrapper


def _count_wrapper(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _file_wrapper(tracer: Tracer, name: str, when: str, fn):
    inner = _span_wrapper(tracer, name, fn)
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        if when == "before":
            counts[name + ".bytes"] += os.path.getsize(path)
        result = inner(*args, **kwargs)
        if when == "after":
            counts[name + ".bytes"] += os.path.getsize(path)
        return result

    return wrapper


def _ext_op_wrapper(tracer: Tracer, fn):
    counts = tracer.counts
    key = "ffpoly.Field.ext_ops.calls"

    def wrapper(self, *args):
        if self.k > 1:
            counts[key] += 1
        return fn(self, *args)

    return wrapper


def _rebind(orig, wrapper) -> None:
    """Point every squarefibers namespace binding of ``orig`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "squarefibers" or modname.startswith("squarefibers.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function, method and CLI handler of squarefibers.

    Raises LookupError when a traced name no longer exists, so a renamed
    function fails the traced run instead of silently reading zero.
    """

    def lookup(modname: str, attr: str):
        module = importlib.import_module("squarefibers." + modname)
        if not hasattr(module, attr):
            raise LookupError(f"squarefibers.{modname}.{attr} is gone")
        return getattr(module, attr)

    for modname, attrs in SPANNED.items():
        for attr in attrs:
            name = f"{modname}.{attr}"
            orig = lookup(modname, attr)
            if name in CACHED:
                tracer._caches[name] = orig
            if name in FILE_ARG:
                wrapper = _file_wrapper(tracer, name, FILE_ARG[name], orig)
            else:
                wrapper = _span_wrapper(tracer, name, orig)
            _rebind(orig, wrapper)
    for modname, attrs in GENERATORS.items():
        for attr in attrs:
            orig = lookup(modname, attr)
            _rebind(orig, _generator_wrapper(tracer, f"{modname}.{attr}", orig))
    for modname, attrs in COUNTED.items():
        for attr in attrs:
            orig = lookup(modname, attr)
            _rebind(orig, _count_wrapper(tracer, f"{modname}.{attr}.calls", orig))

    Poly = lookup("ffpoly", "Poly")
    Field = lookup("ffpoly", "Field")
    Poly.__mul__ = _count_wrapper(tracer, "ffpoly.Poly.mul.calls", Poly.__mul__)
    Poly.__divmod__ = _count_wrapper(tracer, "ffpoly.Poly.divmod.calls", Poly.__divmod__)
    for method in ("add", "neg", "mul"):
        setattr(Field, method, _ext_op_wrapper(tracer, getattr(Field, method)))

    # run.self_s is parsing plus rendering: run minus its handler span.
    handlers = lookup("cli", "_HANDLERS")
    for verb, fn in handlers.items():
        handlers[verb] = _span_wrapper(tracer, HANDLER_SPAN, fn)
