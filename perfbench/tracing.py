"""Per-layer tracing of qgeom, installed from outside the program.

The layers are qgeom's modules.  A traced pass replaces each function
in TARGETS with a wrapper that records one span per call: its id, the
id of the enclosing span, its name, the id of the `cli.main` call it
belongs to, and its start and end on the perf_counter clock.  A wrapper
is installed under every name the function is looked up by (for
example `cli` imports `twisted_grassmann` directly, and both `drg` and
`geometry` reach `f_map`), so no call bypasses it.  Spans stay in memory
and are written out when the pass ends.

The scalar `Field` methods are called of order 1e8 times in a pass, too
often for a Python wrapper, so they are not spanned: a separate counting
pass wraps them in C-level call counters (`functools.lru_cache` with
maxsize 0 calls through and counts every call as a miss).  Their time
stays in the self time of the layers that call them.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name).  The layer is the span name's first part.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("linalg", "Matrix.rank", "linalg.rank"),
    ("linalg", "Matrix.rref", "linalg.rref"),
    ("subspace", "enumerate_k_subspaces", "subspace.enumerate_k_subspaces"),
    ("subspace", "span", "subspace.span"),
    ("subspace", "projective_points", "subspace.projective_points"),
    ("polarity", "Polarity.apply", "polarity.apply"),
    ("geometry", "twisted_grassmann", "geometry.twisted_grassmann"),
    ("geometry", "jt_design", "geometry.jt_design"),
    ("geometry", "pg_design", "geometry.pg_design"),
    ("geometry", "grassmann_graph", "geometry.grassmann_graph"),
    ("geometry", "block_graph", "geometry.block_graph"),
    ("geometry", "intersection_spectrum", "geometry.intersection_spectrum"),
    ("geometry", "subspace_mask", "geometry.subspace_mask"),
    ("geometry", "f_map", "geometry.f_map"),
    ("geometry", "Graph.__init__", "geometry.Graph"),
    ("drg", "intersection_array", "drg.intersection_array"),
    ("drg", "_bfs_levels", "drg.bfs"),
    ("drg", "check_isomorphism", "drg.check_isomorphism"),
    ("drg", "f_certificate", "drg.f_certificate"),
    ("drg", "check_2design", "drg.check_2design"),
    ("drg", "p_rank", "drg.p_rank"),
    ("autgroup", "random_stabilizer_element", "autgroup.random_stabilizer_element"),
    ("autgroup", "lift", "autgroup.lift"),
    ("autgroup", "is_design_automorphism", "autgroup.is_design_automorphism"),
    ("autgroup", "check_theorem2_relation", "autgroup.check_theorem2_relation"),
    ("autgroup", "exhaustive_lift_check", "autgroup.exhaustive_lift_check"),
    ("formats", "encode_graph6", "formats.encode_graph6"),
    ("formats", "incidence_csv", "formats.incidence_csv"),
    ("formats", "design_to_json", "formats.design_to_json"),
)

LAYERS = ("linalg", "subspace", "polarity", "geometry", "drg", "autgroup", "formats", "cli")

FIELD_METHODS = ("check", "add", "neg", "sub", "mul", "inv", "div", "pow", "frobenius")

_DONE = object()


class Recorder:
    """In-memory span store; each span is six float64s in one flat array."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array.array("d")  # id, parent id, name id, call id, start, end
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, ids, errors = self._stack, self._ids, self.errors
        record, clock = self.spans.extend, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            call = stack[1] if len(stack) > 1 else sid
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, nid, call, start, end))

        return traced

    def wrap_generator(self, name: str, fn):
        """Span each resumption, so only time inside the generator counts."""
        resume = self.wrap(name, next)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while (item := resume(it, _DONE)) is not _DONE:
                counts[name + ".items"] += 1
                yield item

        return traced

    def install(self):
        """Wrap every target of the already imported qgeom package."""
        modules = [m for k, m in list(sys.modules.items()) if k == "qgeom" or k.startswith("qgeom.")]
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(f"qgeom.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner).get(leaf)
            if original is None:
                self.missing.append(f"qgeom.{module_name}.{attr}")
                continue
            wrap = self.wrap_generator if inspect.isgeneratorfunction(original) else self.wrap
            wrapper = wrap(name, original)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def save(self, path: str):
        spans = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez(path, spans=spans, names=np.array(self.names, dtype=str))


def install_field_counters():
    """Count every scalar Field method call; returns a function giving the total."""
    from qgeom.gf import Field

    counters = []
    for method in FIELD_METHODS:
        counted = functools.lru_cache(maxsize=0)(vars(Field)[method])
        setattr(Field, method, counted)
        counters.append(counted)
    return lambda: sum(c.cache_info().misses for c in counters)


def summarize(spans: np.ndarray, names: list[str], counts: dict, errors: dict) -> dict:
    """Per-layer metrics from one traced pass's spans.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    n = len(spans)
    sid = spans[:, 0].astype(np.int64)
    parent = spans[:, 1].astype(np.int64)
    nid = spans[:, 2].astype(np.int64)
    dur = spans[:, 5] - spans[:, 4]
    if n and not np.array_equal(np.sort(sid), np.arange(1, n + 1)):
        raise ValueError("span ids are not 1..n; a span was left open")
    name_of = np.full(n + 1, -1, dtype=np.int64)
    name_of[sid] = nid
    children = np.bincount(parent, weights=dur, minlength=n + 1)
    own = dur - children[sid]
    k = len(names)
    total = np.bincount(nid, weights=dur, minlength=k)
    self_total = np.bincount(nid, weights=own, minlength=k)
    calls = np.bincount(nid, minlength=k)
    ids = {name: i for i, name in enumerate(names)}

    def s(name):
        return float(total[ids[name]]) if name in ids else 0.0

    def ncalls(name):
        return int(calls[ids[name]]) if name in ids else 0

    def under(child, parent_name):
        """Spans of `child` whose direct parent is a `parent_name` span."""
        if child not in ids or parent_name not in ids:
            return 0
        mask = nid == ids[child]
        return int(np.count_nonzero(name_of[parent[mask]] == ids[parent_name]))

    m = {}
    for layer in LAYERS:
        layer_ids = [i for i, name in enumerate(names) if name.split(".")[0] == layer]
        key = "cli.main.self_s" if layer == "cli" else f"{layer}.self_s"
        m[key] = float(self_total[layer_ids].sum()) if layer_ids else 0.0
        m[f"{layer}.errors"] = sum(v for name, v in errors.items() if name.split(".")[0] == layer)

    m["linalg.rank.s"] = s("linalg.rank")
    m["linalg.rank.calls"] = ncalls("linalg.rank")
    m["linalg.rref.calls"] = ncalls("linalg.rref")

    gen = "subspace.enumerate_k_subspaces"
    m[f"{gen}.s"] = s(gen)
    m[f"{gen}.items"] = counts.get(f"{gen}.items", 0)
    m["subspace.span.s"] = s("subspace.span")
    m["subspace.span.calls"] = ncalls("subspace.span")
    m["subspace.projective_points.s"] = s("subspace.projective_points")

    m["polarity.apply.s"] = s("polarity.apply")
    m["polarity.apply.calls"] = ncalls("polarity.apply")

    for fn in ("twisted_grassmann", "jt_design", "pg_design", "grassmann_graph",
               "block_graph", "intersection_spectrum", "subspace_mask", "f_map", "Graph"):
        m[f"geometry.{fn}.s"] = s(f"geometry.{fn}")
    m["geometry.subspace_mask.calls"] = ncalls("geometry.subspace_mask")
    m["geometry.f_map.calls"] = ncalls("geometry.f_map")

    for fn in ("intersection_array", "check_isomorphism", "f_certificate", "check_2design", "p_rank"):
        m[f"drg.{fn}.s"] = s(f"drg.{fn}")
    m["drg.bfs_bases"] = ncalls("drg.bfs")

    for fn in ("random_stabilizer_element", "lift", "is_design_automorphism",
               "check_theorem2_relation", "exhaustive_lift_check"):
        m[f"autgroup.{fn}.s"] = s(f"autgroup.{fn}")
    m["autgroup.lift.calls"] = ncalls("autgroup.lift")
    rank_tests = under("linalg.rank", "autgroup.random_stabilizer_element")
    sampled = ncalls("autgroup.random_stabilizer_element")
    m["autgroup.sample_accept_ratio"] = sampled / rank_tests if rank_tests else 0.0
    m["autgroup.cross_checked"] = under("autgroup.lift", "autgroup.exhaustive_lift_check")

    for fn in ("encode_graph6", "incidence_csv", "design_to_json"):
        m[f"formats.{fn}.s"] = s(f"formats.{fn}")

    m["trace.spanned_s"] = float(dur[parent == 0].sum())
    return m
