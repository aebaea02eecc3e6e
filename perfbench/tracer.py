"""Spans around calls into flopcalc's public functions, installed from outside.

``Tracer.install()`` wraps each function in ``TARGETS`` and rebinds every
attribute of every loaded ``flopcalc`` module that refers to it, so calls
through ``from .bwb import bott_cohomology`` style imports are seen too.
``restore()`` puts every original binding back.  Spans are kept in memory
in flat arrays (name, parent, start, end) and written out on request.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter


def _summands(counts, args, result):
    counts["bwb.tensor_with_sym.summands"] += len(result.summands)


def _chase_unknowns(counts, args, result):
    posed = sum(1 for t in args[0].terms if t.dim is None)
    counts["homalg.chase_solve.unknowns"] += posed
    counts["homalg.chase_solve.solved"] += posed - len(result.unsolved)


def _prop_pairs(counts, args, result):
    if result.check_id == "prop-3-5":
        counts["verify.prop-3-5.pairs"] += result.evidence["pairs"]


def _check_span(check_id, n):
    return f"verify.{check_id}"


# (module, function, span namer or None, count hook or None)
TARGETS = (
    ("flopcalc.cli", "main", None, None),
    ("flopcalc.verify", "run_check", _check_span, _prop_pairs),
    ("flopcalc.flop", "apply_psi", None, None),
    ("flopcalc.homalg", "chase_solve", None, _chase_unknowns),
    ("flopcalc.homalg", "restriction_chase_system", None, None),
    ("flopcalc.pbundle", "hom_dims", None, None),
    ("flopcalc.pbundle", "cohomology_X", None, None),
    ("flopcalc.pbundle", "cohomology_with_pullback_twist", None, None),
    ("flopcalc.bwb", "cohomology_sum", None, None),
    ("flopcalc.bwb", "tensor_with_sym", None, _summands),
    ("flopcalc.bwb", "bott_cohomology", None, None),
    ("flopcalc.bwb", "weyl_dim", None, None),
)

# layer name -> (module, attribute) of the lru_cache behind it
CACHES = {
    "bwb.bott_cohomology": ("flopcalc.bwb", "bott_cohomology"),
    "pbundle.cohomology_X": ("flopcalc.pbundle", "_cohomology_coords"),
}

COUNT_KEYS = (
    "bwb.tensor_with_sym.summands",
    "homalg.chase_solve.unknowns",
    "homalg.chase_solve.solved",
    "verify.prop-3-5.pairs",
)


def flopcalc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "flopcalc" or name.startswith("flopcalc.")]


def cache_stats():
    """(hits, misses, currsize) of each engine cache, read from the cached function."""
    stats = {}
    for layer, (module, attr) in CACHES.items():
        info = getattr(sys.modules[module], attr).cache_info()
        stats[layer] = (info.hits, info.misses, info.currsize)
    return stats


def clear_caches():
    for module, attr in CACHES.values():
        getattr(sys.modules[module], attr).cache_clear()


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._bindings = []

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, namer, count):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(namer(*args, **kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def install(self):
        modules = flopcalc_modules()
        for module, attr, namer, count in TARGETS:
            original = getattr(sys.modules[module], attr)
            name = module.rpartition(".")[2] + "." + attr
            wrapper = self._wrap(original, name, namer, count)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._bindings.append((m, key, original))
                    setattr(m, key, wrapper)

    def restore(self):
        while self._bindings:
            m, key, original = self._bindings.pop()
            setattr(m, key, original)

    def summary(self):
        """Per span name: [calls, total seconds, self seconds]."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, name, start, end (seconds)."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
