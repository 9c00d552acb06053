"""Span tracing of llgeo by rebinding its public functions.

`Tracer.install()` replaces every public function of the traced modules,
and a few methods, with a wrapper that records a span, in every llgeo
namespace that holds the function (so `llgeo.dynamics.step`,
`llgeo.momenta.partial` and `llgeo.cocycle.momentum_P_general` are all
seen).  `Tracer.uninstall()` puts each original object back.  No llgeo
source line changes.

A span is (name, start, end, parent span, run id).  Spans stay in memory
in flat arrays and are written out once, when the run ends.  A span's
self time is its duration minus the time its child spans cover; calls are
single-threaded, so children never overlap.
"""

import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

TRACED_MODULES = ("dynamics", "momenta", "calculus", "cocycle", "fields", "grid",
                  "generators", "io", "cli")

# (owner path, attribute, span name) for methods, which module scans miss
TRACED_METHODS = (
    ("llgeo.grid.Grid", "boundary_mask", "grid.boundary_mask"),
    ("llgeo.fields.SpinField", "check_invariants", "fields.check_invariants"),
    ("llgeo.fields.RotationField", "check_invariants", "fields.check_invariants"),
    ("llgeo.fields.SemidirectAlgebraElement", "check_invariants",
     "fields.check_invariants"),
)


def _step_label(n, cfg):
    scheme = "rk4" if cfg.scheme == "rk4_project" else "midpoint"
    return f"dynamics.step.{scheme}_{n.grid.p}d"


def _useful_log_cells(psi, axis):
    # right_gradient_axis logs four full-grid motions (shifts +1, -1, +2, -2).
    # It uses the +1 and -1 logs on all but one edge slice each, and the +2
    # and -2 logs on one edge slice each: 2 * cells in all.
    return {"calculus.so3_log.useful_cells": 2 * int(np.prod(psi.grid.dims))}


# span name -> label(args) giving the span name per call
LABELS = {
    "dynamics.step": lambda args: _step_label(*args[:2]),
    "cli.run": lambda args: f"cli.{args[0].command}",
}

# span name -> count(args, result) giving counters to add per call
COUNTS = {
    "calculus.so3_log": lambda args, r: {"calculus.so3_log.cells": r.size // 3},
    "calculus.right_gradient_axis": lambda args, r: _useful_log_cells(*args[:2]),
    "calculus.functional_derivative":
        lambda args, r: {"calculus.functional_derivative.cells": r.size // 3},
    "io.write_snapshot": lambda args, r: {"io.bytes_written": os.path.getsize(args[1])},
    "io.write_report_csv": lambda args, r: {"io.bytes_written": os.path.getsize(args[2])},
    "io.read_snapshot": lambda args, r: {"io.bytes_read": os.path.getsize(args[0])},
}


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.run_id = 0
        self._stack = []
        self._saved = []     # (owner, attribute, original object)

    # ---------------------------------------------------------- recording

    def _name_id(self, label):
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def wrap(self, fn, name):
        """Wrapper of fn that records a span (named by LABELS if listed) and
        adds the COUNTS of each call."""
        label = LABELS.get(name)
        count = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = tracer._name_id(name if label is None else label(args))
            sid = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                tracer.counters.update(count(args, result))
            return result

        traced.perfbench_original = fn
        return traced

    # ---------------------------------------------------------- binding

    def install(self):
        """Rebind the traced functions in every loaded llgeo namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules.get(f"llgeo.{short}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        for namespace in llgeo_namespaces():
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.perfbench_original is obj:
                    self._rebind(namespace, attr, wrapper)
        for owner_path, attr, name in TRACED_METHODS:
            module_name, _, cls_name = owner_path.rpartition(".")
            owner = getattr(sys.modules[module_name], cls_name)
            self._rebind(owner, attr, self.wrap(owner.__dict__[attr], name))

    def _rebind(self, owner, attr, wrapper):
        self._saved.append((owner, attr, wrapper.perfbench_original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every rebound attribute back to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- output

    def spans(self):
        return Spans(self.names, np.asarray(self.name), np.asarray(self.parent),
                     np.asarray(self.run), np.asarray(self.start),
                     np.asarray(self.end), dict(self.counters))


def llgeo_namespaces():
    """The llgeo package and every loaded llgeo submodule."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "llgeo" or name.startswith("llgeo."))]


def bound_objects():
    """(namespace, attribute) -> object for every llgeo namespace attribute
    and every traced method; the smoke test compares it before and after."""
    out = {}
    for namespace in llgeo_namespaces():
        for attr, obj in vars(namespace).items():
            out[(namespace.__name__, attr)] = obj
    for owner_path, attr, _ in TRACED_METHODS:
        module_name, _, cls_name = owner_path.rpartition(".")
        owner = getattr(sys.modules[module_name], cls_name)
        out[(owner_path, attr)] = owner.__dict__[attr]
    return out


class Spans:
    """Flat span arrays plus counters, possibly merged from several runs."""

    def __init__(self, names, name, parent, run, start, end, counters):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.run = np.asarray(run, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.counters = Counter(counters)

    @classmethod
    def load(cls, path, run):
        """Read a file written by save, giving every span the run id `run`.
        Returns (spans, meta)."""
        with np.load(path) as d:
            counters = dict(zip(d["counter_keys"].tolist(), d["counter_values"].tolist()))
            spans = cls(d["names"].tolist(), d["name"], d["parent"],
                        np.full(len(d["name"]), run), d["start"], d["end"], counters)
            meta = {key[5:]: float(d[key]) for key in d.files if key.startswith("meta_")}
        return spans, meta

    @classmethod
    def merge(cls, parts):
        index = {}
        cols = {k: [] for k in ("name", "parent", "run", "start", "end")}
        counters = Counter()
        offset = 0
        for part in parts:
            remap = np.array([index.setdefault(n, len(index)) for n in part.names],
                             dtype=np.int64)
            cols["name"].append(remap[part.name])
            cols["parent"].append(np.where(part.parent >= 0, part.parent + offset, -1))
            for key in ("run", "start", "end"):
                cols[key].append(getattr(part, key))
            counters.update(part.counters)
            offset += len(part.name)
        names = sorted(index, key=index.get)
        cat = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        return cls(names, cat["name"], cat["parent"], cat["run"], cat["start"],
                   cat["end"], counters)

    def save(self, path, **meta):
        """Write spans, counters and scalar `meta` values to an .npz file."""
        keys = sorted(self.counters)
        np.savez(path, names=np.array(self.names, dtype=str), name=self.name,
                 parent=self.parent, run=self.run, start=self.start, end=self.end,
                 counter_keys=np.array(keys, dtype=str),
                 counter_values=np.array([self.counters[k] for k in keys], dtype=np.int64),
                 **{f"meta_{key}": np.float64(value) for key, value in meta.items()})

    # ---------------------------------------------------------- queries

    @property
    def duration(self):
        return self.end - self.start

    def self_time(self):
        """Duration minus the time covered by direct children."""
        dur = self.duration
        covered = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], dur[has_parent])
        return dur - covered

    def ids(self, label):
        return [i for i, n in enumerate(self.names) if n == label]

    def mask(self, label):
        ids = self.ids(label)
        return np.isin(self.name, ids) if ids else np.zeros(len(self.name), bool)

    def count(self, label):
        return int(self.mask(label).sum())

    def median(self, label):
        """Median inclusive duration in seconds, 0.0 if never called."""
        m = self.mask(label)
        return float(np.median(self.duration[m])) if m.any() else 0.0

    def under(self, label):
        """Mask of spans that have an ancestor (not themselves) named label."""
        is_label = self.mask(label)
        inside = np.zeros(len(self.name), bool)
        has_parent = self.parent >= 0
        # each sweep pushes the flag one level further down the call tree
        while True:
            new = np.zeros_like(inside)
            par = self.parent[has_parent]
            new[has_parent] = is_label[par] | inside[par]
            if (new == inside).all():
                return inside
            inside = new

    def children_of(self, child, parent_label):
        """Number of spans named child whose direct parent is named parent_label."""
        m = self.mask(child) & (self.parent >= 0)
        parents = self.parent[m]
        return int(self.mask(parent_label)[parents].sum())

    def self_share(self, prefix, total_s):
        """Self time of spans whose name starts with prefix, over total_s."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix + ".")]
        if not ids or total_s <= 0:
            return 0.0
        return float(self.self_time()[np.isin(self.name, ids)].sum() / total_s)
