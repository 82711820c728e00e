"""In-memory spans around calls into the package's public functions.

Tracing is installed from the benchmark's side: each traced function is
replaced by a wrapper in every ``transversal_lab`` module that holds a
reference to it, so ``from .search import bachelor_cells`` in ``cli`` is
traced as well as ``search.bachelor_cells``.  Nothing under ``src/`` changes.

A span has a name, a start, an end, a parent span and the operation it ran
under.  Generators get one span per resume, so an enumerator is not charged
for the caller's loop body.  A span's self time is its duration minus the
durations of its direct children; in one thread children never overlap, so
that is the time the children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

PACKAGE = "transversal_lab"

# (module, attribute, span name); attribute "Diagonal.from_entries" is a classmethod
SPANS = (
    ("search", "enumerate_transversals", "search.enumerate"),
    ("search", "enumerate_diagonals", "search.enumerate"),
    ("search", "bachelor_cells", "search.bachelors"),
    ("search", "transversal_through", "search.through"),
    ("search", "max_disjoint_transversals", "search.packing"),
    ("search", "hitting_set_check", "search.hitting"),
    ("search", "hill_climb_decomposition", "search.decompose"),
    ("extension", "hall_pair", "extension.hall_pair"),
    ("extension", "lift_diagonal", "extension.lift"),
    ("extension", "lift_family", "extension.lift"),
    ("extension", "g_extension", "extension.g_extension"),
    ("dilation", "dilate", "dilation.dilate"),
    ("dilation", "transfer_hitting_set", "dilation.transfer"),
    ("hypercube", "load", "hypercube.load"),
    ("hypercube", "is_latin", "hypercube.is_latin"),
    ("hypercube", "Diagonal.from_entries", "hypercube.from_entries"),
    ("hypercube", "serialize", "hypercube.serialize"),
    ("delta", "profile", "delta.profile"),
    ("reports", "validate_report", "reports.validate"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Spans kept in flat arrays; one tracer per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.ops: list[str] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, label: str) -> None:
        """Later spans belong to this operation (or set-up step)."""
        self.ops.append(label)

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(len(self.ops) - 1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: number of spans and total self time in seconds."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            names=np.array(self.names),
            ops=np.array(self.ops),
        )


def _wrap_function(fn: Callable, tracer: Tracer, name: str, on_result) -> Callable:
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if on_result is not None:
            on_result(result)
        return result

    return traced


def _wrap_generator(fn: Callable, tracer: Tracer, name: str) -> Callable:
    nid = tracer.name_id(name)
    results_key = name + ".results"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        try:
            while True:
                sid = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                tracer.counts[results_key] += 1
                yield item
        finally:
            it.close()

    return traced


def _result_counters(tracer: Tracer) -> dict[str, Callable]:
    counts = tracer.counts

    def bachelors(scan) -> None:
        counts["search.bachelors.nodes"] += scan.nodes
        counts["search.bachelors.cells_checked"] += scan.checked_cells

    def packing(result) -> None:
        counts["search.packing.transversals_held"] += result.transversal_count
        counts["search.packing.optimal"] += bool(result.optimal)

    return {"search.bachelors": bachelors, "search.packing": packing}


def install(tracer: Tracer) -> None:
    """Replace every traced function in every package module that refers to it."""
    package = importlib.import_module(PACKAGE)
    mods = [importlib.import_module(f"{PACKAGE}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)]
    on_result = _result_counters(tracer)
    cons = importlib.import_module(f"{PACKAGE}.constructions")
    specs = list(SPANS) + [
        ("constructions", attr, "constructions")
        for attr, obj in vars(cons).items()
        if inspect.isfunction(obj) and obj.__module__ == cons.__name__ and not attr.startswith("_")
    ]
    for home, attr, name in specs:
        module = importlib.import_module(f"{PACKAGE}.{home}")
        if attr == "Diagonal.from_entries":
            original = module.Diagonal.from_entries.__func__
            module.Diagonal.from_entries = classmethod(_wrap_function(original, tracer, name, None))
            continue
        original = getattr(module, attr)
        if inspect.isgeneratorfunction(original):
            wrapped = _wrap_generator(original, tracer, name)
        else:
            wrapped = _wrap_function(original, tracer, name, on_result.get(name))
        for mod in mods:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
