"""In-memory span tracing around eqtorus's public functions.

A Tracer wraps named functions at every binding inside the eqtorus package
(``from x import f`` copies the binding, so patching only the defining
module would miss callers), records one span per call and restores every
original on ``remove``.  Spans live in flat arrays, one entry per call:
name id, start, end, parent span index and op id.  A target that a later
version of eqtorus renamed or removed is reported in ``missing`` and
otherwise ignored, so tracing never stops a run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = -1  # parent index of a span with no enclosing span


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` of ``module`` (``Class.method`` allowed).

    ``span`` names the span its calls record; several targets may share a
    span name, e.g. every evaluator of one class.  ``on_result(tracer,
    args, result)`` and ``on_error(tracer, exc)`` update counters.
    ``points(args)`` gives the number of evaluation points of an outermost
    call.
    """

    module: str
    attr: str
    span: str
    on_result: Callable | None = None
    on_error: Callable | None = None
    points: Callable | None = None


class Tracer:
    def __init__(self, package: str = "eqtorus"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.points = array("q")
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.op.append(self.op_id)
        self.points.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block, e.g. the root span of an op."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, target: Target):
        tracer, nid = self, self._id(target.span)

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            parent = tracer.parent[idx]
            outermost = parent == ROOT or tracer.name_id[parent] != nid
            if outermost and target.points is not None:
                tracer.points[idx] = target.points(args)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if target.on_error is not None:
                    target.on_error(tracer, exc)
                raise
            tracer._close(idx)
            if target.on_result is not None:
                target.on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        return traced

    # -- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target at every binding in the package's modules."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, name = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapped = self.wrap(original, target)
            if path:  # a method: the class attribute is its only binding
                self._patch(owner, name, wrapped)
                continue
            for mod in self._package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _package_modules(self):
        prefix = self.package + "."
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None
                and (key == self.package or key.startswith(prefix))]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span to a compressed .npz with the name table."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    Spans of one thread nest and children of one parent do not overlap, so
    the covered time is the sum of the children's durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls entering it, summed self time, outermost points.

    A call counts when its parent span has another name, so a layer calling
    itself (one evaluator using another) counts once per entry.
    """
    arr = tracer.arrays()
    nid, parent = arr["name_id"], arr["parent"]
    duration = arr["end"] - arr["start"]
    self_s = self_times(parent, duration)
    parent_nid = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
    entering = parent_nid != nid
    out = {}
    for i, name in enumerate(tracer.names):
        mask = nid == i
        out[name] = {
            "calls": int(np.sum(mask & entering)),
            "self_s": float(np.sum(self_s[mask])),
            "points": int(np.sum(arr["points"][mask])),
        }
    return out
