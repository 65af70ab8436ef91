"""Spans around the calls into morsekit's layers, recorded from outside.

The tracer replaces each public function of a layer module by a timing
wrapper under every name a morsekit module looks it up by: ``extract`` is
bound separately in ``tropical``, ``cones``, ``fiber``, ``support_function``,
``verify``, ``cli`` and the package itself, and each binding gets the same
wrapper.  Nothing under ``src/`` changes; ``uninstall`` puts the originals
back.

A span is ``[op, name, start, end, parent]``: ``op`` is the operation the
harness was running (one CLI call or one query), ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cones",
    "polytope",
    "support_function",
    "singularity",
    "tropical",
    "fiber",
    "verify",
    "cli",
)

# Methods and private helpers whose spans the per-layer metrics need.
EXTRA = (
    ("cones", "StrictSystem.extended"),
    ("cones", "_genericize"),
    ("cones", "_subdivision_types"),
    ("polytope", "MorsePolytope.vertex_of"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.enabled = False  # the harness turns it on around each operation
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"morsekit.{layer}")
        wrapped: dict[int, tuple[object, object]] = {}
        owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "morsekit"]
        for layer in LAYERS:
            mod = sys.modules[f"morsekit.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for layer, qual in EXTRA:
            owner = sys.modules[f"morsekit.{layer}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
                owners.append(owner)
            fn = vars(owner)[attr]
            wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{qual}", fn))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def summary(self, ops=None) -> dict[str, dict]:
        """calls, total (inclusive) and self seconds per span name.

        Self time is a span's duration minus its children's durations; the
        harness is single-threaded, so children never overlap.  ``ops``
        limits the rows to spans of those operations.
        """
        child = defaultdict(float)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child.get(i, 0.0)
        return out

    def children(self, parent_name: str, name: str) -> tuple[int, float]:
        """Calls of and seconds in spans ``name`` directly under ``parent_name``."""
        spans = self.spans
        under = [
            rec[3] - rec[2] for rec in spans
            if rec[1] == name and rec[4] >= 0 and spans[rec[4]][1] == parent_name
        ]
        return len(under), sum(under)

    def write(self, path, ops: list[str]):
        """Spans as JSON lines, gzipped: one header line, then one per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["op", "name", "start", "end", "parent"],
                                 "ops": ops}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
