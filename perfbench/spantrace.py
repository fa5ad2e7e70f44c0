"""Span tracing of gstruct from outside the package.

`Tracer.install` replaces the public functions of the traced modules with
wrappers at every module attribute that binds them, so a call is recorded
however it is reached: `nullspace` through `connections.nullspace`,
`spin.nullspace` and `reps.nullspace`, `invariant_spinors` from the CLI and
from inside `dirac_on_invariants`.  A wrapper records a span only while an
op is open (`tracer.op` is set); calls made while checking outputs pass
straight through.

A span is `[name, start_ns, end_ns, parent_index, op_id, cells]`, where
`cells` is rows x cols of the matrix handed to `linalg.nullspace` (0 for
every other function).  Spans are kept in memory and written by `dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED_MODULES = ("spaces", "connections", "curvature", "spin", "reps", "groups",
                  "sp3", "linalg", "cli", "verify")
# The command handlers of cli are not wrapped: their own work (argument
# handling and rendering the report) is the self time of cli.main.
CLI_WRAPPED = ("main",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def install(self):
        """Wrap every public function of the traced modules, everywhere it is bound."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"gstruct.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if short == "cli" and attr not in CLI_WRAPPED:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "gstruct" and not name.startswith("gstruct."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_cells = name == "linalg.nullspace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            cells = args[0].size if counts_cells else 0
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, cells]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "cells"],
                       "spans": self.spans}, fh)


def layer_totals(spans, factors):
    """{name: {"calls", "total_ns", "self_ns", "cells"}} over the spans whose op
    is a key of `factors`, each duration multiplied by its op's host-speed
    factor.  Self time is a span's duration minus the time its child spans
    cover; wrapped calls nest, so the children never overlap."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, cells in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, start, end, parent, op, cells) in enumerate(spans):
        if op not in factors:
            continue
        t = out.setdefault(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "cells": 0})
        t["calls"] += 1
        t["total_ns"] += (end - start) * factors[op]
        t["self_ns"] += (end - start - child_ns[i]) * factors[op]
        t["cells"] += cells
    return out


def merge_totals(parts, factors=None):
    """Sum of layer totals; the times of part i are multiplied by factors[i]."""
    out = {}
    for i, part in enumerate(parts):
        f = 1.0 if factors is None else factors[i]
        for name, t in part.items():
            acc = out.setdefault(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "cells": 0})
            acc["calls"] += t["calls"]
            acc["cells"] += t["cells"]
            acc["total_ns"] += t["total_ns"] * f
            acc["self_ns"] += t["self_ns"] * f
    return out
