"""Span tracing of library functions, wrapped from outside the library.

``Tracer.install`` replaces every binding of each function listed in
``layers.LAYERS``: the defining module's global, every other ``laxkit``
module global bound to the same object (``sphere.nullspace`` is imported by
name from ``exact``) and every class attribute bound to it (``Mat.comm``,
``Lattice.sigma``).  ``uninstall`` puts the originals back.

Each call becomes a span with a parent link and the id of the benchmark op
it ran under.  Spans are kept in memory in flat arrays (up to
``max_spans``; aggregates are always complete) and written out by
``write``.  Self time is a span's duration minus the durations of its
direct child spans; a function's inclusive time counts only its outermost
active span, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

import numpy as np

from layers import LAYERS


def _rref_cells(args, kwargs):
    rows = args[0] if args else kwargs.get("rows")
    return len(rows) * len(rows[0]) if rows else 0


def _z_args(args, kwargs):
    z = args[1] if len(args) > 1 else kwargs.get("z")
    return int(np.size(z))


_WORK = {"cells": _rref_cells, "args": _z_args}


class Tracer:
    def __init__(self, max_spans=250_000):
        self.layers = LAYERS
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.work = [0] * n
        self.active = [0] * n
        self.by_label = {}          # (layer index, op label) -> [calls, inclusive s]
        self.stack = []             # frames [layer index, start, child seconds, span id]
        self.op_id = -1
        self.op_label = None
        self.op_labels = []
        self.max_spans = max_spans
        self.n_spans = 0
        self.sp_layer = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.t_origin = perf_counter()
        self.bindings = {}          # layer name -> patched binding names
        self._bound = self._find_bindings()

    # -- op bookkeeping -------------------------------------------------------

    def begin_op(self, label):
        self.op_labels.append(label)
        self.op_id = len(self.op_labels) - 1
        self.op_label = label

    # -- wrapping ---------------------------------------------------------------

    def _wrapper(self, idx, layer, fn):
        tr = self
        work_fn = next((_WORK[e] for e in layer.extras if e in _WORK), None)

        def traced(*args, **kwargs):
            if work_fn is not None:
                tr.work[idx] += work_fn(args, kwargs)
            stack = tr.stack
            sid = tr.n_spans
            tr.n_spans += 1
            parent = stack[-1][3] if stack else -1
            frame = [idx, 0.0, 0.0, sid]
            stack.append(frame)
            tr.active[idx] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                tr.active[idx] -= 1
                tr.calls[idx] += 1
                tr.self_s[idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if not tr.active[idx]:
                    tr.incl_s[idx] += dur
                    entry = tr.by_label.setdefault((idx, tr.op_label), [0, 0.0])
                    entry[0] += 1
                    entry[1] += dur
                if sid < tr.max_spans:
                    tr.sp_layer.append(idx)
                    tr.sp_parent.append(parent)
                    tr.sp_op.append(tr.op_id)
                    tr.sp_start.append(t0 - tr.t_origin)
                    tr.sp_end.append(t1 - tr.t_origin)

        return traced

    def _find_bindings(self):
        """(owner, attribute, original, wrapper) for every place a listed
        function is bound in a loaded laxkit module or laxkit class."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "laxkit" or name.startswith("laxkit."))]
        classes = {id(v): v for m in mods for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("laxkit")}
        owners = [(m, m.__name__) for m in mods]
        owners += [(c, f"{c.__module__}.{c.__qualname__}") for c in classes.values()]
        out = []
        for idx, layer in enumerate(self.layers):
            owner = sys.modules[f"laxkit.{layer.module}"]
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            traced = self._wrapper(idx, layer, orig)
            found = []
            for obj, qual in owners:
                for name, val in list(vars(obj).items()):
                    if val is orig:
                        out.append((obj, name, orig, traced))
                        found.append(f"{qual}.{name}")
            self.bindings[layer.name] = sorted(found)
        return out

    def install(self):
        """Wrap every binding of every listed function."""
        for owner, name, _, traced in self._bound:
            setattr(owner, name, traced)

    def uninstall(self):
        for owner, name, orig, _ in self._bound:
            setattr(owner, name, orig)

    # -- results ------------------------------------------------------------------

    def totals(self):
        """Snapshot of the aggregates, for ``per_layer(since=...)``."""
        return list(self.calls), list(self.self_s), list(self.incl_s), list(self.work)

    def per_layer(self, n_ops, since=None):
        """Per-op metric values keyed by metric name, over the calls made
        after the ``since`` snapshot."""
        calls, self_s, incl_s, work = self.totals()
        if since is not None:
            calls, self_s, incl_s, work = (
                [a - b for a, b in zip(now, then)]
                for now, then in zip((calls, self_s, incl_s, work), since))
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer.name}.calls"] = calls[i] / n_ops
            out[f"{layer.name}.self_s"] = self_s[i] / n_ops
            for extra in layer.extras:
                if extra == "us_per_arg":
                    out[f"{layer.name}.us_per_arg"] = 1e6 * incl_s[i] / work[i] if work[i] else 0.0
                else:
                    out[f"{layer.name}.{extra}"] = work[i] / n_ops
        return out

    def setup_self_s(self, names):
        """Self seconds spent in the named layers so far (the set-up)."""
        return {f"setup.{layer.name}.self_s": self.self_s[i]
                for i, layer in enumerate(self.layers) if layer.name in names}

    def per_call_by_label(self, layer_name, label_prefix):
        """(calls, mean inclusive seconds per call) over ops whose label,
        up to its '#', is ``label_prefix``; None if there were none."""
        idx = next(i for i, layer in enumerate(self.layers) if layer.name == layer_name)
        calls = total = 0
        for (i, label), (c, s) in self.by_label.items():
            if i == idx and label is not None and label.split("#")[0] == label_prefix:
                calls += c
                total += s
        return (calls, total / calls) if calls else None

    def write(self, path, header):
        kept = min(self.n_spans, self.max_spans)
        payload = dict(header)
        payload.update({
            "spans_recorded": self.n_spans,
            "spans_kept": kept,
            "layers": [layer.name for layer in self.layers],
            "bindings": self.bindings,
            "ops": self.op_labels,
            "columns": ["layer", "parent", "op", "start_s", "end_s"],
            "layer": self.sp_layer.tolist(),
            "parent": self.sp_parent.tolist(),
            "op": self.sp_op.tolist(),
            "start_s": [round(x, 7) for x in self.sp_start],
            "end_s": [round(x, 7) for x in self.sp_end],
        })
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
