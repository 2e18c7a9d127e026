"""Tracing for the benchmark's traced run: spans, layer timers and the
Ray per-operator stats reader.

Everything here wraps the engine from outside. Spans surround the
benchmark's own calls into each layer; :class:`LayerTimers` times the
layer functions the extract stage calls by swapping the module
attributes it looks them up through, for one in-process call, and puts
them back afterwards. No program code changes.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

#: fields read from each ``OperatorStatsSummary`` (Ray 2.49.2, an
#: internal API); each is a ``{"min", "max", "mean", "sum"}`` dict
OPERATOR_FIELDS = ("wall_time", "cpu_time", "udf_time", "output_num_rows", "output_size_bytes")


class Tracer:
    """In-memory spans (name, start, end, parent, run id), written out
    once when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        rec = dict(id=idx, name=name, start=time.perf_counter(), end=None,
                   parent=self._stack[-1] if self._stack else None,
                   run=self.run_id, **attrs)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def child_totals(self, parent: dict) -> dict[str, float]:
        """Summed duration of ``parent``'s direct children, by name."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["parent"] == parent["id"] and s["end"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(dict(run=self.run_id, spans=self.spans), f, indent=0)


def ray_op_summary(ds) -> dict:
    """Summed per-operator stats of a Dataset's whole plan.

    Reads ``Dataset._get_stats_summary()`` and walks its ``parents``.
    Every field is guarded: one a Ray upgrade renames or drops is left
    out of the result rather than failing the run. Keys: the
    ``OPERATOR_FIELDS`` sums, ``operators`` and ``bytes_spilled``.
    """
    try:
        summary = ds._get_stats_summary()
    except Exception:  # internal API: any failure only drops the metrics
        return {}
    sums: dict[str, float] = {}
    seen: set = set()
    n_ops = 0
    stack = [summary]
    while stack:
        node = stack.pop()
        for op in getattr(node, "operators_stats", None) or []:
            key = (getattr(node, "dataset_uuid", None), getattr(node, "number", None),
                   getattr(op, "operator_name", None))
            if key in seen:  # a shared branch is reachable through two parents
                continue
            seen.add(key)
            n_ops += 1
            for field in OPERATOR_FIELDS:
                value = getattr(op, field, None)
                if isinstance(value, dict) and isinstance(value.get("sum"), (int, float)):
                    sums[field] = sums.get(field, 0.0) + value["sum"]
        stack.extend(getattr(node, "parents", None) or [])
    out = dict(sums)
    if n_ops:
        out["operators"] = n_ops
    spilled = getattr(summary, "global_bytes_spilled", None)
    if isinstance(spilled, (int, float)):
        out["bytes_spilled"] = spilled
    return out


class LayerTimers:
    """Busy time, call count and raised errors per layer, for the layer
    functions the extract stage calls.

    ``layers`` maps a layer name to ``(module, [function names])``; the
    module is the one the caller looks the names up in. Use as a context
    manager: inside it, the named attributes are timing wrappers.
    """

    def __init__(self, layers: dict):
        self.layers = layers
        self.busy = {name: 0.0 for name in layers}
        self.calls = {name: 0 for name in layers}
        self.raised = {name: 0 for name in layers}
        self.bytes_in = {name: 0 for name in layers}
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, fn):
        def timed(*args, **kwargs):
            self.calls[layer] += 1
            if args and isinstance(args[0], (bytes, str)):
                self.bytes_in[layer] += len(args[0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[layer] += 1
                raise
            finally:
                self.busy[layer] += time.perf_counter() - t0

        return timed

    def __enter__(self):
        for layer, (module, names) in self.layers.items():
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False
