"""Layer spans recorded from outside the package.

While installed, a Tracer replaces every public function of the layer
modules, at every module attribute that refers to it (``sample_full`` is
also ``harness.sample_full`` and ``ltc_accel.sample_full``), and the
``epsilon_hat`` method of each denoiser class, with a wrapper that records
a span (name, start, end, parent, run id). Spans stay in memory until
``write_spans``. Spans made in pool worker processes are lost, so traced
runs use ``jobs=1``.
"""

from __future__ import annotations

import csv
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("schedule", "model", "sampler", "ltc", "metrics", "harness")


def _write_csv_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Counters read off a boundary's arguments and result, keyed by span name.
_COUNTERS = {
    "model.read_trace": lambda a, k, r: {"bytes_computed": r[1].nbytes},
    "metrics.write_csv": _write_csv_bytes,
    "ltc.golden_section_max": lambda a, k, r: {"probes": len(r[1])},
    "ltc.accelerated_sample": lambda a, k, r: {
        "approximated": len(r.approximated), "fallbacks": len(r.fallbacks)},
}


class Tracer:
    """Span recorder; use as a context manager around traced runs."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, run_id]
        self.counters: dict = defaultdict(int)   # (run_id, "span.counter")
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counters[(self.run_id, f"{name}.{key}")] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        import ltc_accel

        holders = [ltc_accel] + [m for n, m in sorted(sys.modules.items())
                                 if n.startswith("ltc_accel.")]
        for layer in LAYERS:
            module = sys.modules[f"ltc_accel.{layer}"]
            for attr, obj in vars(module).copy().items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for holder in holders:
                        for alias, val in vars(holder).copy().items():
                            if val is obj:
                                self._patch(holder, alias, wrapped)
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and "epsilon_hat" in vars(obj)):
                    self._patch(obj, "epsilon_hat",
                                self._wrap(f"{layer}.epsilon_hat",
                                           vars(obj)["epsilon_hat"]))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict:
        """{run id: {span name: {"calls", "self_s"}}}.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so the children never overlap.
        """
        out: dict = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0}))
        for name, start, end, parent, rid in self.spans:
            out[rid][name]["calls"] += 1
            out[rid][name]["self_s"] += end - start
            if parent >= 0:
                out[rid][self.spans[parent][0]]["self_s"] -= end - start
        return {rid: dict(names) for rid, names in out.items()}

    def run_counters(self, run_id: int) -> dict:
        return {key: n for (rid, key), n in self.counters.items()
                if rid == run_id}

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="ascii") as f:
            w = csv.writer(f)
            w.writerow(("id", "name", "start_s", "end_s", "parent", "run_id"))
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                w.writerow((i, name, repr(start - origin), repr(end - origin),
                            parent, rid))
