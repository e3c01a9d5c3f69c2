"""Spans and counters around the calls into each logstair module.

The tracer replaces a function in every logstair namespace that binds it,
so calls the library makes to itself (``engine.crosscheck`` calling
``continuable_exact``) are recorded as well as the benchmark's own. Spans
are kept in memory as [name, start, end, parent index, operation id] and
written out once the run ends. Nothing is recorded while ``on`` is false,
which is how the benchmark keeps its own answer checks out of the trace.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import logstair
import logstair.cli as cli
import logstair.confmap as confmap
import logstair.engine as engine
import logstair.monodromy as monodromy
import logstair.paths as paths
import logstair.series as series
import logstair.staircase as staircase

NAMESPACES = (logstair, paths, staircase, series, engine, confmap, monodromy, cli)


def _chain_summary(chain):
    return len(chain.elements) - 1, chain.reason or ""


FUNCTIONS = (
    (confmap, "build_map"),
    (confmap, "quality_report", dict),
    (confmap, "psi_eval"),
    (confmap, "f_germ_at_base"),
    (series, "compose"),
    (series, "h_germ"),
    (series, "log_germ"),
    (engine, "continue_along", _chain_summary),
    (engine, "continuable_exact"),
    (engine, "crosscheck", lambda report: report.agree),
    (staircase, "boundary_distance"),
    (staircase, "choose_lift_target"),
    (paths, "validate_path"),
    (paths, "lift_log"),
    (monodromy, "reach_path"),
    (monodromy, "classify"),
    (monodromy, "expexp_demo"),
)

METHODS = (
    (confmap.ConformalMap, "local_model", "confmap.local_model"),
    (confmap.FRefresh, "__call__", "confmap.refresh"),
    (staircase.Truncation, "boundary_distance", "staircase.truncation_distance"),
)

# Hot leaves get a count, not a span. Only the binding the oracle looks up is
# wrapped, so the count is the oracle's membership samples.
COUNTERS = ((engine, "in_interior", "engine.in_interior"),)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.names = set()
        self.counts = defaultdict(int)
        self.returns = defaultdict(list)
        self.on = False
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn, keep=None):
        """fn recorded as a span called name; an exception leaving it is
        counted as ``name!ExceptionType``. With keep, keep(result) is
        appended to ``returns[name]``."""
        spans, stack, counts = self.spans, self._stack, self.counts
        kept = self.returns[name]
        self.names.add(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep is not None:
                kept.append(keep(result))
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace_everywhere(self, fn, wrapper) -> None:
        for ns in NAMESPACES:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, value))

    def install(self) -> None:
        for module, attr, *keep in FUNCTIONS:
            fn = getattr(module, attr)
            name = f"{_layer(module)}.{attr}"
            self._replace_everywhere(fn, self.wrap(name, fn, *keep))
        for cls, attr, name in METHODS:
            fn = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, fn))
            self._undo.append((cls, attr, fn))
        for module, attr, name in COUNTERS:
            fn = getattr(module, attr)
            setattr(module, attr, self._count(name, fn))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def stats(self) -> dict:
        """name -> (calls, total seconds, self seconds). Self time is a
        span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            s = out[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[k]
        return out

    def write(self, file_name: str) -> None:
        with open(file_name, "w") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
