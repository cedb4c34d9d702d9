"""Span tracing of gapsolve's public functions, from outside the package.

`Tracer.install` replaces every public module-level function of the traced
modules with a wrapper, in every gapsolve namespace that holds a reference
to it (the modules import each other's functions by name, so patching only
the defining module would miss internal calls). `uninstall` restores the
originals. Spans stay in memory until `write_spans`.

A span is (name, start, end, parent index, instance id, outermost flag).
Self time is a span's duration minus the durations of its direct children;
calls are single-threaded and nested, so children never overlap. Busy time
counts only the outermost span of a name, so recursion is not counted twice.
Counts are read from arguments and return values by the observers below,
after the span's end time is taken.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("core", "freiman", "ksum", "ilp", "subset_sum", "cli")


def _sparse_sumset(args, kwargs, ret, counts):
    counts["ksum.sparse_sumset.fft_calls"] += ret.backend == "fft"
    counts["ksum.sparse_sumset.hash_calls"] += ret.backend == "hash"
    counts["ksum.sparse_sumset.work"] += ret.work
    counts["ksum.sparse_sumset.out_values"] += len(ret.values)


def _ksum(args, kwargs, ret, counts):
    counts["ksum.partitions_tried"] += ret.partitions_tried
    counts["ksum.solved"] += ret.witness is not None


def _iterated_support(args, kwargs, ret, counts):
    counts["freiman.iterated_support.range_len"] += len(ret[1])


def _modeling_lemma(args, kwargs, ret, counts):
    counts["freiman.modeling_lemma.successes"] += type(ret).__name__ == "FreimanModel"


def _bogolyubov(args, kwargs, ret, counts):
    counts["freiman.bogolyubov.modulus"] += ret.m
    counts["freiman.bogolyubov.spectrum_size"] += len(ret.frequencies)


def _gap_in_bohr(args, kwargs, ret, counts):
    counts["freiman.gap_in_bohr.kept_dims"] += ret.gap.dimension


def _ruzsa_cover(args, kwargs, ret, counts):
    counts["freiman.ruzsa_cover.x_size"] += len(ret)


def _freiman_gap(args, kwargs, ret, counts):
    counts["freiman.freiman_gap.cover_dimension"] += ret.cover.dimension


OBSERVERS = {
    "ksum.sparse_sumset": _sparse_sumset,
    "ksum.ksum": _ksum,
    "freiman.iterated_support": _iterated_support,
    "freiman.modeling_lemma": _modeling_lemma,
    "freiman.bogolyubov": _bogolyubov,
    "freiman.gap_in_bohr": _gap_in_bohr,
    "freiman.ruzsa_cover": _ruzsa_cover,
    "freiman.freiman_gap": _freiman_gap,
}


def public_functions(module):
    """Public functions defined in `module` itself. Generator functions are
    left out: a wrapper would time only the generator's creation."""
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield attr, obj


class Tracer:
    def __init__(self, cap_errors: tuple):
        self.cap_errors = cap_errors
        self.spans: list = []
        self.instance = None
        self.counts: dict = defaultdict(int)
        self.refusals: dict = defaultdict(int)
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        observer = OBSERVERS.get(name)
        module = name.split(".")[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, module))
            outermost = depth[name] == 0
            depth[name] += 1
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
            except self.cap_errors:
                # a refusal counts once per module boundary it crosses
                if len(stack) < 2 or stack[-2][1] != module:
                    self.refusals[module] += 1
                raise
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.instance, outermost)
            if observer is not None:
                observer(args, kwargs, ret, self.counts)
            return ret

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"gapsolve.{short}")
            for attr, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        namespaces = [
            mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "gapsolve"
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")

    def aggregate(self) -> dict:
        """Per span name: calls, busy_s and self_s; per module: self_s; and
        the sum of self times over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        per_name: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        per_module: dict = defaultdict(float)
        total_self = 0.0
        for idx, (name, t0, t1, _, _, outermost) in enumerate(self.spans):
            own = t1 - t0 - child[idx]
            row = per_name[name]
            row["calls"] += 1
            row["self_s"] += own
            if outermost:
                row["busy_s"] += t1 - t0
            per_module[name.split(".")[0]] += own
            total_self += own
        return {"names": dict(per_name), "modules": dict(per_module), "self_sum_s": total_self}
