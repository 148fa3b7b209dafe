"""Spans around the public functions of convexchoice, recorded from outside it.

`Tracer.install` replaces each traced function by a timing wrapper under every
name that refers to it in any loaded convexchoice module, so calls between
modules (and a module's calls to its own functions, which go through its
globals) pass through the wrapper.  `ConvexInstance` values hold their mixing
function directly, so instances holding a traced function are replaced too.
Nothing under src/ changes; `uninstall` puts every original back.

Spans are closed in call order on one thread, so the child spans of a span never
overlap, and its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import sys
from time import perf_counter

# layer (module of convexchoice) -> public functions that get a span
TRACED = {
    "convexgeom": ("canonicalize", "in_hull", "in_hull_oracle", "barycenter"),
    "necset": ("from_generators", "alt_necset", "lub_necset", "conv_necset", "member"),
    "gcm": ("bind_gcm", "join_gcm", "map_gcm", "bind_gcm_direct"),
    "dist": ("from_pairs", "conv_dist", "map_dist", "compare_dist"),
    "programs": ("parse", "eval_expr", "render", "uniform", "arbitrary"),
    "laws": ("check_law",),
    "cli": ("cli_main",),
}

# Spans kept verbatim for the output file; later spans still count in the sums.
SPAN_CAP = 100_000


class Tracer:
    """Per-function call counts and self times, and the first SPAN_CAP spans."""

    def __init__(self) -> None:
        self.op = -1  # id of the operation in progress, set by the workload
        self.calls = {}
        self.self_s = {}
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.dropped = 0
        self.gens_in = 0
        self.gens_out = 0
        self.inside = 0
        self.law_s = {}
        self._stack = []  # [span id, seconds covered by child spans]
        self._ids = itertools.count()
        self._patched = []

    def _wrap(self, name, fn, post=None):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s = self.calls, self.self_s
        calls[name] = 0
        self_s[name] = 0.0
        tracer = self

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent, tracer.op, name, start, end))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(args, result, duration)
            return result

        return traced

    def _post_canonicalize(self, args, result, _duration):
        self.gens_in += len(args[0])
        self.gens_out += len(result)

    def _post_in_hull(self, _args, result, _duration):
        self.inside += result is True

    def _post_check_law(self, args, _result, duration):
        self.law_s[args[0]] = self.law_s.get(args[0], 0.0) + duration

    def install(self) -> None:
        from convexchoice.convexgeom import ConvexInstance

        posts = {
            "convexgeom.canonicalize": self._post_canonicalize,
            "convexgeom.in_hull": self._post_in_hull,
            "laws.check_law": self._post_check_law,
        }
        wrapper_of = {}  # id(original) -> wrapper; the wrapper keeps the original alive
        for layer, names in TRACED.items():
            module = importlib.import_module("convexchoice." + layer)
            for fname in names:
                fn = getattr(module, fname)
                name = f"{layer}.{fname}"
                wrapper_of[id(fn)] = self._wrap(name, fn, posts.get(name))
        instances = {}
        for mname, module in list(sys.modules.items()):
            if mname != "convexchoice" and not mname.startswith("convexchoice."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapper_of:
                    self._patch(module, attr, wrapper_of[id(value)])
                elif isinstance(value, ConvexInstance) and id(value.conv) in wrapper_of:
                    if id(value) not in instances:
                        instances[id(value)] = dataclasses.replace(value, conv=wrapper_of[id(value.conv)])
                    self._patch(module, attr, instances[id(value)])

    def _patch(self, module, attr, new) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, old = self._patched.pop()
            setattr(module, attr, old)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, op, name, start, end in self.spans:
                out.write(json.dumps([sid, parent, op, name, start, end]) + "\n")
