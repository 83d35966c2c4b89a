"""Spans at the program's layer boundaries, recorded from the benchmark's side.

The tracer replaces a function by a wrapper wherever the function is looked
up: in every loaded `plrank` module that binds it by name, or on its class.
Each wrapper records one span (name, start, end, parent) on the process CPU
clock. Spans of one op share the op's id; spans outside an op carry id -1.
Garbage-collector pauses become spans too, children of whatever span was open
when the collector ran, so no layer's self time includes a collector pause.
Everything stays in memory until `write` is called at the end of the run.
"""
from __future__ import annotations

import collections
import functools
import gc
import json
import sys
import time

GC_SPAN = "autodiff.gc"


class Tracer:
    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []  # [op, name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._next_op = 0
        self._stack: list[int] = []
        self._gc_start = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        # The record is allocated before the clock is read, so a collection
        # that this allocation triggers lands in the parent, outside this span.
        record = [self.op, name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = self.clock()

    def _exit(self) -> None:
        self.spans[self._stack.pop()][3] = self.clock()

    def begin_op(self, name: str) -> None:
        """Open the root span of a new op."""
        self.op = self._next_op
        self._next_op += 1
        self._enter(name)

    def end_op(self) -> None:
        self._exit()
        self.op = -1

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, GC_SPAN, self._gc_start, self.clock(), parent])
        if self.op >= 0:
            self.counts["autodiff.gc_collected"] += info["collected"]

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str | None, fn, count=None):
        """`fn` recording a span called `name` (none when name is None).

        `count(args, kwargs)` runs before the span opens and adds to counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(args, kwargs).items():
                    tracer.counts[key] += value
            if name is None:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    def install(self, name: str | None, owner, attr: str, count=None) -> None:
        """Wrap `owner.attr` everywhere it is looked up.

        For a class the attribute is replaced on the class. For a module the
        function is replaced under every name that binds it in any loaded
        `plrank` module, since `from x import f` makes a second binding.
        """
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, count)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [
                (module, key)
                for mod_name, module in sorted(sys.modules.items())
                if module is not None and (mod_name == "plrank" or mod_name.startswith("plrank."))
                for key, value in list(vars(module).items())
                if value is original
            ]
        for site, key in sites:
            self._undo.append((site, key, getattr(site, key)))
            setattr(site, key, wrapped)

    def start_gc_spans(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append((None, "gc", self._on_gc))

    def uninstall(self) -> None:
        for site, key, original in reversed(self._undo):
            if site is None:
                gc.callbacks.remove(original)
            else:
                setattr(site, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for index, (_, _, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, ops_only: bool = True) -> tuple[dict, dict, dict]:
        """(self time, inclusive time, call count) summed per span name."""
        own = self.self_times()
        self_by: dict = collections.defaultdict(float)
        incl_by: dict = collections.defaultdict(float)
        calls: collections.Counter = collections.Counter()
        for index, (op, name, start, end, _) in enumerate(self.spans):
            if ops_only and op < 0:
                continue
            self_by[name] += own[index]
            incl_by[name] += end - start
            calls[name] += 1
        return dict(self_by), dict(incl_by), dict(calls)

    def op_self_sums(self) -> list[float]:
        """Per op, in op order: the sum of the self times of all its spans.

        Spans of one op nest on one thread, so every span lies on the op's
        blocking path and the sum should equal the op's CPU time.
        """
        own = self.self_times()
        sums: dict[int, float] = collections.defaultdict(float)
        for index, (op, _, _, _, _) in enumerate(self.spans):
            if op >= 0:
                sums[op] += own[index]
        return [sums[op] for op in sorted(sums)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "op": op, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
