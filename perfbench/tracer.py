"""Outside-in tracer for pdrkit.

Every public function of every pdrkit module is wrapped by rebinding the
name in each pdrkit module that holds it (``pdr``, ``spectral`` and ``cli``
each bind their own copy of ``bfs``, for example), so product code is not
changed. A span is (name, start, end, parent, graph, units). Spans stay in
memory and are written after the timed work: after each traced round, or,
in pool workers, as each top-level call ends. Self time and counts are
derived from the spans afterwards.

A generator function gets one span per resumption instead, with one work
unit for each item it yields: a single span around it would only time the
creation of the generator.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Work units read from a call's arguments: apply_poly_column(g, p, u) runs
# p.degree matrix-vector products.
UNITS = {
    "predistance.apply_poly_column": lambda args, kwargs: (kwargs["p"] if "p" in kwargs else args[1]).degree,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.graph = -1
        self.on_root_end = None
        self.written = 0  # spans already written; parents in the file count from there
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        units = UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            work = units(args, kwargs) if units else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.graph, work)
                if not stack and self.on_root_end is not None:
                    self.on_root_end()

        return traced

    def _wrap_generator(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                work = 0
                start = clock()
                try:
                    item = next(it)
                    work = 1
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name, start, end, stack[-1] if stack else -1, self.graph, work)
                    if not stack and self.on_root_end is not None:
                        self.on_root_end()
                yield item

        return traced

    def install(self) -> None:
        """Rebind every public pdrkit function in every pdrkit module that holds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "pdrkit" or k.startswith("pdrkit.")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrap = self._wrap_generator if inspect.isgeneratorfunction(obj) else self._wrap
                    wrappers[obj] = wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Append the finished spans to a JSON-lines file and drop them."""
        base = self.written
        with open(path, "a", encoding="ascii") as fh:
            for name, start, end, parent, graph, work in self.spans:
                parent = parent + base if parent >= 0 else -1
                fh.write(json.dumps((name, start, end, parent, graph, work)) + "\n")
        self.written += len(self.spans)
        del self.spans[:]

    def stream_to(self, path_for_pid) -> None:
        """After a fork, write each finished root span and its subtree at once.

        Worker processes of a pool end without running exit handlers, so
        they cannot wait for the end of the run to write their spans.
        """
        owner = os.getpid()

        def flush():
            if os.getpid() != owner:
                self.write(path_for_pid(os.getpid()))

        def reset_in_child():
            del self.spans[:]
            del self.stack[:]
            self.written = 0

        self.on_root_end = flush
        os.register_at_fork(after_in_child=reset_in_child)


def read_spans(path) -> list[tuple]:
    with open(path, encoding="ascii") as fh:
        return [tuple(json.loads(line)) for line in fh]


class Profile:
    """Calls, total time, self time and work units per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.units = defaultdict(int)

    def add(self, spans: list[tuple]) -> None:
        """Fold in the spans of one process; parents index into the same list."""
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _graph, _work in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _parent, _graph, work) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[idx]
            self.units[name] += work
