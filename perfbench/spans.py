"""Spans and counters recorded from outside the engine.

A :class:`Tracer` replaces engine functions with wrappers at the attributes
their callers look up (module dicts, class attributes), records one span per
call, and restores the originals afterwards.

Self time is aggregated as the spans close: a span's self time is its
duration minus the durations of its direct children and minus the time the
tracer's own observers spent inside it.  Over a tree, self times plus
observer time add up to the root span's duration.  The first KEEP_SPANS
spans are also kept whole and written out when the run ends.
"""

from __future__ import annotations

import types
from collections import Counter, defaultdict
from time import perf_counter

KEEP_SPANS = 200_000


class Tracer:
    """Records spans (name, start, end, parent, point id) around wrapped calls."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.kept: list[tuple] = []
        self.spans = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.root_s = 0.0
        self.observer_s = 0.0
        self.point_id = -1
        self.counters: Counter = Counter()
        self.values: defaultdict = defaultdict(set)
        # One frame per open span: [span index, name, time of children and
        # observers inside it].
        self.stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.stack[-1][1] if self.stack else None

    def wrap(self, name: str, fn, observe=None, enter=None):
        """Return a wrapper of fn that records a span called name.

        enter(tracer) runs before the call; observe(tracer, args, kwargs,
        result) runs after the span closed and is timed as tracer overhead
        charged to the enclosing span.
        """
        clock, stack = self.clock, self.stack

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(self)
            index = self.spans
            self.spans += 1
            parent = stack[-1] if stack else None
            frame = [index, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, parent, start, end)
            if observe is not None:
                observe(self, args, kwargs, result)
                spent = clock() - end
                self.observer_s += spent
                if parent is not None:
                    parent[2] += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, start, end) -> None:
        index, name, inner = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - inner
        if parent is None:
            self.root_s += duration
        else:
            parent[2] += duration
        if index < KEEP_SPANS:
            self.kept.append((index, name, start, end,
                              -1 if parent is None else parent[0], self.point_id))

    def patch(self, owners, fn, name: str, observe=None, enter=None) -> None:
        """Replace every binding of fn in the given modules or classes."""
        wrapper = self.wrap(name, fn, observe, enter)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def patch_public(self, module, layer: str, owners, hooks=None) -> None:
        """Wrap every public function defined in module, named layer.<name>.

        hooks maps a function name to its (observe, enter) pair.
        """
        hooks = hooks or {}
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or value.__module__ != module.__name__):
                continue
            self.patch(owners, value, f"{layer}.{attr}",
                       *hooks.get(attr, (None, None)))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def write(self, path: str, t0: float) -> None:
        """Write the kept spans as tab-separated lines: span index (in the
        order spans opened), name, start and end in microseconds since t0,
        parent span index (-1 for a root) and point id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# first {len(self.kept)} of {self.spans} spans\n"
                     "span\tname\tstart_us\tend_us\tparent\tpoint\n")
            for index, name, start, end, parent, point in sorted(self.kept):
                fh.write(f"{index}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\t{parent}\t{point}\n")
