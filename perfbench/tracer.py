"""Span tracing of the mcc package, applied from outside by wrapping functions.

Every public module-level function of every loaded ``mcc`` module is
replaced, in each namespace that holds it, by a wrapper that records a span.
Code inside the package looks these names up in its module globals at call
time, so a call such as ``viterbi_decode(...)`` inside ``mcc.cryptopipe`` goes
through the wrapper installed in ``mcc.cryptopipe``. A span is labelled by the
module that defines the function (``trellis.viterbi_decode``), so one layer
has one label whichever module imports it.

For each label the tracer keeps calls, busy time (span duration) and self
time (duration minus the spans it directly caused), keyed by the benchmark
phase and harness operation that were current and by the parent label. The
package runs in one thread, so the span stack is a plain list.
"""

from __future__ import annotations

import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter


class Stat:
    __slots__ = ("calls", "busy", "self", "true")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.true = 0  # calls that returned exactly True (CRC pass, gate accept)


class Tracer:
    """Wraps the package's functions on construction; ``close`` restores them."""

    def __init__(self, package: types.ModuleType):
        self.stats: dict[tuple, Stat] = defaultdict(Stat)
        self.phase = "setup"
        self.op: str | None = None
        self.spans = 0
        # largest amount by which a span's children exceeded the span itself;
        # nesting makes it <= 0 up to clock rounding
        self.worst_child_excess = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self.labels: set[str] = set()
        prefix = package.__name__ + "."
        modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        wrappers: dict[object, object] = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patches.append((module, name, obj))
                setattr(module, name, wrappers[obj])

    def close(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        self.labels.add(label)
        span = self._span
        if inspect.isgeneratorfunction(fn):
            # one call per generator; busy time is the sum of its steps
            def gen_wrapper(*args, **kwargs):
                gen = span(label, fn, args, kwargs)
                while True:
                    try:
                        item = span(label, next, (gen,), {}, count=False)
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            return span(label, fn, args, kwargs)

        return wrapper

    def _span(self, label, fn, args, kwargs, count=True):
        frame = [label, 0.0]
        self._stack.append(frame)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            dt = perf_counter() - start
            self._stack.pop()
            parent = None
            if self._stack:
                parent = self._stack[-1][0]
                self._stack[-1][1] += dt
            s = self.stats[(self.phase, self.op, parent, label)]
            s.calls += count
            s.busy += dt
            s.self += dt - frame[1]
            s.true += result is True
            self.spans += 1
            self.worst_child_excess = max(self.worst_child_excess, frame[1] - dt)

    def total(self, label, field="busy", phases=None, op=None, parent=None) -> float:
        """Sum one field over the spans that match every filter given."""
        return sum(
            (
                getattr(s, field)
                for (ph, o, par, lab), s in self.stats.items()
                if lab == label
                and (phases is None or ph in phases)
                and (op is None or o == op)
                and (parent is None or par == parent)
            ),
            0.0,
        )
