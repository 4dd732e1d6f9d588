"""Span tracing of the kmc4 layers, installed from outside the package.

Every public function of the package (the names in ``kmc4.__all__``, plus
the command-line entry point ``kmc4.cli.main``) is replaced by a timing
wrapper at every module attribute that refers to it, so calls between
modules and calls inside one module are both seen. A generator function
is timed per ``next()``. Spans nest on one stack; a span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Stat:
    calls: int = 0
    yielded: int = 0
    self_s: float = 0.0
    max_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Per-function call counts and self times for one traced run.

    ``observers`` maps a qualified name such as ``graphs.find_embedding``
    to a function of the call's result returning counts to accumulate.
    """

    def __init__(self, observers=None):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list[float]] = []  # [start, time in child spans]
        self.observers = observers or {}
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import kmc4
        import kmc4.cli

        originals = {}
        for obj in [getattr(kmc4, name) for name in kmc4.__all__] + [kmc4.cli.main]:
            if inspect.isfunction(obj) and obj.__module__.startswith("kmc4."):
                qualname = f"{obj.__module__[len('kmc4.'):]}.{obj.__name__}"
                originals[id(obj)] = self._wrap(obj, qualname)
        modules = [mod for name, mod in sys.modules.items()
                   if name == "kmc4" or name.startswith("kmc4.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def reset_stack(self) -> None:
        """Drop spans left open by an interrupted call."""
        self.stack.clear()

    def _enter(self) -> None:
        self.stack.append([perf_counter(), 0.0])

    def _exit(self, stat: Stat) -> None:
        end = perf_counter()
        if not self.stack:  # the stack was reset under this span
            return
        start, child = self.stack.pop()
        duration = end - start
        stat.self_s += duration - child
        if duration > stat.max_s:
            stat.max_s = duration
        if self.stack:
            self.stack[-1][1] += duration

    def _wrap(self, fn, qualname: str):
        stat = self.stats.setdefault(qualname, Stat())
        observe = self.observers.get(qualname)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(stat)
                    stat.yielded += 1
                    yield item
            traced = traced_gen
        else:
            def traced(*args, **kwargs):
                stat.calls += 1
                self._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(stat)
                if observe is not None:
                    for key, value in observe(result).items():
                        stat.counts[key] = stat.counts.get(key, 0) + value
                return result

        return functools.wraps(fn)(traced)
