"""In-process span tracer for the valtrack modules.

The tracer replaces each public module-level function of every valtrack
module by a wrapper that records one span per call: its duration and, from
the spans opened beneath it, its self time. Spans are aggregated by
function as they close (count, total time, self time), so memory stays flat
however many steps a workload simulates. A name imported into another
module is replaced there too, because that module looks it up in its own
globals (`valtrack.experiments.run`, `valtrack.engine.trader_orders`).

Generator functions are left unwrapped: their bodies run while the caller
iterates, so that work belongs to the caller's self time (the CSV row
builders run inside the cli's writes).
"""

import functools
import importlib
import inspect
import pkgutil
import time

# Private functions wrapped as well, because a per-layer count needs them:
# each call of experiments._crash_outcome is one bisection probe.
EXTRA_SPANS = (("experiments", "_crash_outcome"),)


class Stats:
    """Per-function totals: calls, inclusive seconds, self seconds."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Context manager that installs the wrappers and restores the
    originals on exit.

    `stats` maps "module.function" to Stats; `covered` is the summed
    duration of top-level spans. `hooks` maps a key to a callback
    `(args, kwargs, result)` run after each successful call.
    """

    def __init__(self, package, hooks=None):
        self.package = package
        self.hooks = hooks or {}
        self.stats = {}
        self.covered = 0.0
        self._patches = []

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def _targets(self, modules):
        """Original function -> span key, for every function to wrap."""
        targets = {}
        prefix = self.package.__name__ + "."
        for mod in modules:
            if not mod.__name__.startswith(prefix):
                continue
            short = mod.__name__[len(prefix):]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)
                        and (not name.startswith("_") or (short, name) in EXTRA_SPANS)):
                    targets[obj] = f"{short}.{name}"
        return targets

    def _wrap(self, fn, key):
        stats = self.stats.setdefault(key, Stats())
        hook = self.hooks.get(key)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    tracer.covered += duration
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def __enter__(self):
        self._stack = []
        modules = self._modules()
        targets = self._targets(modules)
        wrappers = {fn: self._wrap(fn, key) for fn, key in targets.items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()
        return False

    def snapshot(self) -> dict:
        """Copy of the current totals: key -> (calls, total, self)."""
        return {k: (s.calls, s.total, s.self_time) for k, s in self.stats.items()}
