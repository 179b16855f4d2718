"""Span tracer that times a package's public functions from outside it.

`Tracer.install` replaces every public function of every loaded module of
the package, in each module that holds a reference to it (so a name
imported with `from .damping import f_star` is wrapped too), by a wrapper
that records a span: name, start, end and the index of the enclosing span.
Spans stay in memory until the run ends; `summary` then derives calls,
total time and self time (span time minus the time its child spans cover).
Hooks attached to a span name turn arguments or results into counts.
"""

import contextlib
import functools
import sys
import time
import types
from collections import defaultdict


class Tracer:
    """Records spans while `active` is true; passes calls through otherwise."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.sums = defaultdict(float)
        self.peaks = defaultdict(float)
        self.labels = set()
        self.active = False
        self._stack = []
        self._restore = []

    def install(self, package, hooks, counters):
        """Wrap the public functions of `package` and its loaded submodules.

        `hooks` maps a span name ("damping.f_star") to
        `hook(tracer, args, kwargs, result)`, run after the span closes.
        `counters` maps (module name, attribute) to such a hook for callables
        that are wrapped for counting only, without a span.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}
        for mod in modules:
            prefix = mod.__name__[len(package) + 1:]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    label = f"{prefix}.{name}" if prefix else name
                    self.labels.add(label)
                    wrappers[obj] = self._span_wrapper(obj, label,
                                                       hooks.get(label))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._replace(mod, name, wrappers[obj])
        for (mod_name, name), hook in counters.items():
            mod = sys.modules[mod_name]
            self._replace(mod, name,
                          self._count_wrapper(getattr(mod, name), hook))

    def uninstall(self):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def _replace(self, mod, name, wrapper):
        self._restore.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    def _span_wrapper(self, fn, label, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn, hook):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                hook(self, args, kwargs, result)
            return result

        return counted

    @contextlib.contextmanager
    def root(self, name):
        """Record a top-level span (one workload pass) with tracing on."""
        span = [name, 0.0, 0.0, -1]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self.active = True
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.active = False
            self._stack.pop()

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over every recorded span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return dict(out)

