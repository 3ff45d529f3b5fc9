"""Call wrappers around slnrbeam's layer functions, installed from outside.

A wrapped function is replaced in *every* ``slnrbeam`` module namespace that
binds it (``optimizers`` imports ``ergodic_rate_closed`` by name, so patching
only ``metrics`` would miss most calls), and every binding is put back by
:meth:`Tracer.restore`. A target that no longer exists in its module is
reported in :attr:`Tracer.absent` instead of raising, so the benchmark keeps
working while later changes fold functions away.

With ``timed=False`` the wrappers only hand results to observers (used for
the correctness checks every run makes); with ``timed=True`` they also keep,
per span name, the call count and the self time: the time inside the call
minus the time of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PACKAGE = "slnrbeam"
MARK = "__perfbench_original__"


class SpanStats:
    __slots__ = ("calls", "self_time")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: dict[str, SpanStats] = {}
        self.nested: dict[tuple[str, str], int] = {}
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self, targets: dict[str, str], observers: dict[str, object] | None = None):
        """Wrap ``{"module.function": span_name}`` targets in all namespaces.

        ``observers`` maps a target to ``callback(result, args, kwargs)``,
        called after each successful call.
        """
        observers = observers or {}
        # Import every target module before patching any: a module imported
        # later would bind wrappers that restore() does not know about.
        homes = {}
        for target in targets:
            mod_name = target.rsplit(".", 1)[0]
            try:
                homes[target] = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                homes[target] = None
        for target, span in targets.items():
            original = getattr(homes[target], target.rsplit(".", 1)[1], None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(original, span, observers.get(target))
            for mod in self._modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original, wrapper))

    def restore(self) -> None:
        for mod, attr, original, _ in reversed(self._bindings):
            setattr(mod, attr, original)

    def self_test(self, installed: bool) -> list[str]:
        """Problems with the patch state; empty when consistent.

        While installed, every recorded binding must hold its wrapper; after
        :meth:`restore`, no wrapper may remain in any ``slnrbeam`` namespace.
        """
        problems = []
        if installed and not self._bindings:
            problems.append("no function was patched")
        for mod, attr, original, wrapper in self._bindings:
            expected = wrapper if installed else original
            if getattr(mod, attr) is not expected:
                problems.append(f"{mod.__name__}.{attr} not {'patched' if installed else 'restored'}")
        if not installed:
            for mod in self._modules():
                for attr, value in vars(mod).items():
                    if hasattr(value, MARK):
                        problems.append(f"{mod.__name__}.{attr} still wrapped")
        return problems

    def _wrap(self, func, span: str, observer):
        timed = self.timed
        local = self._local
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not timed:
                result = func(*args, **kwargs)
                if observer is not None:
                    observer(result, args, kwargs)
                return result
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                with lock:
                    stats = self.spans.get(span)
                    if stats is None:
                        stats = self.spans[span] = SpanStats()
                    stats.calls += 1
                    stats.self_time += busy - frame[1]
                    if parent is not None:
                        key = (parent, span)
                        self.nested[key] = self.nested.get(key, 0) + 1
            if observer is not None:
                observer(result, args, kwargs)
            return result

        setattr(wrapper, MARK, func)
        return wrapper
