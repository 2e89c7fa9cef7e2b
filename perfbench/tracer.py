"""Run-time span tracer for the acx package, installed from outside it.

``Tracer.install`` wraps every public function of every acx module and
every public method (plus ``__init__``) of every class an acx module
defines.  A function wrapper is installed on the defining module and on
every acx module that imported the same object, under whatever name it was
imported, so ``acx.dirichlet.snap_policy`` and ``acx.psh.snap_policy`` both
record the ``discretize.snap_policy`` span.  Methods are wrapped once on
their class.  ``uninstall`` puts every original attribute back.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, extra,
nested]``: ``parent`` is the index of the enclosing span (-1 at top
level), ``extra`` is whatever the per-name hook computed from the call's
arguments and result, and ``nested`` marks a span opened inside another
span of the same name, whose time is already inside the outer one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

NAME, START, END, PARENT, EXTRA, NESTED = range(6)


class Tracer:
    def __init__(self, hooks: dict | None = None):
        self.spans: list[list] = []
        self.hooks = dict(hooks or {})
        self.names: set[str] = set()
        self.patched: list[tuple] = []      # (owner, attr, original)
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_.get(name, 0)
            span = [name, 0, 0, stack[-1] if stack else -1, None, depth > 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] = depth + 1
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_[name] = depth
                stack.pop()
            if hook is not None:
                span[EXTRA] = hook(args, kwargs, out)
            return out

        self.names.add(name)
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self, package) -> None:
        if self.patched:
            raise RuntimeError("tracer is already installed")
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(short, obj)
                elif callable(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for other in modules:
                        for oattr, oval in list(vars(other).items()):
                            if oval is obj:
                                self._patch(other, oattr, wrapped)

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self._open.clear()

    # -- aggregation ---------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct
        children (children never overlap, so this is never negative)."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layers(self) -> dict[str, dict]:
        """name -> calls, inclusive ns (outermost spans only), self ns and
        the sum of the hook's values."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_ns()):
            row = out.setdefault(s[NAME], {"calls": 0, "incl_ns": 0,
                                           "self_ns": 0, "extra": 0.0})
            row["calls"] += 1
            row["self_ns"] += own
            if not s[NESTED]:
                row["incl_ns"] += s[END] - s[START]
            if s[EXTRA] is not None:
                row["extra"] += s[EXTRA]
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans opened directly inside a ``parent``
        span."""
        spans = self.spans
        return sum(1 for s in spans if s[NAME] == child and s[PARENT] >= 0
                   and spans[s[PARENT]][NAME] == parent)
