"""Span tracer that wraps library functions from outside the library.

The library's modules import each other's functions with ``from ... import``,
so one function is bound under several module names.  ``Tracer.install``
replaces every binding of each target inside the package's loaded modules
(methods and constructors are replaced on their class), and
``Tracer.uninstall`` puts the originals back.

Every call of a wrapped function is one span with a name, a start, an end
and the span that was open when it began.  Spans are folded into totals as
they close instead of being kept one by one, because a single workload makes
millions of calls: per span name the call count, total and self time, and per
(parent, name) pair the call count and total time.  Self time is a span's
duration minus the durations of its child spans.
"""

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Hook = Callable[[Dict[str, float], tuple, object], None]
PACKAGE = "smforge"


class Tracer:
    """Wraps ``(module, qualname)`` targets of the smforge package.

    ``qualname`` is a function name, ``Class.method``, or a class name, which
    stands for its constructor.  A target that cannot be found is listed in
    ``absent`` and otherwise ignored.  ``hooks`` maps a span name to a
    function that sees each call's arguments and result and updates
    ``counters``; it runs after the span has closed.
    """

    def __init__(self, targets: Iterable[Tuple[str, str]],
                 hooks: Optional[Dict[str, Hook]] = None):
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.stats: Dict[str, List[float]] = {}
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.absent: List[str] = []
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    @staticmethod
    def span_name(module: str, qualname: str) -> str:
        return module + "." + qualname

    # -- patching ---------------------------------------------------------

    @staticmethod
    def _modules() -> List[object]:
        return [m for n, m in list(sys.modules.items()) if m is not None
                and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _resolve(self, module: str, qualname: str
                 ) -> Optional[Tuple[Callable, Optional[type], str]]:
        """(function, owning class or None, attribute name), or None."""
        try:
            mod = importlib.import_module(PACKAGE + "." + module)
        except ImportError:
            return None
        head, _, tail = qualname.partition(".")
        obj = getattr(mod, head, None)
        if isinstance(obj, type):
            attr = tail or "__init__"
            fn = obj.__dict__.get(attr)
            return (fn, obj, attr) if inspect.isfunction(fn) else None
        if tail or not inspect.isfunction(obj):
            return None
        return obj, None, head

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for module, qualname in self.targets:
            name = self.span_name(module, qualname)
            found = self._resolve(module, qualname)
            if found is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            fn, owner, attr = found
            wrapper = self._wrap(name, fn)
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, fn))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        self._stack.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, clock = self._stack, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges, counters = self.edges, self.counters
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                key = (parent[0] if parent else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
                if parent is not None:
                    parent[1] += dt
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    # -- reading ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": {n: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2]}
                      for n, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": int(e[0]),
                       "total_s": e[1]}
                      for (p, n), e in sorted(self.edges.items(),
                                              key=lambda kv: -kv[1][1])],
            "counters": dict(sorted(self.counters.items())),
            "absent": list(self.absent),
        }
