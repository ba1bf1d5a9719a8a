"""In-memory span recorder for the benchmark's traced run.

The benchmark records spans from its own files: it either calls a
layer's public entry point inside :meth:`Tracer.span`, or replaces the
entry point with a wrapper (:meth:`Tracer.wrap_method`,
:meth:`Tracer.wrap_function`) that opens a span around every call.  Spans
nest on one stack, so each layer gets

* ``inclusive`` seconds: the summed duration of its outermost spans (a
  layer re-entered inside itself is not counted twice);
* ``self_s`` seconds: span durations minus the part covered by child
  spans, which sums to the traced interval with no overlap;
* ``calls``: the number of spans opened.

Wrappers that find no attribute to wrap are skipped, so a refactor that
removes an entry point leaves its layer at zero instead of breaking the
run; its time then shows up in the enclosing layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

#: A layer name, or a function of a wrapped call's ``(args, kwargs)``
#: that names the layer (used where one entry point serves two layers).
LayerName = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """Nested wall-clock spans keyed by layer name."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: List[List[Any]] = []
        self._depth: Counter = Counter()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, layer: str) -> None:
        self._depth[layer] += 1
        self.calls[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        layer, start, child_s = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.inclusive[layer] += duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time the enclosed block as one span of ``layer``."""
        self._enter(layer)
        try:
            yield
        finally:
            self._exit()

    def reset(self) -> None:
        """Drop every recorded span (the installed wrappers stay)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.inclusive.clear()
        self.self_s.clear()
        self.calls.clear()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(
        self,
        original: Callable,
        layer: Optional[LayerName],
        after: Optional[Callable[[tuple, Any], None]],
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = original(*args, **kwargs)
            else:
                tracer._enter(layer(args, kwargs) if callable(layer) else layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_method(
        self,
        owner: type,
        name: str,
        layer: Optional[LayerName],
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Open a span around every call of ``owner.name``.

        Only a method ``owner`` defines itself is wrapped (an inherited
        one is wrapped on the class that defines it).  ``after`` sees
        the call's positional arguments and its result.  With ``layer``
        ``None`` the wrapper reads no clock and only calls ``after``:
        the untraced runs count engine work that way.
        """
        original = owner.__dict__.get(name)
        if original is None:
            return
        setattr(owner, name, self._wrapper(original, layer, after))

    def wrap_function(self, function: Callable, layer: LayerName) -> None:
        """Open a span around ``function`` wherever a loaded module binds it.

        Module-level functions are looked up through the calling module's
        globals, so every ``repro`` module that imported ``function`` by
        name gets the wrapper.  Modules imported later keep the original.
        """
        wrapper = self._wrapper(function, layer, None)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, wrapper)
