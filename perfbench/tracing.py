"""Per-layer spans for the traced benchmark run.

A :class:`Tracer` rebinds a library function or method, where its
caller looks it up, to a wrapper that times the call as a span of a
named layer.  Spans nest: a layer's *self* time is its span's duration
minus the part covered by child spans, so the self times of all layers
plus the unattributed remainder add up to the timed wall.  Wrappers
never change arguments or results.

Optional hooks turn a call into counts (entries built, probes sent,
bytes journaled, ...).  Hook time is bookkeeping, not work of any
layer: it is excluded from every span and reported on its own.

Nothing is rebound until :meth:`Tracer.install` runs, and
:meth:`Tracer.uninstall` restores every original binding, so the
untraced run executes the library unmodified.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: ``after(tracer, token, result, args, kwargs)`` records counts.
AfterHook = Callable[[Any, Any, Any, tuple, dict], None]
#: ``before(args, kwargs)`` returns a token handed to the after hook.
BeforeHook = Callable[[tuple, dict], Any]
#: A fixed layer name, or one chosen per call from the arguments.
Layer = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """Span and counter accumulator over rebound entry points."""

    def __init__(self) -> None:
        #: layer -> summed self seconds.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> number of spans.
        self.calls: Dict[str, int] = defaultdict(int)
        #: counter name -> value.
        self.counts: Dict[str, float] = defaultdict(float)
        #: seconds spent in hooks (excluded from every span).
        self.bookkeeping_s = 0.0
        #: False while untimed work (set-up between units) runs.
        self.recording = True
        #: per open span, seconds covered by its children so far.
        self._stack: List[float] = []
        self._bindings: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Rebinding
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        name: str,
        layer: Layer,
        before: Optional[BeforeHook] = None,
        after: Optional[AfterHook] = None,
    ) -> None:
        """Register ``owner.name`` (module or class attribute) for
        rebinding as a span of *layer* when :meth:`install` runs."""
        raw = owner.__dict__[name]
        self._bindings.append((owner, name, (raw, layer, before, after)))

    def install(self) -> None:
        for owner, name, (raw, layer, before, after) in self._bindings:
            if isinstance(raw, classmethod):
                new = classmethod(
                    self._span(raw.__func__, layer, before, after)
                )
            elif isinstance(raw, staticmethod):
                new = staticmethod(
                    self._span(raw.__func__, layer, before, after)
                )
            else:
                new = self._span(raw, layer, before, after)
            setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, (raw, _layer, _before, _after) in reversed(
            self._bindings
        ):
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span(
        self,
        fn: Callable,
        layer: Layer,
        before: Optional[BeforeHook],
        after: Optional[AfterHook],
    ) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            token = None
            if before is not None:
                hook_start = clock()
                token = before(args, kwargs)
                self._charge_bookkeeping(clock() - hook_start)
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                self.self_s[name] += duration - children
                self.calls[name] += 1
                if stack:
                    stack[-1] += duration
            if after is not None:
                hook_start = clock()
                after(self, token, result, args, kwargs)
                self._charge_bookkeeping(clock() - hook_start)
            return result

        span.__wrapped__ = fn
        return span

    def _charge_bookkeeping(self, seconds: float) -> None:
        self.bookkeeping_s += seconds
        if self._stack:
            # Hooks run inside the enclosing span's interval; count them
            # as a child so the parent's self time excludes them.
            self._stack[-1] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        return sum(self.self_s.values())
