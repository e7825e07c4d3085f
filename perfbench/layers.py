"""Wall-clock timers wrapped around the program's public calls.

A :class:`Tracer` swaps attributes of modules, classes or (frozen
dataclass) instances for timing wrappers, records one duration per call
under a layer name, and puts every original back in :meth:`remove`.
Nothing in the program is edited: the traced run measures each layer
from outside, at the public boundary the layer's module exposes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import types
from time import perf_counter
from typing import Any, Callable, Dict, List


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        # Frozen dataclass instances (``Protocol``) refuse setattr.
        object.__setattr__(owner, attr, value)


def _delete(owner: Any, attr: str) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        delattr(owner, attr)
    else:
        object.__delattr__(owner, attr)


def summarize(samples: List[float]) -> Dict[str, float]:
    """Count, busy time and median of one layer's samples (seconds)."""
    return {
        "count": len(samples),
        "busy_s": sum(samples),
        "p50_s": statistics.median(samples) if samples else 0.0,
    }


class Tracer:
    """Installs timing wrappers and records samples per layer."""

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {}
        self._undo: List[Callable[[], None]] = []
        #: ``(owner, attr, had_own, saved)`` of every swap ever made.
        self._swapped: List[tuple] = []

    def sink(self, name: str) -> List[float]:
        """The sample list of layer ``name`` (created empty)."""
        return self.layers.setdefault(name, [])

    def reset(self) -> None:
        """Forget every sample taken so far (wrappers stay installed)."""
        for samples in self.layers.values():
            samples.clear()

    def swap(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`remove`."""
        own = vars(owner)
        had_own = attr in own
        saved = own.get(attr)
        _set(owner, attr, replacement)
        self._swapped.append((owner, attr, had_own, saved))

        def undo() -> None:
            if had_own:
                _set(owner, attr, saved)
            else:
                _delete(owner, attr)

        self._undo.append(undo)

    def on_remove(self, undo: Callable[[], None]) -> None:
        """Register extra teardown run by :meth:`remove`."""
        self._undo.append(undo)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under layer ``name``."""
        sink = self.sink(name)
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    sink.append(perf_counter() - start)
        else:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    sink.append(perf_counter() - start)
        self.swap(owner, attr, timed)

    @property
    def installed(self) -> int:
        """Wrappers and hooks currently installed."""
        return len(self._undo)

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            self._undo.pop()()

    def leftovers(self) -> List[str]:
        """Swapped attributes that do not hold their original again."""
        left = []
        for owner, attr, had_own, saved in self._swapped:
            own = vars(owner)
            if (own.get(attr) is not saved) if had_own else (attr in own):
                left.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
        return left

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {name: summarize(s) for name, s in sorted(self.layers.items())}
