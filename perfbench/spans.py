"""In-memory spans around calls into the ``repro`` packages.

A :class:`Tracer` wraps functions so that each call records a span: name,
start, end, parent span and op id.  :func:`install` replaces a function at
every name a caller looks it up by (module globals that hold it, or the
class attribute for a method) and returns an undo list.  Self time is a
span's duration minus the part of its interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: ``count(args, kwargs, result) -> {counter: amount}``, summed per span name.
Counter = Callable[[tuple, dict, Any], Dict[str, float]]
#: A fixed span name, or one computed from the call's arguments.
SpanName = Union[str, Callable[[tuple, dict], str]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.counts]


class Tracer:
    """Records nested spans for a single-threaded caller.

    Wrapped calls made while ``enabled`` is false (output checks, say)
    pass straight through and record nothing.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.op = -1
        self.enabled = True
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, counts: Optional[Dict[str, float]] = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        if counts:
            span.counts = counts
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(
        self, name: SpanName, fn: Callable, count: Optional[Counter] = None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            index = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index, count(args, kwargs, result) if count else None)
            return result

        return traced


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


@dataclass(frozen=True)
class Probe:
    """A span name and the functions (``"module:Qual.name"``) it wraps."""

    name: SpanName
    targets: Tuple[str, ...]
    count: Optional[Counter] = None


def _resolve(target: str) -> Tuple[Any, str, Any]:
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined on {owner!r}")
    return owner, attr, vars(owner)[attr]


def install(
    tracer: Tracer, probes: Sequence[Probe], packages: Sequence[str] = ("repro",)
) -> List[Tuple[Any, str, Any]]:
    """Wrap every probe target wherever modules of ``packages`` look it up.

    A method is replaced on the class that defines it.  A function is
    replaced in every loaded module of ``packages`` whose globals hold it, so
    ``from x import f`` call sites see the wrapper too; a function-local
    ``from x import f`` reads the defining module's attribute at call time
    and is covered by replacing that.  Returns ``(owner, attr, original)``
    triples for :func:`uninstall`.
    """
    # Resolve (and so import) every target first, so that the scan below
    # sees every module those imports load.
    targets = [(probe, _resolve(target)) for probe in probes for target in probe.targets]
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and any(name == package or name.startswith(package + ".") for package in packages)
    ]
    undo: List[Tuple[Any, str, Any]] = []
    for probe, (owner, attr, original) in targets:
        wrapped = tracer.wrap(probe.name, original, probe.count)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    return undo


def uninstall(undo: Sequence[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
