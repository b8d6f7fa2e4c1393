"""In-memory spans around calls into the program's modules.

A span records a name, start, end, the span that was open when it began
(its parent) and, while ``tracemalloc`` runs, the traced peak above the
level at its start.  ``tracemalloc`` slows every allocation several times,
so it runs only inside the spans named in ``memory_spans`` (and the spans
nested in them) and pauses inside those named in ``paused_spans``; memory a
paused span keeps or frees is not seen.  Spans are kept in a list and written out once the
run ends.  Hooks replace module or class attributes with timing wrappers and
are removed again after the traced pass; a hook target that no longer
exists is recorded in ``missing``, never skipped silently.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    peak: int | None = None       # bytes above the traced level at entry
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.

    Spans of one thread never overlap their siblings, so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: total and self seconds, calls, errors, max peak, counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"total": 0.0, "self": 0.0, "calls": 0,
                                      "errors": 0, "peak": None, "counts": {}})
        row["total"] += s.duration
        row["self"] += selfs[s.id]
        row["calls"] += 1
        row["errors"] += s.error is not None
        if s.peak is not None:
            row["peak"] = max(row["peak"] or 0, s.peak)
        for key, val in s.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out


class Tracer:
    """Collects spans; spans in ``memory_spans`` also get tracemalloc peaks."""

    def __init__(self, memory_spans: frozenset = frozenset(),
                 paused_spans: frozenset = frozenset()):
        self.memory_spans = memory_spans
        self.paused_spans = paused_spans
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._marks: list[list[int]] = []   # [entry level, running peak] per traced span
        self._installed: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), self._stack[-1].id if self._stack else None, name)
        self.spans.append(sp)
        owner = name in self.memory_spans and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        paused = name in self.paused_spans and tracemalloc.is_tracing()
        if paused:
            level, peak = tracemalloc.get_traced_memory()
            self._marks[-1][1] = max(self._marks[-1][1], peak)
            tracemalloc.stop()
        traced = tracemalloc.is_tracing()
        if traced:
            base, peak = tracemalloc.get_traced_memory()
            if self._marks:
                self._marks[-1][1] = max(self._marks[-1][1], peak)
            tracemalloc.reset_peak()
            self._marks.append([base, base])
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if traced:
                base, running = self._marks.pop()
                peak = max(running, tracemalloc.get_traced_memory()[1])
                sp.peak = peak - base
                if self._marks:
                    self._marks[-1][1] = max(self._marks[-1][1], peak)
                tracemalloc.reset_peak()
            if owner:
                tracemalloc.stop()
            if paused:
                # Traced levels restart from zero; shift the open spans' marks.
                tracemalloc.start()
                for mark in self._marks:
                    mark[0] -= level
                    mark[1] -= level

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe(counts, result)`` runs after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    observe(sp.counts, result)
                except (AttributeError, TypeError, KeyError) as exc:
                    note = f"{name} counters ({type(exc).__name__}: {exc})"
                    if note not in self.missing:
                        self.missing.append(note)
            return result
        return traced

    def install(self, hooks):
        """Wrap each ``(owner, attribute, span name, observe)`` target.

        ``owner`` is a module path, or ``module:Class`` for a method.
        """
        for owner_path, attr, name, observe in hooks:
            module, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(fn, name, observe))
            self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()
