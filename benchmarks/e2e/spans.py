"""In-memory spans around the calls into each layer, from outside ``src/``.

The traced pass of the benchmark wraps each layer's public functions
(resolved by dotted name when the pass starts) with spans recording
``(name, start, end, parent)`` and, where the layer does countable work,
a work count taken from the call's arguments or result. Nothing under
``src/`` is edited: wrappers are installed with ``setattr`` on the
owning module or class for the duration of one pass and removed again.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the self times of all spans add up to
the wall time of the root span — which is what ``trace.coverage_pct``
checks.

Targets that no longer exist (a later PR may delete a variant) are not
an error: they are listed in :attr:`Tracer.missing`, and every metric
that needs one of their spans reads ``None``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = ["Target", "TARGETS", "Tracer", "NullTracer"]

#: The clock of the program's own MetricsRegistry spans too, which is
#: what lets :meth:`Tracer.add_span` adopt them.
clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One function to wrap: span name, where it lives, what it counts."""

    span: str
    module: str
    attr: str
    #: Optional ``(args, kwargs, result) -> int`` work count per call.
    work: Callable | None = None

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.attr}"


def _len_of_arg(index: int):
    return lambda args, kwargs, result: len(args[index])


def _first_column_len(args, kwargs, result):
    columns = args[1]
    return len(next(iter(columns.values())))


#: The layer boundaries of this repo, by module. ``simulate`` is wrapped
#: at its call sites (the names ``runtime`` and ``online`` imported), the
#: rest where they are defined. Method targets include ``self`` in args.
TARGETS = (
    Target("optimizer.plan", "repro.service.replan", "plan"),
    Target("sketches.observe", "repro.core.sketches",
           "StreamStatisticsCollector.observe", _first_column_len),
    Target("replan", "repro.service.replan", "IncrementalReplanner.replan"),
    Target("admission.check", "repro.service.service", "check_admission"),
    Target("engine.simulate", "repro.gigascope.runtime", "simulate"),
    Target("engine.simulate", "repro.gigascope.online", "simulate"),
    Target("native_ingest", "repro.native.ingest", "ingest_runs",
           _len_of_arg(3)),
    Target("native_merge", "repro.native.merge", "merge_rows",
           _len_of_arg(1)),
    Target("hfta.ingest", "repro.gigascope.hfta", "HFTA.ingest_arrays"),
    Target("hfta.finalize", "repro.gigascope.hfta", "HFTA.finalize_epoch"),
    Target("hfta.query_answer", "repro.gigascope.hfta", "HFTA.query_answer",
           lambda args, kwargs, result: len(result)),
    Target("hfta.all_answers", "repro.gigascope.hfta", "HFTA.all_answers"),
    Target("online.push", "repro.gigascope.online", "LiveStreamSystem.push"),
    Target("online.finish", "repro.gigascope.online",
           "LiveStreamSystem.finish"),
    Target("service.push", "repro.service.service", "StreamService.push"),
    Target("service.register", "repro.service.service",
           "StreamService.register"),
    Target("service.retire", "repro.service.service", "StreamService.retire"),
    Target("service.answers", "repro.service.service",
           "StreamService.answers"),
    Target("service.finish", "repro.service.service", "StreamService.finish"),
    Target("checkpoint.save", "repro.resilience.checkpoint",
           "save_live_checkpoint"),
    Target("checkpoint.load", "repro.resilience.checkpoint",
           "load_live_checkpoint"),
)


def _resolve(target: Target):
    """``(owner, leaf name, function)`` for a target, or raise."""
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, work or None]``.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = False
        self._installed: list[tuple[object, str, object]] = []
        #: Dotted names that could not be resolved at install time.
        self.missing: list[str] = []
        #: Span names with at least one resolved target (or used through
        #: :meth:`span` by the benchmark's own call sites).
        self.known: set[str] = set()
        #: Span names whose work extractor raised at least once.
        self.work_failed: set[str] = set()

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        if self._paused:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(index)
        self.spans[index][1] = clock()
        return index

    def _close(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][2] = clock()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """One ``bench.untimed`` span and nothing inside it: the
        benchmark's own bookkeeping (fact gathering, comparisons) calls
        layer functions too, outside any timed region."""
        index = self._open("bench.untimed")
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self._close(index)

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls into a layer."""
        self.known.add(name)
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def add_span(self, name: str, start: float, end: float,
                 parent_name: str) -> None:
        """Adopt a span some other recorder measured on the same clock
        (the sharded system's own partition/engine/merge spans), as a
        child of the most recent span called ``parent_name``."""
        self.known.add(name)
        parent = -1
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index][0] == parent_name:
                parent = index
                break
        self.spans.append([name, start, end, parent, None])

    # -- wrappers ------------------------------------------------------
    def _wrap(self, target: Target, function):
        name, work = target.span, target.work

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if work is not None and index >= 0:
                try:
                    self.spans[index][4] = int(work(args, kwargs, result))
                except Exception:
                    # The signature moved under us: lose the count, not
                    # the run.
                    self.work_failed.add(name)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Wrap every resolvable target; note the ones that are gone."""
        for target in TARGETS:
            try:
                owner, leaf, function = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target.dotted)
                continue
            # vars() keeps a staticmethod/classmethod descriptor intact.
            original = vars(owner).get(leaf, function)
            setattr(owner, leaf, self._wrap(target, function))
            self._installed.append((owner, leaf, original))
            self.known.add(target.span)

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ---------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s``, ``work``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, parent, work) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += max(0.0, (end - start) - covered[index])
            if work is not None:
                row["work"] += work
        for name in self.work_failed:
            if name in out:
                out[name]["work"] = None
        return out

    def span_rows(self) -> list[dict]:
        """The raw spans, JSON-shaped (written when the run ends)."""
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, "work": work}
                for name, start, end, parent, work in self.spans]


class NullTracer:
    """The untraced passes' stand-in: same call sites, no recording."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    @contextmanager
    def paused(self):
        yield
