"""Span tracer that times kcone's public functions from outside the package.

Wrappers are installed at the names the *calling* module resolves (for
example ``kcone.orbitalg.pushforward`` rather than
``kcone.ktheory.pushforward``), so nothing inside ``src/kcone`` changes
and a module's internal calls to its own functions are not split into
spans.  Spans are kept in memory and written out when the run ends.

Parents come from a per-thread stack.  A span that starts on a worker
thread with an empty stack (a pushforward on the CLI's thread pool) is
parented to the innermost open span of the thread that installed the
tracer, which is the ``spanning_set`` call that owns the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

Annotate = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """One span name, the ``module.attr`` names to wrap, and its counters."""

    name: str
    targets: tuple[str, ...]
    annotate: Optional[Annotate] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unhooked: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def install(self, hooks: list[Hook]) -> None:
        for hook in hooks:
            for target in hook.targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    if target not in self.unhooked:
                        self.unhooked.append(target)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(hook, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _adopted_parent(self) -> Optional[int]:
        home = self._stacks.get(self._home)
        try:
            return home[-1] if home else None
        except IndexError:  # the home thread popped concurrently
            return None

    def _wrap(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._adopted_parent()
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, hook.name, start, end, parent, threading.get_ident(),
                         {"error": type(exc).__name__})
                )
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = {}
            if hook.annotate is not None:
                try:
                    attrs = hook.annotate(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    attrs = {"annotate_failed": 1}
            tracer.spans.append(
                Span(sid, hook.name, start, end, parent, threading.get_ident(), attrs)
            )
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on pool threads may overlap one another, so the covered part is
    the length of the union of the child intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.sid] = s.duration - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration ``s``, ``self_s``, ``calls`` and counters."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for s in spans:
        t = totals[s.name]
        t["s"] += s.duration
        t["self_s"] += selfs[s.sid]
        t["calls"] += 1
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and key != "orbit":
                t[key] = t.get(key, 0) + value
    return dict(totals)


def per_orbit_stages(spans: list[Span]) -> list[dict]:
    """Time per stage per orbit, one row per ``orbital_basis`` span."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    rows = []
    for s in spans:
        if s.name != "orbitalg.orbital_basis":
            continue
        parent = by_id.get(s.parent)
        row = {
            "type": parent.attrs.get("type") if parent else None,
            "orbit": s.attrs.get("orbit"),
            "boundary_rows": s.attrs.get("boundary_rows"),
            "vectors": s.attrs.get("vectors"),
            "orbital_basis_s": s.duration,
            "orbital_basis_self_s": selfs[s.sid],
        }
        for child in children[s.sid]:
            key = child.name.split(".", 1)[1]
            row[key + "_s"] = row.get(key + "_s", 0.0) + child.duration
            for name, value in child.attrs.items():
                row[f"{key}.{name}"] = row.get(f"{key}.{name}", 0) + value
        rows.append(row)
    return rows


def span_records(spans: list[Span]) -> list[dict]:
    selfs = self_times(spans)
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {
            "id": s.sid,
            "name": s.name,
            "start": s.start - t0,
            "end": s.end - t0,
            "self": selfs[s.sid],
            "parent": s.parent,
            "thread": s.thread,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]
