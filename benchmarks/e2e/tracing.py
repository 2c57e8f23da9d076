"""Span recording for the benchmark's traced runs.

Spans are taken from the benchmark's own files, around calls into each
layer's public functions; nothing under ``src/`` knows about them.  Times are
``time.perf_counter()`` seconds: CLOCK_MONOTONIC on Linux, one timebase for
the parent and every child it starts, so a child's spans nest inside the
parent's span of that child without translation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["Tracer", "self_times", "check_nesting", "write_spans"]


class Tracer:
    """Times named intervals; keeps them as spans only when *keep_spans*.

    The per-name totals are what the end-to-end metrics are computed from
    (set-up and event-loop seconds), so they are accumulated on every run.
    The span list, with parents, is kept only on a traced run.
    """

    def __init__(self, run_id: str, keep_spans: bool) -> None:
        self.run_id = run_id
        self.keep_spans = keep_spans
        self.totals: dict[str, float] = {}
        self.spans: list[dict] = []
        self._stack: list[int | None] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = None
        start = time.perf_counter()
        if self.keep_spans:
            index = len(self.spans)
            parent = next((i for i in reversed(self._stack) if i is not None), None)
            self.spans.append(
                {"name": name, "start": start, "end": start, "parent": parent,
                 "run_id": self.run_id}
            )
        self._stack.append(index)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)
            if index is not None:
                self.spans[index]["end"] = end

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a span measured by other means (a subprocess, a child's start)."""

        self.totals[name] = self.totals.get(name, 0.0) + (end - start)
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent,
             "run_id": self.run_id}
        )
        return len(self.spans) - 1

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Graft a child process's span list under span *parent*."""

        offset = len(self.spans)
        for span in spans:
            grafted = dict(span, run_id=self.run_id)
            grafted["parent"] = (
                parent if span["parent"] is None else span["parent"] + offset
            )
            self.spans.append(grafted)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-name self time: each span's duration minus what its children cover."""

    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for span, inside in zip(spans, covered):
        own = (span["end"] - span["start"]) - inside
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def check_nesting(spans: list[dict], slack_s: float = 1e-3) -> list[str]:
    """Problems with the span tree: bad parents, escapes, negative self time."""

    problems = []
    covered = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span["end"] < span["start"]:
            problems.append(f"span {span['name']} ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        if not 0 <= parent < len(spans) or parent == index:
            problems.append(f"span {span['name']} has a bad parent {parent}")
            continue
        outer = spans[parent]
        if span["start"] < outer["start"] - slack_s or span["end"] > outer["end"] + slack_s:
            problems.append(f"span {span['name']} escapes its parent {outer['name']}")
        covered[parent] += span["end"] - span["start"]
    for span, inside in zip(spans, covered):
        if (span["end"] - span["start"]) - inside < -slack_s:
            problems.append(f"span {span['name']} has negative self time")
    return problems


def write_spans(path: Path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
