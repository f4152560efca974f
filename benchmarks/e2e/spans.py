"""Harness-side spans: who called which layer, for how long.

Spans are recorded only by the benchmark, around its calls into each
layer's public functions — the program itself is not instrumented (that
is a later change).  They stay in memory and are written once, when the
run ends.  With tracing off, :meth:`Tracer.span` hands back a shared
no-op context, so the end-to-end run pays one attribute test per call.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NO_SPAN = nullcontext()


class Tracer:
    """An in-memory span log; one per run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.spans: list[dict] = []
        self._open = threading.local()

    def span(self, name: str, op: int | None = None):
        """Time one call into layer ``name`` (``op`` = request index)."""
        return self._record(name, op) if self.enabled else _NO_SPAN

    @contextmanager
    def _record(self, name: str, op: int | None):
        stack = getattr(self._open, "spans", None)
        if stack is None:
            stack = self._open.spans = []  # one stack of open spans per thread
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": stack[-1]["name"] if stack else None,
            "workload": self.workload,
            "op": op,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    def durations(self, name: str) -> list[float]:
        """Seconds of every closed span called ``name``, in close order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def fastest_by_op(self, name: str) -> dict[int, float]:
        """Per ``op``, the shortest closed span called ``name``."""
        fastest: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                seconds = s["end"] - s["start"]
                if seconds < fastest.get(s["op"], float("inf")):
                    fastest[s["op"]] = seconds
        return fastest

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}) + "\n")
