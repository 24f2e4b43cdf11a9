"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and the id of the span that was open when
it began. Spans stay in memory until the run ends and are then written out
as JSON. The recorder is single-threaded: only the benchmark's own thread
opens spans, around calls into asadeval's public functions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def instrument(self, module, names: dict):
        """Open a span around every call of `module.<attr>` for each attr -> span name.

        Callers that look the function up in `module` at call time, as the
        CLI does with the names it imports, are timed from outside the
        function; the module is restored on exit.
        """
        originals = {attr: getattr(module, attr) for attr in names}

        def wrap(function, span_name):
            @functools.wraps(function)
            def traced(*args, **kwargs):
                with self.span(span_name):
                    return function(*args, **kwargs)

            return traced

        try:
            for attr, span_name in names.items():
                setattr(module, attr, wrap(originals[attr], span_name))
            yield
        finally:
            for attr, function in originals.items():
                setattr(module, attr, function)

    def root(self, record: dict) -> str:
        while record["parent"] is not None:
            record = self.spans[record["parent"]]
        return record["name"]

    def find(self, name: str, roots=None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (roots is None or self.root(s) in roots)
        ]

    def total(self, name: str, roots=None) -> float:
        return sum(s["end"] - s["start"] for s in self.find(name, roots))

    def self_time(self, record: dict) -> float:
        """Duration minus the time its direct children cover."""
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == record["id"]
        )
        return record["end"] - record["start"] - children

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, **extra}, indent=1) + "\n")
