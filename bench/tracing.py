"""In-memory spans around the calls into each package module.

The package carries no instrumentation of its own, so the traced run swaps
the module-level names through which one layer calls the next (for example
``optimality.solve_bound``) for timing wrappers, and puts the originals back
afterwards. Every span holds its name, start and end (perf_counter_ns), the
index of the span that was open when it started, the record it belongs to and
an optional flag computed from the call's result. Spans stay in memory until
the run ends; ``write_spans`` then writes them as JSON lines.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from pathlib import Path
from typing import Callable, Iterator

NAME, START, END, PARENT, RECORD, FLAG = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.record: tuple[str, int] | None = None
        self._open: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        record: Callable[..., tuple[str, int]] | None = None,
        flag: Callable[[object], bool] | None = None,
    ) -> Callable:
        """fn timed as span `name`; `record(*args)` starts a new record id."""

        def traced(*args, **kwargs):
            if record is not None:
                self.record = record(*args)
            span = [name, 0, 0, self._open[-1] if self._open else -1, self.record, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                self._open.pop()
            if flag is not None:
                span[FLAG] = flag(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets: list[tuple[object, str, dict]]) -> Iterator[None]:
        """Replace module.attr with a traced wrapper for the duration.

        targets holds (module, attribute, wrap options); spans are named
        after the function the attribute refers to.
        """
        saved = []
        try:
            for module, attr, options in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name(original), original, **options))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def span_name(fn: Callable) -> str:
    """'<module>.<function>' with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent, record, flag.

    parent is the line number (from 0) of the enclosing span, or -1.
    """
    with open(path, "w") as stream:
        for span in spans:
            stream.write(json.dumps(span, separators=(",", ":")) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SpanStats:
    """Durations, self times and per-record totals of the spans of some records.

    Record ids are (kind, number); only spans whose record kind is in `kinds`
    count, so figures of one kind of work (say, sweep records) do not mix
    with those of another.
    """

    def __init__(self, spans: list[list], kinds: tuple[str, ...]) -> None:
        self.spans = spans
        foreign_child_ns = [0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                if _layer(span[NAME]) != _layer(spans[parent][NAME]):
                    foreign_child_ns[parent] += span[END] - span[START]
        self.foreign_child_ns = foreign_child_ns

        # a span is a root of its record when nothing of the same record
        # encloses it; the record's time is the sum of its roots
        self.by_name: dict[str, list[int]] = {}
        self.record_ns: dict[tuple[str, int], int] = {}
        for i, span in enumerate(spans):
            record = span[RECORD]
            if record is None or record[0] not in kinds:
                continue
            self.by_name.setdefault(span[NAME], []).append(i)
            parent = span[PARENT]
            if parent < 0 or spans[parent][RECORD] != record:
                self.record_ns[record] = self.record_ns.get(record, 0) + span[END] - span[START]

    def _of(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self._of(name))

    def durations_us(self, name: str) -> list[float]:
        return [(self.spans[i][END] - self.spans[i][START]) / 1e3 for i in self._of(name)]

    def layer_self_us(self, name: str) -> list[float]:
        """Duration minus the children that belong to other modules."""
        return [
            (self.spans[i][END] - self.spans[i][START] - self.foreign_child_ns[i]) / 1e3
            for i in self._of(name)
        ]

    def share(self, name: str) -> float:
        """Fraction of per-record time spent inside `name`."""
        total = sum(self.record_ns.values())
        inside = sum(self.spans[i][END] - self.spans[i][START] for i in self._of(name))
        return inside / total if total else 0.0

    def flag_fraction(self, name: str) -> float:
        flags = [self.spans[i][FLAG] for i in self._of(name)]
        return sum(1 for f in flags if f) / len(flags) if flags else 0.0


def _layer(name: str) -> str:
    return name.split(".", 1)[0]
