"""Per-layer spans recorded from outside the library.

While a ``Tracer`` is active, the names that ``mcfnet.harness``,
``mcfnet.counts`` and ``mcfnet.conflict`` look up at call time are rebound
to wrappers that record one span per call.  Leaving the ``with`` block
restores the original functions, so untraced runs execute the library
unchanged.  Span names are ``<layer>.<operation>``, the layer being the
module that defines the function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from mcfnet import conflict, counts, harness

REBOUND = (
    (harness, "conflict_matrix", "conflict.matrix"),
    (harness, "init_state", "network.init"),
    (harness, "entropy", "network.entropy"),
    (harness, "compute_count_state", "counts.compute"),
    (harness, "has_converged", "network.converge"),
    (harness, "step", "network.step"),
    (harness, "is_stalled", "network.stall_check"),
    (harness, "reseat_stalled_row", "network.reseat"),
    (harness, "extract_partition", "network.extract"),
    (harness, "is_crisp", "network.is_crisp"),
    (harness, "evaluate_partition", "conflict.evaluate"),
    (harness, "refine_partition", "conflict.refine"),
    (counts, "cluster_existence", "counts.existence"),
    (counts, "combine", "evidence.combine"),
    (conflict, "cluster_conflict", "conflict.cluster_conflict"),
    (conflict, "combine", "evidence.combine"),
)

# What a span keeps of its call's result; results themselves are dropped.
NOTES: dict[str, Callable[[object], object]] = {
    "evidence.combine": lambda r: len(r[0]),
    "counts.compute": lambda r: sum(r.meaningless),
    "network.stall_check": bool,
    "network.reseat": lambda r: r is not None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    note: object = None
    error: str | None = None
    children: list[int] = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Records nested spans in memory, in call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, 0.0, parent=parent)
        self.spans.append(record)
        if parent is not None:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        if name in NOTES:
            record.note = NOTES[name](result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name in REBOUND:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def tree(self, root: int) -> list[int]:
        """Indices of root and every span below it."""
        out: list[int] = []
        todo = [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.spans[i].children)
        return out

    def self_ms(self, index: int) -> float:
        """Span time not covered by its child spans."""
        span = self.spans[index]
        return span.ms - sum(self.spans[c].ms for c in span.children)

    def accounts_for(self, root: int) -> bool:
        """True when every child span lies inside its parent, one after another.

        Then every self time is >= 0 and the self times of the tree sum to
        the root's wall time.
        """
        indices = self.tree(root)
        for i in indices:
            span = self.spans[i]
            previous_end = span.start
            for c in span.children:
                child = self.spans[c]
                if child.start < previous_end or child.end > span.end:
                    return False
                previous_end = child.end
        total_self = sum(self.self_ms(i) for i in indices)
        return abs(total_self - self.spans[root].ms) <= 1e-6 * max(1.0, self.spans[root].ms)
