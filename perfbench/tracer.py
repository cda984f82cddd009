"""Spans around calls into looptrans, recorded from outside the program.

A :class:`Tracer` replaces functions at the module or class attributes where
the program looks them up, so a call made inside the program (say,
``census_details`` calling ``enumerate_packed``) is seen as well as a call
made by the benchmark.  Each call becomes a span ``(name, start, end,
parent)`` kept in memory; ``restore`` puts the original functions back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Any] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        label: Callable[[Any], str] | None = None,
        on_call: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Record a span for every call of ``owner.attr``.

        ``label`` renames the span from the call's result; ``on_call`` sees
        the arguments and the result after the span has ended.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            # a tuple of atoms, which the garbage collector stops tracking
            spans[index] = (name if label is None else label(result), start, end, parent)
            if on_call is not None:
                on_call(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layers(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - inner
        return {name: (int(calls), self_s) for name, (calls, self_s) in out.items()}

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
