"""Spans around the program's public functions, patched in from outside.

Each function is replaced at the place its caller looks it up: `federation`
imports `sgd_step` and the codec functions by name, so they are wrapped in
`flcop.federation`; `nsga2` imports `pareto_filter` by name while
`metrics.hypervolume` calls its own module's copy, so both are wrapped. The
source under `src/` is never edited.

Spans stay in memory while the workload runs: (name, parent span, start, end,
a size argument). Self time is a span's duration minus the time its direct
child spans cover. `write` stores the spans when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows: list = []  # (name id, parent row, start, end, size)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [row index, seconds covered by children]
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, module, attr: str, name: str, size_of=None, count=None) -> None:
        """Replace module.attr by a span-recording wrapper.

        size_of maps the call's arguments to a number kept with the span, such
        as the entry count of the array handed to the codec; count maps the
        arguments and the result to {counter: increment}.
        """
        original = getattr(module, attr)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.rows), 0.0]
            self.rows.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                size = size_of(*args, **kwargs) if size_of else 0
                self.rows[frame[0]] = (name_id, parent, start, end, size)
            if count:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        self._patches.append((module, attr, original, wrapper))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put the original functions back."""
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)

    def install(self) -> None:
        """Put the wrappers back after `restore`."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def table(self) -> np.ndarray:
        """All spans as rows of (name id, parent row, start, end, size)."""
        return np.array(self.rows, np.float64).reshape(-1, 5)

    def spans(self, table: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(durations, sizes) of every span of this name, in call order."""
        rows = table[table[:, 0] == self._name_ids.get(name, -1)]
        return rows[:, 3] - rows[:, 2], rows[:, 4].astype(np.int64)

    def write(self, path) -> None:
        """Store the spans as arrays: name index, parent row, start, end, size."""
        table = self.table()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=table[:, 0].astype(np.int32),
            parent=table[:, 1].astype(np.int64),
            start=table[:, 2],
            end=table[:, 3],
            size=table[:, 4].astype(np.int64),
        )
