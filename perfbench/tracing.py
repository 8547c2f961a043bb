"""Spans and counts recorded from outside the program, plus the percentile rule.

The tracer wraps public entry points of the package (module attributes and
per-instance handle methods) and keeps, for each span name, the number of
calls, the inclusive time and the self time.  Self time is a span's duration
minus the union of its child spans.  Everything runs in one thread, so child
spans never overlap one another: the union is the sum of the direct children,
which is what each stack frame accumulates.  Per-call spans are aggregated
rather than stored because a single growth table makes millions of calls.
"""

from __future__ import annotations

import time


class Tracer:
    """Aggregated span statistics keyed by span name."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.enabled = True
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.bfs_setup_ns = 0
        # one frame per open span: [child_ns, start_ns of a BFS still before its first product]
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def _slot(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def wrap(self, name: str, fn, bfs: bool = False, product: bool = False):
        """Return `fn` wrapped in a span called `name`.

        `bfs` marks an enumeration entry point: the time from its start to its
        first product (a `product` span called directly inside it) is its
        set-up time.
        """
        slot = self._slot(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            if product and stack and stack[-1][1] is not None:
                self.bfs_setup_ns += t0 - stack[-1][1]
                stack[-1][1] = None
            frame = [0, t0 if bfs else None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if frame[1] is not None:  # enumeration that formed no product
                    self.bfs_setup_ns += dt
                if stack:
                    stack[-1][0] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[0]

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        """Install `wrapper` as `owner.attr`, remembering what to restore."""
        had_own = attr in vars(owner)
        self._patched.append((owner, attr, had_own, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, had_own, original = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # drop the instance attribute shadowing the method

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, [0, 0, 0])[2] for n in names) / 1e9


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value, sample_count) for the sorted sample at index
    n - beyond - 1, or None when there are not enough samples.
    """
    values = sorted(samples)
    n = len(values)
    if n <= beyond:
        return None
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, values[index], n
