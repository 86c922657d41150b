"""A fixed pure-Python job that measures how fast the host runs right now.

The benchmark shares its machine, whose speed for the same work drifts by
up to half again over a minute.  Every round times this job next to its
batch, and the reported times are scaled to a host on which the job takes
`NOMINAL_S`.  The job imports nothing from the library, so no change to the
library moves it; it mixes the two kinds of work the library spends its
time on: table-driven finite-field loops over small lists, and a recursive
search over packed big-integer counters.
"""

from __future__ import annotations

import itertools
import time

NOMINAL_S = 0.25
_P = 3
_ADD = [[(a + b) % _P for b in range(_P)] for a in range(_P)]
_MUL = [[(a * b) % _P for b in range(_P)] for a in range(_P)]
_ROWS = [[(7 * r + 3 * c + r * c) % _P for c in range(9)] for r in range(8)]


def _span_weights() -> int:
    """Least nonzero weight of each row minus a combination of the others."""
    total = 0
    for i, target in enumerate(_ROWS):
        others = _ROWS[:i] + _ROWS[i + 1:]
        best = len(target)
        for coeffs in itertools.product(range(_P), repeat=len(others)):
            acc = list(target)
            for c, row in zip(coeffs, others):
                if c:
                    nc = _MUL[_P - 1][c]
                    acc = [_ADD[a][_MUL[nc][b]] for a, b in zip(acc, row)]
            w = sum(1 for a in acc if a)
            if 0 < w < best:
                best = w
        total += best
    return total


def _packed_search(depth: int = 9, width: int = 12) -> int:
    """Visits every non-decreasing pick sequence, adding packed counters and
    testing them bytewise against a quota."""
    adds = [sum(1 << (8 * t) for t in range(width) if (c >> (t % 5)) & 1) for c in range(width)]
    low = sum(1 << (8 * t) for t in range(width))
    high, quota = low << 7, 3 * low
    nodes = 0

    def dfs(start: int, rem: int, cnt: int) -> None:
        nonlocal nodes
        if rem == 0 or not ((cnt - quota) & ~cnt & high):
            return
        for c in range(start, len(adds)):
            nodes += 1
            dfs(c, rem - 1, cnt + adds[c])

    dfs(0, depth, 0)
    return nodes


def reference_seconds() -> float:
    """Duration of one run of the fixed job."""
    started = time.perf_counter()
    _span_weights()
    _packed_search()
    return time.perf_counter() - started
