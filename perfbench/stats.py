"""Arithmetic the benchmark reports with: percentiles, spreads, digests.

Kept free of any import from the program under test so the unit tests
(``test_perfbench.py``) exercise it in isolation.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, List, Sequence, Tuple

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; with fewer, one stray sample would decide it.
MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], wanted: float = 99.0,
                    beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile up to ``wanted``
    that has at least ``beyond`` samples above it.

    Nearest-rank on the sorted samples: the sample at 0-based rank ``k``
    has ``n - 1 - k`` samples beyond it, so ``k`` is capped at
    ``n - 1 - beyond``.  With ``n >= 1000`` the p99 itself qualifies.
    Failed operations enter as ``math.inf`` (they miss every latency
    limit) and are ranked above every real latency.
    """
    n = len(values)
    if n < beyond + 1:
        raise ValueError(f"need at least {beyond + 1} samples for a tail "
                         f"percentile, got {n}")
    ordered = sorted(values)
    rank = min(math.ceil(wanted / 100.0 * n) - 1, n - 1 - beyond)
    return 100.0 * (rank + 1) / n, ordered[rank]


def median(values: Iterable[float]) -> float:
    """Median; failures (``math.inf``) count as the slowest samples."""
    return statistics.median(list(values))


def with_failures(latencies: Sequence[float], failed: int) -> List[float]:
    """Latency samples with each failed operation as a missed limit."""
    return list(latencies) + [math.inf] * failed


def finite_or(value: float, ceiling: float) -> float:
    """A reported latency: a failure that decided a percentile reads as
    ``ceiling`` (the whole measured window), since it missed any limit."""
    return value if math.isfinite(value) else ceiling


def digest(parts: Iterable[str]) -> str:
    """Order-sensitive SHA-256 over text parts (tables, payload JSON).

    Parts are length-prefixed so that moving text across a part
    boundary changes the digest.
    """
    h = hashlib.sha256()
    for part in parts:
        blob = part.encode()
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()
