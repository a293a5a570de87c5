"""Sample statistics and failure accounting for the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank ``p``-th percentile, or None unless at least
    :data:`MIN_BEYOND` samples lie strictly above its rank."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason or "failed")
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
