"""Memory circuit breaker for actor-side caches.

Reference semantics (matched, code not copied):
  sparse/cache/CircuitBreakerManager.java:37-52 — addMemoryUsage returns
  False (cache write refused) when the limit would be exceeded, instead
  of propagating; releaseBytes credits back on eviction;
  setLimitAndOverhead re-arms. MemoryUsageManager.java:56-63 — the
  recorder accepts an increment only if targeted_total*overhead <= limit
  AND the breaker admits it.

Ray placement: one breaker per ACTOR process (searcher / serving actor),
guarding its decoded-postings + dense tf-norm caches. There is deliberately
no cross-actor coordination — like the reference's per-node breaker —
because Ray's object store already applies global backpressure; this
bounds the Python-heap side the object store can't see.
"""

from __future__ import annotations

import threading


class CircuitBreakingException(MemoryError):
    def __init__(self, label: str, wanted: int, used: int, limit: int):
        super().__init__(
            f"[{label}] would use {used + wanted} bytes "
            f"(limit {limit}, currently {used})"
        )
        self.label = label


class CircuitBreaker:
    """Byte-budget breaker; thread-safe (serving actors answer
    concurrent warmup + query RPCs)."""

    def __init__(self, limit_bytes: int, overhead: float = 1.0):
        self._lock = threading.Lock()
        self.limit_bytes = int(limit_bytes)
        self.overhead = float(overhead)
        self.used_bytes = 0
        self.trip_count = 0  # stats/events analogue: breaker refusals

    def add_estimate_bytes_and_maybe_break(self, nbytes: int, label: str) -> None:
        with self._lock:
            target = self.used_bytes + int(nbytes)
            if target * self.overhead > self.limit_bytes and nbytes > 0:
                self.trip_count += 1
                raise CircuitBreakingException(
                    label, int(nbytes), self.used_bytes, self.limit_bytes
                )
            self.used_bytes = target

    def add_memory_usage(self, nbytes: int, label: str) -> bool:
        """False = refused (caller skips the cache write), never raises
        (CircuitBreakerManager.java:37-52)."""
        try:
            self.add_estimate_bytes_and_maybe_break(nbytes, label)
            return True
        except CircuitBreakingException:
            return False

    def add_without_breaking(self, nbytes: int) -> None:
        with self._lock:
            self.used_bytes += int(nbytes)

    def release_bytes(self, nbytes: int) -> None:
        self.add_without_breaking(-int(nbytes))

    def set_limit_and_overhead(self, limit_bytes: int, overhead: float = 1.0) -> None:
        with self._lock:
            self.limit_bytes = int(limit_bytes)
            self.overhead = float(overhead)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "used_bytes": self.used_bytes,
                "limit_bytes": self.limit_bytes,
                "trip_count": self.trip_count,
            }


class _NoopBreaker:
    """Default: unlimited (object-store backpressure only)."""

    used_bytes = 0
    limit_bytes = None
    trip_count = 0

    def add_memory_usage(self, nbytes: int, label: str) -> bool:
        return True

    def release_bytes(self, nbytes: int) -> None:
        pass

    def snapshot(self) -> dict:
        return {"used_bytes": 0, "limit_bytes": None, "trip_count": 0}


NOOP_BREAKER = _NoopBreaker()
