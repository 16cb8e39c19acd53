"""Mergeable aggregation sketches.

Reference parity: the reference engine inherits OpenSearch/Elasticsearch
metric aggregations whose distributed form is a *mergeable sketch* —
``cardinality`` is HyperLogLog++ (CardinalityAggregator /
HyperLogLogPlusPlus.java) and ``percentiles`` is a t-digest
(TDigestState / AbstractTDigestPercentilesAggregator.java). Restated
here as plain numpy over fixed-size state so a shard/batch partial is a
few KB that merges associatively at a coordinator — the only shape that
works when the match set is 10^12 docs:

- ``HyperLogLog``: dense 2^p uint8 registers; add is vectorized
  (hash → register index / rank via a branchless clz); merge is an
  elementwise ``np.maximum`` — associative, commutative, idempotent, so
  re-executed Ray tasks can double-count safely.
- ``TDigest``: merging-digest variant (Dunning & Ertl,
  "Computing Extremely Accurate Quantiles Using t-Digests", 2019) with
  the k1 (arcsine) scale function; centroids are (mean, weight) arrays,
  merge = concatenate + one sorted compress pass. Deterministic given
  the same input multiset order.

Both serialize to bytes so partials travel through Ray Data as plain
Arrow ``binary`` columns.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["HyperLogLog", "TDigest", "MisraGries", "hash64"]


def hash64(values) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of an array-like of any
    dtype (ints, floats, strings) — pandas' SipHash-1-3 with its fixed
    default key, identical across processes/workers (unlike Python's
    per-process-salted ``hash``)."""
    import pandas as pd

    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in "US":
        arr = np.asarray(arr, dtype=object)
    return pd.util.hash_array(arr, categorize=False).astype(np.uint64)


def _clz64(x: np.ndarray) -> np.ndarray:
    """Branchless count-leading-zeros for uint64 (x > 0); float log2 is
    NOT safe here — 53-bit rounding can cross a power of two."""
    r = np.zeros(x.shape, dtype=np.int64)
    y = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        hi = y >> np.uint64(s)
        has = hi != 0
        r[has] += s
        y[has] = hi[has]
    return 63 - r


class HyperLogLog:
    """Dense HyperLogLog with the classic small-range correction.

    Standard error ≈ 1.04 / sqrt(2^p): p=14 (16 KiB state) gives ~0.8%.
    """

    def __init__(self, p: int = 14):
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashed(self, h: np.ndarray) -> "HyperLogLog":
        h = np.ascontiguousarray(h, dtype=np.uint64)
        if h.size == 0:
            return self
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h << np.uint64(self.p)  # remaining bits, top-aligned
        rank = np.where(w == 0, 64 - self.p + 1, _clz64(w) + 1).astype(
            np.uint8
        )
        np.maximum.at(self.registers, idx, rank)
        return self

    def add(self, values) -> "HyperLogLog":
        return self.add_hashed(hash64(values))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("precision mismatch")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        e = alpha * m * m / np.power(2.0, -self.registers.astype(np.float64)).sum()
        if e <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                return m * math.log(m / zeros)
        return float(e)

    # -- wire format (Arrow binary column payload) --------------------
    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        h = cls(b[0])
        h.registers = np.frombuffer(b[1:], dtype=np.uint8).copy()
        if h.registers.size != h.m:
            raise ValueError("corrupt HLL payload")
        return h

    @staticmethod
    def merge_payloads(payloads, p: int | None = None) -> "HyperLogLog":
        """Register-max over serialized partials in ONE vectorized pass
        (coordinator / map_groups hot path)."""
        mats = [np.frombuffer(b[1:], dtype=np.uint8) for b in payloads]
        ps = {b[0] for b in payloads}
        if len(ps) != 1:
            raise ValueError("precision mismatch across payloads")
        out = HyperLogLog(ps.pop())
        out.registers = np.maximum.reduce(mats).copy()
        return out


class MisraGries:
    """Misra-Gries heavy-hitters summary (mergeable form, Agarwal et
    al. 2013 "Mergeable Summaries"): at most ``k`` counters; any item
    with true frequency > N/(k+1) is guaranteed present, and each
    reported count under-estimates the truth by at most N/(k+1).
    Merge = sum counters, then subtract the (k+1)-largest count and
    drop non-positives — the guarantee survives any merge tree, so
    per-block partials combine at a coordinator in any order."""

    def __init__(self, k: int = 100):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.counts: dict = {}
        self.offset_total = 0  # total mass subtracted (for error bound)

    def add(self, values, counts=None) -> "MisraGries":
        vals = np.asarray(values)
        if counts is None:
            vals, counts = np.unique(vals, return_counts=True)
        for v, c in zip(vals.tolist(), np.asarray(counts).tolist()):
            self.counts[v] = self.counts.get(v, 0) + int(c)
        self._trim()
        return self

    def merge(self, other: "MisraGries") -> "MisraGries":
        if other.k != self.k:
            raise ValueError("k mismatch")
        for v, c in other.counts.items():
            self.counts[v] = self.counts.get(v, 0) + c
        self.offset_total += other.offset_total
        self._trim()
        return self

    def _trim(self) -> None:
        if len(self.counts) <= self.k:
            return
        cs = sorted(self.counts.values(), reverse=True)
        cut = cs[self.k]  # (k+1)-largest
        self.offset_total += cut
        self.counts = {
            v: c - cut for v, c in self.counts.items() if c - cut > 0
        }

    def top(self, n: int = 10) -> list[tuple[object, int]]:
        """(value, lower-bound count) by (count desc, value asc)."""
        return sorted(self.counts.items(), key=lambda r: (-r[1], r[0]))[:n]

    def to_items(self) -> tuple[list, list]:
        vals = sorted(self.counts)
        return vals, [self.counts[v] for v in vals]


def _k1(q: np.ndarray | float, delta: float):
    """k1 (arcsine) scale function — tight centroids at the tails."""
    return delta / (2.0 * math.pi) * np.arcsin(2.0 * np.asarray(q) - 1.0)


class TDigest:
    """Merging t-digest over (mean, weight) centroid arrays."""

    def __init__(self, delta: float = 100.0):
        if delta < 10:
            raise ValueError("delta too small")
        self.delta = float(delta)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> float:
        return float(self.weights.sum())

    @property
    def min(self) -> float:
        """Exact smallest value added (inf while empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Exact largest value added (-inf while empty)."""
        return self._max

    def add(self, values, weights=None) -> "TDigest":
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return self
        w = (
            np.ones(v.size, dtype=np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64).ravel()
        )
        self._min = min(self._min, float(v.min()))
        self._max = max(self._max, float(v.max()))
        self._compress(
            np.concatenate([self.means, v]), np.concatenate([self.weights, w])
        )
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        if other.means.size:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
            self._compress(
                np.concatenate([self.means, other.means]),
                np.concatenate([self.weights, other.weights]),
            )
        return self

    def _compress(self, means: np.ndarray, weights: np.ndarray) -> None:
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()
        out_m: list[float] = []
        out_w: list[float] = []
        acc_m, acc_w = means[0], weights[0]
        q_left = 0.0
        k_left = _k1(0.0, self.delta)
        for i in range(1, means.size):
            q_right = (acc_w + weights[i] + q_left * total) / total
            if _k1(min(q_right, 1.0), self.delta) - k_left <= 1.0:
                # weighted-mean update keeps the pass single-scan
                acc_m += (means[i] - acc_m) * (weights[i] / (acc_w + weights[i]))
                acc_w += weights[i]
            else:
                out_m.append(acc_m)
                out_w.append(acc_w)
                q_left += acc_w / total
                k_left = _k1(q_left, self.delta)
                acc_m, acc_w = means[i], weights[i]
        out_m.append(acc_m)
        out_w.append(acc_w)
        self.means = np.asarray(out_m)
        self.weights = np.asarray(out_w)

    def quantile(self, q: float) -> float:
        if self.means.size == 0:
            return math.nan
        if self.means.size == 1:
            return float(self.means[0])
        q = min(max(q, 0.0), 1.0)
        total = self.weights.sum()
        if q <= 0:
            return self._min
        if q >= 1:
            return self._max
        target = q * total
        # centroid i spans cumulative mass (c_i - w_i/2, c_i + w_i/2]
        cum = np.cumsum(self.weights) - self.weights / 2.0
        if target <= cum[0]:
            frac = target / cum[0]
            return self._min + frac * (float(self.means[0]) - self._min)
        if target >= cum[-1]:
            span = total - cum[-1]
            frac = (target - cum[-1]) / span if span > 0 else 1.0
            return float(self.means[-1]) + frac * (self._max - float(self.means[-1]))
        i = int(np.searchsorted(cum, target, side="right"))
        frac = (target - cum[i - 1]) / (cum[i] - cum[i - 1])
        return float(self.means[i - 1] + frac * (self.means[i] - self.means[i - 1]))

    def quantiles(self, qs) -> np.ndarray:
        return np.asarray([self.quantile(q) for q in np.asarray(qs, dtype=np.float64)])

    # -- wire format ---------------------------------------------------
    def to_bytes(self) -> bytes:
        head = np.asarray(
            [self.delta, self._min, self._max, float(self.means.size)],
            dtype=np.float64,
        )
        return head.tobytes() + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        head = np.frombuffer(b[:32], dtype=np.float64)
        t = cls(head[0])
        t._min, t._max = float(head[1]), float(head[2])
        n = int(head[3])
        body = np.frombuffer(b[32:], dtype=np.float64)
        if body.size != 2 * n:
            raise ValueError("corrupt TDigest payload")
        t.means = body[:n].copy()
        t.weights = body[n:].copy()
        return t
