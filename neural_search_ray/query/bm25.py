"""Exact Lucene-default BM25 scoring math (vectorized).

score(q, d) = Σ_{t ∈ q∩d} idf(t) · tf_t / (tf_t + k1·(1 − b + b·dl/avgdl))
idf(t) = ln(1 + (N − df + 0.5)/(df + 0.5))

k1 = 1.2, b = 0.75 (Lucene defaults, pinned by BASELINE.json north star;
consumed in the reference through OpenSearch/Lucene core by the hybrid
query path — SURVEY.md §2.9). Pinned oracle decision: dl is the EXACT
post-analysis token count (no SmallFloat norm quantization); both this
engine and the DuckDB/pytest oracles use the same formula in float64,
summed in ascending-term order, ties broken by doc_id asc.
"""

from __future__ import annotations

import numpy as np


def dl_quantize_norm4(dl: np.ndarray) -> np.ndarray:
    """SmallFloat-STYLE 4-bit-mantissa doc-length quantization (the
    Lucene byte-norm analogue; SURVEY.md §7.2 item 5 pins the choice —
    we define this exact rule and use it in BOTH engine and oracle, NOT
    claiming bit parity with Lucene's SmallFloat): values < 8 are exact;
    larger values keep their top 4 significant bits (round-down)."""
    dl = np.asarray(dl, dtype=np.int64)
    out = dl.copy()
    big = dl >= 8
    if big.any():
        v = dl[big]
        nbits = np.zeros(v.shape, dtype=np.int64)
        tmp = v.copy()
        while (tmp > 0).any():
            nbits[tmp > 0] += 1
            tmp >>= 1
        shift = nbits - 4
        out[big] = (v >> shift) << shift
    return out


def bm25_idf(df: np.ndarray | float, n_docs: int) -> np.ndarray | float:
    """Lucene BM25 idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    df = np.asarray(df, dtype=np.float64)
    return np.log1p((n_docs - df + 0.5) / (df + 0.5))


def bm25_term_idfs(dfs, n_docs: int) -> np.ndarray:
    """Per-term idfs of a query; a term absent from the collection
    (df 0) gets idf 0, so it adds nothing to any score."""
    dfs = np.asarray(dfs, dtype=np.float64)
    return np.where(dfs > 0, bm25_idf(np.maximum(dfs, 1e-9), n_docs), 0.0)


def topk_desc(doc_ids: np.ndarray, scores: np.ndarray, k: int):
    """Top-k by (score desc, doc_id asc) — Lucene's (score, doc) ordering —
    using argpartition (no full sort)."""
    n = doc_ids.size
    if n == 0:
        return doc_ids[:0], scores[:0]
    k = min(k, n)
    if n > 4 * k:
        part = np.argpartition(-scores, k - 1)[:k]
        kth = scores[part].min()
        # include every doc tied with the k-th score so tiebreak is exact
        pool = np.flatnonzero(scores >= kth)
    else:
        pool = np.arange(n)
    order = np.lexsort((doc_ids[pool], -scores[pool]))[:k]
    sel = pool[order]
    return doc_ids[sel], scores[sel]
