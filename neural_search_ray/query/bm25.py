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

from ..config import BM25Config


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


def bm25_tf_norm(
    tf: np.ndarray, dl: np.ndarray, avgdl: float, cfg: BM25Config = BM25Config()
) -> np.ndarray:
    """tf / (tf + k1*(1 - b + b*dl/avgdl)) in float64."""
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    denom = tf + cfg.k1 * (1.0 - cfg.b + cfg.b * dl / avgdl)
    return tf / denom


def bm25_score_terms(
    term_dfs: np.ndarray,
    term_tfs: list[np.ndarray],
    term_doc_ids: list[np.ndarray],
    doc_len: np.ndarray,
    doc_id_base: int,
    n_docs: int,
    avgdl: float,
    cfg: BM25Config = BM25Config(),
    query_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score the union of posting lists for one query against one partition.

    term_doc_ids[i] are absolute docIDs; doc_len is indexed by
    (doc_id - doc_id_base). Returns (candidate_doc_ids, scores) with
    deterministic accumulation order (terms in given order, float64).
    """
    if not term_doc_ids:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    all_docs = np.concatenate(term_doc_ids)
    cand = np.unique(all_docs)  # sorted unique candidates (visited-bitset analogue)
    scores = np.zeros(cand.size, dtype=np.float64)
    idfs = bm25_idf(term_dfs, n_docs)
    for i, (docs, tfs) in enumerate(zip(term_doc_ids, term_tfs)):
        if docs.size == 0:
            continue
        dl = doc_len[docs - doc_id_base]
        contrib = idfs[i] * bm25_tf_norm(tfs, dl, avgdl, cfg)
        if query_weights is not None:
            contrib = contrib * query_weights[i]
        pos = np.searchsorted(cand, docs)
        scores[pos] += contrib
    return cand, scores


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
