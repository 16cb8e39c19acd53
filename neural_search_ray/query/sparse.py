"""Sparse (neural_sparse-style) query helpers: query-cut, filtered search.

- ``query_cut``: keep the top_n highest-weight query tokens (default 10)
  — the reference's query-cut in SparseAnnQueryBuilder.java:67-87,226-237
  (ties pinned (weight desc, token asc); the reference's map order is
  non-deterministic, our oracle defines it).
- ``filtered_topk``: accepted-docs mask honored before top-k — the filter
  conjunction of sparse/query/OrderedPostingWithClustersScorer.java:28-40
  / SeismicBaseScorer.java:105-107 (filter pushdown, SURVEY.md §2.9).
"""

from __future__ import annotations

import numpy as np

from .bm25 import topk_desc
from .engine import IndexSearcher


def query_cut(token_weights: dict[str, float], top_n: int = 10) -> dict[str, float]:
    items = sorted(token_weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return dict(items[:top_n])


def search_neural_sparse(
    searcher: IndexSearcher,
    token_weights: dict[str, float],
    k: int = 10,
    top_n: int = 10,
    accepted_doc_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """neural_sparse query: query-cut then dot-product top-k, optionally
    restricted to an accepted-docs set (sorted int64 array)."""
    cut = query_cut(token_weights, top_n)
    if accepted_doc_ids is None:
        return searcher.search_sparse_dot(cut, k)
    return filtered_sparse_topk(searcher, cut, k, accepted_doc_ids)


def filtered_sparse_topk(
    searcher: IndexSearcher,
    token_weights: dict[str, float],
    k: int,
    accepted_doc_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    accepted = np.unique(np.asarray(accepted_doc_ids, dtype=np.int64))
    terms = sorted(token_weights)
    scores = np.zeros(accepted.size, dtype=np.float64)
    seen = np.zeros(accepted.size, dtype=bool)
    for t in terms:
        docs, tfs = searcher.postings(t)
        if docs.size == 0:
            continue
        pos = np.searchsorted(accepted, docs)
        pos_c = np.minimum(pos, max(accepted.size - 1, 0))
        m = accepted.size > 0
        match = (pos < accepted.size) & (accepted[pos_c] == docs) if m else np.zeros(0, bool)
        sel = pos_c[match]
        scores[sel] += token_weights[t] * tfs[match]
        seen[sel] = True
    cand = accepted[seen]
    return topk_desc(cand, scores[seen], k)


def filtered_bm25_topk(
    searcher: IndexSearcher,
    terms: list[str],
    k: int,
    accepted_doc_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """BM25 with filter pushdown: candidates ∩ accepted before scoring.
    Global stats (df, N, avgdl) are UNfiltered — matching Lucene, where a
    filter restricts matches but not corpus statistics."""
    terms = sorted(set(terms))
    accepted = np.unique(np.asarray(accepted_doc_ids, dtype=np.int64))
    scores = searcher._score_candidates(accepted, terms, searcher._idfs(terms), None)
    hit = scores > 0.0
    return topk_desc(accepted[hit], scores[hit], k)


def filtered_bm25_topk_pred(
    searcher: IndexSearcher,
    terms: list[str],
    k: int,
    column: str,
    op: str,
    value,
) -> tuple[np.ndarray, np.ndarray]:
    """BM25 with a PREDICATE filter evaluated engine-side against the
    shard doc-values (index/docvalues.py) — the caller ships (column,
    op, value), never an accepted-id array (which is O(N) for broad
    filters). This is the filter-conjunction shape a distributed shard
    actor uses: predicate → shard-local accepted set → candidate ∩
    accepted before scoring."""
    return filtered_bm25_topk(searcher, terms, k, searcher.accepted_ids(column, op, value))
