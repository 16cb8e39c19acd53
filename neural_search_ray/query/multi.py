"""Multi-index search (index aliases / cross-index / cross-cluster).

Reference restatement: OpenSearch serves one query over several
indexes (an alias, an index pattern, or cross-cluster targets) with an
optional per-index boost (``indices_boost``). By default
(``query_then_fetch``) every shard scores with ITS OWN index's
statistics — BM25 idf/avgdl differ per index, so scores are not
globally comparable; ``search_type=dfs_query_then_fetch`` adds a
pre-phase that collects GLOBAL term/collection statistics across all
target shards so every hit is scored on the same scale.

Ray-native restatement: one IndexSearcher per target index.

- ``query_then_fetch``: each index scores locally (its manifest's
  N/avgdl, its own dfs), scores multiply by the index boost, and the
  coordinator merges per-index top-k — one RPC-equivalent round.
- ``dfs_query_then_fetch``: phase 1 resolves N = Σ n_docs,
  avgdl = Σ sum_dl / Σ n_docs and df(term) = Σ local df across the
  indexes; phase 2 re-opens each searcher WITH the stats override
  (tf-norms are precomputed at postings decode, so the override must
  be present at construction) and scores with global dfs. When the
  indexes partition one corpus, the result is float-for-float
  IDENTICAL to a single index over the union — the property the SQL
  oracle pins.

Doc ids must be unique across the target indexes (this engine's ids
are global by construction; the OpenSearch analogue is the _index
qualifier on every hit).
"""

from __future__ import annotations

import numpy as np

from .bm25 import topk_desc
from .engine import IndexSearcher


class MultiIndexSearcher:
    def __init__(
        self,
        index_dirs: list[str],
        *,
        boosts: list[float] | None = None,
    ):
        if not index_dirs:
            raise ValueError("need at least one index")
        self.dirs = list(index_dirs)
        self.boosts = (
            [1.0] * len(index_dirs) if boosts is None else list(boosts)
        )
        if len(self.boosts) != len(self.dirs):
            raise ValueError("boosts must align with index_dirs")
        self._local = [IndexSearcher(d) for d in self.dirs]
        self._dfs: list[IndexSearcher] | None = None

    def _dfs_searchers(self) -> list[IndexSearcher]:
        """Searchers opened under the cross-index stats (built once:
        the dfs phase-1 stats are immutable for built indexes)."""
        if self._dfs is None:
            n = sum(s.n_docs for s in self._local)
            total_dl = sum(s.total_tokens() for s in self._local)
            avgdl = total_dl / n if n else 0.0
            self._dfs = [
                IndexSearcher(d, stats_override=(n, avgdl))
                for d in self.dirs
            ]
        return self._dfs

    def search_bm25(
        self,
        terms: list[str],
        k: int = 10,
        *,
        mode: str = "query_then_fetch",
    ) -> tuple[np.ndarray, np.ndarray]:
        if mode not in ("query_then_fetch", "dfs_query_then_fetch"):
            raise ValueError(f"unknown search_type: {mode}")
        sterms = sorted(set(terms))
        parts = []
        if mode == "query_then_fetch":
            for s, boost in zip(self._local, self.boosts):
                docs, scores = s.search_bm25(sterms, k)
                parts.append((docs, scores * boost))
        else:
            searchers = self._dfs_searchers()
            gdfs = np.zeros(len(sterms), dtype=np.float64)
            for s in searchers:
                gdfs += np.asarray(
                    [s.local_df(t) for t in sterms], dtype=np.float64
                )
            for s, boost in zip(searchers, self.boosts):
                docs, scores = s.search_bm25(sterms, k, global_dfs=gdfs)
                parts.append((docs, scores * boost))
        docs = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
        return topk_desc(docs, scores, k)
