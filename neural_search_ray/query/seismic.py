"""SEISMIC-style sparse ANN query: cluster-skipping upfront search.

Re-specified from sparse/query/SeismicBaseScorer.java:99-220 and
SparseAnnQueryBuilder.java:65-240 (behavior, not code):

- query-cut to ``top_n`` tokens (default 10);
- iterate the query terms' posting CLUSTERS; once the heap holds k docs,
  a cluster is skipped when ``summary · query < heap_min / heap_factor``
  (heap_factor default 1.0 — higher factor = fewer skips = higher
  recall);
- docs in a visited cluster are scored EXACTLY against the full query
  via the forward index (SparseVector.dot analogue), each doc scored at
  most once (visited set = the LongBitSet analogue);
- final (score desc, doc_id asc) top-k.

Approximate by design: tests assert recall vs the exact scorer, plus
exactness in the no-skip limit (heap_factor → inf).
"""

from __future__ import annotations

import heapq
import os
from collections import defaultdict

import numpy as np
import pyarrow.parquet as pq

from ..index.codec import varint_decode
from ..index.forward import ShardForward
from ..index.manifest import IndexManifest
from ..index.seismic import SEISMIC_DIR
from .bm25 import topk_desc
from .sparse import query_cut


class SeismicSearcher:
    """Loads clustered postings + forward CSR for a set of shards."""

    def __init__(self, index_dir: str, shards: list[int] | None = None):
        manifest = IndexManifest.load(index_dir)
        if manifest is None:
            raise FileNotFoundError(index_dir)
        self.manifest = manifest
        shard_list = (
            list(shards) if shards is not None else list(range(manifest.num_doc_shards))
        )
        self.forward: dict[int, ShardForward] = {
            s: ShardForward(index_dir, s) for s in shard_list
        }
        # (shard, term) → list of clusters (docs, tfs, summary_tids, summary_ws)
        self.clusters: dict[tuple[int, str], list] = defaultdict(list)
        for s in shard_list:
            path = os.path.join(index_dir, SEISMIC_DIR, f"clusters_s{s:04d}.parquet")
            if not os.path.exists(path):
                continue
            t = pq.read_table(path)
            for term, db, tb, stids, sws in zip(
                t["term"].to_pylist(), t["docs"].to_pylist(), t["tfs"].to_pylist(),
                t["summary_tids"].to_pylist(), t["summary_weights"].to_pylist(),
            ):
                docs = np.cumsum(varint_decode(db))
                tfs = varint_decode(tb)
                self.clusters[(s, term)].append(
                    (docs, tfs, np.asarray(stids, dtype=np.int64),
                     np.asarray(sws, dtype=np.float64))
                )

    def search(
        self,
        token_weights: dict[str, float],
        k: int = 10,
        top_n: int = 10,
        heap_factor: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        q = query_cut(token_weights, top_n)
        # process terms in query-weight desc order (reference's upfront order)
        terms = sorted(q, key=lambda t: (-q[t], t))
        out_docs: list[np.ndarray] = []
        out_scores: list[np.ndarray] = []
        heap: list[float] = []  # min-heap of current top-k scores
        for shard, fwd in self.forward.items():
            qvec = np.zeros(len(fwd.terms))
            for t, w in q.items():
                tid = fwd.term_id.get(t)
                if tid is not None:
                    qvec[tid] = w
            # visited bitset over the shard's doc positions (the LongBitSet
            # analogue) — vectorized, no per-doc Python membership checks
            visited = np.zeros(fwd.doc_ids.size, dtype=bool)
            for t in terms:
                for docs, tfs, s_tids, s_ws in self.clusters.get((shard, t), []):
                    if len(heap) >= k:
                        summary_dot = float((qvec[s_tids] * s_ws).sum()) if s_tids.size else 0.0
                        if summary_dot < heap[0] / heap_factor:
                            continue  # cluster skipped
                    idx = np.searchsorted(fwd.doc_ids, docs)
                    fresh = ~visited[idx]
                    if not fresh.any():
                        continue
                    idx = idx[fresh]
                    visited[idx] = True
                    scores = fwd.dot_scores(idx, qvec)
                    out_docs.append(docs[fresh])
                    out_scores.append(scores)
                    for sc in scores:
                        if len(heap) < k:
                            heapq.heappush(heap, float(sc))
                        elif sc > heap[0]:
                            heapq.heapreplace(heap, float(sc))
        if not out_docs:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return topk_desc(
            np.concatenate(out_docs).astype(np.int64),
            np.concatenate(out_scores).astype(np.float64),
            k,
        )
