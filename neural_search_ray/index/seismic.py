"""SEISMIC-style posting-list clustering (sparse ANN build side).

Re-specified from the reference (behavior, not code):
- per term with df >= ``approximate_threshold``, cluster its postings:
  ``n_clusters = ceil(cluster_ratio * df)`` (default ratio 0.1,
  SparseConstants.java:30, RandomClusteringAlgorithm.java:52);
- RANDOM centroids sampled from the posting docs (seeded here:
  RandomState(seed ^ crc32(term)) — the reference's randomness is
  unseeded; our oracle pins determinism), each posting doc assigned to
  the centroid with max doc·centroid dot product
  (RandomClusteringAlgorithm.java:42-91, forward-index lookups);
- per-cluster summary = token-wise MAX of member vectors, pruned to
  ``summary_prune_ratio`` (0.4) of its weight mass by alpha_mass
  (PostingsProcessingUtils.java:70-108);
- clusters keep docID-sorted members (DocumentCluster.java:52-61).

Build shape: one Ray task per doc shard (ray.data over shard ids) —
clustering is shard-local (forward index + postings of that shard), the
same locality the reference gets from per-segment merge clustering
(SparsePostingsReader.java:47-145). Output sidecar Parquet per shard:
(term, cluster_id, doc_ids varint, tfs varint, summary_tids list<int32>,
summary_weights list<float32>).
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from .codec import decode_rows, row_columns, varint_encode
from .forward import ShardForward
from .manifest import DOCLEN_BUCKET, IndexManifest

SEISMIC_DIR = "seismic"
DEFAULT_CLUSTER_RATIO = 0.1
DEFAULT_SUMMARY_PRUNE_RATIO = 0.4
DEFAULT_APPROXIMATE_THRESHOLD = 1_000_000  # reference default; tests use small


def _summarize(
    fwd: ShardForward, member_idx: np.ndarray, prune_ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Token-wise max over member forward vectors, alpha-mass pruned."""
    pos, _, _ = fwd.row_slices(member_idx)
    tids = fwd.flat_tids[pos]
    ws = fwd.flat_w[pos]
    order = np.lexsort((-ws, tids))
    tids_s, ws_s = tids[order], ws[order]
    first = np.concatenate(([True], np.diff(tids_s) != 0))
    u_tids, u_ws = tids_s[first], ws_s[first]  # max per token
    # alpha-mass prune: sort desc by weight (ties: token id asc), keep
    # until cumulative mass crosses ratio * total, INCLUDING the item
    # that crosses it (PostingsProcessingUtils.summarize breaks after
    # adding the crossing item, so a summary is never empty).
    o2 = np.lexsort((u_tids, -u_ws))
    w_sorted = u_ws[o2]
    cum = np.cumsum(w_sorted)
    keep = (cum - w_sorted) < prune_ratio * w_sorted.sum()
    sel = o2[keep]
    sel.sort()
    return u_tids[sel], u_ws[sel].astype(np.float32)


def _cluster_shard(
    index_dir: str,
    shard: int,
    manifest: IndexManifest,
    cluster_ratio: float,
    summary_prune_ratio: float,
    approximate_threshold: int,
    seed: int,
) -> dict:
    from ..runtime import ensure_worker_tuned

    ensure_worker_tuned()
    fwd = ShardForward(index_dir, shard)
    rows: dict[str, list] = {
        "term": [], "cluster_id": [], "docs": [], "tfs": [],
        "summary_tids": [], "summary_weights": [],
    }
    n_terms = 0
    for seg in manifest.complete_segments():
        for f in seg["files"]:
            if f["doc_shard"] != shard or f["term_bucket"] == DOCLEN_BUCKET:
                continue
            t = pq.read_table(
                os.path.join(index_dir, f["path"]), columns=row_columns(False)
            )
            hot = np.flatnonzero(t["df"].to_numpy() >= approximate_threshold)
            if not hot.size:
                continue
            all_docs, all_tfs, dfs, _ = decode_rows(t, manifest.posting_codec)
            row_start = np.cumsum(dfs) - dfs
            terms = t["term"].to_pylist()
            for r in hot:
                df = int(dfs[r])
                term = terms[r]
                docs = all_docs[row_start[r] : row_start[r] + df]
                tfs = all_tfs[row_start[r] : row_start[r] + df]
                doc_idx = np.searchsorted(fwd.doc_ids, docs)
                n_clusters = max(1, int(np.ceil(cluster_ratio * df)))
                rng = np.random.RandomState(
                    (seed ^ zlib.crc32(term.encode())) & 0x7FFFFFFF
                )
                cent_sel = rng.choice(df, size=n_clusters, replace=False)
                # assignment: doc·centroid dot via forward CSR; compute a
                # dense centroid matrix over the UNION of centroid tokens
                cpos, clens, cbounds = fwd.row_slices(doc_idx[cent_sel])
                cent_tids = fwd.flat_tids[cpos]
                u_tokens = np.unique(cent_tids)
                tok_pos = {int(tk): i for i, tk in enumerate(u_tokens)}
                C = np.zeros((n_clusters, u_tokens.size))
                cid_per_entry = np.repeat(np.arange(n_clusters), clens)
                C[cid_per_entry, np.searchsorted(u_tokens, cent_tids)] = fwd.flat_w[cpos]
                # each member doc: dot with every centroid (docs restricted
                # to centroid-token union — same as the reference's
                # forward-vector dot). Chunked so the dense doc-block
                # matrix stays bounded regardless of df.
                assign = np.empty(df, dtype=np.int64)
                CHUNK = 8192
                for s0 in range(0, df, CHUNK):
                    e0 = min(s0 + CHUNK, df)
                    mpos, mlens, _ = fwd.row_slices(doc_idx[s0:e0])
                    m_tids = fwd.flat_tids[mpos]
                    m_w = fwd.flat_w[mpos]
                    in_u = np.isin(m_tids, u_tokens)
                    col = np.searchsorted(u_tokens, m_tids[in_u])
                    row = np.repeat(np.arange(e0 - s0), mlens)[in_u]
                    M = np.zeros((e0 - s0, u_tokens.size))
                    M[row, col] = m_w[in_u]
                    assign[s0:e0] = np.argmax(M @ C.T, axis=1)
                for c in range(n_clusters):
                    mask = assign == c
                    if not mask.any():
                        continue
                    members = np.flatnonzero(mask)
                    mdocs = docs[members]          # docID-sorted already
                    mtfs = tfs[members]
                    s_tids, s_ws = _summarize(
                        fwd, doc_idx[members], summary_prune_ratio
                    )
                    # the sidecar keeps its own varint rows, whatever the
                    # index's posting codec (query/seismic.py reads them)
                    deltas = np.empty_like(mdocs)
                    deltas[0] = mdocs[0]
                    np.subtract(mdocs[1:], mdocs[:-1], out=deltas[1:])
                    rows["term"].append(term)
                    rows["cluster_id"].append(c)
                    rows["docs"].append(varint_encode(deltas))
                    rows["tfs"].append(varint_encode(mtfs))
                    rows["summary_tids"].append(s_tids.tolist())
                    rows["summary_weights"].append(s_ws.tolist())
                n_terms += 1
    out_dir = os.path.join(index_dir, SEISMIC_DIR)
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "term": pa.array(rows["term"], type=pa.string()),
                "cluster_id": pa.array(rows["cluster_id"], type=pa.int32()),
                "docs": pa.array(rows["docs"], type=pa.binary()),
                "tfs": pa.array(rows["tfs"], type=pa.binary()),
                "summary_tids": pa.array(rows["summary_tids"], type=pa.list_(pa.int32())),
                "summary_weights": pa.array(
                    rows["summary_weights"], type=pa.list_(pa.float32())
                ),
            }
        ),
        os.path.join(out_dir, f"clusters_s{shard:04d}.parquet"),
    )
    return {"shard": shard, "clustered_terms": n_terms, "clusters": len(rows["term"])}


def build_seismic(
    index_dir: str,
    cluster_ratio: float = DEFAULT_CLUSTER_RATIO,
    summary_prune_ratio: float = DEFAULT_SUMMARY_PRUNE_RATIO,
    approximate_threshold: int = DEFAULT_APPROXIMATE_THRESHOLD,
    seed: int = 42,
) -> list[dict]:
    """Cluster hot posting lists shard-by-shard (requires
    build_forward_index first)."""
    manifest = IndexManifest.load(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)

    @ray.remote
    def task(s):
        return _cluster_shard(
            index_dir, s, manifest, cluster_ratio, summary_prune_ratio,
            approximate_threshold, seed,
        )

    return ray.get([task.remote(s) for s in range(manifest.num_doc_shards)])
