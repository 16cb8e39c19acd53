"""Forward index: per-doc sparse vectors, doc-shard-local CSR layout.

Reference: the forward index is a per-doc BinaryDocValues blob of
(int32 tokenId, float32 weight) pairs (sparse/mapper/SparseVectorFieldMapper.java:176-192,
decoded sparse/data/SparseVector.java:89-104), cached per segment
(sparse/cache/ForwardIndexCache.java:15). It powers SEISMIC clustering
(cluster assignment needs doc·centroid dot products,
RandomClusteringAlgorithm.java:58-69) and exact rescoring.

Ray restatement: the forward index of shard S is the TRANSPOSE of shard
S's posting files — built shard-locally (one Ray task per shard, NO
cluster-wide shuffle; the doc-sharded layout makes the transpose local),
stored as CSR Parquet per shard:

  terms dict:   term_id → term (shard-local dictionary)
  rows:         (doc_id sorted, offsets into flat arrays)
  flat arrays:  term_ids int32, weights float32 (= tf for analyzer encoding)
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from .codec import decode_rows, row_columns
from .manifest import DOCLEN_BUCKET, IndexManifest

FORWARD_DIR = "forward"


def _build_shard_forward(index_dir: str, shard: int, manifest: IndexManifest) -> dict:
    from ..runtime import ensure_worker_tuned

    ensure_worker_tuned()
    quantized = manifest.weight_quantization == "u8"
    if quantized:
        from ..stages.quantize import byte_quantize, feature_decode
    term_ids: dict[str, int] = {}  # shard-local ids, first-seen order
    all_docs: list[np.ndarray] = []
    all_tids: list[np.ndarray] = []
    all_w: list[np.ndarray] = []
    for seg in manifest.complete_segments():
        for f in seg["files"]:
            if f["doc_shard"] != shard or f["term_bucket"] == DOCLEN_BUCKET:
                continue
            t = pq.read_table(
                os.path.join(index_dir, f["path"]), columns=row_columns(False)
            )
            if not t.num_rows:
                continue
            docs, tfs, dfs, _ = decode_rows(t, manifest.posting_codec)
            tids = [term_ids.setdefault(x, len(term_ids))
                    for x in t["term"].to_pylist()]
            all_docs.append(docs)
            all_tids.append(np.repeat(np.asarray(tids, dtype=np.int32), dfs))
            if quantized:
                # quantized tier: store the u8 code (1 byte/entry on
                # disk — the reference forward index's footprint,
                # SparseVectorFieldMapper.java quantized storage)
                all_w.append(byte_quantize(feature_decode(tfs)))
            else:
                all_w.append(tfs.astype(np.float32))
    terms_list = list(term_ids)
    if not all_docs:
        flat_docs = np.empty(0, np.int64)
        flat_tids = np.empty(0, np.int32)
        flat_w = np.empty(0, np.float32)
    else:
        flat_docs = np.concatenate(all_docs)
        flat_tids = np.concatenate(all_tids)
        flat_w = np.concatenate(all_w)
    order = np.lexsort((flat_tids, flat_docs))
    flat_docs, flat_tids, flat_w = flat_docs[order], flat_tids[order], flat_w[order]
    # CSR rows
    change = np.flatnonzero(np.diff(flat_docs) != 0)
    row_starts = np.concatenate(([0], change + 1)) if flat_docs.size else np.empty(0, np.int64)
    doc_ids = flat_docs[row_starts] if flat_docs.size else np.empty(0, np.int64)
    offsets = np.concatenate((row_starts, [flat_docs.size])).astype(np.int64)

    out_dir = os.path.join(index_dir, FORWARD_DIR)
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(
        pa.table({"term_id": np.arange(len(terms_list), dtype=np.int32),
                  "term": pa.array(terms_list, type=pa.string())}),
        os.path.join(out_dir, f"terms_s{shard:04d}.parquet"),
    )
    pq.write_table(
        pa.table({"doc_id": doc_ids, "offset": offsets[:-1], "length": np.diff(offsets)}),
        os.path.join(out_dir, f"rows_s{shard:04d}.parquet"),
    )
    pq.write_table(
        pa.table({"term_id": flat_tids, "weight": flat_w}),
        os.path.join(out_dir, f"flat_s{shard:04d}.parquet"),
    )
    return {
        "shard": shard,
        "n_docs": int(doc_ids.size),
        "n_entries": int(flat_docs.size),
        "n_terms": len(terms_list),
    }


def build_forward_index(index_dir: str) -> list[dict]:
    """One Ray task per doc shard (shard-local transpose, no shuffle)."""
    manifest = IndexManifest.load(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)
    shards = list(range(manifest.num_doc_shards))

    @ray.remote
    def task(s):
        return _build_shard_forward(index_dir, s, manifest)

    return ray.get([task.remote(s) for s in shards])


class ShardForward:
    """In-memory CSR forward index for one shard (query/cluster side)."""

    def __init__(self, index_dir: str, shard: int):
        d = os.path.join(index_dir, FORWARD_DIR)
        terms = pq.read_table(os.path.join(d, f"terms_s{shard:04d}.parquet"))
        rows = pq.read_table(os.path.join(d, f"rows_s{shard:04d}.parquet"))
        flat = pq.read_table(os.path.join(d, f"flat_s{shard:04d}.parquet"))
        self.terms: list[str] = terms["term"].to_pylist()
        self.term_id: dict[str, int] = {t: i for i, t in enumerate(self.terms)}
        self.doc_ids = rows["doc_id"].to_numpy()
        self.offsets = np.concatenate(
            (rows["offset"].to_numpy(), [len(flat)])
        ).astype(np.int64)
        self.flat_tids = flat["term_id"].to_numpy()
        w = flat["weight"]
        if pa.types.is_uint8(w.type):
            # quantized tier: dequantize the stored u8 codes at load
            # (ByteQuantizer ceiling 3.0); disk stays 1 byte per entry
            from ..stages.quantize import INGEST_CEILING

            self.flat_w = (
                w.to_numpy().astype(np.float64) * INGEST_CEILING / 255.0
            )
        else:
            self.flat_w = w.to_numpy().astype(np.float64)

    def row_slices(self, doc_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flat positions, per-doc lengths, reduce boundaries) for docs
        given by POSITION in self.doc_ids."""
        starts = self.offsets[doc_idx]
        lens = self.offsets[doc_idx + 1] - starts
        pos = np.repeat(starts, lens) + (
            np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
        )
        bounds = np.concatenate(([0], np.cumsum(lens)[:-1]))
        return pos, lens, bounds

    def dot_scores(self, doc_idx: np.ndarray, qvec: np.ndarray) -> np.ndarray:
        """Sparse dot of each doc row with a dense query vector indexed by
        term_id (vectorized: gather + segmented reduce)."""
        if doc_idx.size == 0:
            return np.empty(0, np.float64)
        pos, lens, bounds = self.row_slices(doc_idx)
        if pos.size == 0:
            return np.zeros(doc_idx.size)
        vals = qvec[self.flat_tids[pos]] * self.flat_w[pos]
        out = np.add.reduceat(vals, np.minimum(bounds, vals.size - 1))
        out[lens == 0] = 0.0
        return out
