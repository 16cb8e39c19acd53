"""Segment merge / compaction: N complete segments → one merged segment.

The reference's merge path re-groups terms across segments and rewrites
posting files (sparse/codec/SparsePostingsReader.java:47-145 drives merge
batches of 50 terms; SparsePostingsConsumer.java:87-181 writes the merged
output; Lucene triggers it as segment merge / force-merge). Ray restatement:
one task per (doc_shard, term_bucket) group reads that group's posting file
from EVERY source segment, decodes it (codec.py ``decode_rows``),
concatenates, re-sorts by docID, re-encodes through the build's writer
(``encode_rows``), and writes the merged file; doc-length sidecars
concatenate the same way. The driver only touches the manifest.

Semantics:
- doc IDs are globally unique across segments (build invariant), so a
  merged posting list is the plain union — queries over the merged segment
  are rank-identical to multi-segment queries over the sources (tested).
- static n_postings pruning is applied per flush, not re-applied at merge
  (the merged list is the union of the per-segment survivors) — this is
  what the multi-segment query computes today, so merge never changes
  results. A re-prune pass would be a behavior change, not a compaction.
- crash-safe: merged files land under segments/<merged_id>/ first; the
  manifest swap (old entries removed, merged entry added) is one atomic
  save; old segment directories are deleted only after the save. A crash
  mid-merge leaves the manifest pointing at the intact source segments.
- resume: if <merged_id> is already complete in the manifest, no-op.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from .codec import (
    decode_rows,
    doclen_table,
    encode_rows,
    posting_gather,
    row_columns,
)
from .manifest import (
    DOCLEN_BUCKET,
    IndexManifest,
    group_row,
    group_rows_table,
    segment_entry,
)


def _live_mask(values: np.ndarray, drop_sorted: np.ndarray) -> np.ndarray:
    """Boolean mask of ``values`` NOT present in the sorted ``drop_sorted``
    array (vectorized membership via searchsorted; both int64)."""
    pos = np.searchsorted(drop_sorted, values)
    pos_c = np.minimum(pos, max(drop_sorted.size - 1, 0))
    return drop_sorted[pos_c] != values


def _rewrite_group(
    index_dir: str,
    out_seg_id: str,
    shard: int,
    bucket: int,
    paths: list[str],
    codec: str,
    positions: bool,
    drop_sorted: np.ndarray | None = None,
) -> dict:
    """Rewrite one (doc_shard, term_bucket) group: read its posting (or
    doc-length) files from one or more source segments, optionally drop
    tombstoned docIDs, re-sort, re-encode, and write the group file under
    ``segments/<out_seg_id>/``. Shared by segment merge (drop=None) and
    delete purge (index/deletes.py — the Lucene liveDocs-purge path the
    reference inherits via forceMergeDeletes). Returns the group row
    (manifest.group_row)."""
    seg_dir = os.path.join(index_dir, "segments", out_seg_id)
    os.makedirs(seg_dir, exist_ok=True)
    drop = drop_sorted if drop_sorted is not None and drop_sorted.size else None

    if bucket == DOCLEN_BUCKET:
        t = pa.concat_tables(
            [pq.read_table(os.path.join(index_dir, p)) for p in paths]
        )
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dl = t["dl"].to_numpy(zero_copy_only=False)
        if drop is not None and d.size:
            live = _live_mask(d, drop)
            d, dl = d[live], dl[live]
        path = f"segments/{out_seg_id}/doclen_s{shard:04d}.parquet"
        pq.write_table(doclen_table(d, dl), os.path.join(index_dir, path))
        return group_row(shard, bucket, path, n_docs=d.size, sum_dl=dl.sum())

    # only the row columns: files written before the format settled carry
    # an extra block_max_tf column, and mixed sources must concatenate
    t = pa.concat_tables(
        [
            pq.read_table(os.path.join(index_dir, p), columns=row_columns(positions))
            for p in paths
        ]
    )
    flat_doc, flat_tf, dfs, flat_pos = decode_rows(t, codec)
    codes_row, uniq = pd.factorize(t["term"].to_pandas(), sort=True)
    flat_code = np.repeat(codes_row.astype(np.int64), dfs)
    if drop is not None and flat_doc.size:
        live = _live_mask(flat_doc, drop)
        if positions:
            tok_start = np.cumsum(flat_tf) - flat_tf
            flat_pos = flat_pos[
                posting_gather(tok_start, flat_tf, np.flatnonzero(live))
            ]
        flat_doc, flat_tf, flat_code = flat_doc[live], flat_tf[live], flat_code[live]

    order = np.lexsort((flat_doc, flat_code))
    g_pos = None
    if positions:
        tok_start = np.cumsum(flat_tf) - flat_tf
        g_pos = flat_pos[posting_gather(tok_start, flat_tf, order)]
    table = encode_rows(
        flat_code[order], uniq, flat_doc[order], flat_tf[order], codec, g_pos
    )
    path = f"segments/{out_seg_id}/post_s{shard:04d}_b{bucket:05d}.parquet"
    pq.write_table(table, os.path.join(index_dir, path))
    return group_row(
        shard, bucket, path, n_terms=len(table), n_postings=flat_doc.size
    )


def merge_segments(
    index_dir: str,
    merged_id: str = "merged-000",
    *,
    delete_sources: bool = True,
    source_ids: list[str] | None = None,
    apply_deletes: bool = True,
) -> IndexManifest:
    """Merge complete segments of the index into one. Returns the
    updated manifest (unchanged if there are fewer than 2 sources).

    ``source_ids`` restricts the merge to that subset (the tiered-policy
    hook, see compact_tiered); default = every complete segment.

    ``apply_deletes`` (default True, the Lucene behavior): tombstoned
    docs (index/deletes.py) are DROPPED while the merge rewrites — the
    merged segment's n_docs / sum_dl / df are recomputed over survivors,
    while unmerged segments keep stale stats until their own merge or a
    purge_deletes pass. Tombstones are NOT cleared here (other segments
    may still hold the docs); querying already-purged ids through the
    tombstone filter is a no-op."""
    manifest = IndexManifest.load(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    if merged_id in manifest.segments and manifest.segments[merged_id]["complete"]:
        return manifest  # resume no-op
    sources = [
        (sid, seg)
        for sid, seg in manifest.segments.items()
        if seg["complete"] and (source_ids is None or sid in source_ids)
    ]
    if source_ids is not None and len(sources) != len(set(source_ids)):
        missing = set(source_ids) - {sid for sid, _ in sources}
        raise ValueError(f"source segments not complete or unknown: {sorted(missing)}")
    if len(sources) < 2:
        return manifest

    # group → source file paths (relative to index_dir)
    groups: dict[tuple[int, int], list[str]] = {}
    for _, seg in sources:
        for f in seg["files"]:
            groups.setdefault((f["doc_shard"], f["term_bucket"]), []).append(f["path"])

    codec, positions = manifest.posting_codec, manifest.index_positions
    source_ids = sorted(sid for sid, _ in sources)

    # Lucene drops deleted docs as a merge rewrites: broadcast the
    # tombstone set once (None when empty — the common case costs nothing)
    tombs_ref = None
    if apply_deletes:
        from .deletes import load_tombstones

        tombs = load_tombstones(index_dir)
        if tombs.size:
            tombs_ref = ray.put(tombs)

    items = [
        {"doc_shard": s, "term_bucket": b, "paths": paths}
        for (s, b), paths in sorted(groups.items())
    ]

    def merge_group(batch: dict) -> pa.Table:
        drop = ray.get(tombs_ref) if tombs_ref is not None else None
        return group_rows_table(
            [
                _rewrite_group(
                    index_dir, merged_id, int(shard), int(bucket), paths,
                    codec, positions, drop_sorted=drop,
                )
                for shard, bucket, paths in zip(
                    batch["doc_shard"], batch["term_bucket"], batch["paths"]
                )
            ]
        )

    rows = (
        ray.data.from_items(items)
        .map_batches(merge_group, batch_size=1, batch_format="default")
        .take_all()
    )

    # lineage: the direct sources PLUS their own merged:* ancestry, so
    # build_index(resume=True) can recognize any segment ever compacted
    # into this index, across merge generations
    lineage = {f"merged:{sid}" for sid in source_ids}
    for _, src in sources:
        lineage.update(
            e for e in src.get("input_files", []) if e.startswith("merged:")
        )
    for sid, _ in sources:
        del manifest.segments[sid]
    manifest.segments[merged_id] = segment_entry(merged_id, sorted(lineage), rows)
    manifest.save(index_dir)  # atomic swap: os.replace inside save()
    if delete_sources:
        for sid, _ in sources:
            shutil.rmtree(
                os.path.join(index_dir, "segments", sid), ignore_errors=True
            )
    return manifest


def compact_tiered(
    index_dir: str,
    *,
    fanin: int = 4,
    target_segments: int = 1,
    merged_prefix: str = "tier",
    delete_sources: bool = True,
) -> IndexManifest:
    """Tiered compaction policy (the Lucene merge-policy analogue the
    reference inherits — SparsePostingsReader.java:47-145 runs per
    Lucene-CHOSEN merge, never index-wide): repeatedly merge the
    ``fanin`` SMALLEST complete segments (by n_docs, tie: segment id)
    into one, until at most ``target_segments`` remain.

    At continuous-ingest scale this bounds per-pass merge I/O to the
    small tail instead of rewriting the whole index every compaction;
    write amplification is O(log_fanin) per doc instead of O(passes).

    Resumable: each pass is one atomic manifest swap (merge_segments),
    selection is deterministic from the manifest, and pass ids continue
    from the highest existing ``merged_prefix`` generation — re-running
    after a crash mid-sequence repeats only the unfinished pass."""
    if fanin < 2:
        raise ValueError("fanin must be >= 2")
    if target_segments < 1:
        raise ValueError("target_segments must be >= 1")
    manifest = IndexManifest.load(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    while True:
        complete = [
            (sid, seg)
            for sid, seg in manifest.segments.items()
            if seg["complete"]
        ]
        if len(complete) <= max(target_segments, 1):
            return manifest
        # smallest-first, deterministic
        complete.sort(key=lambda kv: (kv[1]["n_docs"], kv[0]))
        picked = [sid for sid, _ in complete[: min(fanin, len(complete))]]
        gen = -1
        for sid in manifest.segments:
            if sid.startswith(f"{merged_prefix}-"):
                try:
                    gen = max(gen, int(sid.rsplit("-", 1)[1]))
                except ValueError:
                    pass
        merged_id = f"{merged_prefix}-{gen + 1:03d}"
        manifest = merge_segments(
            index_dir,
            merged_id,
            delete_sources=delete_sources,
            source_ids=picked,
        )
