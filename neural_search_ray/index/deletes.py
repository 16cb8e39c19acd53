"""Document deletes: tombstone sidecars + purge (the Lucene liveDocs model).

The reference inherits Lucene's delete semantics (its OpenSearch indices
delete docs by ID; segments are immutable): a delete writes a tombstone
next to the segment files (Lucene's ``.liv`` bitmap), readers opened
AFTER the delete exclude tombstoned docs from every query, and
collection statistics (docFreq, maxDoc, avgdl) stay STALE — still
counting deleted docs — until a merge physically purges them
(``IndexWriter.forceMergeDeletes``). This module restates that model
over the Ray index layout:

- ``delete_docs``: append a tombstone parquet under ``tombstones/``
  (atomic write, idempotent — already-deleted IDs are not re-recorded).
- ``IndexSearcher`` (query/engine.py) loads the tombstone union at init
  and filters postings at decode time; like a Lucene ``IndexReader``, a
  searcher opened before the delete keeps its frozen view.
- ``purge_deletes``: rewrite only the segments that actually contain
  tombstoned docs (per-(shard, bucket) Ray tasks sharing the merge
  kernel, index/merge.py:_rewrite_group), recompute n_docs / sum_dl /
  df, swap the manifest atomically, and clear the tombstones. After a
  purge, scores are bit-identical to an index built fresh over the
  surviving corpus (tested).

Scale notes: tombstones are broadcast ONCE via ``ray.put`` to the purge
tasks; the dirty-segment check reads only doc-length doc_id columns
(8 bytes/doc) so clean segments are never rewritten. The tombstone set
itself must fit in a worker heap — at 100 TB that means purging before
the set grows past ~10^8 IDs, the same discipline Lucene applies by
merging when deletes exceed a segment fraction.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from .manifest import (
    DOCLEN_BUCKET,
    IndexManifest,
    group_rows_table,
    segment_entry,
)
from .merge import _live_mask, _rewrite_group

TOMBSTONE_DIR = "tombstones"


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique int64 doc_ids of every tombstone file (empty array
    if none)."""
    d = os.path.join(index_dir, TOMBSTONE_DIR)
    if not os.path.isdir(d):
        return np.empty(0, np.int64)
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )
    if not files:
        return np.empty(0, np.int64)
    import pyarrow.dataset as pads

    ids = pads.dataset(files).to_table(columns=["doc_id"])["doc_id"].to_numpy()
    return np.unique(ids.astype(np.int64))


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone the given doc_ids. Returns the number of NEWLY deleted
    ids (already-tombstoned or duplicate ids are not re-recorded, so
    repeated deletes are idempotent). Unknown ids are accepted — like
    Lucene's deleteDocuments(Term), a delete of a doc that was never
    indexed is a no-op at query time.

    Visibility: searchers constructed AFTER this call exclude the docs;
    existing searchers keep their frozen view (open a new reader, the
    Lucene commit-visibility model)."""
    ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
    if ids.size == 0:
        return 0
    existing = load_tombstones(index_dir)
    if existing.size:
        ids = ids[_live_mask(ids, existing)]
    if ids.size == 0:
        return 0
    d = os.path.join(index_dir, TOMBSTONE_DIR)
    os.makedirs(d, exist_ok=True)
    n = sum(1 for f in os.listdir(d) if f.endswith(".parquet"))
    path = os.path.join(d, f"del-{n:06d}.parquet")
    tmp = path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), tmp)
    os.replace(tmp, path)
    return int(ids.size)


def clear_tombstones(index_dir: str) -> None:
    d = os.path.join(index_dir, TOMBSTONE_DIR)
    if not os.path.isdir(d):
        return
    for f in os.listdir(d):
        if f.endswith(".parquet"):
            os.remove(os.path.join(d, f))


def upsert_docs(
    index_dir: str,
    ds: "ray.data.Dataset",
    *,
    segment_id: str,
    doc_ids=None,
    id_column: str = "doc_id",
    text_column: str = "text",
) -> IndexManifest:
    """Update-or-insert documents — the Lucene
    ``IndexWriter.updateDocument`` model (atomic delete-by-id + add to a
    NEW segment) restated over this index layout.

    Our tombstones are global by doc_id, not per-segment liveDocs, so the
    delete must be physically PURGED before the new copies land —
    otherwise the tombstone would hide the re-added ids too. Sequence
    (every step idempotent, so a crashed run is repaired by re-running):

      1. ``delete_docs(ids)`` — tombstone the ids being replaced
         (ids that were never indexed are no-ops, so upsert doubles as
         plain insert);
      2. ``purge_deletes`` — rewrite only the dirty segments, recompute
         stats, clear the tombstones;
      3. ``build_index`` of the new docs as ``segment_id``, with the
         index's own recorded config (layout/analysis identical).

    After the purge the stats chain is recomputed, so a search over the
    upserted index is bit-identical to an index built fresh over the
    updated corpus (oracled: bm25_topk_upsert).

    ``doc_ids``: the ids being upserted; pass them when known to avoid
    the extra Dataset pass that otherwise collects them (bounded by the
    same tombstone-fits-in-memory discipline as delete_docs)."""
    manifest = IndexManifest.load(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    if (
        segment_id in manifest.segments
        and manifest.segments[segment_id]["complete"]
    ):
        return manifest  # resume no-op: this upsert already landed
    from .build import build_index, index_config_from_manifest

    if doc_ids is None:
        parts = [
            b[id_column].to_numpy(zero_copy_only=False)
            for b in ds.select_columns([id_column]).iter_batches(
                batch_format="pyarrow"
            )
        ]
        doc_ids = (
            np.concatenate(parts) if parts else np.empty(0, np.int64)
        )
    delete_docs(index_dir, doc_ids)
    purge_deletes(index_dir)
    return build_index(
        ds,
        index_dir,
        index_config_from_manifest(manifest),
        segment_id=segment_id,
        id_column=id_column,
        text_column=text_column,
    )


def delete_by_query(index_dir: str, terms: list[str]) -> int:
    """_delete_by_query analogue (OpenSearch DeleteByQueryRequest): resolve
    the query's match set against the CURRENT index view, then tombstone
    exactly those ids — snapshot-then-delete, like the reference's
    scroll-then-bulk-delete loop (a doc modified to match after the
    snapshot is untouched). Query shape: boolean-OR term match, the agg
    scope. Stats stay stale until purge_deletes, the liveDocs model.

    Returns the number of newly tombstoned docs."""
    from ..query.engine import IndexSearcher

    searcher = IndexSearcher(index_dir)
    return delete_docs(index_dir, searcher.match_docs(terms))


def update_by_query(
    index_dir: str,
    terms: list[str],
    source,
    transform,
    *,
    segment_id: str,
    id_column: str = "doc_id",
    text_column: str = "text",
) -> IndexManifest:
    """_update_by_query analogue (OpenSearch UpdateByQueryRequest with a
    script): resolve the query's match set, apply ``transform`` (the
    script — a pyarrow.Table -> pyarrow.Table callable, same registry
    discipline as query/scripts.py) to the matched docs' SOURCE rows,
    and upsert the transformed copies (delete → purge → new segment,
    the updateDocument model upsert_docs implements). ``source`` is the
    doc-source Dataset (the reference reads _source from the index; this
    engine's source of truth is the corpus parquet).

    The matched-id set is broadcast once via ray.put and each source
    batch filters against it with one np.isin — the source stream never
    shuffles and unmatched docs never leave their block."""
    from ..query.engine import IndexSearcher

    searcher = IndexSearcher(index_dir)
    ids = searcher.match_docs(terms)
    ids_ref = ray.put(np.sort(ids))

    def pick(batch: pa.Table) -> pa.Table:
        keep = np.isin(
            batch[id_column].to_numpy(zero_copy_only=False), ray.get(ids_ref)
        )
        return transform(batch.filter(pa.array(keep)))

    updated = source.map_batches(pick, batch_format="pyarrow")
    return upsert_docs(
        index_dir,
        updated,
        segment_id=segment_id,
        doc_ids=ids,
        id_column=id_column,
        text_column=text_column,
    )


def _purged_seg_id(sid: str) -> str:
    """seg-000 -> seg-000.p1 -> seg-000.p2 ... (purge generation)."""
    base, dot, gen = sid.rpartition(".p")
    if dot and gen.isdigit():
        return f"{base}.p{int(gen) + 1}"
    return f"{sid}.p1"


def purge_deletes(
    index_dir: str, *, delete_sources: bool = True
) -> IndexManifest:
    """Physically remove tombstoned docs (forceMergeDeletes analogue).

    Only segments that contain at least one tombstoned doc are rewritten
    (checked by scanning doc-length doc_id columns — one cheap Ray pass);
    each dirty segment is rewritten in place of itself (same doc-shard /
    term-bucket layout, new segment id ``<sid>.pN``) so segment
    boundaries — and tiered-compaction behavior — are preserved. The
    manifest swap is one atomic save; a crash mid-purge leaves the old
    manifest + tombstones intact, and re-running repeats only the
    unfinished work. Tombstones are cleared afterwards UNLESS the
    manifest holds incomplete segments (an in-flight build could still
    land tombstoned docs — the tombstones must outlive it)."""
    manifest = IndexManifest.load(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no index manifest in {index_dir}")
    tombs = load_tombstones(index_dir)
    if tombs.size == 0:
        return manifest

    complete = [
        (sid, seg) for sid, seg in manifest.segments.items() if seg["complete"]
    ]
    if not complete:
        return manifest

    # -- pass 1: which segments actually hold tombstoned docs? ----------
    # Reads ONLY doclen doc_id columns (8 bytes per doc), so clean
    # segments cost a column scan, never a rewrite.
    tombs_ref = ray.put(tombs)
    check_items = [
        {
            "sid": sid,
            "dl_paths": [
                f["path"] for f in seg["files"] if f["term_bucket"] == DOCLEN_BUCKET
            ],
        }
        for sid, seg in complete
    ]

    def check_segment(batch: dict) -> pa.Table:
        drop = ray.get(tombs_ref)
        sids, dirty = [], []
        for sid, dl_paths in zip(batch["sid"], batch["dl_paths"]):
            hit = False
            for p in dl_paths:
                d = (
                    pq.read_table(
                        os.path.join(index_dir, p), columns=["doc_id"]
                    )["doc_id"]
                    .to_numpy()
                    .astype(np.int64)
                )
                if d.size and not _live_mask(d, drop).all():
                    hit = True
                    break
            sids.append(sid)
            dirty.append(hit)
        return pa.table({"sid": pa.array(sids, pa.string()),
                         "dirty": pa.array(dirty, pa.bool_())})

    checks = (
        ray.data.from_items(check_items)
        .map_batches(check_segment, batch_size=1, batch_format="default")
        .take_all()
    )
    dirty_ids = {r["sid"] for r in checks if r["dirty"]}
    has_incomplete = any(not s["complete"] for s in manifest.segments.values())
    if not dirty_ids:
        if not has_incomplete:
            clear_tombstones(index_dir)  # nothing references these ids
        return manifest

    # -- pass 2: rewrite dirty segments group-by-group -------------------
    codec, positions = manifest.posting_codec, manifest.index_positions
    new_ids = {sid: _purged_seg_id(sid) for sid in dirty_ids}
    items = [
        {
            "sid": sid,
            "doc_shard": f["doc_shard"],
            "term_bucket": f["term_bucket"],
            "path": f["path"],
        }
        for sid, seg in complete
        if sid in dirty_ids
        for f in seg["files"]
    ]

    def purge_group(batch: dict) -> pa.Table:
        drop = ray.get(tombs_ref)
        rows = []
        sids = []
        for sid, shard, bucket, path in zip(
            batch["sid"], batch["doc_shard"], batch["term_bucket"], batch["path"]
        ):
            rows.append(
                _rewrite_group(
                    index_dir, new_ids[sid], int(shard), int(bucket), [path],
                    codec, positions, drop_sorted=drop,
                )
            )
            sids.append(sid)
        t = group_rows_table(rows)
        return t.append_column("sid", pa.array(sids, pa.string()))

    rows = (
        ray.data.from_items(items)
        .map_batches(purge_group, batch_size=8, batch_format="default")
        .take_all()
    )

    by_sid: dict[str, list[dict]] = {}
    for r in rows:
        by_sid.setdefault(r["sid"], []).append(r)
    for sid in sorted(dirty_ids):
        lineage = set(manifest.segments[sid].get("input_files", []))
        del manifest.segments[sid]
        manifest.segments[new_ids[sid]] = segment_entry(
            new_ids[sid], sorted(lineage | {f"merged:{sid}"}), by_sid.get(sid, [])
        )
    manifest.save(index_dir)  # atomic swap (os.replace inside save)
    if not has_incomplete:
        clear_tombstones(index_dir)
    if delete_sources:
        import shutil

        for sid in dirty_ids:
            shutil.rmtree(
                os.path.join(index_dir, "segments", sid), ignore_errors=True
            )
    return manifest
