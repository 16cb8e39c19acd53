"""Index resharding — the OpenSearch `_split` / `_shrink` analogue.

A fixed shard count is the one layout decision a 100-TB index cannot
revisit by re-ingesting: OpenSearch answers with the `_split` (N→k·N)
and `_shrink` (N→N/k) APIs, which rewrite the index into a new target
without re-analyzing any document. This module is that operation for
this engine's layout (doc_shard = doc_id % num_doc_shards,
index/build.py:19): postings are DECODED once and repacked — never
re-tokenized — so the resharded index is rank- and stats-identical to
a fresh build over the same corpus at the new shard count, for any
N→M (not just multiples; the modulo map has no Lucene routing-factor
constraint to preserve because readers address shards only through
the manifest).

Ray-Data-first shape — the same ONE-exchange pipeline as the build,
entered after tokenization:

  read_parquet(<source posting files>)          # one row per term
    .map_batches(decode_and_repack)             # codec.decode_rows
    .groupby([doc_shard, term_bucket])          # the ONE shuffle
    .map_groups(make_write_group(out_dir, ...)) # build's group writer

Doc-length sidecars ride the same exchange as the build's sentinel
rows (term "", bucket DOCLEN_BUCKET). Because the output goes through
`make_write_group` (and so codec.encode_rows) verbatim, the new index
is byte-compatible with every reader, merge, purge, and snapshot path.
Resume = the build's segment-complete rule: re-running after a crash
skips a completed target. The source index must be clean (no pending tombstones) —
purge first, so resharding never needs the tombstone union.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .build import (
    build_index,  # noqa: F401  (re-exported for callers pairing the APIs)
    doclen_partial_rows,
    index_config_from_manifest,
    make_write_group,
    pack_partial_rows,
    term_bucket_of,
)
from .codec import decode_rows, posting_gather, row_columns
from .manifest import DOCLEN_BUCKET, IndexManifest, segment_entry


def _make_repack(
    codec: str, index_positions: bool, new_num_shards: int, new_num_buckets: int
):
    """map_batches fn: source posting rows → packed partial rows keyed
    by the NEW (doc_shard, term_bucket). One decode pass, one lexsort —
    no per-posting Python."""

    def fn(batch: pa.Table) -> pa.Table:
        flat_doc, flat_tf, dfs, flat_pos = decode_rows(batch, codec)
        codes_row, uniq = pd.factorize(batch["term"].to_pandas(), sort=True)
        flat_code = np.repeat(codes_row.astype(np.int64), dfs)
        total = flat_doc.size
        if total == 0:
            schema_probe = pack_partial_rows(
                pa.array([], type=pa.string()),
                np.empty(0, np.int64),
                np.empty(0, np.int32),
                np.empty(0, np.int32),
                np.empty(0, np.int64),
                0,
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                index_positions=index_positions,
            )
            return schema_probe.schema.empty_table()

        bucket_by_code = np.fromiter(
            (term_bucket_of(t, new_num_buckets) for t in uniq),
            dtype=np.int32,
            count=len(uniq),
        )
        p_shard = (flat_doc % new_num_shards).astype(np.int32)
        p_bucket = bucket_by_code[flat_code]
        order = np.lexsort((flat_doc, flat_code, p_bucket, p_shard))
        g_pos = None
        if index_positions:
            tok_start = np.cumsum(flat_tf) - flat_tf
            g_pos = flat_pos[posting_gather(tok_start, flat_tf, order)]
        g_code = flat_code[order]
        g_shard = p_shard[order]
        g_bucket = p_bucket[order]
        g_doc = flat_doc[order]
        g_tf = flat_tf[order]
        change = np.flatnonzero(
            (np.diff(g_code) != 0) | (np.diff(g_shard) != 0)
        )
        run_starts = np.concatenate(([0], change + 1))
        run_ends = np.concatenate((change + 1, [g_code.size]))
        run_pos_start = None
        if index_positions:
            excl = np.cumsum(g_tf) - g_tf
            run_pos_start = excl[run_starts]
        return pack_partial_rows(
            pa.array(list(uniq[g_code[run_starts]]), type=pa.string()),
            run_ends - run_starts,
            g_shard[run_starts],
            g_bucket[run_starts],
            run_starts,
            g_code.size,
            g_doc,
            g_tf,
            g_pos,
            run_pos_start,
            index_positions=index_positions,
        )

    return fn


def _make_repack_doclen(index_positions: bool, new_num_shards: int):
    """map_batches fn: source doclen rows (doc_id, dl) → the build's
    sentinel partial rows under the NEW shard map."""

    def fn(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.int64)
        return doclen_partial_rows(d, dl, new_num_shards, index_positions)

    return fn


def reshard_index(
    index_dir: str,
    out_dir: str,
    new_num_shards: int,
    *,
    new_num_salts: int | None = None,
    segment_id: str = "resharded-000",
    resume: bool = True,
) -> IndexManifest:
    """Rewrite ``index_dir`` into ``out_dir`` with ``new_num_shards``
    doc shards (and optionally a new per-shard bucket factor: the output
    has ``new_num_shards x num_salts`` posting files). Global
    stats (N, Σdl, per-term df) are preserved exactly, so BM25 results
    are rank- AND score-identical to the source index."""
    src = IndexManifest.load(index_dir)
    if src is None:
        raise ValueError(f"no index manifest under {index_dir}")
    from .deletes import load_tombstones

    if load_tombstones(index_dir).size:
        raise ValueError(
            "reshard requires a clean index: purge_deletes first "
            "(pending tombstones would silently resurrect on reshard)"
        )
    if new_num_shards < 1:
        raise ValueError("new_num_shards must be >= 1")
    cfg = index_config_from_manifest(src)
    cfg = replace(
        cfg,
        num_shards=new_num_shards,
        num_salts=new_num_salts if new_num_salts is not None else cfg.num_salts,
    )
    # the group writer must NOT re-apply ingest-time transforms: a u8
    # index's tf payload is ALREADY FeatureField-encoded (re-quantizing
    # would corrupt it), and static pruning already happened at flush —
    # reshard is a pure layout rewrite. The OUTPUT manifest still
    # records the source's quantization so readers decode identically.
    write_cfg = replace(cfg, weight_quantization="none", n_postings=-1)

    os.makedirs(out_dir, exist_ok=True)
    out_manifest = IndexManifest.load(out_dir)
    if (
        resume
        and out_manifest is not None
        and segment_id in out_manifest.segments
        and out_manifest.segments[segment_id]["complete"]
    ):
        return out_manifest

    post_paths, dl_paths = [], []
    for seg in src.complete_segments():
        for f in seg["files"]:
            p = os.path.join(index_dir, f["path"])
            (dl_paths if f["term_bucket"] == DOCLEN_BUCKET else post_paths).append(p)

    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    prev = ctx.shuffle_strategy
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    try:
        partials = ray.data.read_parquet(
            post_paths, columns=row_columns(src.index_positions)
        ).map_batches(
            _make_repack(
                src.posting_codec, src.index_positions,
                new_num_shards, cfg.num_salts,
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        dl_partials = ray.data.read_parquet(dl_paths).map_batches(
            _make_repack_doclen(src.index_positions, new_num_shards),
            batch_format="pyarrow",
            batch_size=None,
        )
        rows = (
            partials.union(dl_partials)
            .groupby(["doc_shard", "term_bucket"])
            .map_groups(
                make_write_group(out_dir, segment_id, write_cfg),
                batch_format="pyarrow",
            )
            .take_all()
        )
    finally:
        ctx.shuffle_strategy = prev

    manifest = out_manifest or IndexManifest(
        num_doc_shards=cfg.num_shards,
        num_term_buckets=cfg.num_salts,
        analyzer=src.analyzer,
        bm25=src.bm25,
        weight_quantization=src.weight_quantization,
        posting_codec=src.posting_codec,
        index_positions=src.index_positions,
    )
    manifest.segments[segment_id] = segment_entry(
        segment_id,
        [f"reshard:{index_dir}:{s['segment_id']}" for s in src.complete_segments()],
        rows,
    )
    manifest.save(out_dir)
    return manifest
