"""Inverted-index build: the Ray-Data-first restatement of the reference's
flush + merge path (SURVEY.md §3.1).

Reference lifecycle (sparse/codec/SparsePostingsConsumer.java:87-181,
ClusteredPostingTermsWriter.java:111-198, SparsePostingsReader.java:47-145):
docs → FeatureField postings → per-segment group-by-term → clustered
posting files (.sit/.sip) → merge re-groups terms across segments.

Ray Data restatement — ONE map_batches + ONE shuffle per segment:

  read_parquet(columns=[id, text])
    .map_batches(tokenize_partial_postings, batch_format="pyarrow")
    .groupby([doc_shard, term_bucket]).map_groups(write_group)
    → per-group Parquet posting files + manifest rows (small)

Design points (scale rationale):

- **Doc-sharded index** (like OpenSearch shards / Lucene segments): each
  ``doc_shard = doc_id % num_doc_shards`` holds postings for its own docs,
  so doc-length arrays stay partition-local and a hot term's postings in
  any one shuffle group are bounded by the shard's doc count — the
  explicit skew handling the north rule demands. ``term_bucket =
  crc32(term) % num_term_buckets`` adds intra-shard parallelism; a
  stopword-grade term is split across num_doc_shards groups.
- **Combiner before shuffle**: the map stage emits per-(input-batch,
  term, shard) partial posting lists (Arrow ``list<int64>`` docIDs +
  ``list<int32>`` tfs), so the shuffle moves aggregated postings rather
  than raw (term, doc, tf) rows — mirroring Lucene's per-segment
  postings-before-merge (SURVEY.md §4 decision 2).
- **Doc lengths ride the same shuffle** as a sentinel ``term == ""``
  posting list (tf := dl), assigned ``term_bucket = -1`` — the build is
  single-pass with no second tokenization and no mid-pipeline
  materialization.
- **Segments are the checkpoint/resume unit**: ``build_index`` with
  ``segment_id`` builds one input slice; re-running skips complete
  segments recorded in the manifest (per-partition lineage + metrics).
- Final posting rows are delta+varint-compressed docIDs (codec.py) with
  block-max tf metadata every ``block_size`` (=128) docs.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import asdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..analysis.analyzer import analyze_column
from ..config import IndexConfig
from .codec import encode_postings, grouped_encoder_for
from .manifest import DOCLEN_BUCKET, IndexManifest, SegmentManifest

DOCLEN_TERM = ""  # analyzer never produces an empty token


def term_bucket_of(term: str, num_buckets: int) -> int:
    """Stable cross-process term hash (NOT Python hash())."""
    return zlib.crc32(term.encode("utf-8")) % num_buckets


# PACKED partials: ONE row per (doc_shard, term_bucket) per input batch,
# carrying that group's terms / per-term dfs / flattened postings as list
# payloads. The groupby shuffle then sorts ~(batches x groups) rows
# instead of one row per (term, shard, batch) — measured 12.7M -> ~0.3M
# shuffle rows per 1M docs with identical payload bytes.
_PARTIAL_SCHEMA = pa.schema(
    [
        ("doc_shard", pa.int32()),
        ("term_bucket", pa.int32()),
        ("terms", pa.list_(pa.string())),
        ("dfs", pa.list_(pa.int32())),
        ("doc_ids", pa.list_(pa.int64())),
        ("tfs", pa.list_(pa.int32())),
    ]
)
# positional build: one extra token-level payload — within-doc positions,
# posting-contiguous (posting i's slice has length tfs[i])
_PARTIAL_SCHEMA_POS = _PARTIAL_SCHEMA.append(
    pa.field("pos", pa.list_(pa.int32()))
)


def pack_partial_rows(
    run_terms: pa.Array,      # one term per run, in run order
    run_df: np.ndarray,       # postings per run
    run_shard: np.ndarray,
    run_bucket: np.ndarray,
    run_post_start: np.ndarray,  # posting-space start of each run
    total_postings: int,
    p_doc: np.ndarray,
    p_tf: np.ndarray,
    pos_flat: np.ndarray | None = None,   # token-space positions per run
    run_pos_start: np.ndarray | None = None,
    *,
    index_positions: bool = False,
) -> pa.Table:
    """Pack consecutive runs sharing (shard, bucket) into one row of
    _PARTIAL_SCHEMA[_POS]. PRECONDITION: runs are sorted by (shard,
    bucket) and postings are laid out run-contiguously (positions
    token-contiguously). Shared by the tokenizing build map stage and
    index/reshard.py's decode-and-repack map stage."""
    schema = _PARTIAL_SCHEMA_POS if index_positions else _PARTIAL_SCHEMA
    nruns = run_df.size
    gb = np.flatnonzero(
        (np.diff(run_shard) != 0) | (np.diff(run_bucket) != 0)
    ) + 1
    g_starts = np.concatenate(([0], gb))          # run space
    run_offsets = pa.array(
        np.concatenate((g_starts, [nruns])), type=pa.int64()
    )
    post_offsets = pa.array(
        np.concatenate((run_post_start[g_starts], [total_postings])),
        type=pa.int64(),
    )
    cols = {
        "doc_shard": pa.array(run_shard[g_starts].astype(np.int32)),
        "term_bucket": pa.array(run_bucket[g_starts].astype(np.int32)),
        "terms": pa.ListArray.from_arrays(run_offsets, run_terms),
        "dfs": pa.ListArray.from_arrays(
            run_offsets, pa.array(run_df.astype(np.int32), type=pa.int32())
        ),
        "doc_ids": pa.ListArray.from_arrays(
            post_offsets, pa.array(p_doc, type=pa.int64())
        ),
        "tfs": pa.ListArray.from_arrays(
            post_offsets, pa.array(p_tf.astype(np.int32), type=pa.int32())
        ),
    }
    if index_positions:
        if pos_flat is None:  # doc-length sentinel rows: empty lists
            pos_offsets = pa.array(
                np.zeros(g_starts.size + 1, dtype=np.int64)
            )
            pos_vals = pa.array(np.empty(0, np.int32), type=pa.int32())
        else:
            pos_offsets = pa.array(
                np.concatenate(
                    (run_pos_start[g_starts], [pos_flat.size])
                ),
                type=pa.int64(),
            )
            pos_vals = pa.array(pos_flat.astype(np.int32), type=pa.int32())
        cols["pos"] = pa.ListArray.from_arrays(pos_offsets, pos_vals)
    return pa.table(cols, schema=schema)


def make_tokenize_partial_postings(
    config: IndexConfig, id_column: str = "doc_id", text_column: str = "text"
):
    """Build the map_batches fn: batch of (doc_id, text) → partial postings."""
    import functools

    num_shards = config.num_shards
    num_buckets = config.num_salts * config.num_shards  # term buckets per shard
    analyzer_cfg = config.analyzer
    index_positions = config.index_positions
    _packed_rows = functools.partial(
        pack_partial_rows, index_positions=index_positions
    )

    def fn(batch: pa.Table) -> pa.Table:
        from ..runtime import ensure_worker_tuned

        ensure_worker_tuned()
        doc_ids = batch[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        n_docs = len(doc_ids)
        text_col = batch[text_column]
        if isinstance(text_col, pa.ChunkedArray):
            text_col = text_col.combine_chunks()

        # Arrow-native tokenization (C++ fast path for simple text)
        tok_lists = analyze_column(text_col, analyzer_cfg)
        offs = tok_lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        lens = np.diff(offs)
        flat = tok_lists.flatten()

        parts = []
        if len(flat):
            # dictionary-encode terms in C++ (no per-token Python objects)
            denc = flat.dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            uniques = denc.dictionary
            tok_doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
            pair = codes * n_docs + tok_doc_idx
            pos_flat = None
            if index_positions:
                # keep the token→posting mapping: stable sort groups
                # tokens by (term, doc) while preserving within-doc
                # position order (tokens arrive in document order)
                tok_pos = (
                    np.arange(pair.size, dtype=np.int64)
                    - np.repeat(offs[:-1], lens)
                )
                tok_order = np.argsort(pair, kind="stable")
                sp = pair[tok_order]
                pbnd = np.flatnonzero(np.diff(sp) != 0)
                post_tok_start = np.concatenate(([0], pbnd + 1))
                tf = np.diff(
                    np.concatenate((post_tok_start, [sp.size]))
                ).astype(np.int64)
                upair = sp[post_tok_start]
                pos_flat = tok_pos[tok_order]
            else:
                upair, tf = np.unique(pair, return_counts=True)
            p_code = upair // n_docs
            p_doc = doc_ids[upair % n_docs]
            p_shard = (p_doc % num_shards).astype(np.int32)
            bucket_by_code = np.fromiter(
                (term_bucket_of(t, num_buckets) for t in uniques.to_pylist()),
                dtype=np.int32,
                count=len(uniques),
            )
            p_bucket = bucket_by_code[p_code]
            # lay postings out grouped by (shard, bucket) so one packed
            # row per group slices the flat arrays with offsets only
            order = np.lexsort((p_doc, p_code, p_bucket, p_shard))
            run_pos_start = None
            if index_positions:
                from .codec import posting_gather

                pos_flat = pos_flat[posting_gather(post_tok_start, tf, order)]
            p_code, p_shard, p_bucket, p_doc, tf = (
                p_code[order], p_shard[order], p_bucket[order],
                p_doc[order], tf[order],
            )
            change = np.flatnonzero(
                (np.diff(p_code) != 0) | (np.diff(p_shard) != 0)
            )
            run_starts = np.concatenate(([0], change + 1))
            run_ends = np.concatenate((change + 1, [p_code.size]))
            if index_positions:
                excl = np.cumsum(tf) - tf
                run_pos_start = excl[run_starts]
            g_codes = p_code[run_starts]
            parts.append(
                _packed_rows(
                    uniques.take(pa.array(g_codes)).cast(pa.string()),
                    run_ends - run_starts,
                    p_shard[run_starts],
                    p_bucket[run_starts],
                    run_starts,
                    p_code.size,
                    p_doc,
                    tf,
                    pos_flat,
                    run_pos_start,
                )
            )

        # doc-length sentinel rows, one per shard present in this batch
        dl_order = np.lexsort((doc_ids, (doc_ids % num_shards)))
        d_doc = doc_ids[dl_order]
        d_dl = lens[dl_order]
        d_shard = (d_doc % num_shards).astype(np.int32)
        change = np.flatnonzero(np.diff(d_shard) != 0)
        starts = np.concatenate(([0], change + 1))
        parts.append(
            _packed_rows(
                pa.array([DOCLEN_TERM] * starts.size, type=pa.string()),
                np.diff(np.concatenate((starts, [d_shard.size]))),
                d_shard[starts],
                np.full(starts.size, DOCLEN_BUCKET, dtype=np.int32),
                starts,
                d_shard.size,
                d_doc,
                d_dl,
            )
        )
        return pa.concat_tables(parts)

    return fn


def make_write_group(index_dir: str, segment_id: str, config: IndexConfig):
    """map_groups fn for group key (doc_shard, term_bucket):
    merge partial postings → final compressed posting rows → Parquet file.
    Returns one manifest row per group (small).

    ``config.n_postings >= 0`` enables static index pruning; the
    reference's -2 formula (max(0.0005*maxDoc, 160)) must be resolved by
    the caller via ``config.resolve_n_postings(total_docs)`` since group
    tasks don't see the global doc count."""
    block_size = config.block_size
    n_postings = config.n_postings
    quantize_u8 = config.weight_quantization == "u8"
    index_positions = config.index_positions
    grouped_encode = grouped_encoder_for(config.posting_codec)

    def fn(group: pa.Table) -> pa.Table:
        from ..runtime import ensure_worker_tuned

        ensure_worker_tuned()
        shard = int(group["doc_shard"][0].as_py())
        bucket = int(group["term_bucket"][0].as_py())
        seg_dir = os.path.join(index_dir, "segments", segment_id)
        os.makedirs(seg_dir, exist_ok=True)

        # flatten packed partial rows: terms/dfs are run-level lists,
        # doc_ids/tfs are posting-level lists (run-contiguous)
        terms_col = group["terms"].combine_chunks().flatten()
        dfs_flat = (
            group["dfs"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        flat_docs = (
            group["doc_ids"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        )
        flat_tfs = (
            group["tfs"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )

        if bucket == DOCLEN_BUCKET:
            order = np.argsort(flat_docs, kind="stable")
            d = flat_docs[order]
            dls = flat_tfs[order]
            path = f"segments/{segment_id}/doclen_s{shard:04d}.parquet"
            pq.write_table(
                pa.table({"doc_id": d, "dl": dls.astype(np.int32)}),
                os.path.join(index_dir, path),
            )
            return pa.table(
                {
                    "doc_shard": [shard],
                    "term_bucket": [bucket],
                    "path": [path],
                    "n_terms": [0],
                    "n_postings": [0],
                    "n_docs": [int(d.size)],
                    "sum_dl": [int(dls.sum())],
                }
            )

        codes_part, uniq = pd.factorize(terms_col.to_pandas())
        code_per_posting = np.repeat(codes_part.astype(np.int64), dfs_flat)
        order = np.lexsort((flat_docs, code_per_posting))
        g_code = code_per_posting[order]
        g_doc = flat_docs[order]
        g_tf = flat_tfs[order]
        g_pos = None
        if index_positions:
            from .codec import posting_gather, positions_delta

            flat_pos = (
                group["pos"].combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).astype(np.int64)
            )
            tok_start = np.cumsum(flat_tfs) - flat_tfs
            g_pos = flat_pos[posting_gather(tok_start, flat_tfs, order)]
        # static index pruning (reference: keep n_postings highest-weight
        # postings per term, PostingsProcessingUtils.java:38-56 via
        # ClusteredPostingTermsWriter.java:136-142). Vectorized: rank
        # within term by (tf desc, doc asc), keep rank < n, re-sort by doc.
        if n_postings >= 0 and g_code.size:
            sel = np.lexsort((g_doc, -g_tf, g_code))
            c_sorted = g_code[sel]
            grp_start = np.concatenate(
                ([0], np.flatnonzero(np.diff(c_sorted) != 0) + 1)
            )
            rank = np.arange(c_sorted.size) - np.repeat(
                grp_start, np.diff(np.concatenate((grp_start, [c_sorted.size])))
            )
            kept = sel[rank < n_postings]
            kept.sort()  # restore (code, doc) order: original was lexsorted
            if index_positions:
                from .codec import posting_gather

                g_tok = np.cumsum(g_tf) - g_tf
                g_pos = g_pos[posting_gather(g_tok, g_tf, kept)]
            g_code, g_doc, g_tf = g_code[kept], g_doc[kept], g_tf[kept]

        if quantize_u8 and g_tf.size:
            # quantized sparse tier: u8-quantize the weight at ingest
            # (ByteQuantizer.java:24-34, ceiling 3.0), store the
            # FeatureField-encoded (>>>15) frequency of the dequantized
            # float32 weight (ValueEncoder.java:21-42). Encoding is
            # monotonic in the weight, so block-max metadata stays valid.
            from ..stages.quantize import (
                byte_dequantize,
                byte_quantize,
                feature_encode,
            )

            g_tf = feature_encode(
                byte_dequantize(byte_quantize(g_tf.astype(np.float64))).astype(
                    np.float32
                )
            )

        change = np.flatnonzero(np.diff(g_code) != 0)
        starts = np.concatenate(([0], change + 1))
        ends = np.concatenate((change + 1, [g_code.size]))

        # delta within each term's posting list (vectorized across groups)
        deltas = np.empty_like(g_doc)
        if g_doc.size:
            deltas[0] = g_doc[0]
            np.subtract(g_doc[1:], g_doc[:-1], out=deltas[1:])
            deltas[starts] = g_doc[starts]
        doc_bufs = grouped_encode(deltas, starts, ends)
        tf_bufs = grouped_encode(g_tf, starts, ends)

        # block-max tf per term, vectorized with reduceat
        dfs = (ends - starts).astype(np.int64)
        nblocks = (dfs + block_size - 1) // block_size
        bm_offsets = np.zeros(nblocks.size + 1, dtype=np.int64)
        np.cumsum(nblocks, out=bm_offsets[1:])
        red_idx = np.concatenate(
            [np.arange(s, e, block_size) for s, e in zip(starts, ends)]
        ) if g_tf.size else np.empty(0, np.int64)
        bm_flat = (
            np.maximum.reduceat(g_tf, red_idx).astype(np.int32)
            if red_idx.size
            else np.empty(0, np.int32)
        )
        bm_col = pa.ListArray.from_arrays(
            pa.array(bm_offsets), pa.array(bm_flat, type=pa.int32())
        )

        out_terms = uniq[g_code[starts]] if g_code.size else []
        cols = {
            "term": pa.array(list(out_terms), type=pa.string()),
            "df": pa.array(dfs, type=pa.int64()),
            "docs": pa.array(doc_bufs, type=pa.binary()),
            "tfs": pa.array(tf_bufs, type=pa.binary()),
            "block_max_tf": bm_col,
        }
        if index_positions:
            from .codec import positions_delta

            tok_bounds = np.concatenate(
                (np.cumsum(g_tf) - g_tf, [int(g_tf.sum())])
            ).astype(np.int64)
            pdeltas = positions_delta(g_pos, tok_bounds[:-1])
            cols["pos"] = pa.array(
                grouped_encode(pdeltas, tok_bounds[starts], tok_bounds[ends]),
                type=pa.binary(),
            )
        table = pa.table(cols)
        path = f"segments/{segment_id}/post_s{shard:04d}_b{bucket:05d}.parquet"
        pq.write_table(table, os.path.join(index_dir, path))
        return pa.table(
            {
                "doc_shard": [shard],
                "term_bucket": [bucket],
                "path": [path],
                "n_terms": [len(table)],
                "n_postings": [int(dfs.sum())],
                "n_docs": [0],
                "sum_dl": [0],
            }
        )

    return fn


def index_config_from_manifest(manifest: IndexManifest) -> IndexConfig:
    """Reconstruct the IndexConfig an existing index was built with, so
    later segments (incremental ingest, upsert) use identical layout and
    analysis. n_postings is a per-flush choice, not an index property —
    callers that prune must set it explicitly."""
    from ..config import AnalyzerConfig, BM25Config

    return IndexConfig(
        num_shards=manifest.num_doc_shards,
        num_salts=max(manifest.num_term_buckets // manifest.num_doc_shards, 1),
        block_size=manifest.block_size,
        weight_quantization=manifest.weight_quantization,
        posting_codec=manifest.posting_codec,
        index_positions=manifest.index_positions,
        bm25=BM25Config(**manifest.bm25),
        analyzer=AnalyzerConfig(**manifest.analyzer),
    )


def build_index(
    ds: "ray.data.Dataset",
    index_dir: str,
    config: IndexConfig = IndexConfig(),
    *,
    segment_id: str = "seg-000",
    input_files: list[str] | None = None,
    id_column: str = "doc_id",
    text_column: str = "text",
    resume: bool = True,
) -> IndexManifest:
    """Build (or resume) one index segment from a Dataset of (doc_id, text).

    Resumable: if the manifest already records ``segment_id`` as complete,
    the build is skipped entirely (per-partition checkpoint semantics —
    unlike the reference, which silently drops failed merge batches,
    SparsePostingsReader.java:135-137, a failed group here fails the Ray
    task and is retried; the segment is marked complete only after every
    group file landed).
    """
    if config.index_positions and config.weight_quantization == "u8":
        raise ValueError(
            "index_positions is incompatible with weight_quantization='u8': "
            "a quantized 'tf' is a FeatureField-encoded weight, not a "
            "position count, so positional payloads could not be decoded"
        )
    os.makedirs(index_dir, exist_ok=True)
    num_buckets = config.num_salts * config.num_shards
    manifest = IndexManifest.load(index_dir) or IndexManifest(
        num_doc_shards=config.num_shards,
        num_term_buckets=num_buckets,
        block_size=config.block_size,
        analyzer=asdict(config.analyzer),
        bm25=asdict(config.bm25),
        weight_quantization=config.weight_quantization,
        posting_codec=config.posting_codec,
        index_positions=config.index_positions,
    )
    if manifest.index_positions != config.index_positions:
        raise ValueError(
            f"index at {index_dir} was built with index_positions="
            f"{manifest.index_positions}; cannot add segments with "
            f"index_positions={config.index_positions} (readers decode "
            f"per-manifest)"
        )
    if manifest.posting_codec != config.posting_codec:
        raise ValueError(
            f"index at {index_dir} was built with posting_codec="
            f"{manifest.posting_codec!r}; cannot add segments with "
            f"{config.posting_codec!r} (readers decode per-manifest)"
        )
    if resume and segment_id in manifest.segments and manifest.segments[segment_id]["complete"]:
        return manifest
    if resume and any(
        f"merged:{segment_id}" in seg.get("input_files", [])
        for seg in manifest.segments.values()
        if seg["complete"]
    ):
        # the segment was already built AND compacted away by
        # merge_segments — rebuilding it would double-count every doc.
        # The merged segment's lineage is the resume record.
        return manifest

    # Push-based sort shuffle: measured 2.3x faster end-to-end than the
    # default pull-based sort for this groupby (1M docs, 32 cpus: 42s→18s);
    # hash shuffle measured far slower (114s). Scoped restore after run.
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    prev_strategy = ctx.shuffle_strategy
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    try:
        partials = ds.map_batches(
            make_tokenize_partial_postings(config, id_column, text_column),
            batch_format="pyarrow",
            batch_size=None,  # whole blocks: the combiner emits one partial
            # row per (term, shard) per BATCH — 1024-row default batches
            # would multiply the shuffle payload ~15x
        )
        rows = (
            partials.groupby(["doc_shard", "term_bucket"])
            .map_groups(
                make_write_group(index_dir, segment_id, config), batch_format="pyarrow"
            )
            .take_all()
        )
    finally:
        ctx.shuffle_strategy = prev_strategy
    seg = SegmentManifest(
        segment_id=segment_id,
        input_files=input_files or [],
        n_docs=sum(r["n_docs"] for r in rows),
        sum_dl=sum(r["sum_dl"] for r in rows),
        files=[
            {
                "doc_shard": r["doc_shard"],
                "term_bucket": r["term_bucket"],
                "path": r["path"],
                "n_terms": r["n_terms"],
                "n_postings": r["n_postings"],
            }
            for r in rows
        ],
        complete=True,
    )
    manifest.segments[segment_id] = asdict(seg)
    manifest.save(index_dir)
    return manifest
