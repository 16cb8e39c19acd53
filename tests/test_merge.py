"""Segment merge / compaction (index/merge.py): rank identity with the
multi-segment searcher, manifest swap, lineage, resume, crash safety."""

import os

import numpy as np
import pyarrow.dataset as pads
import pytest
import ray

from neural_search_ray.analysis.analyzer import tokenize
from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from neural_search_ray.index.manifest import (
    FORMAT_VERSION_CURRENT,
    IndexManifest,
    group_row,
    segment_entry,
)
from neural_search_ray.index.merge import merge_segments
from neural_search_ray.query.engine import IndexSearcher

QUERIES = ["fast hash join", "window merge sort", "the quick data", "dup", "zzz"]


def _build_three_segments(sf_dir, index_dir):
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    cuts = [0, n // 3, 2 * n // 3, n]
    for i in range(3):
        pred = (pads.field("doc_id") >= cuts[i]) & (pads.field("doc_id") < cuts[i + 1])
        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"], filter=pred
        )
        build_index(
            ds, index_dir, IndexConfig(num_shards=4, num_salts=2),
            segment_id=f"seg-{i:03d}",
        )


def _results(searcher):
    out = []
    for q in QUERIES:
        docs, scores = searcher.search_bm25(tokenize(q), k=20)
        out.append((docs.tolist(), [round(s, 12) for s in scores.tolist()]))
    return out


@pytest.fixture(scope="module")
def merged(tmp_path_factory, sf_dir, ray_session):
    index_dir = str(tmp_path_factory.mktemp("merge_idx"))
    _build_three_segments(sf_dir, index_dir)
    before = IndexManifest.load(index_dir)
    pre = _results(IndexSearcher(index_dir))
    pre_stats = (before.n_docs, before.avgdl)
    manifest = merge_segments(index_dir, "merged-000")
    return index_dir, manifest, pre, pre_stats


def test_merge_rank_identical(merged):
    index_dir, manifest, pre, _ = merged
    post = _results(IndexSearcher(index_dir))
    assert post == pre


def test_merge_manifest_swap_and_lineage(merged):
    index_dir, manifest, _, pre_stats = merged
    assert list(manifest.segments) == ["merged-000"]
    seg = manifest.segments["merged-000"]
    assert sorted(seg["input_files"]) == [
        "merged:seg-000", "merged:seg-001", "merged:seg-002",
    ]
    assert (manifest.n_docs, round(manifest.avgdl, 9)) == (
        pre_stats[0], round(pre_stats[1], 9),
    )
    assert manifest.format_version == FORMAT_VERSION_CURRENT
    # compaction removed the source segment dirs
    segs = os.listdir(os.path.join(index_dir, "segments"))
    assert segs == ["merged-000"]


def test_merge_resume_noop(merged):
    index_dir, _, pre, _ = merged
    m2 = merge_segments(index_dir, "merged-000")
    assert list(m2.segments) == ["merged-000"]
    assert _results(IndexSearcher(index_dir)) == pre


def test_segment_entry_lists_files_in_canonical_order():
    """A writer's tasks return their group rows in any order; the
    segment's manifest entry lists its files by (doc_shard, term_bucket,
    path) all the same."""
    rows = [
        group_row(s, b, f"seg/{s}-{b}-{p}.parquet", n_terms=1, n_postings=2)
        for s in (1, 0) for b in (2, -1, 0) for p in ("b", "a")
    ]
    want = segment_entry("seg", [], sorted(
        rows, key=lambda r: (r["doc_shard"], r["term_bucket"], r["path"])))
    for order in (rows, rows[::-1], rows[3:] + rows[:3]):
        assert segment_entry("seg", [], order) == want
    assert [(f["doc_shard"], f["term_bucket"]) for f in want["files"]][:3] == [
        (0, -1), (0, -1), (0, 0)]


def test_merge_single_segment_noop(tmp_path, sf_dir, ray_session):
    index_dir = str(tmp_path / "one")
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    build_index(ds, index_dir, IndexConfig(num_shards=2, num_salts=1))
    m = merge_segments(index_dir)
    assert list(m.segments) == ["seg-000"]  # nothing to merge


def test_merge_preserves_df_and_doclens(merged):
    index_dir, manifest, _, _ = merged
    s = IndexSearcher(index_dir)
    # spot-check: df of a common term equals count of docs containing it
    assert s.n_docs == manifest.n_docs
    d, sc = s.search_bm25(tokenize("data"), k=5)
    assert len(d) > 0 and (np.diff(sc) <= 1e-15).all()


def test_resume_after_merge_skips_merged_sources(tmp_path, sf_dir, ray_session):
    """Library-level guard: build_index(resume=True) of a segment that was
    compacted away by merge_segments must NO-OP via the merged lineage —
    rebuilding it would double-count every doc."""
    index_dir = str(tmp_path / "idx")
    _build_three_segments(sf_dir, index_dir)
    pre = _results(IndexSearcher(index_dir))
    n_before = IndexManifest.load(index_dir).n_docs
    merge_segments(index_dir, "merged-000")
    # the driver's documented resume pattern: re-run the same builds
    _build_three_segments(sf_dir, index_dir)
    m = IndexManifest.load(index_dir)
    assert list(m.segments) == ["merged-000"]  # nothing rebuilt
    assert m.n_docs == n_before
    assert _results(IndexSearcher(index_dir)) == pre


def _build_eight_segments(sf_dir, index_dir):
    """8 segments of deliberately UNEVEN sizes so smallest-first tier
    selection is meaningful."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    fracs = [0, 0.02, 0.05, 0.09, 0.15, 0.25, 0.4, 0.65, 1.0]
    cuts = [int(n * f) for f in fracs]
    for i in range(8):
        pred = (pads.field("doc_id") >= cuts[i]) & (pads.field("doc_id") < cuts[i + 1])
        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"], filter=pred
        )
        build_index(
            ds, index_dir, IndexConfig(num_shards=2, num_salts=1),
            segment_id=f"seg-{i:03d}",
        )


def test_tiered_compaction_rank_identity(tmp_path, sf_dir, ray_session):
    """8 uneven segments → tiered passes (fanin=3) → one segment,
    rank-identical to both the pre-merge multi-segment searcher and the
    single-pass merge of a parallel copy."""
    from neural_search_ray.index.merge import compact_tiered

    tiered_dir = str(tmp_path / "tiered")
    single_dir = str(tmp_path / "single")
    _build_eight_segments(sf_dir, tiered_dir)
    _build_eight_segments(sf_dir, single_dir)
    pre = _results(IndexSearcher(tiered_dir))

    m = compact_tiered(tiered_dir, fanin=3, target_segments=1)
    assert len(m.segments) == 1
    (only,) = m.segments
    assert only.startswith("tier-")
    assert _results(IndexSearcher(tiered_dir)) == pre

    merge_segments(single_dir, "merged-000")
    assert _results(IndexSearcher(single_dir)) == pre
    # same totals either way
    ms = IndexManifest.load(single_dir)
    assert (m.n_docs, round(m.avgdl, 9)) == (ms.n_docs, round(ms.avgdl, 9))


def test_tiered_picks_smallest_and_resumes_mid_sequence(
    tmp_path, sf_dir, ray_session
):
    """One tier pass merges exactly the fanin smallest segments; a later
    compact_tiered call resumes the sequence with fresh generation ids
    and converges without touching finished tiers' results."""
    from neural_search_ray.index.merge import compact_tiered

    index_dir = str(tmp_path / "idx")
    _build_eight_segments(sf_dir, index_dir)
    pre = _results(IndexSearcher(index_dir))
    sizes = {
        sid: seg["n_docs"]
        for sid, seg in IndexManifest.load(index_dir).segments.items()
    }
    smallest3 = sorted(sizes, key=lambda s: (sizes[s], s))[:3]

    # first pass only (stop at 6 segments: 8 - 3 + 1)
    m1 = compact_tiered(index_dir, fanin=3, target_segments=6)
    assert len(m1.segments) == 6
    assert "tier-000" in m1.segments
    assert not (set(smallest3) & set(m1.segments))  # smallest got merged
    assert m1.segments["tier-000"]["n_docs"] == sum(sizes[s] for s in smallest3)

    # resume mid-sequence: continue to a single segment
    m2 = compact_tiered(index_dir, fanin=3, target_segments=1)
    assert len(m2.segments) == 1
    assert _results(IndexSearcher(index_dir)) == pre
    # re-run is a no-op
    m3 = compact_tiered(index_dir, fanin=3, target_segments=1)
    assert list(m3.segments) == list(m2.segments)


def test_tiered_keep_sources_on_disk_still_converges(
    tmp_path, sf_dir, ray_session
):
    """delete_sources=False keeps source segment DIRECTORIES on disk but
    still removes them from the manifest (merge_segments semantics), so
    the tiered loop converges; the orphaned dirs remain as an archive."""
    from neural_search_ray.index.merge import compact_tiered

    index_dir = str(tmp_path / "idx")
    _build_three_segments(sf_dir, index_dir)
    m = compact_tiered(index_dir, fanin=2, target_segments=1,
                       delete_sources=False)
    assert len(m.segments) == 1
    on_disk = set(os.listdir(os.path.join(index_dir, "segments")))
    assert {"seg-000", "seg-001", "seg-002"} <= on_disk  # archived


def test_tiered_validates_args(tmp_path, sf_dir, ray_session):
    from neural_search_ray.index.merge import compact_tiered

    with pytest.raises(ValueError):
        compact_tiered(str(tmp_path), fanin=1)
    with pytest.raises(ValueError):
        compact_tiered(str(tmp_path), target_segments=0)
    with pytest.raises(FileNotFoundError):
        compact_tiered(str(tmp_path / "nope"))


def test_merge_source_ids_validation(tmp_path, sf_dir, ray_session):
    index_dir = str(tmp_path / "idx")
    _build_three_segments(sf_dir, index_dir)
    with pytest.raises(ValueError, match="not complete or unknown"):
        merge_segments(index_dir, "m", source_ids=["seg-000", "seg-xyz"])


def test_merge_lineage_transitive(tmp_path, sf_dir, ray_session):
    """Merge-of-merged: the second merge must carry the first's lineage so
    the ORIGINAL segments still resume as no-ops."""
    import pyarrow.dataset as pads

    index_dir = str(tmp_path / "idx")
    _build_three_segments(sf_dir, index_dir)
    merge_segments(index_dir, "merged-000")
    # add one more segment, then merge again
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filter=pads.field("doc_id") < 0,  # empty extra segment is fine
    )
    build_index(
        ds, index_dir, IndexConfig(num_shards=4, num_salts=2), segment_id="seg-extra"
    )
    merge_segments(index_dir, "merged-001")
    m = IndexManifest.load(index_dir)
    lineage = set(m.segments["merged-001"]["input_files"])
    assert {"merged:merged-000", "merged:seg-extra",
            "merged:seg-000", "merged:seg-001", "merged:seg-002"} <= lineage
    n = m.n_docs
    _build_three_segments(sf_dir, index_dir)  # must all no-op
    assert IndexManifest.load(index_dir).n_docs == n
