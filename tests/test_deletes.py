"""Document deletes (index/deletes.py): tombstone semantics, searcher
liveDocs filtering with stale stats (Lucene parity), and purge_deletes
rewrites matching a fresh build over the surviving corpus."""

import os

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

import ray

from neural_search_ray.analysis.analyzer import tokenize
from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from neural_search_ray.index.deletes import (
    clear_tombstones,
    delete_docs,
    load_tombstones,
    purge_deletes,
)
from neural_search_ray.index.manifest import IndexManifest
from neural_search_ray.query.bm25 import topk_desc
from neural_search_ray.query.engine import IndexSearcher

QUERIES = ["data query", "merge sort window", "the fast join", "vector search"]
CFG = IndexConfig(num_shards=4, num_salts=2)


def _docs_ds(sf_dir, pred=None):
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"], filter=pred
    )


def _results(searcher, k=20):
    out = []
    for q in QUERIES:
        docs, scores = searcher.search_bm25(tokenize(q), k=k)
        out.append((docs.tolist(), [round(s, 12) for s in scores.tolist()]))
    return out


@pytest.fixture(scope="module")
def base_index(tmp_path_factory, sf_dir, ray_session):
    index_dir = str(tmp_path_factory.mktemp("del_idx"))
    build_index(_docs_ds(sf_dir), index_dir, CFG)
    ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    return index_dir, ids


class TestTombstoneIO:
    def test_append_dedup_idempotent(self, tmp_path, sf_dir, ray_session):
        d = str(tmp_path / "idx")
        build_index(_docs_ds(sf_dir), d, IndexConfig(num_shards=2, num_salts=1))
        assert load_tombstones(d).size == 0
        assert delete_docs(d, [5, 3, 5, 7]) == 3
        assert load_tombstones(d).tolist() == [3, 5, 7]
        # overlap: only the new id is recorded
        assert delete_docs(d, [7, 9]) == 1
        assert load_tombstones(d).tolist() == [3, 5, 7, 9]
        # full repeat: no-op, no new file
        n_files = len(os.listdir(os.path.join(d, "tombstones")))
        assert delete_docs(d, [3, 9]) == 0
        assert len(os.listdir(os.path.join(d, "tombstones"))) == n_files
        clear_tombstones(d)
        assert load_tombstones(d).size == 0


class TestDeletedSearch:
    def test_deleted_docs_excluded_all_paths(self, base_index):
        index_dir, ids = base_index
        pre = IndexSearcher(index_dir)
        # delete the CURRENT top hit of each query so exclusion is load-bearing
        victims = {int(pre.search_bm25(tokenize(q), k=1)[0][0]) for q in QUERIES}
        delete_docs(index_dir, sorted(victims))
        try:
            s = IndexSearcher(index_dir)
            for q in QUERIES:
                docs, _ = s.search_bm25(tokenize(q), k=50)
                assert not victims & set(docs.tolist())
                # the dense kernel and the candidate scorer (the
                # match-union operators' path) drop the same docs
                cand, sc = s._bm25_union_scores(sorted(set(tokenize(q))), None)
                assert docs.tolist() == topk_desc(cand, sc, 50)[0].tolist()
            sd, _ = s.search_sparse_dot({"data": 2.0, "query": 0.5}, k=50)
            assert not victims & set(sd.tolist())
        finally:
            clear_tombstones(index_dir)

    def test_stats_stale_until_purge(self, base_index):
        """Lucene parity: docFreq / maxDoc / avgdl still count deleted
        docs until a merge purges them."""
        index_dir, ids = base_index
        pre = IndexSearcher(index_dir)
        delete_docs(index_dir, ids[: ids.size // 4])
        try:
            post = IndexSearcher(index_dir)
            assert post.n_deleted == ids.size // 4
            assert post.n_docs == pre.n_docs
            assert post.avgdl == pre.avgdl
            assert post.local_df("data") == pre.local_df("data")
        finally:
            clear_tombstones(index_dir)

    def test_searcher_view_frozen_at_init(self, base_index):
        index_dir, ids = base_index
        s = IndexSearcher(index_dir)
        docs0, _ = s.search_bm25(tokenize(QUERIES[0]), k=5)
        delete_docs(index_dir, docs0.tolist())
        try:
            # the already-open reader keeps its view (decode not yet cached
            # per term is irrelevant: tombstones were snapshot at init)
            d2, _ = s.search_bm25(tokenize(QUERIES[0]), k=5)
            assert d2.tolist() == docs0.tolist()
        finally:
            clear_tombstones(index_dir)


class TestPurge:
    def test_purge_matches_fresh_build_over_survivors(
        self, tmp_path, sf_dir, ray_session
    ):
        """The strongest identity: delete doc_id % 5 == 0, purge, and the
        searcher's docs AND float scores equal an index built from scratch
        over only the surviving docs (stats recomputed)."""
        purged_dir = str(tmp_path / "purged")
        fresh_dir = str(tmp_path / "fresh")
        build_index(_docs_ds(sf_dir), purged_dir, CFG)
        ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_numpy()
        delete_docs(purged_dir, ids[ids % 5 == 0])
        purge_deletes(purged_dir)
        keep = pads.field("doc_id").isin(ids[ids % 5 != 0].tolist())
        build_index(_docs_ds(sf_dir, keep), fresh_dir, CFG)
        sp, sf_ = IndexSearcher(purged_dir), IndexSearcher(fresh_dir)
        assert sp.n_docs == sf_.n_docs
        assert sp.avgdl == pytest.approx(sf_.avgdl, rel=0, abs=0)
        assert sp.local_df("data") == sf_.local_df("data")
        assert _results(sp) == _results(sf_)
        # tombstones consumed; manifest swapped to the purge generation
        assert load_tombstones(purged_dir).size == 0
        m = IndexManifest.load(purged_dir)
        assert set(m.segments) == {"seg-000.p1"}
        assert "merged:seg-000" in m.segments["seg-000.p1"]["input_files"]

    def test_purge_skips_clean_segments(self, tmp_path, sf_dir, ray_session):
        """Only segments holding tombstoned docs are rewritten; clean
        segments keep their identity (and their files untouched)."""
        index_dir = str(tmp_path / "idx")
        n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
        half = pads.field("doc_id") < n // 2
        build_index(_docs_ds(sf_dir, half), index_dir, CFG, segment_id="seg-000")
        build_index(_docs_ds(sf_dir, ~half), index_dir, CFG, segment_id="seg-001")
        # delete only docs living in seg-001
        delete_docs(index_dir, [n - 1, n - 2])
        purge_deletes(index_dir)
        m = IndexManifest.load(index_dir)
        assert set(m.segments) == {"seg-000", "seg-001.p1"}
        assert m.n_docs == n - 2

    def test_purge_noop_without_tombstones(self, tmp_path, sf_dir, ray_session):
        index_dir = str(tmp_path / "idx")
        build_index(_docs_ds(sf_dir), index_dir, CFG)
        before = IndexManifest.load(index_dir)
        after = purge_deletes(index_dir)
        assert set(after.segments) == set(before.segments)

    def test_purge_idempotent_and_unknown_ids(self, tmp_path, sf_dir, ray_session):
        """Tombstones of never-indexed ids purge to a no-rewrite pass and
        are still cleared; re-running purge is a no-op."""
        index_dir = str(tmp_path / "idx")
        build_index(_docs_ds(sf_dir), index_dir, CFG)
        delete_docs(index_dir, [10_000_000, 10_000_001])
        m1 = purge_deletes(index_dir)
        assert set(m1.segments) == {"seg-000"}  # nothing rewritten
        assert load_tombstones(index_dir).size == 0
        m2 = purge_deletes(index_dir)
        assert set(m2.segments) == {"seg-000"}

    def test_rebuild_after_purge_is_skipped(self, tmp_path, sf_dir, ray_session):
        """resume=True of the original segment id after its purge must be
        a no-op (the purged segment's lineage records it), or docs would
        double-count."""
        index_dir = str(tmp_path / "idx")
        build_index(_docs_ds(sf_dir), index_dir, CFG)
        delete_docs(index_dir, [1])
        purge_deletes(index_dir)
        n_before = IndexManifest.load(index_dir).n_docs
        build_index(_docs_ds(sf_dir), index_dir, CFG, segment_id="seg-000")
        assert IndexManifest.load(index_dir).n_docs == n_before

    def test_second_delete_generation(self, tmp_path, sf_dir, ray_session):
        """delete → purge → delete → purge: generation ids increment and
        both delete batches are gone."""
        index_dir = str(tmp_path / "idx")
        build_index(_docs_ds(sf_dir), index_dir, CFG)
        delete_docs(index_dir, [0, 1])
        purge_deletes(index_dir)
        delete_docs(index_dir, [2, 3])
        purge_deletes(index_dir)
        m = IndexManifest.load(index_dir)
        assert set(m.segments) == {"seg-000.p2"}
        s = IndexSearcher(index_dir)
        for q in QUERIES:
            docs, _ = s.search_bm25(tokenize(q), k=100)
            assert not {0, 1, 2, 3} & set(docs.tolist())

    def test_merge_applies_deletes(self, tmp_path, sf_dir, ray_session):
        """Lucene behavior: a segment merge drops tombstoned docs while
        rewriting, so the merged segment's stats are recomputed over
        survivors — equal to a fresh build over the surviving corpus.
        Tombstones are kept (merge can't know other segments are clean)."""
        from neural_search_ray.index.merge import merge_segments

        index_dir = str(tmp_path / "idx")
        fresh_dir = str(tmp_path / "fresh")
        n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
        half = pads.field("doc_id") < n // 2
        build_index(_docs_ds(sf_dir, half), index_dir, CFG, segment_id="seg-000")
        build_index(_docs_ds(sf_dir, ~half), index_dir, CFG, segment_id="seg-001")
        dropped = [0, 1, n - 1]  # docs in both source segments
        delete_docs(index_dir, dropped)
        merge_segments(index_dir, "merged-000")
        m = IndexManifest.load(index_dir)
        assert set(m.segments) == {"merged-000"}
        assert m.n_docs == n - len(dropped)
        assert load_tombstones(index_dir).tolist() == sorted(dropped)
        keep = pads.field("doc_id").isin(
            [i for i in range(n) if i not in dropped]
        )
        build_index(_docs_ds(sf_dir, keep), fresh_dir, CFG)
        sm, sf_ = IndexSearcher(index_dir), IndexSearcher(fresh_dir)
        assert sm.avgdl == sf_.avgdl
        assert _results(sm) == _results(sf_)

    def test_tombstones_survive_incomplete_segments(
        self, tmp_path, sf_dir, ray_session, monkeypatch
    ):
        """With an in-flight (incomplete) segment in the manifest, purge
        rewrites the complete ones but KEEPS the tombstones — the pending
        segment may still land tombstoned docs."""
        index_dir = str(tmp_path / "idx")
        build_index(_docs_ds(sf_dir), index_dir, CFG)
        m = IndexManifest.load(index_dir)
        m.segments["seg-pending"] = {
            "segment_id": "seg-pending", "input_files": [], "n_docs": 0,
            "sum_dl": 0, "files": [], "complete": False,
        }
        m.save(index_dir)
        delete_docs(index_dir, [1, 2])
        purge_deletes(index_dir)
        assert load_tombstones(index_dir).tolist() == [1, 2]
        m2 = IndexManifest.load(index_dir)
        assert "seg-000.p1" in m2.segments
