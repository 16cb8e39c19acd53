"""Backwards-compatibility: the current reader opens a committed v1-era index.

The reference pins codec versions and refuses out-of-range headers
(reference sparse/codec/SparsePostingsConsumer.java:48-49) and ships
restart-upgrade suites (reference qa/restart-upgrade/) that open old on-disk
indexes with new code. Our analogue: tests/fixtures/bwc_v1_index/ is a tiny
index whose manifest.json has NO format_version field (the round-1/2 layout);
these tests prove the current code (a) reads it and returns the same BM25
ranks as a freshly-built index over the same corpus, (b) upgrades the version
stamp on the next commit, and (c) refuses future-versioned indexes loudly.

Fixture regeneration: python tools/make_bwc_fixture.py
"""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute  # noqa: F401  (pa.compute)
import pyarrow.parquet as pq
import pytest
import ray

from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index, index_config_from_manifest
from neural_search_ray.index.deletes import delete_docs, purge_deletes
from neural_search_ray.index.merge import compact_tiered
from neural_search_ray.index.manifest import (
    FORMAT_VERSION_CURRENT,
    IndexFormatError,
    IndexManifest,
)
from neural_search_ray.query.engine import IndexSearcher

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "bwc_v1_index")

QUERIES = ["merge sort stream", "quick data", "alpha", "zzz missing"]


def fixture_corpus() -> pa.Table:
    """The deterministic 24-doc corpus the committed fixture was built from."""
    words = [
        "merge", "sort", "stream", "quick", "data", "table", "alpha", "beta",
        "gamma", "join", "hash", "filter",
    ]
    docs = []
    for i in range(24):
        toks = [words[(i * 7 + j * 3) % len(words)] for j in range(5 + i % 6)]
        docs.append(" ".join(toks))
    return pa.table({"doc_id": list(range(24)), "text": docs})


def _ranks(searcher: IndexSearcher) -> list[list[tuple[int, float]]]:
    from neural_search_ray.analysis.analyzer import tokenize

    out = []
    for q in QUERIES:
        docs, scores = searcher.search_bm25(tokenize(q), k=10)
        out.append(
            [(int(d), round(float(s), 9)) for d, s in zip(docs.tolist(), scores.tolist())]
        )
    return out


def test_v1_fixture_exists_and_is_versionless():
    with open(os.path.join(FIXTURE_DIR, "manifest.json")) as f:
        raw = json.load(f)
    assert "format_version" not in raw  # it really is a v1-era artifact
    # it also predates the settled posting format: a block_size manifest
    # key and a block_max_tf posting column, both unread today
    assert raw["block_size"] == 128
    seg = raw["segments"]["seg-000"]
    post = [f["path"] for f in seg["files"] if f["term_bucket"] >= 0]
    for path in post:
        cols = pq.read_schema(os.path.join(FIXTURE_DIR, path)).names
        assert cols == ["term", "df", "docs", "tfs", "block_max_tf"]


def _more_docs() -> pa.Table:
    """12 docs appended to the fixture corpus (ids 24..35)."""
    words = ["merge", "quick", "data", "omega", "join", "delta", "sort"]
    docs = [
        " ".join(words[(i * 5 + j) % len(words)] for j in range(3 + i % 5))
        for i in range(12)
    ]
    return pa.table({"doc_id": list(range(24, 36)), "text": docs})


def _fresh(tmp_path, name: str, corpus: pa.Table) -> IndexSearcher:
    d = str(tmp_path / name)
    build_index(
        ray.data.from_arrow(corpus), d, IndexConfig(num_shards=2, num_salts=1)
    )
    return IndexSearcher(d)


def _mixed_copy(tmp_path, name: str) -> str:
    """The fixture plus one segment in today's format (no block_max_tf)."""
    idx = str(tmp_path / name)
    shutil.copytree(FIXTURE_DIR, idx)
    build_index(
        ray.data.from_arrow(_more_docs()),
        idx,
        index_config_from_manifest(IndexManifest.load(idx)),
        segment_id="seg-001",
    )
    return idx


def test_mixed_layout_merge_and_purge(ray_session, tmp_path):
    """An old-format segment (with block_max_tf) and a new-format one
    (without) open, merge and purge together, and score like a fresh
    build over the same docs."""
    everything = pa.concat_tables([fixture_corpus(), _more_docs()])
    want = _ranks(_fresh(tmp_path, "fresh_all", everything))

    merged = _mixed_copy(tmp_path, "merged")
    assert _ranks(IndexSearcher(merged)) == want
    compact_tiered(merged, fanin=2, target_segments=1)
    assert len(IndexManifest.load(merged).complete_segments()) == 1
    assert _ranks(IndexSearcher(merged)) == want

    purged = _mixed_copy(tmp_path, "purged")
    gone = [0, 5, 13, 24, 30]  # in both segments
    delete_docs(purged, gone)
    purge_deletes(purged)
    assert sorted(IndexManifest.load(purged).segments) == ["seg-000.p1", "seg-001.p1"]
    live = everything.filter(
        pa.compute.invert(pa.compute.is_in(everything["doc_id"], pa.array(gone)))
    )
    assert _ranks(IndexSearcher(purged)) == _ranks(_fresh(tmp_path, "fresh_live", live))


def test_open_v1_index_rank_identical(ray_session, tmp_path):
    old = IndexSearcher(FIXTURE_DIR)
    assert old.manifest.format_version == 1
    fresh_dir = str(tmp_path / "fresh")
    build_index(
        ray.data.from_arrow(fixture_corpus()),
        fresh_dir,
        IndexConfig(num_shards=2, num_salts=1),
    )
    new = IndexSearcher(fresh_dir)
    assert new.manifest.format_version == FORMAT_VERSION_CURRENT
    assert _ranks(old) == _ranks(new)


def test_v1_index_upgrades_on_commit(tmp_path):
    # Resuming a v1 build re-saves the manifest → stamped with the current
    # version; physical layout unchanged, so the index keeps working.
    idx = str(tmp_path / "idx")
    shutil.copytree(FIXTURE_DIR, idx)
    m = IndexManifest.load(idx)
    assert m.format_version == 1
    m.save(idx)
    m2 = IndexManifest.load(idx)
    assert m2.format_version == FORMAT_VERSION_CURRENT


def test_refuse_future_version(tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(FIXTURE_DIR, idx)
    mpath = os.path.join(idx, "manifest.json")
    with open(mpath) as f:
        d = json.load(f)
    d["format_version"] = FORMAT_VERSION_CURRENT + 1
    with open(mpath, "w") as f:
        json.dump(d, f)
    with pytest.raises(IndexFormatError, match="format_version"):
        IndexManifest.load(idx)
    with pytest.raises(IndexFormatError):
        IndexSearcher(idx)


def test_refuse_prehistoric_version(tmp_path):
    idx = str(tmp_path / "idx")
    shutil.copytree(FIXTURE_DIR, idx)
    mpath = os.path.join(idx, "manifest.json")
    with open(mpath) as f:
        d = json.load(f)
    d["format_version"] = 0
    with open(mpath, "w") as f:
        json.dump(d, f)
    with pytest.raises(IndexFormatError):
        IndexManifest.load(idx)
