"""On-disk layout of the index writers: the file set a segment gets, the
term-bucket modulus an index keeps, the shard-count guard, and
byte-identical output whatever the input's block split."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from neural_search_ray.config import IndexConfig
from neural_search_ray.corpus.generator import generate_pages
from neural_search_ray.index.build import (
    build_index,
    index_config_from_manifest,
    term_bucket_of,
)
from neural_search_ray.index.manifest import DOCLEN_BUCKET, IndexManifest
from neural_search_ray.index.merge import merge_segments
from neural_search_ray.index.reshard import reshard_index
from neural_search_ray.query.engine import IndexSearcher
from tests.conftest import index_fingerprint
from tests.test_bwc import FIXTURE_DIR, _more_docs


@pytest.fixture(scope="module")
def pages(ray_session):
    """400 synthetic pages. Their terms' order of first appearance
    depends on where the input is split into blocks (the sf corpus's
    does not), so a writer that codes terms in that order shows it."""
    ds = generate_pages(400, seed=1).select_columns(["doc_id", "text"])
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _blocks(table, n: int):
    """``table`` as a Dataset of ``n`` input blocks."""
    step = -(-table.num_rows // n)
    return ray.data.from_arrow(
        [table.slice(i * step, step) for i in range(n)]
    )


def _post_files(index_dir: str, segment_id: str) -> list[dict]:
    seg = IndexManifest.load(index_dir).segments[segment_id]
    return [f for f in seg["files"] if f["term_bucket"] != DOCLEN_BUCKET]


def _check_posting_files(index_dir: str, skip=()) -> None:
    """Every posting file (of the segments not in ``skip``) holds its
    terms in sorted order, each in the bucket ``crc32(term) %
    num_term_buckets`` the file is listed under."""
    m = IndexManifest.load(index_dir)
    for seg in m.complete_segments():
        if seg["segment_id"] in skip:
            continue
        for f in seg["files"]:
            if f["term_bucket"] == DOCLEN_BUCKET:
                continue
            terms = pq.read_table(
                os.path.join(index_dir, f["path"]), columns=["term"]
            )["term"].to_pylist()
            assert terms and terms == sorted(terms), f["path"]
            assert {term_bucket_of(t, m.num_term_buckets) for t in terms} == {
                f["term_bucket"]
            }


@pytest.fixture(scope="module")
def layout_index(pages, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("layout"))
    build_index(ray.data.from_arrow(pages), d, IndexConfig(num_shards=3, num_salts=4))
    return d


def test_segment_writes_shards_times_salts_posting_files(layout_index):
    m = IndexManifest.load(layout_index)
    assert m.num_term_buckets == 4
    assert index_config_from_manifest(m).num_salts == 4
    files = m.segments["seg-000"]["files"]
    post = _post_files(layout_index, "seg-000")
    assert sorted((f["doc_shard"], f["term_bucket"]) for f in post) == [
        (s, b) for s in range(3) for b in range(4)
    ]
    assert sorted(
        f["doc_shard"] for f in files if f["term_bucket"] == DOCLEN_BUCKET
    ) == [0, 1, 2]
    on_disk = os.listdir(os.path.join(layout_index, "segments", "seg-000"))
    assert len(on_disk) == len(files) == 3 * 4 + 3
    _check_posting_files(layout_index)


@pytest.mark.parametrize("new_num_salts,want_buckets", [(2, 2), (None, 4)])
def test_reshard_writes_new_shards_times_salts(
    layout_index, tmp_path, new_num_salts, want_buckets
):
    out = str(tmp_path / "rs")
    m = reshard_index(layout_index, out, 5, new_num_salts=new_num_salts)
    assert m.num_term_buckets == want_buckets
    post = _post_files(out, "resharded-000")
    assert len(post) == 5 * want_buckets
    _check_posting_files(out)


def test_segment_added_to_bwc_fixture_keeps_its_modulus(tmp_path, ray_session):
    """The v1 fixture records num_term_buckets 2 for 2 shards; a segment
    added with one salt per shard still lands in its 2 buckets, so the
    old and new segments' merge groups line up."""
    idx = str(tmp_path / "bwc")
    shutil.copytree(FIXTURE_DIR, idx)
    m = build_index(
        ray.data.from_arrow(_more_docs()),
        idx,
        IndexConfig(num_shards=2, num_salts=1),
        segment_id="seg-001",
    )
    assert m.num_term_buckets == 2
    post = _post_files(idx, "seg-001")
    assert {(f["doc_shard"], f["term_bucket"]) for f in post} == {
        (s, b) for s in range(2) for b in range(2)
    }
    _check_posting_files(idx, skip=["seg-000"])  # the fixture's own segment


def test_build_refuses_other_shard_count(tmp_path, ray_session):
    idx = str(tmp_path / "shards")
    words = ["alpha", "beta", "gamma", "delta"]
    first = [{"doc_id": i, "text": words[i % 4]} for i in range(20)]
    more = [{"doc_id": 20 + i, "text": "gamma"} for i in range(20)]
    build_index(ray.data.from_items(first), idx, IndexConfig(num_shards=2))
    with pytest.raises(ValueError, match="num_shards=2; cannot add segments"):
        build_index(
            ray.data.from_items(more), idx, IndexConfig(num_shards=4),
            segment_id="seg-001",
        )
    s = IndexSearcher(idx)
    assert s.n_docs == 20
    assert len(s.search_bm25(["gamma"], 100)[0]) == 5


@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("codec", ["varint", "for"])
def test_fingerprint_independent_of_input_blocks(
    pages, tmp_path, codec, positions
):
    """The same documents split into 1, 4 or 8 input blocks give
    byte-identical indexes, after the build and after a merge, with
    every posting file's terms in sorted order."""
    cfg = IndexConfig(
        num_shards=3, num_salts=2, posting_codec=codec, index_positions=positions
    )
    half = pages.num_rows // 2
    prints = {}
    for n in (1, 4, 8):
        d = str(tmp_path / f"blocks{n}")
        for seg, part in (
            ("seg-a", pages.slice(0, half)), ("seg-b", pages.slice(half))
        ):
            build_index(_blocks(part, n), d, cfg, segment_id=seg)
        _check_posting_files(d)
        built = index_fingerprint(d)
        merge_segments(d, "merged")
        _check_posting_files(d)
        prints[n] = (built, index_fingerprint(d))
    assert prints[4] == prints[1]
    assert prints[8] == prints[1]
