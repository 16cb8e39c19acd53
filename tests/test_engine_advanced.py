"""Engine-level tests: MaxScore pruning exactness, multi-segment builds
(the merge path), skew bounding, incremental/resume semantics."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from neural_search_ray.config import IndexConfig
from neural_search_ray.corpus.generator import generate_pages
from neural_search_ray.index.build import build_index
from neural_search_ray.query.engine import IndexSearcher, topk_desc

from tests.oracle import OracleIndex


@pytest.fixture(scope="module")
def skewed_index(tmp_path_factory, ray_session):
    """Synthetic pages (Zipf skew: 'the' in ~most docs) built in TWO
    segments — exercises the segment-merge semantics."""
    index_dir = str(tmp_path_factory.mktemp("skidx"))
    cfg = IndexConfig(num_shards=4, num_salts=2)
    ds1 = generate_pages(400, seed=42).filter(lambda r: r["doc_id"] < 250)
    ds2 = generate_pages(400, seed=42).filter(lambda r: r["doc_id"] >= 250)
    build_index(ds1, index_dir, cfg, segment_id="seg-a", id_column="doc_id")
    build_index(ds2, index_dir, cfg, segment_id="seg-b", id_column="doc_id")
    # oracle over the SAME corpus (single process)
    import pyarrow as pa

    from neural_search_ray.corpus.generator import _gen_batch

    t = _gen_batch(pa.table({"id": list(range(400))}), 42)
    oracle = OracleIndex(dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist())))
    return index_dir, oracle


def test_multi_segment_global_stats(skewed_index):
    index_dir, oracle = skewed_index
    s = IndexSearcher(index_dir)
    assert s.n_docs == oracle.n_docs == 400
    assert s.avgdl == pytest.approx(oracle.avgdl)
    for term in ["the", "data", "w0999"]:
        assert s.local_df(term) == oracle.df.get(term, 0), term


def test_multi_segment_rank_identity(skewed_index):
    index_dir, oracle = skewed_index
    s = IndexSearcher(index_dir)
    for q in ["the data query", "merge sort", "w0500 w0200", "of the and"]:
        d, sc = s.search_bm25(q.split(), k=10)
        od, osc = oracle.search_bm25(q, k=10)
        assert d.tolist() == od, q
        assert np.allclose(sc, osc, atol=1e-12), q


def test_maxscore_equals_full(skewed_index):
    index_dir, _ = skewed_index
    s = IndexSearcher(index_dir)
    for q in ["the data", "the of and", "w0500 the", "data w0100 w0400"]:
        d1, s1 = s.search_bm25(q.split(), k=10, pruning="maxscore")
        d2, s2 = s.search_bm25(q.split(), k=10, pruning="none")
        assert d1.tolist() == d2.tolist(), q
        assert np.allclose(s1, s2, atol=0), q


def test_hot_term_bounded_by_doc_sharding(skewed_index):
    """Skew handling: a stopword-grade term's postings appear in ALL doc
    shards (one group each), each bounded by the shard's doc count — no
    single shuffle group sees the whole posting list."""
    index_dir, oracle = skewed_index
    s = IndexSearcher(index_dir)
    g = s._gid["the"]
    rows = s._row_order[s._gstart[g] : s._gend[g]]
    assert rows.size >= 4  # >= num_shards entries (2 segments x shards hit)
    dfs = s._p_df[rows]
    total_df = int(dfs.sum())
    assert total_df == oracle.df["the"]
    assert int(dfs.max()) < total_df  # split, not one group


def test_topk_ties():
    docs = np.array([5, 1, 3, 2, 4], dtype=np.int64)
    scores = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
    d, s = topk_desc(docs, scores, 2)
    assert d.tolist() == [1, 2]  # ties → doc asc


def test_topk_partition_boundary_ties():
    # >4k docs all tied: argpartition pool must include every tie
    docs = np.arange(100, dtype=np.int64)[::-1].copy()
    scores = np.ones(100)
    d, s = topk_desc(docs, scores, 3)
    assert d.tolist() == [0, 1, 2]


def test_incremental_segment_addition(tmp_path, ray_session):
    """Adding a segment later (skip_existing analogue): stats and results
    update to include the new docs."""
    cfg = IndexConfig(num_shards=2, num_salts=1)
    idx = str(tmp_path / "inc")
    ds1 = generate_pages(100, seed=7)
    m1 = build_index(ds1, idx, cfg, segment_id="s0")
    assert m1.n_docs == 100
    ds2 = generate_pages(150, seed=7).filter(lambda r: r["doc_id"] >= 100)
    m2 = build_index(ds2, idx, cfg, segment_id="s1")
    assert m2.n_docs == 150
    s = IndexSearcher(idx)
    assert s.n_docs == 150


def test_distributed_searcher_rank_identity(skewed_index, ray_session):
    from neural_search_ray.query.distributed import DistributedSearcher

    index_dir, oracle = skewed_index
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        for q in ["the data query", "merge w0500", "of and the"]:
            d, sc = ds.search_bm25(q.split(), k=10)
            od, osc = oracle.search_bm25(q, k=10)
            assert d.tolist() == od, q
            assert np.allclose(sc, osc, atol=1e-12), q
    finally:
        ds.shutdown()


def test_empty_shard_subset_all_query_paths(tmp_path, ray_session):
    """A shard subset holding ZERO docs (real at fleet scale: hash
    sharding over a filtered slice leaves shards empty) returns empty
    results — never an IndexError — across every query path."""
    from neural_search_ray.analysis.analyzer import tokenize
    from neural_search_ray.corpus.extract import extract_text_stage
    from neural_search_ray.corpus.generator import generate_pages

    d = str(tmp_path / "tiny")
    ds = generate_pages(3, seed=1).map_batches(
        extract_text_stage, batch_format="pyarrow"
    )
    build_index(ds, d, IndexConfig(
        num_shards=8, num_salts=1, index_positions=True
    ))
    s = IndexSearcher(d, shards=[7])  # 3 docs over 8 shards: 7 is empty
    assert s.search_bm25(tokenize("data query"), k=5)[0].size == 0
    assert s.search_phrase(tokenize("data query"), k=5)[0].size == 0
    assert s.search_bool(["data"], ["query"], [], 5)[0].size == 0
    assert s.search_prefix("dat", k=5)[0].size == 0
    assert s.search_lm(tokenize("data"), 5)[0].size == 0
    assert s.search_ids([0, 1], k=5)[0].size == 0
    # the full pool over the same index still answers (empty-chunk
    # actors dropped; empty shards contribute nothing)
    from neural_search_ray.query.distributed import DistributedSearcher

    dd = DistributedSearcher(d, num_actors=4)
    try:
        docs, _ = dd.search_bm25(["data"], k=5)
        assert docs.size > 0
    finally:
        dd.shutdown()


def test_serving_actor_crash_recovery(skewed_index, ray_session):
    """Fault injection for the serving pool (SURVEY §4 'fail the
    partition and retry', serving side): kill a shard actor while a
    query batch is IN FLIGHT and again between batches — Ray restarts
    it (max_restarts), retries the task (max_task_retries), and the
    rebuilt read-only actor returns the IDENTICAL top-k."""
    import ray as _ray

    from neural_search_ray.query.distributed import DistributedSearcher

    index_dir, oracle = skewed_index
    queries = ["the data query", "merge w0500", "of and the"]
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        expected = [ds.search_bm25(q.split(), k=10) for q in queries]

        # in-flight kill: submit a batched msearch directly to actor 0,
        # kill it before collecting — the retry must still answer
        norm = [sorted(set(q.split())) for q in queries]
        gdfs = [[ds._gdf[t] for t in ts] for ts in norm]
        ref = ds.actors[0].msearch.remote(norm, 10, gdfs)
        _ray.kill(ds.actors[0], no_restart=False)
        parts = _ray.get(ref)  # survives via restart + task retry
        assert len(parts) == len(queries)

        # between-batches kill of the other actor, then a full
        # coordinator-path batch: rank identity must hold exactly
        _ray.kill(ds.actors[1], no_restart=False)
        got = ds.msearch_bm25([q.split() for q in queries], k=10)
        for (gd, gs), (ed, es), q in zip(got, expected, queries):
            assert gd.tolist() == ed.tolist(), q
            assert np.allclose(gs, es, atol=1e-12), q
    finally:
        ds.shutdown()


def test_msearch_identity_and_transport(skewed_index, ray_session):
    """msearch (batched multi-query serving) must return per-query
    results bit-identical to sequential search_bm25, resolve ALL batch
    terms in the one df round, and handle empty/duplicate queries."""
    from neural_search_ray.query.distributed import DistributedSearcher

    index_dir, oracle = skewed_index
    queries = ["the data query", "merge w0500", "of and the", "", "the data query"]
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        batch = ds.msearch_bm25([q.split() for q in queries], k=10)
        assert len(batch) == len(queries)
        # one df round resolved the union of all terms
        assert set(ds._gdf) == {t for q in queries for t in q.split()}
        for q, (d, sc) in zip(queries, batch):
            sd, ssc = ds.search_bm25(q.split(), k=10)
            assert d.tolist() == sd.tolist(), q
            assert np.array_equal(sc, ssc), q
            od, osc = oracle.search_bm25(q, k=10)
            assert d.tolist() == od, q
            assert np.allclose(sc, osc, atol=1e-12), q
    finally:
        ds.shutdown()


def test_for_codec_rank_identity(tmp_path, ray_session):
    """An index built with posting_codec='for' (bit-packed FOR) returns
    bitwise-identical BM25 results to the default varint build, across
    the maxscore, dense, and block-max paths — and a second segment with
    a mismatched codec is refused."""
    import pytest

    from neural_search_ray.corpus.generator import generate_pages
    from neural_search_ray.index.build import build_index

    ds = generate_pages(800, seed=19)
    cfgs = {}
    for codec in ("varint", "for"):
        idx = str(tmp_path / codec)
        cfg = IndexConfig(num_shards=4, num_salts=2, posting_codec=codec)
        build_index(ds, idx, cfg)
        cfgs[codec] = IndexSearcher(idx)
    sv, sf = cfgs["varint"], cfgs["for"]
    assert sf.manifest.posting_codec == "for"
    for q in ["the data query", "merge w0500 of", "the of and", "w0007"]:
        for pruning in ("maxscore", "none"):
            dv, scv = sv.search_bm25(q.split(), k=10, pruning=pruning)
            df_, scf = sf.search_bm25(q.split(), k=10, pruning=pruning)
            assert dv.tolist() == df_.tolist(), (q, pruning)
            assert np.array_equal(scv, scf), (q, pruning)
    with pytest.raises(ValueError, match="posting_codec"):
        build_index(
            ds, str(tmp_path / "for"),
            IndexConfig(num_shards=4, num_salts=2, posting_codec="varint"),
            segment_id="s1",
        )


def test_distributed_warmup_identity(skewed_index, ray_session):
    """Batched warmup must not change any result (it only pre-populates
    the same LRU caches the lazy path fills) — and must cover the
    df-coordinator phase so warm queries are a single RPC round."""
    from neural_search_ray.query.distributed import DistributedSearcher

    index_dir, oracle = skewed_index
    queries = ["the data query", "merge w0500", "of and the"]
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        ds.warmup([q.split() for q in queries])
        assert set(ds._gdf) == {t for q in queries for t in q.split()}
        for q in queries:
            d, sc = ds.search_bm25(q.split(), k=10)
            od, osc = oracle.search_bm25(q, k=10)
            assert d.tolist() == od, q
            assert np.allclose(sc, osc, atol=1e-12), q
    finally:
        ds.shutdown()


@pytest.mark.parametrize("num_actors", [0, -1])
def test_coordinators_reject_empty_pool(skewed_index, num_actors):
    """A pool of no actors is refused at construction, not at the first
    query (an empty fan-out would raise deep in the merge, or answer an
    aggregation with nothing)."""
    from neural_search_ray.query.distributed import (
        DistributedSearcher,
        MultiFieldDistributedSearcher,
    )

    index_dir, _ = skewed_index
    with pytest.raises(ValueError, match="num_actors"):
        DistributedSearcher(index_dir, num_actors=num_actors)
    with pytest.raises(ValueError, match="num_actors"):
        MultiFieldDistributedSearcher(
            [("text", index_dir, 1.0)], num_actors=num_actors
        )


@pytest.mark.parametrize("similarity", ["dirichlet", "jelinek_mercer", "dfi"])
def test_distributed_search_lm_identity(skewed_index, similarity):
    """The pool's LM similarities (global cf = Σ local cf, total tokens
    from the manifest) return the single searcher's doc ids and exact
    scores."""
    from neural_search_ray.query.distributed import DistributedSearcher

    index_dir, _ = skewed_index
    s = IndexSearcher(index_dir)
    assert s.total_tokens() == sum(
        seg["sum_dl"] for seg in s.manifest.complete_segments()
    )
    ds = DistributedSearcher(index_dir, num_actors=2)
    try:
        for q in ["the data query", "merge w0500", "of and the", "zzznope"]:
            d, sc = ds.search_lm(q.split(), k=10, similarity=similarity)
            sd, ssc = s.search_lm(q.split(), k=10, similarity=similarity)
            assert d.tolist() == sd.tolist(), q
            assert np.array_equal(sc, ssc), q
    finally:
        ds.shutdown()


def test_rebuild_is_byte_deterministic(tmp_path, ray_session):
    """A re-run after a simulated crash (manifest lost mid-segment)
    overwrites group files with byte-identical content — resumability
    depends on deterministic outputs, not on which attempt wrote them."""
    import hashlib
    import json
    import os

    cfg = IndexConfig(num_shards=2, num_salts=2)

    def file_hashes(d):
        out = {}
        for root, _, files in os.walk(os.path.join(d, "segments")):
            for f in files:
                p = os.path.join(root, f)
                out[os.path.relpath(p, d)] = hashlib.md5(open(p, "rb").read()).hexdigest()
        return out

    idx = str(tmp_path / "det")
    build_index(generate_pages(120, seed=3), idx, cfg)
    h1 = file_hashes(idx)
    # simulate crash: manifest gone, stale partial files remain
    os.remove(os.path.join(idx, "manifest.json"))
    build_index(generate_pages(120, seed=3), idx, cfg)
    h2 = file_hashes(idx)
    assert h1 == h2


def test_norm4_quantized_rank_identity(tmp_path, ray_session):
    """Optional SmallFloat-style dl quantization: engine and oracle pinned
    to the same rule stay rank-identical."""
    from neural_search_ray.config import BM25Config
    from neural_search_ray.corpus.generator import _gen_batch
    from neural_search_ray.query.bm25 import dl_quantize_norm4
    import pyarrow as pa_

    # quantizer properties
    assert dl_quantize_norm4(np.array([0, 5, 7])).tolist() == [0, 5, 7]
    assert dl_quantize_norm4(np.array([8, 9, 100, 1000])).tolist() == [8, 9, 96, 960]

    cfg = IndexConfig(num_shards=2, num_salts=1,
                      bm25=BM25Config(norm_quantization="norm4"))
    idx = str(tmp_path / "n4")
    build_index(generate_pages(200, seed=21), idx, cfg)
    s = IndexSearcher(idx)
    t = _gen_batch(pa_.table({"id": list(range(200))}), 21)
    oracle = OracleIndex(
        dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist())),
        norm_quantization="norm4",
    )
    # avgdl differs between engine (exact-sum manifest) and oracle
    # (quantized sum) — pin engine semantics: avgdl from EXACT dls
    oracle.avgdl = s.avgdl
    for q in ["the data query", "merge sort", "of and the"]:
        d, sc = s.search_bm25(q.split(), k=10)
        od, osc = oracle.search_bm25(q, k=10)
        assert d.tolist() == od, q
        assert np.allclose(sc, osc, atol=1e-12), q


class TestBlockMax:
    def test_blockmax_exact_and_skips(self, tmp_path):
        """Doc-locality skew: hot-tf docs cluster in the first blocks, so
        block-max UBs discriminate — the engine must skip cold blocks AND
        return results bitwise-identical to the unpruned scan."""
        import ray.data

        from neural_search_ray.config import IndexConfig
        from neural_search_ray.index.build import build_index
        from neural_search_ray.query.engine import IndexSearcher
        from neural_search_ray.state.stats import stats

        n = 60_000
        # equal dl everywhere so length norm can't invert the skew:
        # hot docs carry tf_w=6/tf_x=2, cold docs tf 1/1 + filler
        texts = [
            "w w w w w w x x" if i < 2048 else "w x f f f f f f"
            for i in range(n)
        ]
        t = pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts),
        })
        idx = str(tmp_path / "bmw")
        build_index(ray.data.from_arrow(t), idx, IndexConfig(num_shards=1, num_salts=1))
        s = IndexSearcher(idx)
        before = stats.snapshot().get("blockmax_blocks_skipped", 0)
        d1, s1 = s.search_bm25(["w", "x"], k=10)
        skipped = stats.snapshot().get("blockmax_blocks_skipped", 0) - before
        d0, s0 = s.search_bm25(["w", "x"], k=10, pruning="none")
        assert d1.tolist() == d0.tolist()
        assert np.array_equal(s1, s0)
        assert skipped > 40  # ~56 of 59 blocks are cold and must be skipped

    def test_blockmax_tie_not_pruned(self, tmp_path):
        """Every doc identical → all scores tie; block-max must not drop
        the smallest doc_ids (ties enter on equality, prune is strict)."""
        import ray.data

        from neural_search_ray.config import IndexConfig
        from neural_search_ray.index.build import build_index
        from neural_search_ray.query.engine import IndexSearcher

        n = 8192
        t = pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(["w x"] * n),
        })
        idx = str(tmp_path / "ties")
        build_index(ray.data.from_arrow(t), idx, IndexConfig(num_shards=1, num_salts=1))
        s = IndexSearcher(idx)
        d1, _ = s.search_bm25(["w", "x"], k=10)
        assert d1.tolist() == list(range(10))  # tie-break: doc_id asc
