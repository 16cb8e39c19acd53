"""End-to-end: build index over sf0.001 documents → BM25 top-k rank-identical
(docIDs AND scores) vs the single-process oracle."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from neural_search_ray.query.engine import IndexSearcher, SearchStage

from tests.oracle import OracleIndex

QUERIES = [
    "fast hash join",
    "window merge sort",
    "spark stream batch",
    "the quick data table",
    "vector filter query row",
    "customer order line",
    "nonexistentterm zzz",
    "dup",
]


@pytest.fixture(scope="module")
def built(tmp_path_factory, sf_dir, ray_session):
    index_dir = str(tmp_path_factory.mktemp("idx"))
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    manifest = build_index(ds, index_dir, IndexConfig(num_shards=4, num_salts=2))
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    oracle = OracleIndex(dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())))
    return index_dir, manifest, oracle


def test_global_stats(built):
    index_dir, manifest, oracle = built
    assert manifest.n_docs == oracle.n_docs
    assert manifest.avgdl == pytest.approx(oracle.avgdl)


def test_df_parity(built):
    index_dir, _, oracle = built
    searcher = IndexSearcher(index_dir)
    for term in ["data", "the", "join", "window", "zzzznope"]:
        assert searcher.local_df(term) == oracle.df.get(term, 0), term


def test_doc_lengths(built):
    index_dir, _, oracle = built
    searcher = IndexSearcher(index_dir)
    ids = np.array(sorted(oracle.dl)[:50], dtype=np.int64)
    got = searcher.doc_length(ids)
    want = [oracle.dl[i] for i in ids]
    assert got.tolist() == want


def test_bm25_rank_identity(built):
    index_dir, _, oracle = built
    searcher = IndexSearcher(index_dir)
    for q in QUERIES:
        from neural_search_ray.analysis.analyzer import tokenize

        docs, scores = searcher.search_bm25(tokenize(q), k=10)
        odocs, oscores = oracle.search_bm25(q, k=10)
        assert docs.tolist() == odocs, f"doc mismatch for {q!r}"
        assert np.allclose(scores, oscores, rtol=1e-12, atol=1e-12), q


def test_sparse_dot_rank_identity(built):
    index_dir, _, oracle = built
    searcher = IndexSearcher(index_dir)
    qw = {"data": 2.0, "join": 1.0, "window": 0.5}
    docs, scores = searcher.search_sparse_dot(qw, k=10)
    odocs, oscores = oracle.search_sparse_dot(qw, k=10)
    assert docs.tolist() == odocs
    assert np.allclose(scores, oscores)


def test_search_stage_batch(built, ray_session):
    index_dir, _, oracle = built
    qds = ray.data.from_items(
        [{"query_id": i, "query_text": q} for i, q in enumerate(QUERIES)]
    )
    out = qds.map_batches(
        SearchStage,
        fn_constructor_kwargs=dict(index_dir=index_dir, k=5),
        concurrency=1,
        batch_format="pyarrow",
    ).take_all()
    by_q = {}
    for r in out:
        by_q.setdefault(r["query_id"], []).append(r)
    for i, q in enumerate(QUERIES):
        odocs, _ = oracle.search_bm25(q, k=5)
        got = [r["doc_id"] for r in sorted(by_q.get(i, []), key=lambda r: r["rank"])]
        assert got == odocs, q


def test_shard_subset_union(built):
    """Searching shard subsets with driver-supplied global dfs merges to the
    same top-k as the full searcher (the multi-actor query path)."""
    index_dir, _, oracle = built
    from neural_search_ray.analysis.analyzer import tokenize
    from neural_search_ray.query.bm25 import topk_desc

    full = IndexSearcher(index_dir)
    terms = sorted(set(tokenize("fast hash join data")))
    gdfs = np.array([full.local_df(t) for t in terms], dtype=np.float64)
    parts = []
    for shards in ([0, 1], [2, 3]):
        s = IndexSearcher(index_dir, shards=shards)
        # patch global stats (driver would supply these)
        s.n_docs, s.avgdl = full.n_docs, full.avgdl
        d, sc = s.search_bm25(terms, k=10, global_dfs=gdfs)
        parts.append((d, sc))
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    md, ms = topk_desc(docs, scores, 10)
    fd, fs = full.search_bm25(terms, k=10)
    assert md.tolist() == fd.tolist()
    assert np.allclose(ms, fs)


def test_resume_skips_complete_segment(built, sf_dir):
    index_dir, manifest, _ = built
    import time

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t0 = time.time()
    m2 = build_index(ds, index_dir, IndexConfig(num_shards=4, num_salts=2))
    assert time.time() - t0 < 2.0  # skipped, no pipeline run
    assert m2.n_docs == manifest.n_docs


class TestQuantizedTier:
    def test_quantized_build_and_dot(self, tmp_path):
        """weight_quantization='u8' end-to-end: postings store
        FeatureField-encoded freqs, the searcher decodes to the weight
        grid, the forward sidecar stores uint8 codes on disk."""
        import pyarrow.parquet as pq
        import ray.data

        from neural_search_ray.config import IndexConfig
        from neural_search_ray.index.build import build_index
        from neural_search_ray.index.forward import ShardForward, build_forward_index
        from neural_search_ray.query.engine import IndexSearcher

        t = pa.table({
            "doc_id": pa.array(np.arange(6, dtype=np.int64)),
            "text": pa.array([
                "w", "w w", "w w w", "w w w w w",  # tf 1,2,3,5 → weights 1,2,3,3
                "z z z z z z z", "w z",
            ]),
        })
        idx = str(tmp_path / "q8")
        build_index(
            ray.data.from_arrow(t), idx,
            IndexConfig(num_shards=2, num_salts=1, weight_quantization="u8"),
        )
        s = IndexSearcher(idx)
        docs, tfs = s.postings("w")
        got = dict(zip(docs.tolist(), tfs.tolist()))
        assert got == {0: 1.0, 1: 2.0, 2: 3.0, 3: 3.0, 5: 1.0}  # clipped at ceiling
        d, sc = s.search_sparse_dot({"w": 2.0, "z": 1.0}, k=3)
        # doc2/doc3: w=3.0 → 6.0 (tie → doc2 first); doc1: w=2.0 → 4.0
        assert d.tolist() == [2, 3, 1]
        assert sc.tolist() == [6.0, 6.0, 4.0]
        # forward sidecar stores uint8 on disk, dequantizes at load
        build_forward_index(idx)
        for shard in (0, 1):
            flat = pq.read_table(str(tmp_path / "q8" / "forward" / f"flat_s{shard:04d}.parquet"))
            assert pa.types.is_uint8(flat["weight"].type)
        fwd = ShardForward(idx, 0)
        assert set(np.unique(fwd.flat_w)) <= {1.0, 2.0, 3.0}

    def test_feature_roundtrip_truncates_off_grid(self):
        from neural_search_ray.stages.quantize import feature_decode, feature_encode

        w = np.array([1.37, 2.9, 0.004], dtype=np.float32)
        back = feature_decode(feature_encode(w))
        assert np.all(back <= w + 1e-12)  # truncation, never inflation
        assert np.allclose(back, w, rtol=2 ** -7)  # 7 mantissa bits kept


class TestExplainBM25:
    def test_components_sum_to_score(self, ray_session, tmp_path):
        import ray as _ray

        from neural_search_ray.config import IndexConfig
        from neural_search_ray.index.build import build_index
        from neural_search_ray.query.engine import IndexSearcher

        d = str(tmp_path / "exp_idx")
        build_index(
            _ray.data.read_parquet(
                "/root/testdata/sf0.001/documents.parquet",
                columns=["doc_id", "text"],
            ),
            d,
            IndexConfig(num_shards=2, num_salts=2),
        )
        s = IndexSearcher(d)
        for q in ("data query", "merge sort window", "the fast join"):
            terms = q.split()
            docs, scores = s.search_bm25(terms, k=5)
            for doc, score in zip(docs.tolist(), scores.tolist()):
                rows = s.explain_bm25(terms, doc)
                assert rows, (q, doc)
                total = sum(r["contribution"] for r in rows)
                np.testing.assert_allclose(total, score, rtol=1e-12)
                for r in rows:
                    assert r["tf"] >= 1 and r["df"] >= 1
                    np.testing.assert_allclose(
                        r["contribution"], r["idf"] * r["tf_norm"],
                        rtol=1e-15,
                    )

    def test_unmatched_doc_empty(self, ray_session, tmp_path):
        import ray as _ray

        from neural_search_ray.config import IndexConfig
        from neural_search_ray.index.build import build_index
        from neural_search_ray.query.engine import IndexSearcher

        d = str(tmp_path / "exp_idx2")
        build_index(
            _ray.data.read_parquet(
                "/root/testdata/sf0.001/documents.parquet",
                columns=["doc_id", "text"],
            ),
            d,
            IndexConfig(num_shards=2, num_salts=2),
        )
        s = IndexSearcher(d)
        assert s.explain_bm25(["zzznope"], 0) == []
