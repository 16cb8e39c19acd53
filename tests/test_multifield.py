"""multi_match over per-field indexes: rank/score identity against an
independent per-field BM25 reference (tests/oracle.py structures), plus
match_bool_prefix and the completion suggester."""

import math

import numpy as np
import pyarrow as pa
import pytest

from neural_search_ray.config import IndexConfig
from neural_search_ray.corpus.generator import _gen_batch, generate_pages
from neural_search_ray.index.build import build_index
from neural_search_ray.pipelines.suite import _title_batch
from neural_search_ray.query.engine import IndexSearcher
from neural_search_ray.query.multifield import MultiFieldSearcher

from tests.oracle import OracleIndex

K1, B = 1.2, 0.75
N_DOCS = 300


@pytest.fixture(scope="module")
def mf(tmp_path_factory, ray_session):
    """Body + title (first 6 tokens) indexes over one corpus, plus the
    matching OracleIndex per field."""
    body_dir = str(tmp_path_factory.mktemp("mf_body"))
    title_dir = str(tmp_path_factory.mktemp("mf_title"))
    cfg = IndexConfig(num_shards=2, num_salts=2)
    ds = generate_pages(N_DOCS, seed=7)
    build_index(ds, body_dir, cfg)
    build_index(
        ds.map_batches(_title_batch, batch_format="pyarrow"),
        title_dir,
        cfg,
        text_column="title",
    )
    t = _gen_batch(pa.table({"id": list(range(N_DOCS))}), 7)
    docs = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    titles = {d: " ".join(x.split(" ")[:6]) for d, x in docs.items()}
    return {
        "body": (IndexSearcher(body_dir), OracleIndex(docs)),
        "title": (IndexSearcher(title_dir), OracleIndex(titles)),
    }


def _field_scores(oracle: OracleIndex, terms: list[str]) -> dict[int, float]:
    """Full boolean-OR BM25 score map (sorted-term accumulation)."""
    scores: dict[int, float] = {}
    for t in sorted(set(terms)):
        df = oracle.df.get(t, 0)
        if df == 0:
            continue
        idf = math.log1p((oracle.n_docs - df + 0.5) / (df + 0.5))
        for doc_id, c in oracle.tf.items():
            f = c.get(t, 0)
            if f == 0:
                continue
            denom = f + K1 * (1 - B + B * oracle.dl[doc_id] / oracle.avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * f / denom
    return scores


def _ref_multi_match(fields, terms, match_type, tie_breaker=0.0):
    if match_type == "cross_fields":
        n = fields[0][1].n_docs
        scores: dict[int, float] = {}
        for t in sorted(set(terms)):
            df = max(o.df.get(t, 0) for _, o, _ in fields)
            if df == 0:
                continue
            idf = math.log1p((n - df + 0.5) / (df + 0.5))
            per_doc: dict[int, float] = {}
            for _, o, boost in fields:
                for doc_id, c in o.tf.items():
                    f = c.get(t, 0)
                    if f == 0:
                        continue
                    denom = f + K1 * (1 - B + B * o.dl[doc_id] / o.avgdl)
                    s = idf * f / denom * boost
                    per_doc[doc_id] = max(per_doc.get(doc_id, 0.0), s)
            for doc_id, s in per_doc.items():
                scores[doc_id] = scores.get(doc_id, 0.0) + s
    else:
        per_field = [
            {d: s * boost for d, s in _field_scores(o, terms).items()}
            for _, o, boost in fields
        ]
        union = set().union(*[set(m) for m in per_field])
        scores = {}
        for d in union:
            vals = [m.get(d, 0.0) for m in per_field]
            if match_type == "most_fields":
                scores[d] = sum(vals)
            else:
                mx = max(vals)
                scores[d] = mx + tie_breaker * (sum(vals) - mx)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return [d for d, _ in ranked], [s for _, s in ranked]


QUERIES = ["the data query", "merge sort", "w0100 w0042 the", "of and"]


@pytest.mark.parametrize("match_type,tb", [
    ("best_fields", 0.0),
    ("best_fields", 0.3),
    ("most_fields", 0.0),
    ("cross_fields", 0.0),
])
def test_multi_match_identity(mf, match_type, tb):
    fields_s = [("title", mf["title"][0], 2.0), ("text", mf["body"][0], 1.0)]
    fields_o = [("title", mf["title"][1], 2.0), ("text", mf["body"][1], 1.0)]
    for q in QUERIES:
        terms = q.split()
        d, sc = MultiFieldSearcher(fields_s).search_multi_match(
            terms, k=10, match_type=match_type, tie_breaker=tb
        )
        od, osc = _ref_multi_match(fields_o, terms, match_type, tb)
        assert d.tolist() == od, (match_type, q)
        assert np.allclose(sc, osc, atol=1e-9), (match_type, q)


def test_multi_match_validation(mf):
    fields = [("text", mf["body"][0], 1.0)]
    with pytest.raises(ValueError, match="match_type"):
        MultiFieldSearcher(fields).search_multi_match(
            ["data"], match_type="phrase_fields")
    with pytest.raises(ValueError, match="tie_breaker"):
        MultiFieldSearcher(fields).search_multi_match(["data"], tie_breaker=1.5)


def test_multi_match_corpus_mismatch(mf, tmp_path, ray_session):
    small_dir = str(tmp_path / "small")
    build_index(
        generate_pages(50, seed=9), small_dir, IndexConfig(num_shards=2, num_salts=1)
    )
    fields = [("text", mf["body"][0], 1.0), ("other", IndexSearcher(small_dir), 1.0)]
    with pytest.raises(ValueError, match="same corpus"):
        MultiFieldSearcher(fields).search_multi_match(["data"])


def test_match_bool_prefix_equals_query_string(mf):
    s = mf["body"][0]
    for q in ["data quer", "merge so", "the w01"]:
        d1, s1 = s.search_match_bool_prefix(q, k=10)
        toks = q.split()
        qs = " ".join(toks[:-1] + [toks[-1] + "*"])
        d2, s2 = s.search_simple_query_string(qs, k=10)
        assert d1.tolist() == d2.tolist(), q
        assert np.allclose(s1, s2, atol=1e-12), q


def test_match_bool_prefix_prefix_only_docs_match(mf):
    s, o = mf["body"]
    docs, scores = s.search_match_bool_prefix("zzznope w00", k=10)
    # first term matches nothing; prefix-only docs score the constant 1.0
    assert docs.size > 0
    assert np.all(scores == 1.0)


def test_distributed_multi_match_identity(mf, tmp_path_factory, ray_session):
    """MultiFieldDistributedSearcher is rank/score-identical to the
    single-process path for every match_type."""
    from neural_search_ray.query.distributed import MultiFieldDistributedSearcher

    body_s, title_s = mf["body"][0], mf["title"][0]
    field_dirs = [
        ("title", title_s.index_dir, 2.0),
        ("text", body_s.index_dir, 1.0),
    ]
    d = MultiFieldDistributedSearcher(field_dirs, num_actors=2)
    try:
        fields_s = [("title", title_s, 2.0), ("text", body_s, 1.0)]
        for mt, tb in [("best_fields", 0.3), ("most_fields", 0.0), ("cross_fields", 0.0)]:
            for q in QUERIES:
                dd, ds_ = d.search_multi_match(
                    q.split(), k=10, match_type=mt, tie_breaker=tb
                )
                sd, ss = MultiFieldSearcher(fields_s).search_multi_match(
                    q.split(), k=10, match_type=mt, tie_breaker=tb
                )
                assert dd.tolist() == sd.tolist(), (mt, q)
                assert np.allclose(ds_, ss, atol=1e-12), (mt, q)
    finally:
        d.shutdown()


def test_distributed_multi_match_actor_crash_recovery(mf, ray_session):
    """A killed multi-field shard actor restarts from the immutable
    indexes and the next multi_match returns the identical top-k."""
    import ray

    from neural_search_ray.query.distributed import MultiFieldDistributedSearcher

    field_dirs = [
        ("title", mf["title"][0].index_dir, 2.0),
        ("text", mf["body"][0].index_dir, 1.0),
    ]
    d = MultiFieldDistributedSearcher(field_dirs, num_actors=2)
    try:
        expected = [d.search_multi_match(q.split(), k=10) for q in QUERIES]
        ray.kill(d.actors[0].host, no_restart=False)
        for q, (ed, es) in zip(QUERIES, expected):
            gd, gs = d.search_multi_match(q.split(), k=10)
            assert gd.tolist() == ed.tolist(), q
            assert np.array_equal(gs, es), q
    finally:
        d.shutdown()


def test_distributed_mbp_and_completion_identity(mf, ray_session):
    from neural_search_ray.query.distributed import DistributedSearcher

    s = mf["body"][0]
    d = DistributedSearcher(s.index_dir, num_actors=2)
    try:
        for q in ["data quer", "merge so", "w01"]:
            dd, ds_ = d.search_match_bool_prefix(q, k=10)
            sd, ss = s.search_match_bool_prefix(q, k=10)
            assert dd.tolist() == sd.tolist(), q
            assert np.allclose(ds_, ss, atol=1e-12), q
        for pfx in ["w0", "da", "zz"]:
            t1, w1 = d.suggest_completion(pfx, size=5)
            t2, w2 = s.suggest_completion(pfx, size=5)
            assert t1 == t2 and w1.tolist() == w2.tolist(), pfx
    finally:
        d.shutdown()


def test_suggest_completion_matches_dictionary(mf):
    s, o = mf["body"]
    for pfx in ["w0", "da", "th", "zz"]:
        terms, weights = s.suggest_completion(pfx, size=5)
        ref = sorted(
            ((t, df) for t, df in o.df.items() if t.startswith(pfx)),
            key=lambda kv: (-kv[1], kv[0]),
        )[:5]
        assert terms == [t for t, _ in ref], pfx
        assert weights.tolist() == [df for _, df in ref], pfx


def _ref_combined_fields(fields, terms, k=10):
    """Independent virtual-field BM25F: weighted tf/dl sums, union df,
    avgdl' = Σ w·avgdl_f (pure-Python dict reference)."""
    n = fields[0][1].n_docs
    avgdl_c = sum(w * o.avgdl for _, o, w in fields)
    scores: dict[int, float] = {}
    for t in sorted(set(terms)):
        docs = set()
        for _, o, _ in fields:
            docs |= {d for d, c in o.tf.items() if c.get(t, 0)}
        if not docs:
            continue
        df = len(docs)
        idf = math.log1p((n - df + 0.5) / (df + 0.5))
        for d in docs:
            tfc = sum(w * o.tf[d].get(t, 0) for _, o, w in fields)
            dlc = sum(w * o.dl[d] for _, o, w in fields)
            denom = tfc + K1 * (1 - B + B * dlc / avgdl_c)
            scores[d] = scores.get(d, 0.0) + idf * tfc / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [d for d, _ in ranked], [s for _, s in ranked]


def test_combined_fields_identity(mf):
    fields_s = [("title", mf["title"][0], 2.0), ("text", mf["body"][0], 1.0)]
    fields_o = [("title", mf["title"][1], 2.0), ("text", mf["body"][1], 1.0)]
    for q in QUERIES:
        terms = q.split()
        d, sc = MultiFieldSearcher(fields_s).search_combined_fields(terms, k=10)
        od, osc = _ref_combined_fields(fields_o, terms)
        assert d.tolist() == od, q
        assert np.allclose(sc, osc, atol=1e-9), q


def test_combined_fields_differs_from_most_fields(mf):
    """The virtual-field blend must NOT equal per-field score summing
    (if it did, the operator would be redundant with most_fields)."""
    fields_s = MultiFieldSearcher(
        [("title", mf["title"][0], 2.0), ("text", mf["body"][0], 1.0)])
    _, cf = fields_s.search_combined_fields(["the", "data"], k=10)
    _, most = fields_s.search_multi_match(
        ["the", "data"], k=10, match_type="most_fields"
    )
    assert not np.allclose(cf, most)


def test_combined_fields_global_stats_shard_identity(mf):
    """The pool — union dfs summed over its shard hosts, avgdl' from the
    field contexts — must reproduce the single-searcher scores
    bit-identically."""
    from neural_search_ray.query.distributed import MultiFieldDistributedSearcher

    body, title = mf["body"][0], mf["title"][0]
    fields_full = [("title", title, 2.0), ("text", body, 1.0)]
    terms = ["the", "data", "query"]
    full_d, full_s = MultiFieldSearcher(fields_full).search_combined_fields(
        terms, k=10)

    d = MultiFieldDistributedSearcher(
        [("title", title.index_dir, 2.0), ("text", body.index_dir, 1.0)],
        num_actors=2,
    )
    try:
        md, ms = d.search_combined_fields(terms, k=10)
    finally:
        d.shutdown()
    assert md.tolist() == full_d.tolist()
    assert np.allclose(ms, full_s, atol=0)


def test_pool_refuses_bad_multi_field_queries_before_fan_out(
    mf, tmp_path, ray_session
):
    """A bad match_type, a tie_breaker outside [0, 1] or fields over
    different corpora raise a plain ValueError on the coordinator, before
    any df fan-out, not a task error from inside a shard host."""
    from neural_search_ray.query.distributed import MultiFieldDistributedSearcher

    small_dir = str(tmp_path / "small")
    build_index(
        generate_pages(50, seed=9), small_dir, IndexConfig(num_shards=2, num_salts=1)
    )
    body_dir = mf["body"][0].index_dir
    d = MultiFieldDistributedSearcher([("text", body_dir, 1.0)], num_actors=2)
    mixed = MultiFieldDistributedSearcher(
        [("text", body_dir, 1.0), ("other", small_dir, 1.0)], num_actors=2
    )
    try:
        for pool, kwargs, match in [
            (d, {"match_type": "phrase_fields"}, "match_type"),
            (d, {"tie_breaker": 1.5}, "tie_breaker"),
            (mixed, {}, "same corpus"),
        ]:
            with pytest.raises(ValueError, match=match) as exc:
                pool.search_multi_match(["data"], **kwargs)
            assert type(exc.value) is ValueError
        with pytest.raises(ValueError, match="same corpus") as exc:
            mixed.search_combined_fields(["data"])
        assert type(exc.value) is ValueError
        assert all(not p._gdf for p in (d.fields[0][1], mixed.fields[0][1]))
    finally:
        d.shutdown()
        mixed.shutdown()


class TestSearchAsYouType:
    """stages/shingles.py + query/multifield.search_as_you_type: the
    SAYT field type (shingle subfields) and its bool_prefix multi-field
    query."""

    def test_shingle_stage_matches_python(self, ray_session):
        from neural_search_ray.analysis.analyzer import tokenize
        from neural_search_ray.stages.shingles import make_shingle_stage

        texts = [
            "Data Query fast join",
            "one",
            "",
            "alpha beta gamma delta epsilon",
            "x y",
        ]
        batch = pa.table(
            {"doc_id": pa.array(range(len(texts)), pa.int64()),
             "text": pa.array(texts)}
        )
        for n in (2, 3):
            out = make_shingle_stage(n)(batch)
            got = out["text"].to_pylist()
            want = [
                " ".join(
                    "_".join(tokenize(t)[i : i + n])
                    for i in range(len(tokenize(t)) - n + 1)
                )
                for t in texts
            ]
            assert got == want, (n, got, want)

    def test_shingle_width_validation(self):
        from neural_search_ray.stages.shingles import make_shingle_stage

        with pytest.raises(ValueError, match=">= 2"):
            make_shingle_stage(1)

    @pytest.fixture(scope="class")
    def sayt(self, tmp_path_factory, ray_session):
        from neural_search_ray.config import AnalyzerConfig
        from neural_search_ray.corpus.generator import generate_pages
        from neural_search_ray.stages.shingles import make_shingle_stage

        ds = generate_pages(N_DOCS, seed=7)
        base_dir = str(tmp_path_factory.mktemp("sayt_base"))
        build_index(ds, base_dir, IndexConfig(num_shards=2, num_salts=2))
        searchers = [(1, IndexSearcher(base_dir))]
        for n in (2, 3):
            d = str(tmp_path_factory.mktemp(f"sayt_{n}"))
            build_index(
                ds.map_batches(make_shingle_stage(n), batch_format="pyarrow"),
                d,
                IndexConfig(
                    num_shards=2, num_salts=2,
                    analyzer=AnalyzerConfig(tokenizer="whitespace"),
                ),
            )
            searchers.append((n, IndexSearcher(d)))
        t = _gen_batch(pa.table({"id": list(range(N_DOCS))}), 7)
        docs = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
        return searchers, docs

    def _ref_scores(self, docs, text, n):
        """Per-field bool_prefix reference: BM25 over complete query
        shingles (OracleIndex over the shingled corpus) + 1.0 for docs
        holding any term under the last-shingle prefix."""
        from neural_search_ray.analysis.analyzer import tokenize
        from neural_search_ray.stages.shingles import shingle_tokens

        toks = tokenize(text)
        sh = toks if n == 1 else shingle_tokens(toks, n)
        if not sh:
            return {}
        shingled = {
            d: " ".join(
                "_".join(tokenize(x)[i : i + n])
                for i in range(len(tokenize(x)) - n + 1)
            )
            if n > 1
            else x
            for d, x in docs.items()
        }
        from neural_search_ray.config import AnalyzerConfig

        cfg = AnalyzerConfig(tokenizer="whitespace") if n > 1 else AnalyzerConfig()
        oracle = OracleIndex(shingled, analyzer=cfg)
        scores: dict[int, float] = {}
        if sh[:-1]:
            d_, s_ = oracle.search_bm25(" ".join(sh[:-1]), k=10**9)
            scores = dict(zip(d_, s_))
        pfx = sh[-1]
        for d, stext in shingled.items():
            dtoks = (
                stext.split(" ") if n > 1 else tokenize(stext)
            )
            if any(t.startswith(pfx) for t in dtoks if t):
                scores[d] = scores.get(d, 0.0) + 1.0
        return scores

    @pytest.mark.parametrize(
        "q", ["data qu", "fast jo", "table scan fil", "merge so", "qu"]
    )
    def test_sayt_matches_reference(self, sayt, q):
        from neural_search_ray.query.multifield import search_as_you_type

        searchers, docs = sayt
        want: dict[int, float] = {}
        for n, _ in searchers:
            for d, s in self._ref_scores(docs, q, n).items():
                want[d] = want.get(d, 0.0) + s
        docs_got, scores_got = search_as_you_type(searchers, q, k=15)
        ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
        assert docs_got.tolist() == [d for d, _ in ranked]
        np.testing.assert_allclose(
            scores_got, [s for _, s in ranked], rtol=1e-12
        )

    def test_sayt_single_token_uses_base_only(self, sayt):
        """One-token query: the 2/3-gram fields emit no clauses, so the
        result equals the base field's bool_prefix alone."""
        from neural_search_ray.query.multifield import search_as_you_type

        searchers, _ = sayt
        d_all, s_all = search_as_you_type(searchers, "qu", k=50)
        d_base, s_base = search_as_you_type(searchers[:1], "qu", k=50)
        assert d_all.tolist() == d_base.tolist()
        np.testing.assert_allclose(s_all, s_base, rtol=1e-12)

    def test_sayt_empty_query(self, sayt):
        from neural_search_ray.query.multifield import search_as_you_type

        searchers, _ = sayt
        d, s = search_as_you_type(searchers, "", k=10)
        assert d.size == 0 and s.size == 0


class TestEdgeNgram:
    """stages/shingles.py make_edge_ngram_stage — the index side of the
    autocomplete mapping (edge_ngram index analyzer, standard search)."""

    def test_stage_matches_python(self, ray_session):
        from neural_search_ray.analysis.analyzer import tokenize
        from neural_search_ray.stages.shingles import (
            edge_ngrams, make_edge_ngram_stage,
        )

        texts = ["Data Query x fast", "", "a", "verylongtoken ok", None]
        batch = pa.table(
            {"doc_id": pa.array(range(len(texts)), pa.int64()),
             "text": pa.array(texts, pa.string())}
        )
        out = make_edge_ngram_stage(2, 4)(batch)["text"].to_pylist()
        for got, t in zip(out, texts):
            toks = tokenize(t or "")
            want = [g for tok in toks for g in edge_ngrams(tok, 2, 4)]
            # stage orders grams width-major; compare as multisets AND
            # assert the per-row token membership is identical
            assert sorted(got.split(" ") if got else []) == sorted(want)

    def test_gram_width_validation(self):
        from neural_search_ray.stages.shingles import make_edge_ngram_stage

        import pytest as _pytest
        with _pytest.raises(ValueError, match="min_gram"):
            make_edge_ngram_stage(3, 2)
        with _pytest.raises(ValueError, match="min_gram"):
            make_edge_ngram_stage(0, 2)

    def test_edge_index_autocomplete(self, tmp_path_factory, ray_session):
        """A partial word is ONE term lookup on the gram index; the hit
        set equals the brute-force prefix scan over the raw corpus."""
        from neural_search_ray.corpus.generator import generate_pages
        from neural_search_ray.stages.shingles import make_edge_ngram_stage

        ds = generate_pages(300, seed=11)
        d = str(tmp_path_factory.mktemp("edge"))
        build_index(
            ds.map_batches(make_edge_ngram_stage(2, 4), batch_format="pyarrow"),
            d, IndexConfig(num_shards=2, num_salts=2),
        )
        s = IndexSearcher(d)
        t = _gen_batch(pa.table({"id": list(range(300))}), 11)
        docs = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
        for pfx in ("da", "quer", "xy"):
            got, _ = s.search_bm25([pfx], k=10**6)
            want = {
                did for did, text in docs.items()
                if any(w.startswith(pfx) for w in text.lower().split())
            }
            assert set(got.tolist()) == want, pfx
