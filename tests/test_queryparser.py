"""Classic query_string grammar (query/queryparser.py): parser shapes,
brute-force score identity, error paths."""

import numpy as np
import pytest
import ray.data

from neural_search_ray.analysis.analyzer import tokenize
from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from neural_search_ray.index.docvalues import build_doc_values
from neural_search_ray.query.engine import IndexSearcher
from neural_search_ray.query.queryparser import (
    QueryStringError,
    execute_query_string,
    parse_query,
)


@pytest.fixture(scope="module")
def qp_searcher(tmp_path_factory, sf_dir, ray_session):
    d = str(tmp_path_factory.mktemp("qp_idx"))
    build_index(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
        d,
        IndexConfig(num_shards=2, num_salts=2, index_positions=True),
    )
    build_doc_values(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        ),
        d,
        num_shards=2,
    )
    return IndexSearcher(d)


@pytest.fixture(scope="module")
def corpus(sf_dir):
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"],
    )
    return t.to_pylist()


def _brute(searcher, corpus, pred, score_terms, phrase=None):
    """Reference: docs matching `pred`, scored by summing the engine's
    own per-term scores (score identity is pinned by _score_term)."""
    from neural_search_ray.query.queryparser import _score_term

    out = {}
    for row in corpus:
        toks = tokenize(row["text"])
        if pred(row, set(toks)):
            out[row["doc_id"]] = 0.0
    for t in score_terms:
        docs, scores = _score_term(searcher, t)
        for d, s in zip(docs.tolist(), scores.tolist()):
            if d in out:
                out[d] += s
    return out


class TestParse:
    def test_shapes(self):
        n = parse_query("data AND (query OR merge)")
        assert n.kind == "group"
        assert [k.occur for k in n.payload] == ["must", "must"]
        assert n.payload[1].kind == "group"

    def test_range_and_field(self):
        n = parse_query("n_chars:[200 TO 400]")
        assert n.kind == "range"
        assert n.payload == ("n_chars", 200, 400, True, True)
        n = parse_query("n_chars:{200 TO *}")
        assert n.payload == ("n_chars", 200, None, False, False)
        assert parse_query("lang:en").kind == "kw"

    @pytest.mark.parametrize("bad", [
        "AND data", "data AND", "(data", "NOT NOT data", "-data",
        "n_chars:", "data)",
    ])
    def test_errors(self, bad, qp_searcher):
        with pytest.raises(QueryStringError):
            execute_query_string(qp_searcher, bad)


class TestExecute:
    def test_and_group(self, qp_searcher, corpus):
        docs, scores = execute_query_string(
            qp_searcher, "data AND (query OR merge)", k=None
        )
        exp = _brute(
            qp_searcher, corpus,
            lambda r, t: "data" in t and ("query" in t or "merge" in t),
            [],
        )
        # score = data + (query if match) + (merge if match)
        for row in corpus:
            pass
        got = dict(zip(docs.tolist(), scores.tolist()))
        assert set(got) == set(exp)

    def test_score_is_sum_of_matching_children(self, qp_searcher, corpus):
        from neural_search_ray.query.queryparser import _score_term

        docs, scores = execute_query_string(
            qp_searcher, "data AND query", k=None
        )
        dfs = dict(zip(["data", "query"],
                       qp_searcher._gdfs(["data", "query"]).tolist()))
        sd = dict(zip(*[x.tolist() for x in _score_term(qp_searcher, "data", dfs)]))
        sq = dict(zip(*[x.tolist() for x in _score_term(qp_searcher, "query", dfs)]))
        for d, s in zip(docs.tolist(), scores.tolist()):
            assert abs(s - (sd[d] + sq[d])) < 1e-12

    def test_must_not(self, qp_searcher, corpus):
        docs, _ = execute_query_string(qp_searcher, "query -data", k=None)
        bad = {r["doc_id"] for r in corpus if "data" in tokenize(r["text"])}
        assert not (set(docs.tolist()) & bad)

    def test_range_filter(self, qp_searcher, corpus):
        docs, scores = execute_query_string(
            qp_searcher, "data AND n_chars:[250 TO 450]", k=None
        )
        byid = {r["doc_id"]: r for r in corpus}
        for d, s in zip(docs.tolist(), scores.tolist()):
            assert 250 <= byid[d]["n_chars"] <= 450
            assert "data" in tokenize(byid[d]["text"])
            assert s > 1.0  # bm25 + constant 1.0

    def test_kw_field_and_prefix(self, qp_searcher, corpus):
        docs, _ = execute_query_string(
            qp_searcher, "lang:en AND quer*", k=None
        )
        byid = {r["doc_id"]: r for r in corpus}
        for d in docs.tolist():
            assert byid[d]["lang"] == "en"
            assert any(t.startswith("quer") for t in tokenize(byid[d]["text"]))

    def test_phrase(self, qp_searcher, corpus):
        docs, _ = execute_query_string(qp_searcher, '"data query"', k=None)
        byid = {r["doc_id"]: r for r in corpus}
        for d in docs.tolist():
            toks = tokenize(byid[d]["text"])
            assert any(
                toks[i] == "data" and toks[i + 1] == "query"
                for i in range(len(toks) - 1)
            )

    def test_top_level_not_rejected(self, qp_searcher):
        with pytest.raises(QueryStringError):
            execute_query_string(qp_searcher, "NOT data")


class TestDistributedQueryString:
    def test_rank_identity_vs_single_process(self, qp_searcher, sf_dir):
        import ray

        from neural_search_ray.query.distributed import DistributedSearcher

        # reuse the module fixture's index dir (it has doc-values)
        index_dir = qp_searcher.index_dir
        d = DistributedSearcher(index_dir, num_actors=2)
        try:
            for qs in (
                "data AND (query OR merge)",
                "query -data",
                "data AND n_chars:[250 TO 450]",
                "lang:en AND (join OR sort*)",
                '"data query" OR merge',
            ):
                dd, dv = d.search_query_string(qs, k=10)
                sd, sv = execute_query_string(qp_searcher, qs, k=10)
                assert dd.tolist() == sd.tolist(), qs
                np.testing.assert_allclose(dv, sv, rtol=0, atol=0)
        finally:
            d.shutdown()
