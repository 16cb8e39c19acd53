"""neural_query_enricher (NeuralQueryEnricherProcessor.java) and the
cache circuit breaker (CircuitBreakerManager.java / MemoryUsageManager.java)."""

import numpy as np
import pytest

from neural_search_ray.query.enricher import EnrichError, make_enricher
from neural_search_ray.state.breaker import (
    CircuitBreaker,
    CircuitBreakingException,
    NOOP_BREAKER,
)


# ---------------- enricher ----------------


def test_enricher_factory_requires_a_default():
    # Factory.java:100-105
    with pytest.raises(ValueError):
        make_enricher()


def test_enricher_fills_default_model_id():
    enrich = make_enricher(default_model_id="m-default")
    q = {"type": "neural", "field": "body", "query_text": "x", "model_id": None}
    out = enrich(q)
    assert out["model_id"] == "m-default"
    assert q["model_id"] is None  # input not mutated


def test_enricher_field_map_wins_over_default():
    # NeuralSearchQueryVisitor.java:41-46 — per-field default first
    enrich = make_enricher(
        default_model_id="m-default", neural_field_default_id={"title": "m-title"}
    )
    out = enrich(
        {
            "type": "bool",
            "must": [
                {"type": "neural", "field": "title", "query_text": "a"},
                {"type": "neural_sparse", "field": "body", "query_text": "b"},
            ],
            "filter": [{"type": "term", "field": "lang", "value": "en"}],
        }
    )
    assert out["must"][0]["model_id"] == "m-title"
    assert out["must"][1]["model_id"] == "m-default"
    assert "model_id" not in out["filter"][0]  # non-inference untouched


def test_enricher_preset_model_id_untouched():
    enrich = make_enricher(default_model_id="m-default")
    out = enrich({"type": "neural", "field": "f", "model_id": "explicit"})
    assert out["model_id"] == "explicit"


def test_enricher_raises_when_unresolvable():
    # visitor line 47-50: field map only, clause field not in it
    enrich = make_enricher(neural_field_default_id={"title": "m-title"})
    with pytest.raises(EnrichError):
        enrich({"type": "neural_knn", "field": "body"})


def test_enricher_nested_and_null_query():
    enrich = make_enricher(default_model_id="m")
    assert enrich(None) is None  # empty search body passes through
    out = enrich(
        {
            "type": "bool",
            "should": [
                {
                    "type": "bool",
                    "must": [{"type": "neural", "field": "deep"}],
                }
            ],
            "query": {"type": "neural_sparse", "field": "q"},
        }
    )
    assert out["should"][0]["must"][0]["model_id"] == "m"
    assert out["query"]["model_id"] == "m"


# ---------------- breaker ----------------


def test_breaker_add_and_trip():
    br = CircuitBreaker(limit_bytes=100)
    assert br.add_memory_usage(60, "t")
    assert not br.add_memory_usage(50, "t")  # would exceed → refused
    assert br.used_bytes == 60
    assert br.trip_count == 1
    br.release_bytes(60)
    assert br.used_bytes == 0
    assert br.add_memory_usage(100, "t")


def test_breaker_overhead_and_raise():
    br = CircuitBreaker(limit_bytes=100, overhead=2.0)
    # target*overhead <= limit (MemoryUsageManager.java:58-61)
    with pytest.raises(CircuitBreakingException):
        br.add_estimate_bytes_and_maybe_break(60, "t")
    assert br.add_memory_usage(50, "t")
    br.set_limit_and_overhead(1000, 1.0)
    assert br.add_memory_usage(60, "t")


def test_noop_breaker():
    assert NOOP_BREAKER.add_memory_usage(1 << 60, "x")
    NOOP_BREAKER.release_bytes(5)


def test_lru_cache_evicts_on_breaker_refusal():
    from neural_search_ray.query.engine import _LruTerms

    arr = np.zeros(100, dtype=np.float64)  # 800 bytes
    br = CircuitBreaker(limit_bytes=2000)
    c = _LruTerms(max_items=100, breaker=br, label="t")
    c.put("a", (arr,))
    c.put("b", (arr,))
    assert br.used_bytes == 1600
    # refused at first (2400 > 2000) → LRU "a" is evicted to make room,
    # so the cache adapts to a workload shift instead of freezing
    c.put("c", (arr,))
    assert c.get("c") is not None
    assert c.get("a") is None
    assert c.get("b") is not None
    assert br.used_bytes == 1600
    assert br.trip_count >= 1
    c.clear()
    assert br.used_bytes == 0


def test_lru_cache_skips_value_bigger_than_budget():
    from neural_search_ray.query.engine import _LruTerms

    br = CircuitBreaker(limit_bytes=1000)
    c = _LruTerms(max_items=100, breaker=br, label="t")
    c.put("small", (np.zeros(10, dtype=np.float64),))  # 80 bytes
    c.put("huge", (np.zeros(1000, dtype=np.float64),))  # 8000 > budget
    assert c.get("huge") is None
    assert c.get("small") is not None  # survivors untouched
    assert br.used_bytes == 80


def test_lru_cache_overwrite_credits_old_bytes():
    from neural_search_ray.query.engine import _LruTerms

    br = CircuitBreaker(limit_bytes=10_000)
    c = _LruTerms(max_items=100, breaker=br, label="t")
    c.put("a", (np.zeros(100, dtype=np.float64),))  # 800
    for _ in range(5):  # racing double-puts must not inflate used_bytes
        c.put("a", (np.zeros(100, dtype=np.float64),))
    assert br.used_bytes == 800
    c.put("a", (np.zeros(10, dtype=np.float64),))  # shrink to 80
    assert br.used_bytes == 80


def test_lru_eviction_credits_breaker():
    from neural_search_ray.query.engine import _LruTerms

    arr = np.zeros(10, dtype=np.float64)  # 80 bytes
    br = CircuitBreaker(limit_bytes=10_000)
    c = _LruTerms(max_items=2, breaker=br, label="t")
    c.put("a", (arr,))
    c.put("b", (arr,))
    c.put("c", (arr,))  # evicts "a"
    assert c.get("a") is None
    assert br.used_bytes == 160


def test_searcher_clear_caches(tmp_path):
    import ray

    from neural_search_ray.config import IndexConfig
    from neural_search_ray.index.build import build_index
    from neural_search_ray.query.engine import IndexSearcher

    docs = [
        {"doc_id": i, "text": f"alpha beta gamma doc {i}", "lang": "en"}
        for i in range(50)
    ]
    ds = ray.data.from_items(docs)
    idx = str(tmp_path / "idx")
    build_index(ds, idx, IndexConfig(num_shards=2), segment_id="s0")
    s = IndexSearcher(idx, cache_limit_bytes=1 << 20)
    docs_, scores = s.search_bm25(["alpha", "beta"], k=5)
    assert len(docs_) == 5
    assert s.breaker.used_bytes > 0
    snap = s.clear_caches()
    assert snap["used_bytes"] == 0
    # results identical after clearing (cache is transparent)
    docs2, scores2 = s.search_bm25(["alpha", "beta"], k=5)
    np.testing.assert_array_equal(docs_, docs2)
    np.testing.assert_allclose(scores, scores2)


def test_lru_refused_overwrite_keeps_old_value():
    """A put that can't be admitted (value bigger than the whole budget)
    must not lose the previously cached entry for the same term."""
    from neural_search_ray.query.engine import _LruTerms

    br = CircuitBreaker(limit_bytes=1000)
    c = _LruTerms(max_items=100, breaker=br, label="t")
    small = (np.zeros(10, dtype=np.float64),)  # 80 bytes
    c.put("a", small)
    c.put("a", (np.zeros(1000, dtype=np.float64),))  # 8000 > budget: refused
    assert c.get("a") is not None  # old value survived
    assert br.used_bytes == 80


def test_dense_term_breaker_refusal_falls_back_to_scatter(tmp_path):
    """When the budget can't hold a dense tf-norm vector, _search_dense
    must stay on the scatter path (no per-query rebuild) and stay exact."""
    import ray

    from neural_search_ray.config import IndexConfig
    from neural_search_ray.index.build import build_index
    from neural_search_ray.query.engine import IndexSearcher

    docs = [
        {"doc_id": i, "text": "common " + f"rare{i} filler word", "lang": "en"}
        for i in range(200)
    ]
    ds = ray.data.from_items(docs)
    idx = str(tmp_path / "idx")
    build_index(ds, idx, IndexConfig(num_shards=1), segment_id="s0")
    # tiny budget: the dense vector (200*9 bytes) alone exceeds it
    s = IndexSearcher(idx, cache_limit_bytes=1000)
    big = IndexSearcher(idx)  # unlimited → dense path allowed
    terms = ["common", "rare5"]
    d1, s1 = s.search_bm25(terms, k=5)
    d2, s2 = big.search_bm25(terms, k=5)
    assert d1.tolist() == d2.tolist()
    np.testing.assert_allclose(s1, s2, rtol=0, atol=0)
    assert "common" in s._dense_refused  # memoized, not rebuilt per query
    s.search_bm25(terms, k=5)  # second query: still fine

