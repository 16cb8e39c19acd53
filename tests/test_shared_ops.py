"""One definition per aggregation, dictionary and scoring op:
``IndexSearcher`` and ``DistributedSearcher`` bind the same function
(query/aggs.py, query/suggest.py, query/scoring.py and the query-string
grammars), and give identical results — values and types, scores bit for
bit — at 1 and 3 shard hosts, over matching, empty and out-of-vocabulary
inputs."""

import ast
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from neural_search_ray.agg.scripted import SCRIPTED_METRICS
from neural_search_ray.agg.sketches import HyperLogLog, hash64
from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from neural_search_ray.index.docvalues import build_doc_values
from neural_search_ray.query import aggs, queryparser, querystring, scoring, suggest
from neural_search_ray.query.distributed import DistributedSearcher
from neural_search_ray.query.engine import IndexSearcher

QUERY_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "neural_search_ray", "query",
)

# op name → the function both searchers bind
SHARED = {
    "facet_terms": aggs.facet_terms,
    "facet_top_hits": aggs.facet_top_hits,
    "agg_composite": aggs.agg_composite,
    "agg_extended_stats": aggs.agg_extended_stats,
    "agg_t_test": aggs.agg_t_test,
    "agg_matrix_stats": aggs.agg_matrix_stats,
    "agg_range": aggs.agg_range,
    "agg_filters": aggs.agg_filters,
    "agg_adjacency_matrix": aggs.agg_adjacency_matrix,
    "agg_cardinality": aggs.agg_cardinality,
    "agg_string_stats": aggs.agg_string_stats,
    "agg_scripted_metric": aggs.agg_scripted_metric,
    "terms_enum": suggest.terms_enum,
    "agg_rare_terms": suggest.agg_rare_terms,
    "suggest_term": suggest.suggest_term,
    "suggest_completion": suggest.suggest_completion,
    "suggest_phrase": suggest.suggest_phrase,
}
# the scoring ops: global stats through the searcher context, one shard kernel
SCORING = {
    name: getattr(scoring, name)
    for name in (
        "search_phrase", "search_phrase_prefix", "search_bool",
        "search_terms_set", "search_synonym", "search_dis_max",
        "search_decay", "search_boosting", "search_rank_feature",
        "search_function_score", "search_distance_feature", "search_pinned",
        "search_lm", "search_span_or", "search_span_within",
        "search_span_containing", "highlight_best_window", "search_prefix",
        "search_wildcard", "search_regexp", "search_fuzzy",
    )
}
SCORING["search_query_string"] = queryparser.search_query_string
SCORING["search_simple_query_string"] = querystring.search_simple_query_string
SCORING["search_match_bool_prefix"] = querystring.search_match_bool_prefix
SHARED.update(SCORING)
# the t-digest tier: DistributedSearcher's op, IndexSearcher's method="tdigest"
TDIGEST = {
    "agg_percentiles": aggs.tdigest_percentiles,
    "agg_percentile_ranks": aggs.tdigest_percentile_ranks,
    "agg_mad": aggs.tdigest_mad,
    "agg_boxplot": aggs.tdigest_boxplot,
}


def _nullable(batch: pa.Table) -> pa.Table:
    """n_opt / lang_opt: n_chars / lang with every 3rd / 4th doc null."""
    ids = batch["doc_id"].to_numpy()
    n_opt = pa.array(
        [v if i % 3 else None for i, v in zip(ids, batch["n_chars"].to_pylist())],
        pa.int64(),
    )
    lang_opt = pa.array(
        [v if i % 4 else None for i, v in zip(ids, batch["lang"].to_pylist())],
        pa.string(),
    )
    return batch.append_column("n_opt", n_opt).append_column("lang_opt", lang_opt)


@pytest.fixture(scope="module")
def searchers(tmp_path_factory, sf_dir, ray_session):
    """(IndexSearcher, {1: DistributedSearcher(1), 3: DistributedSearcher(3)})
    over one 4-doc-shard positional index with (lang, n_chars, n_opt,
    lang_opt) doc-values and the unigram LM the phrase suggester takes."""
    from neural_search_ray.textstats.lm import fit_unigram_lm

    d = str(tmp_path_factory.mktemp("shared_ops"))
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    build_index(docs.select_columns(["doc_id", "text"]), d,
                IndexConfig(num_shards=4, num_salts=1, index_positions=True))
    build_doc_values(
        docs.select_columns(["doc_id", "lang", "n_chars"]).map_batches(
            _nullable, batch_format="pyarrow"),
        d, num_shards=4,
    )
    lm = fit_unigram_lm(docs.select_columns(["doc_id", "text"]))[:2]
    pools = {n: DistributedSearcher(d, num_actors=n) for n in (1, 3)}
    yield IndexSearcher(d), pools, lm
    for p in pools.values():
        p.shutdown()


def test_each_op_has_one_definition_bound_on_both_searchers():
    defs: dict[str, int] = {}
    for f in os.listdir(QUERY_DIR):
        if f.endswith(".py"):
            with open(os.path.join(QUERY_DIR, f)) as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.FunctionDef):
                        defs[node.name] = defs.get(node.name, 0) + 1
    for name, fn in SHARED.items():
        assert defs.get(name) == 1, name
        assert IndexSearcher.__dict__[name] is fn, name
        assert DistributedSearcher.__dict__[name] is fn, name
    for name, fn in TDIGEST.items():
        assert defs.get(fn.__name__) == 1, fn.__name__
        assert DistributedSearcher.__dict__[name] is fn, name
    for helper in ("_all", "_topk", "_gdfs", "_gcfs"):
        assert helper in IndexSearcher.__dict__
        assert hasattr(DistributedSearcher, helper)


MATCH, EMPTY, OOV = ["data", "query"], [], ["zzznope"]
F = {
    "en": ("lang", "==", "en"),
    "short": ("n_chars", "<", 150),
    "long": ("n_chars", ">=", 300),
}


def _cases(t: list[str], lm) -> dict:
    """op → [(args, kwargs)] for the term list ``t``; dictionary ops map
    the term list to a prefix / word / text of the same kind."""
    word = " ".join(t)
    script = SCRIPTED_METRICS["clipped_sum"]("n_chars", 320)
    return {
        "facet_terms": [((t, "lang"), {}), ((t, "n_chars"), {"size": 3}),
                        ((t, "lang_opt"), {}), ((t, "n_opt"), {"size": 3})],
        "facet_top_hits": [((t, "lang", 2), {}), ((t, "lang_opt", 2), {})],
        "agg_composite": [
            ((t, [("terms", "lang"), ("histogram", "n_chars", 100)]), {}),
            ((t, [("terms", "lang")]), {"size": 2, "after": ("de",)}),
            ((t, [("terms", "lang_opt")]), {}),
            ((t, [("terms", "lang"), ("histogram", "n_opt", 100)]), {}),
        ],
        "agg_extended_stats": [((t, "n_chars"), {})],
        "agg_t_test": [((t, ["the"], "n_chars"), {}),
                       ((t, ["the"], "n_chars"), {"mode": "homoscedastic"})],
        "agg_matrix_stats": [((t, "n_chars"), {})],
        "agg_range": [((t, "n_chars", [(None, 150), (150, 300), (300, None),
                                       (100, 400)]), {})],
        "agg_filters": [((t, F), {})],
        "agg_adjacency_matrix": [((t, F), {})],
        "agg_cardinality": [
            ((t, field), {"precision_threshold": pt})
            for field in ("n_chars", "lang", "n_opt", "lang_opt")
            for pt in (3000, 3)
        ],
        "agg_string_stats": [((t, "lang"), {}), ((t, "lang_opt"), {})],
        "agg_scripted_metric": [((t, script), {})],
        "terms_enum": [((word[:2],), {}), ((word[:1],), {"size": 3, "min_df": 5})],
        "agg_rare_terms": [((), {"max_doc_count": m, "size": 4})
                           for m in (1, len(t) + 1)],
        "suggest_term": [((word[:5] + "x",), {"suggest_mode": m})
                         for m in ("missing", "popular", "always")],
        "suggest_completion": [((word[:2],), {}), ((word[:1],), {"size": None})],
        "suggest_phrase": [((*lm, word.replace("a", "e")),
                            {"size": 3, "max_edits": 2})],
        "agg_percentiles": [((t, "n_chars"), {})],
        "agg_percentile_ranks": [((t, "n_chars", (150.0, 300.0)), {})],
        "agg_mad": [((t, "n_chars"), {})],
        "agg_boxplot": [((t, "n_chars"), {})],
        **_scoring_cases(t),
    }


def _scoring_cases(t: list[str]) -> dict:
    """Scoring op → [(args, kwargs)] for the term list ``t``; the
    query-string grammars take ``t`` as query text, the multi-term
    queries a pattern of the same kind."""
    word = " ".join(t)
    pfx = t[:-1] + [t[-1][:2]] if t else t
    text = " AND ".join(t)
    return {
        "search_phrase": [((t, 10), {}), ((t[::-1] + ["the"], 5), {})],
        "search_phrase_prefix": [((pfx, 10), {}),
                                 ((pfx, 10), {"max_expansions": 3})],
        "search_bool": [((t, ["the"], ["merge"]), {"k": 7}),
                        (([], t + ["fast"], []), {"minimum_should_match": 2}),
                        ((t, [], []), {"filter_terms": ["the"]})],
        "search_terms_set": [((t + ["the"], 2, 10), {})],
        "search_synonym": [(([t, ["fast", "quick"], []],), {"k": 10})],
        "search_dis_max": [(([t, ["fast", "merge"]],), {"tie_breaker": 0.3})],
        "search_decay": [((t, "n_chars"), {"origin": 300.0, "scale": 100.0})],
        "search_boosting": [((t, ["merge"]), {"negative_boost": 0.2})],
        "search_rank_feature": [((t, "n_chars"), {"pivot": 200.0}),
                                ((t, "n_chars"), {"function": "log", "k": 5})],
        "search_function_score": [((t, "n_chars", 10), {"factor": 0.01})],
        "search_distance_feature": [((t, "n_chars"),
                                     {"origin": 250.0, "pivot": 50.0})],
        "search_pinned": [(([7, 3, 10**9, 3], t, 10), {}), (([5], t, 1), {})],
        "search_lm": [((t, 10), {"similarity": m})
                      for m in ("dirichlet", "jelinek_mercer", "dfi")],
        "search_span_or": [((t, 10), {})],
        "search_span_within": [((t[0] if t else "data", t), {})],
        "search_span_containing": [((t[-1] if t else "data", t), {})],
        "highlight_best_window": [((t, np.arange(0, 500, 7)), {"window": 5})],
        "search_prefix": [((word[:2],), {}),
                          ((word[:1],), {"max_expansions": 10_000})],
        "search_wildcard": [((word[:1] + "*a*",), {})],
        "search_regexp": [((word[:2] + ".*e",), {})],
        "search_fuzzy": [((word[:4],), {"max_edits": 1}),
                         ((word[:4],), {"max_edits": 2, "max_expansions": 10_000})],
        "search_match_bool_prefix": [((word[:-1],), {})],
        # empty text is a parse error in the classic grammar
        "search_query_string": [((text,), {}), ((f"({text}) NOT merge",), {}),
                                ((f'"{word}" OR fast*',), {})] if t else [],
        "search_simple_query_string": [((word,), {}), ((f"+{word} -merge",), {}),
                                       ((f'"{word}" fas*',), {})],
    }


def _assert_same(got, want, where: str) -> None:
    """Equal values AND types, recursively (NaN equals NaN; dict key
    order is free)."""
    assert type(got) is type(want), (where, type(got), type(want))
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, where
        assert got.shape == want.shape, where
        if want.dtype.kind == "f":
            assert got.tobytes() == want.tobytes(), where
        else:
            for g, w in zip(got.tolist(), want.tolist()):
                _assert_same(g, w, where)
    elif isinstance(want, dict):
        assert set(got) == set(want), where
        for k in want:
            _assert_same(got[k], want[k], f"{where}[{k!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), where
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("num_actors", [1, 3])
@pytest.mark.parametrize("kind", ["match", "empty", "oov"])
@pytest.mark.parametrize("op", sorted(SHARED) + sorted(TDIGEST))
def test_index_and_distributed_searchers_agree(searchers, op, kind, num_actors):
    single, pools, lm = searchers
    dist = pools[num_actors]
    terms = {"match": MATCH, "empty": EMPTY, "oov": OOV}[kind]
    for args, kwargs in _cases(terms, lm)[op]:
        where = f"{op}{args[:1]}{kwargs}"
        if op in TDIGEST:
            want = getattr(single, op)(*args, method="tdigest", **kwargs)
            got = getattr(dist, op)(*args, **kwargs)
            if num_actors > 1:
                # merged shard digests are a different (equally valid)
                # sketch of the same values: same shape, close values
                assert type(got) is type(want), where
                np.testing.assert_allclose(
                    np.asarray(list(got.values()) if isinstance(got, dict)
                               else got, dtype=np.float64),
                    np.asarray(list(want.values()) if isinstance(want, dict)
                               else want, dtype=np.float64),
                    rtol=0.1, atol=5.0, err_msg=where,
                )
                continue
        else:
            want = getattr(single, op)(*args, **kwargs)
            got = getattr(dist, op)(*args, **kwargs)
        if op == "agg_matrix_stats":
            # skewness/kurtosis need co-located values: in-process only
            want = {k: v for k, v in want.items()
                    if k not in ("skew_x", "kurt_x")}
        _assert_same(got, want, where)


def test_distributed_suggest_term_popular(searchers):
    single, pools, _ = searchers
    hits = 0
    for word in ("dat", "qurey", "the", "merg", "zzzzqq"):
        want = single.suggest_term(word, suggest_mode="popular")
        hits += bool(want)
        for dist in pools.values():
            assert dist.suggest_term(word, suggest_mode="popular") == want
    assert hits  # some word has a more frequent neighbour


def test_terms_enum_rejects_empty_size(searchers):
    single, pools, _ = searchers
    for s in (single, *pools.values()):
        with pytest.raises(ValueError, match="size"):
            s.terms_enum("s", size=0)


@pytest.mark.parametrize("field", ["n_opt", "lang_opt"])
def test_cardinality_skips_nulls(searchers, sf_dir, field):
    """Exact tier counts distinct NON-NULL values; the HLL tier hashes
    only them (its estimate equals a sketch of the non-null value set)."""
    single, pools, _ = searchers
    t = _nullable(pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]))
    match = set(single._match_union(MATCH).tolist())
    vals = {v for d, v in zip(t["doc_id"].to_pylist(), t[field].to_pylist())
            if d in match and v is not None}
    assert len(vals) > 2
    sketch = HyperLogLog(14).add_hashed(hash64(pa.array(sorted(vals))
                                               .to_numpy(zero_copy_only=False)))
    for s in (single, *pools.values()):
        assert s.agg_cardinality(MATCH, field) == {
            "value": len(vals), "exact": True}
        assert s.agg_cardinality(MATCH, field, precision_threshold=2) == {
            "value": sketch.estimate(), "exact": False}


def test_query_string_names_one_grammar_each(searchers):
    """``search_query_string`` is the classic grammar and
    ``search_simple_query_string`` the simple one, on both searchers."""
    single, pools, _ = searchers
    data, query, merge = (
        set(single._match_union([t]).tolist()) for t in ("data", "query", "merge")
    )
    for s in (single, *pools.values()):
        n = s.n_docs
        assert set(s.search_query_string("data AND query", k=n)[0].tolist()) == (
            data & query)
        assert set(s.search_query_string("data NOT merge", k=n)[0].tolist()) == (
            data - merge)
        assert set(
            s.search_simple_query_string("data query -merge", k=n)[0].tolist()
        ) == (data | query) - merge


def test_max_expansions_caps_the_global_expansion_set(searchers):
    """The cap applies to the union of the shards' expansions, and the
    error names its size, on both searchers."""
    single, pools, _ = searchers
    n_prefix = len(single.expand_prefix("s"))
    n_fuzzy = len(single.expand_fuzzy("part", 2, 0))
    assert n_prefix > 1 and n_fuzzy > 1
    for s in (single, *pools.values()):
        with pytest.raises(ValueError, match=f"expands to {n_prefix} terms"):
            s.search_prefix("s", max_expansions=n_prefix - 1)
        with pytest.raises(ValueError, match=f"expands to {n_fuzzy} terms"):
            s.search_fuzzy("part", max_expansions=n_fuzzy - 1)
        assert s.search_prefix("s", max_expansions=n_prefix)[0].size


def test_bucket_aggs_skip_docs_without_a_value(searchers, sf_dir):
    """A matched doc with no value forms no bucket and adds nothing to
    string_stats (OpenSearch's default, no ``missing`` bucket)."""
    single, pools, _ = searchers
    t = _nullable(pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]))
    match = set(single._match_union(MATCH).tolist())
    per_value = {}
    for d, v in zip(t["doc_id"].to_pylist(), t["lang_opt"].to_pylist()):
        if d in match and v is not None:
            per_value[v] = per_value.get(v, 0) + 1
    n_lang = sum(per_value.values())
    n_num = sum(d in match and v is not None
                for d, v in zip(t["doc_id"].to_pylist(), t["n_opt"].to_pylist()))
    assert 0 < n_lang < len(match) and 0 < n_num < len(match)
    for s in (single, *pools.values()):
        assert s.facet_terms(MATCH, "lang_opt", size=None)[1].sum() == n_lang
        assert s.facet_terms(MATCH, "n_opt", size=None)[1].sum() == n_num
        assert s.agg_composite(
            MATCH, [("terms", "lang_opt")], size=None)[1].sum() == n_lang
        assert s.agg_string_stats(MATCH, "lang_opt")["count"] == n_lang
        buckets = s.facet_top_hits(MATCH, "lang_opt", 2)[0]
        assert len(buckets) == sum(min(2, c) for c in per_value.values())
    assert single.agg_multi_terms(
        MATCH, ["lang_opt", "lang"], size=None)[1].sum() == n_lang
