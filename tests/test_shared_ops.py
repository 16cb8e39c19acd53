"""One definition per search-time op: ``IndexSearcher`` and
``DistributedSearcher`` inherit one op list (query/ops.py) of functions
defined once (query/aggs.py, query/suggest.py, query/significant.py,
query/scoring.py and the query-string grammars), and give identical
results — values and types, scores bit for bit — at 1 and 3 shard hosts,
over matching, empty and out-of-vocabulary inputs. The multi-field ops
(query/multifield.py) hold the same way for ``MultiFieldSearcher`` and
``MultiFieldDistributedSearcher``."""

import ast
import inspect
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
from neural_search_ray.index.forward import build_forward_index
from neural_search_ray.pipelines.suite import _title_batch
from neural_search_ray.query import (
    aggs, multifield, queryparser, querystring, scoring, significant, suggest,
)
from neural_search_ray.query.distributed import (
    DistributedSearcher,
    MultiFieldDistributedSearcher,
)
from neural_search_ray.query.engine import IndexSearcher
from neural_search_ray.query.multifield import MultiFieldSearcher
from neural_search_ray.query.scripts import SCORE_SCRIPTS

QUERY_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "neural_search_ray", "query",
)

# op name → the function both searchers bind
SHARED = {
    name: getattr(aggs, name)
    for name in (
        "facet_terms", "facet_top_hits", "agg_composite", "agg_multi_terms",
        "agg_histogram", "agg_terms_stats", "agg_stats", "agg_extended_stats",
        "agg_sampler", "agg_t_test", "agg_matrix_stats", "agg_range",
        "agg_weighted_avg", "agg_top_metrics", "agg_filters",
        "agg_adjacency_matrix", "agg_cardinality", "agg_percentiles",
        "agg_percentile_ranks", "agg_mad", "agg_boxplot", "agg_string_stats",
        "agg_scripted_metric",
    )
}
SHARED.update({
    name: getattr(suggest, name)
    for name in ("terms_enum", "agg_rare_terms", "suggest_term",
                 "suggest_completion", "suggest_completion_fuzzy",
                 "suggest_phrase")
})
SHARED.update({
    name: getattr(significant, name)
    for name in ("significant_terms", "significant_text")
})
# the scoring ops: global stats through the searcher context, one shard kernel
SCORING = {
    name: getattr(scoring, name)
    for name in (
        "search_phrase", "search_phrase_prefix", "search_bool",
        "search_terms_set", "search_synonym", "search_dis_max",
        "search_decay", "search_boosting", "search_rank_feature",
        "search_function_score", "search_distance_feature",
        "search_script_score", "search_pinned", "search_ids", "search_range",
        "search_sparse_dot", "search_lm", "search_span_first",
        "search_span_not", "search_span_near", "search_span_multi",
        "search_span_or", "search_span_within", "search_span_containing",
        "search_intervals", "highlight_best_window", "explain_bm25",
        "search_prefix", "search_wildcard", "search_infix_ngram",
        "search_regexp", "search_fuzzy",
    )
}
SCORING["search_query_string"] = queryparser.search_query_string
SCORING["search_simple_query_string"] = querystring.search_simple_query_string
SCORING["search_match_bool_prefix"] = querystring.search_match_bool_prefix
SHARED.update(SCORING)
# bound on both multi-field contexts
MULTI_FIELD = {
    name: getattr(multifield, name)
    for name in ("search_multi_match", "search_combined_fields")
}
# bound on IndexSearcher only: a dictionary expansion over one shard, and
# two aggs whose merge over shards is not exact
LOCAL = {
    "expand_fuzzy": suggest.expand_fuzzy,
    "agg_diversified_sampler": aggs.agg_diversified_sampler,
    "agg_variable_width": aggs.agg_variable_width,
}
# the quantile aggs: exact in-process, the t-digest tier on a pool, whose
# merged shard digests are a different (equally valid) sketch of the values
QUANTILES = {"agg_percentiles", "agg_percentile_ranks", "agg_mad", "agg_boxplot"}
# IndexSearcher's own surface: the reader (open, postings, doc values,
# dictionary and stats lookups, the BM25 hot path) — everything else public
# is an op defined once under query/
READER = {
    "doc_values", "accepted_ids", "field_values", "field_array", "local_df",
    "doc_length", "postings_full", "postings", "postings_positions",
    "warm_terms", "clear_caches", "search_bm25", "expand_prefix",
    "match_docs", "total_tokens", "collection_freq",
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
    lang_opt) doc-values, a forward index and the unigram LM the phrase
    suggester takes."""
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
    build_forward_index(d)
    lm = fit_unigram_lm(docs.select_columns(["doc_id", "text"]))[:2]
    pools = {n: DistributedSearcher(d, num_actors=n) for n in (1, 3)}
    yield IndexSearcher(d), pools, lm
    for p in pools.values():
        p.shutdown()


@pytest.fixture(scope="module")
def multi_fields(tmp_path_factory, sf_dir, searchers):
    """(MultiFieldSearcher, {1: pool, 3: pool}) over (title^2, text): the
    shared-ops index as the text field plus a title index over the same
    docs and doc shards."""
    title = str(tmp_path_factory.mktemp("shared_ops_title"))
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    build_index(
        docs.select_columns(["doc_id", "text"]).map_batches(
            _title_batch, batch_format="pyarrow"),
        title, IndexConfig(num_shards=4, num_salts=1), text_column="title",
    )
    fields = [("title", IndexSearcher(title), 2.0), ("text", searchers[0], 1.0)]
    dirs = [(f, s.index_dir, b) for f, s, b in fields]
    pools = {n: MultiFieldDistributedSearcher(dirs, n) for n in (1, 3)}
    yield MultiFieldSearcher(fields), pools
    for p in pools.values():
        p.shutdown()


def _query_defs() -> dict[str, int]:
    """How many times each function name is defined under query/."""
    defs: dict[str, int] = {}
    for f in os.listdir(QUERY_DIR):
        if f.endswith(".py"):
            with open(os.path.join(QUERY_DIR, f)) as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.FunctionDef):
                        defs[node.name] = defs.get(node.name, 0) + 1
    return defs


def test_each_op_has_one_definition_bound_on_both_searchers():
    """The ops are inherited, so the binding is read with
    ``inspect.getattr_static`` (``__dict__`` holds only a class's own)."""
    defs = _query_defs()
    for name, fn in SHARED.items():
        assert defs.get(name) == 1, name
        assert inspect.getattr_static(IndexSearcher, name) is fn, name
        assert inspect.getattr_static(DistributedSearcher, name) is fn, name
    for name, fn in LOCAL.items():
        assert defs.get(name) == 1, name
        assert inspect.getattr_static(IndexSearcher, name) is fn, name
        assert not hasattr(DistributedSearcher, name), name
    for helper in ("_all", "_topk", "_gdfs", "_gcfs"):
        assert helper in IndexSearcher.__dict__
        assert hasattr(DistributedSearcher, helper)
    for name, fn in MULTI_FIELD.items():
        assert defs.get(name) == 1, name
        assert inspect.getattr_static(MultiFieldSearcher, name) is fn, name
        assert inspect.getattr_static(
            MultiFieldDistributedSearcher, name) is fn, name


def test_index_searcher_is_a_reader_plus_the_op_list():
    """Every public callable on ``IndexSearcher`` is a reader method or a
    function defined exactly once under query/."""
    defs = _query_defs()
    for name in dir(IndexSearcher):
        attr = inspect.getattr_static(IndexSearcher, name)
        if name.startswith("_") or not callable(attr):
            continue
        if name in READER:
            assert name in IndexSearcher.__dict__, name
        else:
            assert defs.get(getattr(attr, "__name__", None)) == 1, name
            assert attr.__name__ == name, name


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
        "agg_multi_terms": [((t, ["lang", "n_chars"]), {}),
                            ((t, ["lang_opt", "n_opt"]), {"size": None})],
        "agg_histogram": [((t, "n_chars", 50), {}), ((t, "n_opt", 100), {})],
        "agg_terms_stats": [((t, "lang", "n_chars"), {}), ((t, "lang", "n_opt"), {}),
                            ((t, "lang_opt", "_dl"), {})],
        "agg_stats": [((t, "n_chars"), {}), ((t, "n_opt"), {})],
        "agg_extended_stats": [((t, "n_chars"), {}), ((t, "n_opt"), {})],
        "agg_sampler": [((t, "n_chars", 40), {}), ((t, "n_opt"), {})],
        "agg_weighted_avg": [((t, "n_chars"), {}), ((t, "n_opt", "n_chars"), {})],
        "agg_top_metrics": [((t, "n_chars"), {"size": 5}),
                            ((t, "n_opt", "n_chars"), {}),
                            ((t, "_dl", "n_opt"), {"size": 7})],
        "agg_t_test": [((t, ["the"], "n_chars"), {}),
                       ((t, ["the"], "n_chars"), {"mode": "homoscedastic"})],
        "agg_matrix_stats": [((t, "n_chars"), {}), ((t, "n_opt", "n_chars"), {})],
        "agg_range": [((t, field, [(None, 150), (150, 300), (300, None),
                                   (100, 400)]), {})
                      for field in ("n_chars", "n_opt")],
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
        "suggest_completion_fuzzy": [((word[:4].replace("a", "e"),), {}),
                                     ((word[:5],), {"size": None, "fuzziness": 2,
                                                    "prefix_length": 0})],
        "significant_terms": [((t,), {}), ((t, 20, 3), {})],
        "significant_text": [((t,), {}), ((t, 40, 15), {})],
        "suggest_phrase": [((*lm, word.replace("a", "e")),
                            {"size": 3, "max_edits": 2})],
        "agg_percentiles": [((t, f), {"method": "tdigest"}) for f in ("n_chars", "n_opt")],
        "agg_percentile_ranks": [((t, "n_chars", (150.0, 300.0)), {"method": "tdigest"})],
        "agg_mad": [((t, "n_opt"), {"method": "tdigest"})],
        "agg_boxplot": [((t, "n_chars"), {"method": "tdigest"})],
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
        "search_script_score": [((t, SCORE_SCRIPTS["length_norm"]("n_chars")), {})],
        "search_ids": [(([7, 3, 10**9, 3, 250, 1],), {"k": 4}), (([],), {})],
        "search_range": [(("n_chars", 100 + len(word), 300), {"k": 20}),
                         (("n_opt", 100, 300 + len(word)), {"k": 500})],
        "search_sparse_dot": [(({w: 1.5 - 0.25 * i for i, w in enumerate(t)},),
                               {"k": 20})],
        "search_span_first": [((t[0] if t else "data", 6), {}),
                              ((t[-1] if t else "zzznope", 40, 20), {})],
        "search_span_not": [((t[0] if t else "data", "the"), {"pre": 2, "post": 3})],
        "search_span_near": [((t + ["the"],), {"slop": 4}),
                             ((t[:2],), {"slop": 2, "in_order": False})
                             if len(t) == 2 else ((t,), {})],
        "search_span_multi": [(([("term", w) for w in t[:-1]] + [("prefix", pfx[-1])],),
                               {"slop": 2})] if t else [],
        "search_intervals": [((t + ["the"],), {"max_gaps": 6})] if t else [],
        "explain_bm25": [((t + ["the"], d), {}) for d in (0, 7, 250, 499)],
        "search_infix_ngram": [((word[1:4],), {"k": 30}), ((word[1:3],), {})],
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
@pytest.mark.parametrize("op", sorted(SHARED))
def test_index_and_distributed_searchers_agree(searchers, op, kind, num_actors):
    single, pools, lm = searchers
    dist = pools[num_actors]
    terms = {"match": MATCH, "empty": EMPTY, "oov": OOV}[kind]
    for args, kwargs in _cases(terms, lm)[op]:
        where = f"{op}{args[:1]}{kwargs}"
        want = getattr(single, op)(*args, **kwargs)
        got = getattr(dist, op)(*args, **kwargs)
        if op in QUANTILES and num_actors > 1:
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
        if op == "agg_matrix_stats":
            # skewness/kurtosis need co-located values: in-process only
            want = {k: v for k, v in want.items()
                    if k not in ("skew_x", "kurt_x")}
        _assert_same(got, want, where)


@pytest.mark.parametrize("num_actors", [1, 3])
@pytest.mark.parametrize("kind", ["match", "empty", "oov"])
def test_multi_field_contexts_agree(multi_fields, kind, num_actors):
    """The multi-field pool returns the in-process context's doc ids and
    scores bit for bit, for every multi_match type and combined_fields."""
    single, pools = multi_fields
    terms = {"match": MATCH, "empty": EMPTY, "oov": OOV}[kind]
    for op, kwargs in [
        ("search_multi_match", {"match_type": "best_fields", "tie_breaker": 0.3}),
        ("search_multi_match", {"match_type": "most_fields"}),
        ("search_multi_match", {"match_type": "cross_fields"}),
        ("search_combined_fields", {}),
    ]:
        where = f"{op}{kwargs}"
        want = getattr(single, op)(terms, k=20, **kwargs)
        assert bool(want[0].size) == (kind == "match"), where
        _assert_same(getattr(pools[num_actors], op)(terms, k=20, **kwargs),
                     want, where)


@pytest.mark.parametrize("op", sorted(QUANTILES))
def test_quantile_tier_follows_co_location(searchers, op):
    """The quantile aggs default to exact in-process and to the t-digest
    tier on a pool, which refuses the exact tier before any fan-out."""
    single, pools, lm = searchers
    (args, kwargs), = _cases(MATCH, lm)[op][:1]
    dist = pools[3]
    tdigest = getattr(dist, op)(*args, **kwargs)
    _assert_same(getattr(dist, op)(*args), tdigest, op)
    exact = getattr(single, op)(*args, method="exact")
    _assert_same(getattr(single, op)(*args), exact, op)
    with pytest.raises(ValueError, match="exact"):
        getattr(dist, op)(*args, method="exact")
    for s in (single, dist):
        with pytest.raises(ValueError, match="method"):
            getattr(s, op)(*args, method="nope")


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


class _WithValue(IndexSearcher):
    """The same index with the match set cut to the docs that have a
    value in ``field`` — the reference a null-skipping agg must equal."""

    def __init__(self, index_dir: str, field: str):
        super().__init__(index_dir)
        vals = self.field_values(self._dl_doc_ids, field)
        self._has = self._dl_doc_ids[vals.is_valid().to_numpy(zero_copy_only=False)]

    def _match_union(self, terms):
        docs = super()._match_union(terms)
        return docs[np.isin(docs, self._has)]


def test_aggs_skip_docs_without_a_value(searchers):
    """A numeric or bucket agg over a nullable field (n_opt / lang_opt)
    equals the same agg over only the docs that have a value, computed on
    the null-free copy of the field (n_chars / lang)."""
    single, _, _ = searchers
    n_only = _WithValue(single.index_dir, "n_opt")
    lang_only = _WithValue(single.index_dir, "lang_opt")
    assert 0 < n_only._has.size < single._dl_doc_ids.size
    assert 0 < lang_only._has.size < single._dl_doc_ids.size
    m = MATCH
    # (op, args on the nullable field, args on the null-free field, ref)
    cases = [
        ("agg_terms_stats", (m, "lang", "n_opt"), (m, "lang", "n_chars"), n_only),
        ("agg_terms_stats", (m, "lang_opt", "n_chars"), (m, "lang", "n_chars"),
         lang_only),
        ("agg_top_metrics", (m, "n_opt", "n_opt", 5), (m, "n_chars", "n_chars", 5),
         n_only),
        ("agg_variable_width", (m, "n_opt"), (m, "n_chars"), n_only),
        ("agg_percentiles", (m, "n_opt"), (m, "n_chars"), n_only),
        ("agg_percentile_ranks", (m, "n_opt", (150.0, 300.0)),
         (m, "n_chars", (150.0, 300.0)), n_only),
        ("agg_mad", (m, "n_opt"), (m, "n_chars"), n_only),
        ("agg_boxplot", (m, "n_opt"), (m, "n_chars"), n_only),
        ("agg_stats", (m, "n_opt"), (m, "n_chars"), n_only),
        ("agg_extended_stats", (m, "n_opt"), (m, "n_chars"), n_only),
        ("agg_t_test", (m, ["the"], "n_opt"), (m, ["the"], "n_chars"), n_only),
        ("agg_matrix_stats", (m, "n_opt", "n_chars"), (m, "n_chars", "n_chars"),
         n_only),
        ("agg_range", (m, "n_opt", [(None, 150), (150, None)]),
         (m, "n_chars", [(None, 150), (150, None)]), n_only),
        ("agg_weighted_avg", (m, "n_opt"), (m, "n_chars"), n_only),
        ("agg_histogram", (m, "n_opt", 50), (m, "n_chars", 50), n_only),
        ("agg_diversified_sampler", (m, "lang_opt", "lang"), (m, "lang", "lang"),
         lang_only),
    ]
    for op, args, ref_args, ref in cases:
        _assert_same(getattr(single, op)(*args), getattr(ref, op)(*ref_args), op)
    for method in ("exact", "tdigest"):
        _assert_same(single.agg_percentiles(m, "n_opt", method=method),
                     n_only.agg_percentiles(m, "n_chars", method=method), method)


def test_aligned_field_reads_reject_nulls(searchers):
    """A scoring op that needs a value per matched doc fails naming the
    field instead of scoring a null."""
    single, pools, _ = searchers
    with pytest.raises(ValueError, match="n_opt"):
        single.field_array(single._match_union(MATCH), "n_opt")
    for s in (single, pools[1]):
        with pytest.raises(ValueError, match="n_opt"):
            s.search_decay(MATCH, "n_opt", origin=300.0, scale=100.0)


def test_simple_query_string_applies_every_must_not(searchers):
    """A must_not clause with no postings does not stop the later ones:
    both clause orders exclude every doc holding "merge"."""
    single, pools, _ = searchers
    merge = set(single._match_union(["merge"]).tolist())
    assert merge
    for s in (single, *pools.values()):
        a = s.search_simple_query_string("data -zzznope -merge", k=500)
        b = s.search_simple_query_string("data -merge -zzznope", k=500)
        _assert_same(a, b, "order")
        assert a[0].size and not merge & set(a[0].tolist())
