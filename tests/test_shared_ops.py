"""One definition per aggregation and dictionary op: ``IndexSearcher`` and
``DistributedSearcher`` bind the same function (query/aggs.py,
query/suggest.py), and give identical results — values and types — at 1
and 3 shard hosts, over matching, empty and out-of-vocabulary inputs."""

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
from neural_search_ray.query import aggs, suggest
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
    over one 4-doc-shard index with (lang, n_chars, n_opt, lang_opt)
    doc-values and the unigram LM the phrase suggester takes."""
    from neural_search_ray.textstats.lm import fit_unigram_lm

    d = str(tmp_path_factory.mktemp("shared_ops"))
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    build_index(docs.select_columns(["doc_id", "text"]), d,
                IndexConfig(num_shards=4, num_salts=1))
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
    for helper in ("_all", "_gdfs"):
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
        "facet_terms": [((t, "lang"), {}), ((t, "n_chars"), {"size": 3})],
        "facet_top_hits": [((t, "lang", 2), {})],
        "agg_composite": [
            ((t, [("terms", "lang"), ("histogram", "n_chars", 100)]), {}),
            ((t, [("terms", "lang")]), {"size": 2, "after": ("de",)}),
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
        "agg_string_stats": [((t, "lang"), {})],
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
    }


def _assert_same(got, want, where: str) -> None:
    """Equal values AND types, recursively (NaN equals NaN; dict key
    order is free)."""
    assert type(got) is type(want), (where, type(got), type(want))
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, where
        assert got.shape == want.shape, where
        if want.dtype.kind == "f":
            assert np.array_equal(got, want, equal_nan=True), where
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
