"""Aggregation ops, each defined once for local and distributed execution.

Reference shape (SURVEY.md §3, "coordinator reduce"): an aggregation is
a shard-level partial plus one coordinator reduce, and a single shard is
just a reduce over one partial. Every op here is module-level shard
partial(s) plus one op function over a searcher *context* ``s`` that

- fans the partial out with ``s._all(partial, ...)`` (one result per
  shard host);
- resolves global dfs, where the op needs them, with ``s._gdfs(terms)``;
- merges the partials.

``IndexSearcher`` (``_all`` = its own one partial, ``_gdfs`` = its term
dictionary) and ``DistributedSearcher`` (``_all`` = one ``run`` per
shard host, ``_gdfs`` = the cached global-df fan-out) bind the same
function objects as methods, so the local and the distributed result
come from the same code. Partials are module-level, so they pickle by
reference to the hosts. Merges stay vectorized, and where a lone
partial already is the answer (key-summed maps, one exact value set)
it passes through untouched, so a single searcher keeps its speed. The
dictionary-walking ops (terms_enum, rare_terms and the suggesters) live
in query/suggest.py.

Null rule (OpenSearch's default, no ``missing`` bucket): a matched doc
without a value in a field forms no bucket, adds to no metric and is not
sampled (``_present``). Two aggs are bound on ``IndexSearcher`` only:
agg_diversified_sampler (per-shard ``shard_size``) and
agg_variable_width (global quantile edges).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..agg.sketches import HyperLogLog, TDigest, hash64

# -- shared partial and merge helpers ---------------------------------------


def _key_sum(partials, acc: dict | None = None) -> dict:
    """Sum per-shard (key, count) iterables by key — exact for every
    distributive count (each doc lives on exactly one shard)."""
    acc = {} if acc is None else acc
    for pairs in partials:
        for key, c in pairs:
            acc[key] = acc.get(key, 0) + c
    return acc


def _sum_by_key(parts: list) -> tuple:
    """Merge per-shard ``(keys, counts)`` partials (distinct keys within
    each) into ``(keys, int64 counts)``: a lone partial passes through in
    its own key order; several are summed by key, keys sorted."""
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return [], np.empty(0, np.int64)
    if len(parts) == 1:
        return parts[0]
    acc = _key_sum(zip(keys, c.tolist()) for keys, c in parts)
    keys = sorted(acc)
    return keys, np.asarray([acc[k] for k in keys], dtype=np.int64)


def _present(s, docs: np.ndarray, field: str, dtype=np.int64) -> tuple:
    """(docs, values) of ``field`` over ``docs``, the docs without a
    value dropped: such a doc forms no bucket, adds to no metric and is
    not sampled. ``"_dl"`` is the BM25 doc length."""
    if docs.size == 0:
        return docs, np.empty(0, dtype)
    if field == "_dl":
        return docs, s.doc_length(docs).astype(dtype)
    vals = s.field_values(docs, field)
    if vals.null_count:
        has = vals.is_valid()
        docs, vals = docs[has.to_numpy(zero_copy_only=False)], vals.filter(has)
    return docs, vals.to_numpy(zero_copy_only=False).astype(dtype)


def _present_pair(s, docs: np.ndarray, field_x: str, field_y: str) -> tuple:
    """(docs, x, y) over the ``docs`` that have both values."""
    docs, x = _present(s, docs, field_x)
    both, y = _present(s, docs, field_y)
    if both.size < docs.size:
        x = x[np.isin(docs, both, assume_unique=True)]
    return both, x, y


def _in_sorted(have: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Mask of the ``docs`` found in the sorted array ``have``."""
    if have.size == 0:
        return np.zeros(docs.size, dtype=bool)
    return have.take(np.searchsorted(have, docs), mode="clip") == docs


def _held(s, docs: np.ndarray) -> np.ndarray:
    """The docs of a global doc set (say, a top-k) that this shard holds."""
    return docs[_in_sorted(s._dl_doc_ids, docs)]


# -- terms buckets -----------------------------------------------------------


def _value_counts(s, docs: np.ndarray, field: str) -> tuple[list, np.ndarray]:
    """(values, doc counts) of ``field`` over ``docs``; a doc without a
    value forms no bucket (the terms agg without ``missing``)."""
    vc = pc.value_counts(pc.drop_null(s.field_values(docs, field)))
    return (
        vc.field("values").to_pylist(),
        vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64),
    )


def _facet_partial(s, terms: list[str], field: str) -> tuple:
    """Doc count per ``field`` value over this shard's match set."""
    docs = s._match_union(terms)
    if docs.size == 0:
        return [], np.empty(0, np.int64)
    return _value_counts(s, docs, field)


def _top_buckets(values: list, counts: np.ndarray, size: int | None = None):
    """The terms-agg cut: buckets by (count desc, value asc), first
    ``size`` (None: all)."""
    order = np.lexsort((np.asarray(values, dtype=object), -counts))[:size]
    return [values[i] for i in order], counts[order]


def facet_terms(
    s, terms: list[str], field: str, size: int | None = 10
) -> tuple[list, np.ndarray]:
    """Terms aggregation over the match set of a boolean-OR term query
    (the OpenSearch terms agg / Lucene facet counting the reference
    inherits for its hybrid result pages): doc count per ``field``
    value, top ``size`` buckets by (count desc, value asc); ``size=None``
    keeps every bucket. Shard partials are full per-value maps (bounded
    by field cardinality, not doc count) summed by value, so the
    distributed counts are exact — no shard_size approximation."""
    return _top_buckets(
        *_sum_by_key(s._all(_facet_partial, terms, field)), size
    )


def _top_per_bucket(vals, docs: np.ndarray, scores: np.ndarray, k: int) -> tuple:
    """Per bucket value (ascending), the top ``k`` rows by (score desc,
    doc_id asc): (bucket per row, 1-based rank, docs, scores). ``vals``
    is a null-free Arrow array, ranked through its dictionary encoding —
    no per-row Python work."""
    enc = pc.dictionary_encode(vals)
    inv = np.argsort(pc.sort_indices(enc.dictionary).to_numpy())[
        enc.indices.to_numpy(zero_copy_only=False)
    ]
    order = np.lexsort((docs, -scores, inv))
    g = inv[order]
    rank = np.arange(g.size) - np.searchsorted(g, g)
    keep = rank < k
    sel = order[keep]
    return vals.take(sel), rank[keep] + 1, docs[sel], scores[sel]


def _top_hits_partial(
    s, terms: list[str], field: str, k_per_bucket: int, dfs
) -> tuple:
    """This shard's per-bucket top hits (bucket, docs, rounded scores);
    a doc without a value forms no bucket."""
    cand, scores = s._bm25_union_scores(terms, dfs)
    scores = np.floor(scores * 1e6 + 0.5) / 1e6  # scores are >= 0
    vals = s.field_values(cand, field)
    has = vals.is_valid()
    keep = has.to_numpy(zero_copy_only=False)
    b, _, d, sc = _top_per_bucket(
        vals.filter(has), cand[keep], scores[keep], k_per_bucket
    )
    return b, d, sc


def facet_top_hits(s, terms: list[str], field: str, k_per_bucket: int = 3):
    """top_hits sub-aggregation under a terms bucket (the OpenSearch
    terms agg + top_hits pattern): per doc-values bucket, the top
    ``k_per_bucket`` match-set docs by (rounded BM25 desc, doc_id asc).
    Scores are rounded half-up to 6 BEFORE ranking (cross-engine tie
    discipline), idf from the global dfs. Returns (bucket values, ranks,
    docs, scores) flat aligned arrays, buckets in ascending value order;
    a doc without a value forms no bucket. Shard partials are per-bucket
    top-k lists, re-cut bucket-wise — exact, because each shard's
    partial is complete for its docs."""
    sterms = sorted(set(terms))
    parts = s._all(_top_hits_partial, sterms, field, k_per_bucket, s._gdfs(sterms))
    b, r, d, sc = _top_per_bucket(
        pa.concat_arrays([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        k_per_bucket,
    )
    return b.to_pylist(), r, d, sc


def _composite_partial(s, terms: list[str], sources: list[tuple]) -> tuple:
    """This shard's full composite bucket map: (key tuples, counts); a
    doc without a value in some source forms no bucket (the composite
    agg without ``missing_bucket``). A lone histogram source (the
    histogram agg) is a sorted value count."""
    docs = s._match_union(terms)
    if docs.size == 0:
        return [], np.empty(0, np.int64)
    if len(sources) == 1 and sources[0][0] == "histogram":
        interval = int(sources[0][2])
        if interval <= 0:
            raise ValueError("interval must be positive")
        v = _present(s, docs, sources[0][1])[1]
        u, n = np.unique((v // interval) * interval, return_counts=True)
        return list(zip(u.tolist())), n.astype(np.int64)
    tbl = pa.table({
        f"k{i}": s.field_values(docs, src[1]) for i, src in enumerate(sources)
    }).drop_null()
    for i, src in enumerate(sources):
        if src[0] == "histogram":
            interval = int(src[2])
            if interval <= 0:
                raise ValueError("interval must be positive")
            v = tbl[i].to_numpy().astype(np.int64)
            tbl = tbl.set_column(i, f"k{i}", pa.array((v // interval) * interval))
        elif src[0] != "terms":
            raise ValueError(f"unknown composite source: {src[0]}")
    g = tbl.group_by(tbl.column_names).aggregate([([], "count_all")])
    keys = list(zip(*(g[c].to_pylist() for c in tbl.column_names)))
    counts = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
    return keys, counts


def agg_composite(
    s,
    terms: list[str],
    sources: list[tuple],
    size: int | None = 10,
    after: tuple | None = None,
):
    """Composite aggregation (OpenSearch composite agg — the scalable
    bucket-export agg): doc-count buckets over a tuple of doc-values
    sources, KEY-ORDERED ascending and paged with a strict ``after``-key
    — so a coordinator can stream the full bucket space page by page
    without holding it.

    ``sources``: list of ("terms", field) or ("histogram", field,
    interval). Returns (list of key tuples, counts int64); ``size=None``
    returns every bucket past ``after``. Bucket state is bounded by
    bucket cardinality, and per-shard partial maps merge by key — the
    facet_terms distributive shape."""
    keys, counts = _sum_by_key(s._all(_composite_partial, terms, sources))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if after is not None:
        order = [i for i in order if keys[i] > tuple(after)]
    order = order[:size]
    return [keys[i] for i in order], counts[order]


def agg_multi_terms(
    s, terms: list[str], fields: list[str], size: int | None = 10
) -> tuple[list[tuple], np.ndarray]:
    """multi_terms aggregation (OpenSearch multi_terms agg):
    composite buckets over 2+ doc-values fields with doc counts,
    ordered (count desc, key tuple asc), keys returned as tuples of
    strings — the composite agg's partial over the field tuple,
    re-ordered by count. Shard partials are full
    maps bounded by the PRODUCT of field cardinalities (the agg's
    documented cost), merged by bucket-key sum."""
    if len(fields) < 2:
        raise ValueError("multi_terms needs >= 2 fields")
    keys, counts = _sum_by_key(
        s._all(_composite_partial, terms, [("terms", f) for f in fields])
    )
    cols = [np.asarray(c, dtype=object) for c in zip(*keys)]
    order = np.lexsort((*reversed(cols), -counts))[:size]
    return [tuple(str(c[i]) for c in cols) for i in order], counts[order]


def agg_histogram(
    s, terms: list[str], field: str, interval: int
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram aggregation (OpenSearch histogram agg) over the
    boolean-OR match set: fixed-interval buckets
    (floor(value/interval)*interval), (bucket asc, count) — the
    composite agg with one histogram source, so shard partials merge by
    bucket-key sum (keys sorted either way) and a doc without a value
    forms no bucket."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    keys, counts = _sum_by_key(
        s._all(_composite_partial, terms, [("histogram", field, interval)])
    )
    return np.array(keys, dtype=np.int64).reshape(-1), counts


def _stats_by_key(keys: np.ndarray, counts, lo, hi, total) -> tuple:
    """(distinct keys, count, min, max, sum) of per-row stats grouped by
    key: a shard's rows are its docs (count 1, min = max = sum = the
    value), the merge's rows are the shards' buckets."""
    uniq, inv = np.unique(keys, return_inverse=True)
    mins = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
    maxs = np.full(uniq.size, np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(mins, inv, lo)
    np.maximum.at(maxs, inv, hi)
    counts, total = (np.bincount(inv, weights=x, minlength=uniq.size)
                     .astype(np.int64) for x in (counts, total))
    return uniq, counts, mins, maxs, total


def _terms_stats_partial(
    s, terms: list[str], bucket_field: str, metric_field: str
) -> tuple:
    """(bucket keys, count, min, max, sum) over this shard's match set;
    a doc without a bucket value or a metric value adds nothing."""
    docs, vals = _present(s, s._match_union(terms), metric_field)
    keys = s.field_values(docs, bucket_field) if docs.size else pa.array([])
    if keys.null_count:
        has = keys.is_valid()
        keys, vals = keys.filter(has), vals[has.to_numpy(zero_copy_only=False)]
    keys = np.asarray(keys.to_pylist(), dtype=object)
    return _stats_by_key(keys, np.ones(vals.size), vals, vals, vals)


def agg_terms_stats(
    s, terms: list[str], bucket_field: str, metric_field: str
) -> list[dict]:
    """terms bucket agg with a stats SUB-aggregation (the standard
    OpenSearch bucket+metric composition: terms { stats }): one row
    per bucket value over the boolean-OR match set, carrying count /
    min / max / sum / avg of the metric field; a doc without a bucket
    or a metric value adds nothing. Shard partials are (bucket, count,
    min, max, sum) arrays merged by key — the agg_stats distributive
    shape. Buckets ordered by (count desc, key asc), the terms-agg
    default."""
    parts = s._all(_terms_stats_partial, sorted(set(terms)), bucket_field,
                   metric_field)
    uniq, counts, mins, maxs, sums = _stats_by_key(
        *(np.concatenate([p[i] for p in parts]) for i in range(5))
    )
    return [
        {
            "key": uniq[i],
            "doc_count": int(counts[i]),
            "min": int(mins[i]),
            "max": int(maxs[i]),
            "sum": int(sums[i]),
            "avg": int(sums[i]) / int(counts[i]),
        }
        for i in np.lexsort((uniq, -counts))
    ]


# -- numeric metric aggs -----------------------------------------------------


def _moments(s, docs: np.ndarray, field: str) -> tuple | None:
    """(n, min, max, Σv, Σv²) exact int64 moments of ``field`` over
    ``docs`` — the associative shard partial behind stats,
    extended_stats, sampler and t_test (None: no docs with a value)."""
    v = _present(s, docs, field)[1]
    if v.size == 0:
        return None
    return (int(v.size), int(v.min()), int(v.max()), int(v.sum()),
            int(v @ v))


def _stats_partial(s, terms: list[str], field: str) -> tuple | None:
    return _moments(s, s._match_union(terms), field)


def _moment_sums(parts: list) -> tuple[int, int, int]:
    """(n, Σv, Σv²) summed over the non-empty moment partials."""
    cols = list(zip(*[p for p in parts if p is not None])) or [()] * 5
    return sum(cols[0]), sum(cols[3]), sum(cols[4])


def _finish_stats(parts: list) -> dict:
    """extended_stats over moment partials: exact int count/min/max/sum/
    sum_of_squares, then avg and OpenSearch's population variance
    ``sum_sq/n − avg²`` divided once each (the same floats however the
    docs were sharded)."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return {
            "count": 0, "min": None, "max": None, "sum": 0, "avg": None,
            "sum_of_squares": 0, "variance": None, "std_deviation": None,
        }
    n, lo, hi, total, sum_sq = zip(*parts)
    n, total, sum_sq = sum(n), sum(total), sum(sum_sq)
    avg = total / n
    var = sum_sq / n - avg * avg
    return {
        "count": n,
        "min": min(lo),
        "max": max(hi),
        "sum": total,
        "avg": avg,
        "sum_of_squares": sum_sq,
        "variance": var,
        "std_deviation": float(np.sqrt(var)),
    }


def _stats(extended: dict) -> dict:
    """The stats-agg subset (count, min, max, sum, avg) of extended_stats."""
    return {k: extended[k] for k in ("count", "min", "max", "sum", "avg")}


def agg_extended_stats(s, terms: list[str], field: str) -> dict:
    """extended_stats aggregation (OpenSearch extended_stats agg):
    count / min / max / sum / avg plus sum_of_squares / variance /
    std_deviation, with OpenSearch's population-variance formula
    ``var = sum_sq/n − avg²`` (ExtendedStatsAggregator.java's textbook
    shortcut, NOT Welford) so the SQL oracle reproduces it term for
    term. Shard partials (count, min, max, sum, sum_sq) merge
    associatively."""
    return _finish_stats(s._all(_stats_partial, terms, field))


def agg_stats(s, terms: list[str], field: str) -> dict:
    """Stats aggregation (OpenSearch stats agg) over the boolean-OR match
    set: count / min / max / sum / avg of a numeric doc-values field.
    Sum and extrema are exact int64; avg is the exact-int sum divided
    once (so a SQL oracle computing sum/count matches bitwise)."""
    return _stats(agg_extended_stats(s, terms, field))


def agg_sampler(
    s, terms: list[str], field: str, shard_size: int = 100
) -> dict:
    """sampler aggregation (OpenSearch SamplerAggregator): run the
    sub-metrics over only the top-``shard_size`` best-scoring match
    docs — the global score top-N, so each shard reduces the sampled
    docs it holds. Sub-agg here is the stats shape over a numeric
    doc-values field — exact int64, avg divided once."""
    docs, _ = s.search_bm25(terms, k=shard_size)
    return _stats(_finish_stats(s._all(_sample_moments, docs, field)))


def _sample_moments(s, docs: np.ndarray, field: str) -> tuple | None:
    return _moments(s, _held(s, docs), field)


def agg_t_test(
    s,
    terms_a: list[str],
    terms_b: list[str],
    field: str,
    mode: str = "heteroscedastic",
) -> dict:
    """t_test aggregation (OpenSearch TTestAggregator) comparing a
    numeric field between two unpaired match populations.
    ``heteroscedastic`` (the reference default) is Welch's t:
    t = (m1 − m2) / sqrt(v1/n1 + v2/n2); ``homoscedastic`` pools the
    sample variances. Populations are exact int64 moment partials
    (n, Σv, Σv²) per side — the associative shard merge — and every
    float op happens once at the end in a pinned order
    (v = (Σv² − Σv·(Σv/n)) / (n−1)) so a SQL oracle replaying the same
    expression matches to round6."""
    (n1, s1, ss1), (n2, s2, ss2) = (
        _moment_sums(s._all(_stats_partial, t, field))
        for t in (terms_a, terms_b)
    )
    if n1 < 2 or n2 < 2:
        return {"n1": n1, "n2": n2, "t": None}
    m1, m2 = s1 / n1, s2 / n2
    v1 = (ss1 - s1 * (s1 / n1)) / (n1 - 1)
    v2 = (ss2 - s2 * (s2 / n2)) / (n2 - 1)
    if mode == "heteroscedastic":
        denom = np.sqrt(v1 / n1 + v2 / n2)
    elif mode == "homoscedastic":
        sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
        denom = np.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    else:
        raise ValueError(f"unknown t_test mode: {mode}")
    t = (m1 - m2) / denom if denom > 0 else None
    return {"n1": n1, "n2": n2, "t": None if t is None else float(t)}


def _matrix_partial(
    s, terms: list[str], field_x: str, field_y: str, keep_x: bool
) -> tuple:
    """The six exact integer sums (n, Σx, Σx², Σy, Σy², Σxy) over this
    shard's match set (docs with both values), plus the x values
    themselves when ``keep_x``."""
    docs, x, y = _present_pair(s, s._match_union(terms), field_x, field_y)
    if docs.size == 0:
        return (0, 0, 0, 0, 0, 0), None
    sums = (int(docs.size), int(x.sum()), int((x * x).sum()), int(y.sum()),
            int((y * y).sum()), int((x * y).sum()))
    return sums, (x if keep_x else None)


def agg_matrix_stats(
    s, terms: list[str], field_x: str, field_y: str = "_dl"
) -> dict:
    """matrix_stats aggregation (OpenSearch matrix_stats agg —
    RunningStats/MatrixStatsResults) between two numeric per-doc series
    over the boolean-OR match set: count, means, population variances,
    population covariance and Pearson correlation, all derived from
    EXACT integer power/cross sums (n, Σx, Σx², Σy, Σy², Σxy) — the
    mergeable shard-partial form (associative integer adds, so
    re-executed tasks are safe). Derived doubles divide the exact sums
    once each, so they are bit-identical however the docs are sharded,
    and a SQL oracle computing the same expressions matches to <1 ulp.
    A searcher holding every value in-process (``s._co_located``) also
    returns skewness/kurtosis (population m3/m2^1.5, m4/m2²) —
    float-central-moment quantities, pytest-pinned, not oracled, and
    not shipped by the distributed protocol. ``field_y`` "_dl" pairs
    against the BM25 doc length."""
    parts = s._all(_matrix_partial, terms, field_x, field_y, s._co_located)
    n, sum_x, sum_xx, sum_y, sum_yy, sum_xy = (
        sum(p[0][i] for p in parts) for i in range(6)
    )
    if n == 0:
        return {"n": 0}
    mean_x, mean_y = sum_x / n, sum_y / n
    var_x = sum_xx / n - mean_x * mean_x
    var_y = sum_yy / n - mean_y * mean_y
    cov = sum_xy / n - mean_x * mean_y
    denom = np.sqrt(var_x * var_y)
    out = {
        "n": n,
        "sum_x": sum_x,
        "sum_y": sum_y,
        "sum_xy": sum_xy,
        "mean_x": mean_x,
        "mean_y": mean_y,
        "var_x": var_x,
        "var_y": var_y,
        "cov": cov,
        "corr": cov / denom if denom > 0 else 0.0,
    }
    if s._co_located:
        xf = parts[0][1].astype(np.float64) - mean_x
        m2 = float((xf * xf).mean())
        m3 = float((xf * xf * xf).mean())
        m4 = float((xf * xf * xf * xf).mean())
        out["skew_x"] = m3 / m2**1.5 if m2 > 0 else 0.0
        out["kurt_x"] = m4 / m2**2 if m2 > 0 else 0.0
    return out


def _range_partial(s, terms: list[str], field: str, ranges: list) -> list:
    """[count, Σv] per range over this shard's match set."""
    vals = _present(s, s._match_union(terms), field)[1]
    out = []
    for lo, hi in ranges:
        m = np.ones(vals.size, dtype=bool)
        if lo is not None:
            m &= vals >= lo
        if hi is not None:
            m &= vals < hi
        out.append((int(m.sum()), int(vals[m].sum())))
    return out


def agg_range(
    s,
    terms: list[str],
    field: str,
    ranges: list[tuple[float | None, float | None]],
) -> list[dict]:
    """Range aggregation (OpenSearch range agg — RangeAggregator):
    per-range doc count + exact int sum of ``field`` over the boolean-OR
    match set, half-open ES semantics lo <= v < hi with open ends. EVERY
    requested range is emitted, zero buckets included (the agg's
    contract). Ranges may overlap — each is counted independently
    (vectorized comparisons, not digitize). Shard partials (cnt, sum per
    fixed range list) are tiny and merge by elementwise sum."""
    parts = s._all(_range_partial, terms, field, ranges)
    return [
        {
            "from": lo,
            "to": hi,
            "cnt": sum(p[i][0] for p in parts),
            "sum_v": sum(p[i][1] for p in parts),
        }
        for i, (lo, hi) in enumerate(ranges)
    ]


def _weighted_partial(
    s, terms: list[str], value_field: str, weight_field: str
) -> tuple[int, int]:
    """(Σ value·weight, Σ weight) over this shard's docs with both."""
    _, vals, w = _present_pair(s, s._match_union(terms), value_field,
                               weight_field)
    return int((vals * w).sum()), int(w.sum())


def agg_weighted_avg(
    s, terms: list[str], value_field: str, weight_field: str = "_dl"
) -> dict:
    """weighted_avg aggregation (OpenSearch weighted_avg agg):
    Σ(value·weight)/Σweight over the match set. ``weight_field``
    "_dl" uses the BM25 doc length (a weight every index already
    holds); any numeric doc-values field works. Integer partial
    sums divide ONCE so the SQL oracle matches bitwise; shard
    partials (Σvw, Σw) merge associatively."""
    parts = s._all(_weighted_partial, sorted(set(terms)), value_field,
                   weight_field)
    sum_vw, sum_w = sum(p[0] for p in parts), sum(p[1] for p in parts)
    return {
        "value": (sum_vw / sum_w) if sum_w else None,
        "sum_vw": sum_vw,
        "sum_w": sum_w,
    }


def _top_metrics_partial(
    s, terms: list[str], sort_field: str, metric_field: str, size: int
) -> tuple:
    """This shard's top ``size`` (docs, sort values, metric values)
    over its docs with both values (the doc length is never missing)."""
    docs, sv = _present(s, s._match_union(terms), sort_field)
    if metric_field != "_dl" and docs.size:
        has = _in_sorted(s.accepted_ids(metric_field, "exists", None), docs)
        docs, sv = docs[has], sv[has]
    sel = np.lexsort((docs, -sv))[:size]
    return docs[sel], sv[sel], _present(s, docs[sel], metric_field)[1]


def agg_top_metrics(
    s,
    terms: list[str],
    sort_field: str,
    metric_field: str = "_dl",
    size: int = 3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """top_metrics aggregation (OpenSearch top_metrics agg): the
    metric field's values at the top ``size`` docs of the match set
    ordered by (sort_field desc, doc_id asc — the deterministic tie
    rule); a doc without a sort or a metric value is not ranked.
    Returns (doc_ids, sort_values, metric_values). Shard partials are
    each shard's own top ``size`` rows; the coordinator merge is a
    size-bounded re-sort — exact because a doc's sort value is
    shard-local."""
    parts = s._all(_top_metrics_partial, sorted(set(terms)), sort_field,
                   metric_field, size)
    if len(parts) == 1:
        return parts[0]
    docs, sv, mv = (np.concatenate([p[i] for p in parts]) for i in range(3))
    sel = np.lexsort((docs, -sv))[:size]
    return docs[sel], sv[sel], mv[sel]


# -- single-searcher aggs: bound on IndexSearcher only, their merges are
# -- not exact on a shard pool ------------------------------------------------


def agg_diversified_sampler(
    s,
    terms: list[str],
    diversify_field: str,
    agg_field: str,
    *,
    shard_size: int = 20,
    max_docs_per_value: int = 2,
) -> tuple[list, np.ndarray]:
    """diversified_sampler agg + nested terms agg (OpenSearch
    DiversifiedAggregator over BestDocsDeferringCollector): walk the
    match set best-first by (round6 BM25 desc, doc_id asc), skip
    docs whose ``diversify_field`` value already holds
    ``max_docs_per_value`` picks (a doc without a value is not
    sampled), stop at ``shard_size`` docs, then count the sample by
    ``agg_field`` (count desc, value asc). Greedy-with-quota over a
    fixed order == filter rank-within-value <= quota then take the top
    ``shard_size`` — vectorized cumcount, no Python doc loop. Scores
    are rounded to 6dp BEFORE ranking so the walk order is
    cross-engine stable. ``shard_size`` is per shard, so a pool's
    sample would differ from a single searcher's."""
    sterms = sorted(set(terms))
    docs, scores = s._bm25_union_scores(sterms, s._gdfs(sterms))
    if docs.size == 0:
        return [], np.empty(0, np.int64)
    scores = np.floor(scores * 1e6 + 0.5) / 1e6  # scores are >= 0
    docs_o = docs[np.lexsort((docs, -scores))]
    dv = s.field_values(docs_o, diversify_field)
    if dv.null_count:
        has = dv.is_valid()
        docs_o, dv = docs_o[has.to_numpy(zero_copy_only=False)], dv.filter(has)
    # occurrence index of each position within its value, in walk
    # order: stable argsort by code keeps walk order inside groups
    inv = pc.dictionary_encode(dv).indices.to_numpy(zero_copy_only=False)
    grp = np.argsort(inv, kind="stable")
    g = inv[grp]
    occ = np.empty(inv.size, dtype=np.int64)
    occ[grp] = np.arange(g.size) - np.searchsorted(g, g)
    keep = np.flatnonzero(occ < max_docs_per_value)[:shard_size]
    return _top_buckets(*_value_counts(s, docs_o[keep], agg_field))


def agg_variable_width(
    s, terms: list[str], field: str, buckets: int = 4
) -> list[dict]:
    """variable_width_histogram aggregation — deterministic
    EQUAL-DEPTH tier. The reference's
    VariableWidthHistogramAggregator clusters with an
    order-dependent streaming heuristic (collection order changes
    the buckets — no stable oracle exists by design), so this
    engine pins the deterministic equal-depth restatement: bucket
    edges at the i/buckets interpolated quantiles
    (PERCENTILE_CONT), values binned by count(edges ≤ v)
    (np.searchsorted side="right"), per-bucket min/max/avg/count
    from exact int64 partials. Non-empty buckets only, keyed by
    bucket ordinal. The edges are global quantiles, so a pool would
    need every matched value."""
    if buckets < 2:
        raise ValueError("buckets must be >= 2")
    vals = _present(s, s._match_union(terms), field)[1]
    if vals.size == 0:
        return []
    qs = [i * 100.0 / buckets for i in range(1, buckets)]
    edges = np.percentile(vals.astype(np.float64), qs, method="linear")
    ring = np.searchsorted(edges, vals, side="right")
    cnt = np.bincount(ring, minlength=buckets)
    tot = np.bincount(ring, weights=vals, minlength=buckets)
    mn = np.full(buckets, np.iinfo(np.int64).max)
    mx = np.full(buckets, np.iinfo(np.int64).min)
    np.minimum.at(mn, ring, vals)
    np.maximum.at(mx, ring, vals)
    return [
        {
            "bucket": b,
            "count": int(cnt[b]),
            "min": int(mn[b]),
            "max": int(mx[b]),
            "avg": int(tot[b]) / int(cnt[b]),
        }
        for b in range(buckets)
        if cnt[b]
    ]


# -- filter buckets ----------------------------------------------------------


def _filters_partial(s, terms: list[str], filters: dict) -> dict:
    docs = s._match_union(terms)
    out: dict[str, int] = {}
    for name, (column, op, value) in filters.items():
        if docs.size == 0:
            out[name] = 0
            continue
        acc = s.accepted_ids(column, op, value)
        out[name] = int(np.intersect1d(docs, acc, assume_unique=True).size)
    return out


def agg_filters(s, terms: list[str], filters: dict[str, tuple]) -> dict[str, int]:
    """filters aggregation (named-bucket counts): for each named
    (column, op, value) predicate, the number of match-set docs
    accepted — evaluated against the cached doc-values predicate scans,
    one sorted intersection per bucket; shard counts sum."""
    parts = s._all(_filters_partial, terms, filters)
    return _key_sum((p.items() for p in parts), dict.fromkeys(filters, 0))


def _adjacency_partial(s, terms: list[str], filters: dict) -> dict:
    docs = s._match_union(terms)
    out: dict[str, int] = {}
    if docs.size == 0:
        return out
    names = sorted(filters)
    sets = {
        n: np.intersect1d(
            docs, s.accepted_ids(*filters[n]), assume_unique=True
        )
        for n in names
    }
    for i, a in enumerate(names):
        if sets[a].size:
            out[a] = int(sets[a].size)
        for b in names[i + 1 :]:
            inter = np.intersect1d(
                sets[a], sets[b], assume_unique=True
            ).size
            if inter:
                out[f"{a}&{b}"] = int(inter)
    return out


def agg_adjacency_matrix(
    s, terms: list[str], filters: dict[str, tuple]
) -> dict[str, int]:
    """adjacency_matrix aggregation: doc counts for every named filter
    and every pairwise intersection (key "a&b", names in sorted order —
    OpenSearch's AdjacencyMatrixAggregator keying), empty buckets
    omitted. Evaluated as sorted-array intersections against cached
    doc-values scans; every doc lives on exactly one shard, so singles
    AND pairs are distributive count-sums."""
    parts = s._all(_adjacency_partial, terms, filters)
    return _key_sum(p.items() for p in parts)


# -- sketch-backed aggs --------------------------------------------------------


def _distinct_partial(
    s, terms: list[str], field: str, precision_threshold: int, p: int
) -> tuple[str, object]:
    """The OpenSearch cardinality shard protocol: ship the exact
    distinct non-null values while they are few, HLL registers above
    the threshold — either way the payload is bounded."""
    docs = s._match_union(terms)
    if docs.size == 0:
        return "exact", np.empty(0)
    vals = pc.unique(pc.drop_null(s.field_values(docs, field)))
    vals = vals.to_numpy(zero_copy_only=False)
    if vals.size <= precision_threshold:
        return "exact", vals
    return "hll", HyperLogLog(p).add_hashed(hash64(vals)).to_bytes()


def agg_cardinality(
    s,
    terms: list[str],
    field: str,
    precision_threshold: int = 3000,
    p: int = 14,
) -> dict:
    """Cardinality aggregation (OpenSearch cardinality agg —
    CardinalityAggregator / HyperLogLogPlusPlus): distinct count of the
    non-null values of a doc-values field over the boolean-OR match set.
    OpenSearch semantics: EXACT while the distinct count stays at or
    below ``precision_threshold``, HyperLogLog estimate above it. Exact
    shard value sets merge by union; HLL registers merge by elementwise
    max (associative + idempotent, so re-executed tasks are safe), and
    the result is an estimate as soon as any shard upgraded or the union
    outgrew the threshold. Registers depend only on the value set, so
    the estimate is the same however the docs are sharded."""
    parts = s._all(_distinct_partial, terms, field, precision_threshold, p)
    exact = [v for kind, v in parts if kind == "exact" and v.size]
    sketches = [v for kind, v in parts if kind == "hll"]
    vals = np.unique(np.concatenate(exact)) if len(exact) > 1 else (
        exact[0] if exact else np.empty(0)
    )
    if not sketches and vals.size <= precision_threshold:
        return {"value": int(vals.size), "exact": True}
    h = HyperLogLog(p)
    if sketches:
        h.merge(HyperLogLog.merge_payloads(sketches))
    if vals.size:
        h.add_hashed(hash64(vals))
    return {"value": h.estimate(), "exact": False}


def _digest_partial(
    s, terms: list[str], field: str, delta: float, center: float | None
) -> bytes:
    """t-digest centroid partial over this shard's match set (a few KiB
    regardless of match size — TDigestState's transport form); with a
    ``center``, the digest of |v − center| (phase 2 of the MAD)."""
    vals = _present(s, s._match_union(terms), field, np.float64)[1]
    if vals.size == 0:
        return b""
    if center is not None:
        vals = np.abs(vals - center)
    return TDigest(delta).add(vals).to_bytes()


def _digest(
    s, terms: list[str], field: str, delta: float, center: float | None = None
) -> TDigest | None:
    """Merged t-digest of the shard partials (None: no values)."""
    parts = [b for b in s._all(_digest_partial, terms, field, delta, center) if b]
    if not parts:
        return None
    t = TDigest.from_bytes(parts[0])
    for b in parts[1:]:
        t.merge(TDigest.from_bytes(b))
    return t


def _tier(s, method: str | None) -> str:
    """The quantile tier: ``method=None`` is exact in-process and
    t-digest on a shard pool, which refuses exact before any fan-out (it
    would ship every matched value to the driver)."""
    if method is None:
        return "exact" if s._co_located else "tdigest"
    if method not in ("exact", "tdigest"):
        raise ValueError(f"unknown quantile method: {method!r}")
    if method == "exact" and not s._co_located:
        raise ValueError(
            "method='exact' needs every matched value in one process; "
            "a shard pool serves method='tdigest'"
        )
    return method


def _values_partial(s, terms: list[str], field: str) -> np.ndarray:
    return _present(s, s._match_union(terms), field, np.float64)[1]


def _exact_values(s, terms: list[str], field: str) -> np.ndarray:
    """Every matched value, float64 (the exact tier: co-located only)."""
    [vals] = s._all(_values_partial, terms, field)
    return vals


def agg_percentiles(
    s,
    terms: list[str],
    field: str,
    pcts: tuple[float, ...] = (1, 5, 25, 50, 75, 95, 99),
    method: str | None = None,
    delta: float = 100.0,
) -> np.ndarray:
    """Percentiles aggregation (OpenSearch percentiles agg) over the
    boolean-OR match set, NaN with no values. ``method="exact"`` is the
    SQL-oracleable linear-interpolation quantile (PERCENTILE_CONT /
    numpy "linear"); ``method="tdigest"`` is the reference's default
    TDigestState path — quantiles of the merged digest, whose shard
    partials are a few KiB of centroids regardless of match-set size.
    The default tier follows ``_tier``."""
    if _tier(s, method) == "tdigest":
        t = _digest(s, terms, field, delta)
        if t is None:
            return np.full(len(pcts), np.nan)
        return t.quantiles(np.asarray(pcts, dtype=np.float64) / 100.0)
    vals = _exact_values(s, terms, field)
    if vals.size == 0:
        return np.full(len(pcts), np.nan)
    return np.percentile(vals, list(pcts), method="linear")


def agg_percentile_ranks(
    s,
    terms: list[str],
    field: str,
    values: tuple[float, ...],
    method: str | None = None,
    delta: float = 100.0,
) -> np.ndarray:
    """percentile_ranks aggregation (inverse percentiles): for each
    given value, the percentage of match-set field values ≤ it, NaN
    with no values. Exact tier = the empirical CDF (100·|v ≤ x|/n,
    SQL-oracleable); the t-digest tier inverts the merged digest's
    quantile function by bisection over q (exact enough for the sketch
    tier — the digest itself is the approximation)."""
    if _tier(s, method) == "exact":
        sv = np.sort(_exact_values(s, terms, field))
        if sv.size == 0:
            return np.full(len(values), np.nan)
        c = np.searchsorted(sv, np.asarray(values, np.float64), "right")
        return 100.0 * c / sv.size
    t = _digest(s, terms, field, delta)
    if t is None:
        return np.full(len(values), np.nan)
    out = []
    for x in values:
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = (lo + hi) / 2.0
            if t.quantile(mid) <= x:
                lo = mid
            else:
                hi = mid
        out.append(100.0 * lo)
    return np.asarray(out)


def agg_mad(
    s,
    terms: list[str],
    field: str,
    method: str | None = None,
    delta: float = 100.0,
) -> float:
    """median_absolute_deviation aggregation: median(|v − median(v)|),
    NaN with no values. Exact tier = interpolated medians
    (PERCENTILE_CONT twice, SQL-oracleable); the t-digest tier runs two
    phases like the reference's MedianAbsoluteDeviationAggregator:
    merged digest → approximate median, then shard digests of
    |v − median| → merged → median again, shipping only centroid
    bytes."""
    if _tier(s, method) == "exact":
        vals = _exact_values(s, terms, field)
        if vals.size == 0:
            return float("nan")
        med = np.percentile(vals, 50, method="linear")
        return float(np.percentile(np.abs(vals - med), 50, method="linear"))
    t = _digest(s, terms, field, delta)
    if t is None:
        return float("nan")
    med = t.quantile(0.5)
    return float(_digest(s, terms, field, delta, med).quantile(0.5))


def agg_boxplot(
    s,
    terms: list[str],
    field: str,
    method: str | None = None,
    delta: float = 100.0,
) -> dict:
    """boxplot aggregation (OpenSearch BoxplotAggregator): min / q1 /
    q2 / q3 / max of a numeric doc-values field over the boolean-OR
    match set (all None with no values). ``method="exact"`` uses
    linear-interpolation quantiles (PERCENTILE_CONT / numpy "linear" —
    SQL-oracleable); the t-digest tier mirrors the reference's
    TDigestState: exact min/max (the digest tracks them) and the merged
    digest's quartiles."""
    if _tier(s, method) == "exact":
        vals = _exact_values(s, terms, field)
        if vals.size == 0:
            return dict.fromkeys(("min", "q1", "q2", "q3", "max"))
        lo, hi = vals.min(), vals.max()
        q1, q2, q3 = np.percentile(vals, [25, 50, 75], method="linear")
    else:
        t = _digest(s, terms, field, delta)
        if t is None:
            return dict.fromkeys(("min", "q1", "q2", "q3", "max"))
        lo, hi = t.min, t.max
        q1, q2, q3 = t.quantiles(np.asarray([0.25, 0.5, 0.75]))
    return {
        "min": float(lo),
        "q1": float(q1),
        "q2": float(q2),
        "q3": float(q3),
        "max": float(hi),
    }


# -- string and scripted metrics ------------------------------------------------


def _string_stats_partial(s, terms: list[str], field: str) -> tuple | None:
    """Mergeable string_stats shard partial:
    (count, min_len, max_len, total_len, codepoints, char_counts)."""
    docs = s._match_union(terms)
    if docs.size == 0:
        return None
    vals = pc.drop_null(s.field_values(docs, field))
    if len(vals) == 0:
        return None
    arr = vals.to_numpy(zero_copy_only=False).astype(np.str_)
    width = arr.dtype.itemsize // 4
    codes = arr.view(np.uint32).reshape(arr.size, width)
    lens = (codes != 0).sum(axis=1).astype(np.int64)
    flat = codes.ravel()
    uniq, cnt = np.unique(flat[flat != 0], return_counts=True)
    return (
        int(arr.size),
        int(lens.min()),
        int(lens.max()),
        int(lens.sum()),
        uniq,
        cnt.astype(np.int64),
    )


def agg_string_stats(s, terms: list[str], field: str) -> dict:
    """string_stats aggregation (OpenSearch StringStatsAggregator):
    count / min_length / max_length / avg_length and Shannon entropy
    (base 2) of the character distribution across all values of a
    keyword doc-values field in the match set (a doc without a value
    adds nothing). Vectorized: one numpy
    U-dtype (UTF-32) view gives per-row codepoint lengths and the flat
    codepoint array in O(total chars) with no per-row loop. Partials
    merge counts/extrema/totals associatively and the per-codepoint
    histograms by key (sorted codepoint order, so the entropy float-sum
    order is identical however the corpus was sharded); entropy is
    −Σ p·log2(p), computed once (sum order differs from SQL's GROUP BY —
    round6 absorbs, the established float-sum contract)."""
    parts = [p for p in s._all(_string_stats_partial, terms, field) if p]
    if not parts:
        return {"count": 0, "min_length": None, "max_length": None,
                "avg_length": None, "entropy": 0.0}
    count = sum(p[0] for p in parts)
    total = sum(p[3] for p in parts)
    uniq, inv = np.unique(np.concatenate([p[4] for p in parts]),
                          return_inverse=True)
    cnt = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(cnt, inv, np.concatenate([p[5] for p in parts]))
    p = cnt / total
    return {
        "count": count,
        "min_length": min(q[1] for q in parts),
        "max_length": max(q[2] for q in parts),
        "avg_length": total / count,
        "entropy": float(-(p * np.log2(p)).sum()) if total else 0.0,
    }


def _scripted_partial(s, terms: list[str], script):
    """This shard's scripted-metric state: the script's map runs
    vectorized over the match set's doc-values (None: no match, so the
    merge skips the shard)."""
    docs = s._match_union(terms)
    if docs.size == 0:
        return None
    return script.map_batch({
        c: s.field_values(docs, c).to_numpy(zero_copy_only=False)
        for c in script.columns
    })


def agg_scripted_metric(s, terms: list[str], script) -> dict:
    """scripted_metric aggregation (OpenSearch ScriptedMetricAggregator:
    init/map/combine/reduce user scripts over arbitrary opaque state,
    under the associative-combine contract). The script is a registered
    `agg.scripted.ScriptedMetric`: every shard runs map over its own
    match set, the states fold with the script's combine and reduce
    runs ONCE over all of them."""
    parts = [p for p in s._all(_scripted_partial, terms, script)
             if p is not None]
    if not parts:
        return {f: None for f in script.output_fields}
    return script.reduce(script.combine(parts))
