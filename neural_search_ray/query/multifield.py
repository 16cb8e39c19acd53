"""Multi-field search: the ``multi_match`` query family.

The reference's engine (like OpenSearch) indexes several text fields per
document and lets one query span them. Ray-native shape: each field is
its OWN index over the same doc-id space (one ``build_index`` call per
field column), and ``search_multi_match`` combines per-field BM25 scores
coordinator-side — no cross-field state ever lives in one posting list,
so fields can be built, merged, and compacted independently.

Semantics mirror Lucene's MultiMatchQuery rewrites
(reference analogue: query construction in
``org.apache.lucene.search.DisjunctionMaxQuery`` and ES/OpenSearch
``MultiMatchQueryBuilder`` types):

- ``best_fields``: DisjunctionMaxQuery over the per-field boolean-OR
  BM25 queries — per doc, ``max + tie_breaker * (sum of the rest)``.
- ``most_fields``: per-field scores SUM (a boolean should over the
  per-field queries).
- ``cross_fields``: BlendedTermQuery semantics — term-centric: each
  query term is scored per field with a BLENDED document frequency
  (the max df across fields, Lucene's ``BlendedTermQuery.blend``
  ceiling), the per-doc contribution of the term is the MAX across
  fields (dismax with tie_breaker=0, the builder default), and terms
  sum like independent should-clauses.

Field boosts multiply that field's score contribution (``title^2``).

Float discipline: per-field scores reuse ``_bm25_union_scores`` (same
accumulation order as ``search_bm25``); cross-field per-term max is
order-independent, and the final over-terms sum runs in sorted-term
order — the same discipline the SQL oracles round to 6dp against.
"""

from __future__ import annotations

import numpy as np

from .bm25 import bm25_term_idfs, topk_desc
from .engine import IndexSearcher

MULTI_MATCH_TYPES = ("best_fields", "most_fields", "cross_fields")


def _union_accumulate(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-source (docs, scores) onto the doc union → (union, matrix)."""
    union = (
        np.unique(np.concatenate([p[0] for p in parts]))
        if len(parts) > 1
        else parts[0][0]
    )
    mat = np.zeros((len(parts), union.size), dtype=np.float64)
    for i, (docs, scores) in enumerate(parts):
        mat[i, np.searchsorted(union, docs)] = scores
    return union, mat


def search_multi_match(
    field_searchers: list[tuple[str, IndexSearcher, float]],
    terms: list[str],
    k: int = 10,
    *,
    match_type: str = "best_fields",
    tie_breaker: float = 0.0,
    global_dfs: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k multi_match over per-field indexes sharing one doc-id space.

    ``field_searchers``: [(field_name, searcher, boost)]. Every searcher
    must index the SAME corpus (same n_docs) — per-field indexes are
    parallel projections of one document set.

    ``global_dfs``: optional {field: df array aligned to sorted-unique
    terms} for shard-subset actors (the dis_max distributed pattern).
    """
    if match_type not in MULTI_MATCH_TYPES:
        raise ValueError(f"match_type must be one of {MULTI_MATCH_TYPES}")
    if not 0.0 <= tie_breaker <= 1.0:
        raise ValueError("tie_breaker must be in [0, 1]")
    empty = (np.empty(0, np.int64), np.empty(0, np.float64))
    sterms = sorted(set(terms))
    if not sterms or not field_searchers:
        return empty
    n_docs = field_searchers[0][1].n_docs
    for _, s, _ in field_searchers[1:]:
        if s.n_docs != n_docs:
            raise ValueError(
                "multi_match field indexes must cover the same corpus "
                f"(n_docs {s.n_docs} != {n_docs})"
            )

    if match_type == "cross_fields":
        return _cross_fields(field_searchers, sterms, k, global_dfs)

    parts = []
    for field, s, boost in field_searchers:
        gdf = None if global_dfs is None else global_dfs[field]
        docs, scores = s._bm25_union_scores(sterms, gdf)
        if docs.size:
            parts.append((docs, scores * boost if boost != 1.0 else scores))
    if not parts:
        return empty
    union, mat = _union_accumulate(parts)
    if match_type == "most_fields":
        return topk_desc(union, mat.sum(axis=0), k)
    mx = mat.max(axis=0)
    total = mat.sum(axis=0)
    return topk_desc(union, mx + tie_breaker * (total - mx), k)


def _cross_fields(
    field_searchers: list[tuple[str, IndexSearcher, float]],
    sterms: list[str],
    k: int,
    global_dfs: dict[str, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Term-centric blended-df scoring (BlendedTermQuery.blend: df ceiling
    = max across fields; per-term dismax across fields, tie_breaker=0)."""
    n_docs = field_searchers[0][1].n_docs
    # per-field dfs aligned to sterms
    dfs_by_field = {}
    for field, s, _ in field_searchers:
        if global_dfs is not None:
            dfs_by_field[field] = np.asarray(global_dfs[field], dtype=np.float64)
        else:
            dfs_by_field[field] = np.asarray(
                [s.local_df(t) for t in sterms], dtype=np.float64
            )
    df_blend = np.maximum.reduce(list(dfs_by_field.values()))
    idfs = bm25_term_idfs(df_blend, n_docs)

    # per-term: (docs, max-over-fields score); collected, then summed on
    # the global union in sorted-term order
    term_parts: list[tuple[np.ndarray, np.ndarray]] = []
    for ti, t in enumerate(sterms):
        if idfs[ti] == 0.0:
            continue
        fparts = []
        for field, s, boost in field_searchers:
            docs, tfs = s.postings(t)
            if docs.size == 0:
                continue
            dl = s.doc_length(docs)
            k1, b = s.bm25.k1, s.bm25.b
            sc = idfs[ti] * tfs / (tfs + k1 * (1.0 - b + b * dl / s.avgdl))
            if boost != 1.0:
                sc = sc * boost
            fparts.append((docs, sc))
        if not fparts:
            continue
        union_t, mat_t = _union_accumulate(fparts)
        term_parts.append((union_t, mat_t.max(axis=0)))
    if not term_parts:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    union, mat = _union_accumulate(term_parts)
    return topk_desc(union, mat.sum(axis=0), k)


def search_combined_fields(
    field_searchers: list[tuple[str, IndexSearcher, float]],
    terms: list[str],
    k: int = 10,
    *,
    global_stats: dict[str, tuple[np.ndarray, float]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """ES/Lucene ``combined_fields`` query (CombinedFieldQuery): BM25
    over a VIRTUAL field that concatenates the per-field token streams
    with per-field weights — term-centric, unlike multi_match's
    score-combining rewrites.

    Per document the virtual field has
      tf'(t, d)  = sum_f w_f * tf_f(t, d)
      dl'(d)     = sum_f w_f * dl_f(d)
      avgdl'     = sum_f w_f * avgdl_f        (linearity of the mean —
                   every searcher covers the same doc set)
      df'(t)     = |union_f postings_f(t)|    (the term's true document
                   frequency in the virtual field)
    and each query term scores
      idf(df') * tf' / (tf' + k1 * (1 - b + b * dl'/avgdl'))
    with terms combining as independent should-clauses (sum, evaluated
    in sorted-term order — the suite oracle's float discipline).

    ``global_stats``: optional ``{"df": per-term virtual-field dfs
    aligned to sorted-unique terms, "avgdl": virtual avgdl}`` for
    shard-subset actors (per-shard doc spaces are disjoint, so union
    dfs SUM across shards — the same coordinator protocol as plain
    BM25's global df).

    Weighted integer tf/dl sums are exact in float64, so scores are
    bit-identical across shard layouts.
    """
    sterms = sorted(set(terms))
    empty = (np.empty(0, np.int64), np.empty(0, np.float64))
    if not sterms or not field_searchers:
        return empty
    base = field_searchers[0][1]
    n_docs = base.n_docs
    k1, b = base.bm25.k1, base.bm25.b

    # per-term per-field postings gathered once (LRU-cached in-searcher)
    posts = {
        (f, t): s.postings(t)
        for f, s, _ in field_searchers
        for t in sterms
    }
    if global_stats is not None:
        dfs = np.asarray(global_stats["df"], dtype=np.float64)
        avgdl_c = float(global_stats["avgdl"])
    else:
        dfs = np.asarray(
            [
                np.unique(
                    np.concatenate(
                        [posts[(f, t)][0] for f, _, _ in field_searchers]
                    )
                ).size
                for t in sterms
            ],
            dtype=np.float64,
        )
        avgdl_c = float(
            sum(w * s.avgdl for _, s, w in field_searchers)
        )
    idfs = bm25_term_idfs(dfs, n_docs)

    term_parts: list[tuple[np.ndarray, np.ndarray]] = []
    for ti, t in enumerate(sterms):
        if idfs[ti] == 0.0:
            continue
        fdocs = [posts[(f, t)][0] for f, _, _ in field_searchers]
        nonempty = [d for d in fdocs if d.size]
        if not nonempty:
            continue
        union_t = (
            np.unique(np.concatenate(nonempty))
            if len(nonempty) > 1
            else nonempty[0]
        )
        tf_c = np.zeros(union_t.size, dtype=np.float64)
        dl_c = np.zeros(union_t.size, dtype=np.float64)
        for f, s, w in field_searchers:
            docs, tfs = posts[(f, t)]
            if docs.size:
                tf_c[np.searchsorted(union_t, docs)] += w * tfs
            dl_c += w * s.doc_length(union_t)
        sc = idfs[ti] * tf_c / (
            tf_c + k1 * (1.0 - b + b * dl_c / avgdl_c)
        )
        term_parts.append((union_t, sc))
    if not term_parts:
        return empty
    union, mat = _union_accumulate(term_parts)
    return topk_desc(union, mat.sum(axis=0), k)


def search_as_you_type(
    field_searchers: list[tuple[int, IndexSearcher]],
    text: str,
    k: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """search_as_you_type (the ES/OpenSearch SearchAsYouTypeFieldMapper
    + multi_match type=bool_prefix contract): partial multi-word input
    matched against the base field and its shingle subfields.

    ``field_searchers``: [(n, searcher)] — n=1 the base field, n>=2 the
    shingle subfields built with stages/shingles.make_shingle_stage (all
    over the SAME doc-id space). Per field, the query is analyzed with
    THAT field's analyzer (its n-shingles, stages/shingles.shingle_tokens):
    every complete shingle becomes a SHOULD term clause, the LAST
    shingle — the one carrying the user's partial final token — becomes
    a SHOULD prefix clause (constant-score rewrite, exactly
    match_bool_prefix's shape; IndexSearcher.search_match_bool_prefix IS
    this function's n=1 leg). A field whose width exceeds the query's
    token count emits no clauses (ES: the shingle filter produces no
    output). Field scores SUM on the doc union — bool-should combine,
    the most_fields discipline.
    """
    from ..analysis.analyzer import tokenize
    from ..stages.shingles import shingle_tokens
    from .querystring import Clause, _search_clauses

    empty = (np.empty(0, np.int64), np.empty(0, np.float64))
    toks = tokenize(text)
    if not toks:
        return empty
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for n, s in field_searchers:
        sh = toks if n == 1 else shingle_tokens(toks, n)
        if not sh:
            continue
        clauses = [Clause("should", "term", (t,)) for t in sh[:-1]]
        clauses.append(Clause("should", "prefix", (sh[-1],)))
        docs, scores = _search_clauses(s, clauses, max(s.n_docs, 1))
        if docs.size:
            parts.append((docs, scores))
    if not parts:
        return empty
    union, mat = _union_accumulate(parts)
    return topk_desc(union, mat.sum(axis=0), k)
