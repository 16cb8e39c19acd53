"""Multi-field search: the ``multi_match`` and ``combined_fields`` queries.

The reference's engine (like OpenSearch) indexes several text fields per
document and lets one query span them. Ray-native shape: each field is
its OWN index over the same doc-id space (one ``build_index`` call per
field column), and the multi-field ops combine per-field scores — no
cross-field state ever lives in one posting list, so fields can be
built, merged, and compacted independently.

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

Context shape (query/scoring.py, over several fields): each op is one
function ``op(s, ...)`` over a multi-field context whose ``fields`` are
``[(field, field context, boost)]``, one searcher context per field
index. An op validates its arguments, resolves its stats through the
context — per-field global dfs ``s._gdfs(terms, field)``, the
combined_fields union dfs ``Σ s._all(partial)``, n_docs and avgdl from
the field contexts — and runs ONE shard kernel that takes them as
required arguments, merged by ``s._topk``. A kernel gets the shard's
per-field searchers as a list aligned to ``fields``. Both contexts bind
the ``MultiFieldOps`` list: ``MultiFieldSearcher`` (in-process, over
``IndexSearcher``s) and ``MultiFieldDistributedSearcher``
(query/distributed.py: one ``DistributedSearcher`` per field, on the
same shard hosts). ``search_as_you_type`` stays a function over a field
list: it scores with each field's local stats and has no pool.

Float discipline: per-field scores reuse ``_bm25_union_scores`` (same
accumulation order as ``search_bm25``); cross-field per-term max is
order-independent, and the final over-terms sum runs in sorted-term
order — the same discipline the SQL oracles round to 6dp against.
"""

from __future__ import annotations

import numpy as np

from .bm25 import bm25_term_idfs, topk_desc
from .engine import IndexSearcher
from .scoring import _no_hits, _saturate

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


def _n_docs(s) -> int:
    """The collection size every field index shares — per-field indexes
    are parallel projections of ONE document set."""
    n_docs = s.fields[0][1].n_docs
    for _, fs, _ in s.fields[1:]:
        if fs.n_docs != n_docs:
            raise ValueError(
                "multi-field indexes must cover the same corpus "
                f"(n_docs {fs.n_docs} != {n_docs})"
            )
    return n_docs


# -- multi_match --------------------------------------------------------------


def _fields_topk(
    views, boosts, sterms, k, gdfs, match_type, tie_breaker
) -> tuple[np.ndarray, np.ndarray]:
    """best_fields / most_fields: per-field boolean-OR BM25 under that
    field's global dfs, boosted, combined per doc."""
    parts = []
    for v, boost, gdf in zip(views, boosts, gdfs):
        docs, scores = v._bm25_union_scores(sterms, gdf)
        if docs.size:
            parts.append((docs, scores * boost if boost != 1.0 else scores))
    if not parts:
        return _no_hits()
    union, mat = _union_accumulate(parts)
    if match_type == "most_fields":
        return topk_desc(union, mat.sum(axis=0), k)
    mx = mat.max(axis=0)
    return topk_desc(union, mx + tie_breaker * (mat.sum(axis=0) - mx), k)


def _cross_topk(views, boosts, sterms, k, idfs) -> tuple[np.ndarray, np.ndarray]:
    """cross_fields: per term, each field's saturated tf under the
    blended idf, boosted, max across fields; terms sum on the union."""
    term_parts = []
    for t, idf in zip(sterms, idfs):
        if idf == 0.0:
            continue
        fparts = []
        for v, boost in zip(views, boosts):
            docs, tfs = v.postings(t)
            if docs.size:
                sc = _saturate(v, docs, tfs, idf)
                fparts.append((docs, sc * boost if boost != 1.0 else sc))
        if fparts:
            union_t, mat_t = _union_accumulate(fparts)
            term_parts.append((union_t, mat_t.max(axis=0)))
    if not term_parts:
        return _no_hits()
    union, mat = _union_accumulate(term_parts)
    return topk_desc(union, mat.sum(axis=0), k)


def search_multi_match(
    s,
    terms: list[str],
    k: int = 10,
    *,
    match_type: str = "best_fields",
    tie_breaker: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k multi_match over the context's per-field indexes, which
    must index the SAME corpus (same n_docs). Bad arguments are refused
    here, before any fan-out."""
    if match_type not in MULTI_MATCH_TYPES:
        raise ValueError(f"match_type must be one of {MULTI_MATCH_TYPES}")
    if not 0.0 <= tie_breaker <= 1.0:
        raise ValueError("tie_breaker must be in [0, 1]")
    sterms = sorted(set(terms))
    if not sterms or not s.fields:
        return _no_hits()
    n_docs = _n_docs(s)
    boosts = [b for _, _, b in s.fields]
    gdfs = [s._gdfs(sterms, f) for f, _, _ in s.fields]
    if match_type == "cross_fields":
        # BlendedTermQuery.blend: the df ceiling is the max across fields
        idfs = bm25_term_idfs(np.maximum.reduce(gdfs), n_docs)
        return s._topk(k, _cross_topk, boosts, sterms, k, idfs)
    return s._topk(
        k, _fields_topk, boosts, sterms, k, gdfs, match_type, tie_breaker
    )


# -- combined_fields ----------------------------------------------------------


def _union_dfs(views, sterms) -> list[int]:
    """Per term, how many of this shard's docs hold it in ANY field."""
    return [
        np.unique(np.concatenate([v.postings(t)[0] for v in views])).size
        for t in sterms
    ]


def _combined_topk(
    views, weights, sterms, k, idfs, avgdl: float
) -> tuple[np.ndarray, np.ndarray]:
    """BM25 over the weighted virtual field (see search_combined_fields)."""
    k1, b = views[0].bm25.k1, views[0].bm25.b
    term_parts = []
    for t, idf in zip(sterms, idfs):
        if idf == 0.0:
            continue
        posts = [v.postings(t) for v in views]
        nonempty = [d for d, _ in posts if d.size]
        if not nonempty:
            continue
        union_t = (
            np.unique(np.concatenate(nonempty))
            if len(nonempty) > 1
            else nonempty[0]
        )
        tf_c = np.zeros(union_t.size, dtype=np.float64)
        dl_c = np.zeros(union_t.size, dtype=np.float64)
        for v, w, (docs, tfs) in zip(views, weights, posts):
            if docs.size:
                tf_c[np.searchsorted(union_t, docs)] += w * tfs
            dl_c += w * v.doc_length(union_t)
        sc = idf * tf_c / (tf_c + k1 * (1.0 - b + b * dl_c / avgdl))
        term_parts.append((union_t, sc))
    if not term_parts:
        return _no_hits()
    union, mat = _union_accumulate(term_parts)
    return topk_desc(union, mat.sum(axis=0), k)


def search_combined_fields(
    s, terms: list[str], k: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """ES/Lucene ``combined_fields`` query (CombinedFieldQuery): BM25
    over a VIRTUAL field that concatenates the per-field token streams
    with per-field weights (the field boosts) — term-centric, unlike
    multi_match's score-combining rewrites.

    Per document the virtual field has
      tf'(t, d)  = sum_f w_f * tf_f(t, d)
      dl'(d)     = sum_f w_f * dl_f(d)
      avgdl'     = sum_f w_f * avgdl_f        (linearity of the mean —
                   every field index covers the same doc set)
      df'(t)     = |union_f postings_f(t)|    (the term's true document
                   frequency in the virtual field; per-shard doc spaces
                   are disjoint, so the shard union dfs SUM exactly)
    and each query term scores
      idf(df') * tf' / (tf' + k1 * (1 - b + b * dl'/avgdl'))
    with terms combining as independent should-clauses (sum, evaluated
    in sorted-term order — the suite oracle's float discipline).

    Weighted integer tf/dl sums are exact in float64, so scores are
    bit-identical across shard layouts.
    """
    sterms = sorted(set(terms))
    if not sterms or not s.fields:
        return _no_hits()
    n_docs = _n_docs(s)
    dfs = np.sum(s._all(_union_dfs, sterms), axis=0)
    avgdl = float(sum(w * fs.avgdl for _, fs, w in s.fields))
    return s._topk(
        k, _combined_topk, [w for _, _, w in s.fields], sterms, k,
        bm25_term_idfs(dfs, n_docs), avgdl,
    )


# -- the contexts -------------------------------------------------------------


class MultiFieldOps:
    """The multi-field op list, bound on the in-process context and on
    the pool. A context supplies ``fields`` and ``_all`` / ``_topk``
    over the per-field shard searchers."""

    search_multi_match = search_multi_match
    search_combined_fields = search_combined_fields

    def _gdfs(self, terms: list[str], field: str) -> np.ndarray:
        """Global dfs of ``terms`` in ``field``: its field context's
        (cached on a pool)."""
        return next(fs for f, fs, _ in self.fields if f == field)._gdfs(terms)


class MultiFieldSearcher(MultiFieldOps):
    """In-process multi-field context over ``[(field, IndexSearcher,
    boost)]``: each kernel runs once over the field searchers, and its
    result already is the top-k."""

    def __init__(self, fields: list[tuple[str, IndexSearcher, float]]):
        self.fields = list(fields)

    def _all(self, fn, /, *args, **kwargs) -> list:
        """The shard op ``fn`` over the field searchers: one partial."""
        return [fn([fs for _, fs, _ in self.fields], *args, **kwargs)]

    def _topk(self, k: int, fn, /, *args, **kwargs):
        """The kernel's one partial already is the top-k."""
        return self._all(fn, *args, **kwargs)[0]


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
