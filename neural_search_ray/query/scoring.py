"""Scoring ops, each defined once for local and distributed execution.

Reference shape (SURVEY.md §2.5/§3.2, dfs_query_then_fetch): a query
runs once per shard with term statistics the coordinator resolved
first, and a single shard is just the case where the local stats are
the global ones. Every op here is one function over a searcher
*context* ``s`` in three steps:

1. resolve the stats it scores with through the context — global dfs
   ``s._gdfs(terms)``, LM collection frequencies ``s._gcfs(terms)``,
   and, from shard partials ``s._all(...)``, the phrase_prefix
   expansion list and the span_or union df;
2. run ONE shard kernel that takes those stats as required arguments —
   ``s._topk(k, kernel, ...)``, or ``s._all`` where the partials
   concatenate (highlight, the constant-score multi-term queries);
3. merge.

``IndexSearcher`` is the one-shard context: its ``_topk`` is the
kernel's own result (one partial already is the top-k, so it pays no
merge) and ``_gdfs``/``_gcfs`` read its own dictionary and postings.
``DistributedSearcher`` fans out one ``run`` per shard host, caches the
global stats, and merges top-ks by (score desc, doc_id asc) — exact,
because each doc lives on one shard. Both classes bind the same
function objects as methods, so the local and the distributed result
come from the same code. Kernels are module-level, so they pickle by
reference to the hosts, and none falls back to local stats. The two
query-string grammars and match_bool_prefix live next to their parsers
(query/queryparser.py, query/querystring.py) and follow the same shape.
"""

from __future__ import annotations

import fnmatch
import re
from collections import Counter

import numpy as np

from ..index.codec import posting_gather
from .aggs import _in_sorted
from .bm25 import bm25_idf, topk_desc
from .suggest import expand_fuzzy

#: pinned-hit synthetic score base — far above any organic BM25 score,
#: mirroring PinnedQueryBuilder's MAX_ORGANIC_SCORE pinning contract.
#: 1e9 keeps PIN_SCORE_BASE − i exactly representable in float64
#: (ulp spacing < 1), so the SQL oracle's replay is bit-identical.
PIN_SCORE_BASE = 1.0e9


# -- shared kernel helpers ----------------------------------------------------


def _no_hits() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, np.int64), np.empty(0, np.float64)


def _idf_sum(s, dfs) -> float:
    """Σ BM25 idf over ``dfs``, one addend per term occurrence (the
    phrase and span idf; a df of 0 is clamped to 1e-9)."""
    dfs = np.asarray(dfs, dtype=np.float64)
    return float(bm25_idf(np.maximum(dfs, 1e-9), s.n_docs).sum())


def _saturate(s, docs: np.ndarray, freq: np.ndarray, idf: float) -> np.ndarray:
    """idf · tf/(tf + k1·(1 − b + b·dl/avgdl)) with tf := ``freq``, the
    per-doc match count — the term-query dl norm every phrase and span
    query scores with."""
    dl = s.doc_length(docs)
    k1, b = s.bm25.k1, s.bm25.b
    f = freq.astype(np.float64)
    return idf * f / (f + k1 * (1.0 - b + b * dl / s.avgdl))


def _max_pos(posts: list) -> int:
    """Largest token position over positional postings."""
    return max(int(p[2].max()) if p[2].size else 0 for p in posts)


def _phrase_keys(posts: list, shift: np.int64) -> np.ndarray | None:
    """Sorted ``doc·shift + start`` keys of every exact-phrase occurrence
    over the per-term positional postings ``posts`` (term i sits at
    start + i): the k-way sorted-unique (doc, pos − i) intersection, one
    np.intersect1d per term. None for no terms."""
    cur = None
    for i, (docs, tfs, posf, _tok) in enumerate(posts):
        keys = np.repeat(docs, tfs) * shift + (posf - i)
        if i:
            keys = keys[posf >= i]
        cur = keys if cur is None else np.intersect1d(cur, keys, assume_unique=True)
        if cur.size == 0:
            break
    return cur


def _group_gdfs(s, groups: list[list[str]]) -> list[np.ndarray]:
    """Global dfs per term group (aligned to each group), resolved in
    ONE ``_gdfs`` round."""
    flat = s._gdfs([t for g in groups for t in g])
    out, i = [], 0
    for g in groups:
        out.append(flat[i:i + len(g)])
        i += len(g)
    return out


# -- phrase family ------------------------------------------------------------


def _phrase_topk(s, terms: list[str], k: int, dfs) -> tuple:
    posts = [s.postings_positions(t) for t in terms]
    if not posts or any(p[0].size == 0 for p in posts):
        return _no_hits()
    # shift > max adjusted position keeps (doc, pos) keys collision-free;
    # docs.max()*shift stays far inside int64 for any real corpus
    shift = np.int64(_max_pos(posts) + 2)
    cur = _phrase_keys(posts, shift)
    if cur.size == 0:
        return _no_hits()
    docs_u, freq = np.unique(cur // shift, return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, _idf_sum(s, dfs)), k)


def search_phrase(s, terms: list[str], k: int = 10) -> tuple:
    """Exact-adjacency phrase top-k — Lucene PhraseQuery (slop=0, the
    match_phrase default) under BM25Similarity, which the reference's
    hybrid query inherits for lexical sub-queries on text fields
    (SURVEY.md §2.9; neural-search wraps arbitrary Lucene queries):

    - a doc matches when the terms occur at consecutive positions;
      tf := the number of phrase occurrences (overlapping matches
      count, as in Lucene's ExactPhraseMatcher);
    - idf := SUM of the per-term idfs, one addend per query-term
      OCCURRENCE (BM25Similarity.idfExplain over the termStats
      array), so a repeated term contributes twice — the dfs are
      resolved in the GIVEN term order;
    - the same dl norm as term queries: score =
      idf_sum * tf / (tf + k1*(1-b+b*dl/avgdl)).

    Vectorized adjacency: term i's (doc, position-i) pairs become
    int64 keys doc*shift + (pos-i); the phrase-start set is the k-way
    sorted-unique intersection. Phrase matching is per-doc, so shards
    match locally; only idf needs the global dfs."""
    return s._topk(k, _phrase_topk, terms, k, s._gdfs(terms))


def _prefix_terms(s, prefix: str) -> list[str]:
    return s.expand_prefix(prefix)


def _phrase_prefix_topk(
    s, fixed: list[str], expansions: list[str], k: int, dfs
) -> tuple:
    n = len(fixed) + 1
    posts = [s.postings_positions(t) for t in fixed]
    if any(p[0].size == 0 for p in posts):
        return _no_hits()
    eposts = [s.postings_positions(t) for t in expansions]
    shift = np.int64(_max_pos(posts + eposts) + 2)
    cur = _phrase_keys(posts, shift)
    if cur is not None and cur.size == 0:
        return _no_hits()
    # virtual last slot: DEDUPED union of the expansions' (doc, pos)
    # keys (two expansions at one position are a single match slot)
    lparts = []
    for docs, tfs, posf, _tok in eposts:
        if docs.size == 0:
            continue
        keys = np.repeat(docs, tfs) * shift + (posf - (n - 1))
        lparts.append(keys[posf >= n - 1] if n > 1 else keys)
    if not lparts:
        return _no_hits()
    last = np.unique(np.concatenate(lparts))
    cur = last if cur is None else np.intersect1d(cur, last, assume_unique=True)
    if cur.size == 0:
        return _no_hits()
    docs_u, freq = np.unique(cur // shift, return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, _idf_sum(s, dfs)), k)


def search_phrase_prefix(
    s, terms: list[str], k: int = 10, *, max_expansions: int = 50
) -> tuple:
    """match_phrase_prefix — Lucene MultiPhraseQuery with the LAST
    position expanded to the first ``max_expansions`` dictionary terms
    (in term order) sharing the prefix, the ES/OpenSearch
    match_phrase_prefix semantics:

    - tf := phrase occurrences where positions 0..n-2 match the fixed
      terms exactly and position n-1 matches ANY expansion;
    - idf := sum over the whole enumerated term array (each fixed term
      once per occurrence + each expansion term once), the
      MultiPhraseWeight/allTermStats behavior;
    - same dl norm as search_phrase. Requires a positional index.

    The expansion list is ONE global list (the union of the shards'
    dictionary ranges, term order, capped), so every shard scores the
    same enumerated term array — the per-shard expansion inconsistency
    ES documents for this query cannot occur."""
    if not terms:
        return _no_hits()
    parts = s._all(_prefix_terms, terms[-1])
    if len(parts) > 1:
        parts = [sorted({t for p in parts for t in p})]
    expansions = parts[0][:max_expansions]
    if not expansions:
        return _no_hits()
    fixed = list(terms[:-1])
    return s._topk(
        k, _phrase_prefix_topk, fixed, expansions, k,
        s._gdfs(fixed + expansions),
    )


# -- boolean and term-set queries ---------------------------------------------


def _bool_topk(
    s, must, should, must_not, filter_terms, msm, k: int, dfs
) -> tuple:
    required = sorted(set(must) | set(filter_terms))
    if msm is None:
        msm = 0 if required else 1
    if not required:
        msm = max(msm, 1)  # should-only: at least one must match
    cand: np.ndarray | None = None
    for t in required:
        docs = s.postings(t)[0]
        if docs.size == 0:
            return _no_hits()
        cand = docs if cand is None else np.intersect1d(cand, docs, assume_unique=True)
        if cand.size == 0:
            return _no_hits()
    should_set = sorted(set(should))
    if should_set and msm > 0:
        if cand is None:
            parts = [d for d in (s.postings(t)[0] for t in should_set) if d.size]
            if not parts:
                return _no_hits()
            u, c = np.unique(np.concatenate(parts), return_counts=True)
            cand = u[c >= msm]
        else:
            cnt = np.zeros(cand.size, dtype=np.int64)
            for t in should_set:
                docs = s.postings(t)[0]
                if docs.size == 0:
                    continue
                pos = np.searchsorted(docs, cand)
                pos_c = np.minimum(pos, docs.size - 1)
                cnt += docs[pos_c] == cand
            cand = cand[cnt >= msm]
        if cand.size == 0:
            return _no_hits()
    for t in sorted(set(must_not)):
        docs = s.postings(t)[0]
        if docs.size == 0 or cand.size == 0:
            continue
        pos = np.searchsorted(docs, cand)
        pos_c = np.minimum(pos, docs.size - 1)
        cand = cand[docs[pos_c] != cand]
    if cand.size == 0:
        return _no_hits()
    # scoring multiset: must + should, one contribution per clause
    # occurrence (weights carry the multiplicity)
    mult = Counter(must) + Counter(should)
    sterms = sorted(mult)
    if sterms:
        weights = np.asarray([mult[t] for t in sterms], dtype=np.float64)
        scores = s._score_candidates(cand, sterms, s._idfs(sterms, dfs), weights)
    else:  # filter-only query: constant 0.0, doc_id-ordered
        scores = np.zeros(cand.size, dtype=np.float64)
    return topk_desc(cand, scores, k)


def search_bool(
    s,
    must: list[str] | None = None,
    should: list[str] | None = None,
    must_not: list[str] | None = None,
    k: int = 10,
    *,
    filter_terms: list[str] | None = None,
    minimum_should_match: int | None = None,
) -> tuple:
    """Boolean term query — Lucene BooleanQuery under BM25Similarity:

    - ``must``: every term required; contributes to the score;
    - ``filter_terms``: required, NOT scored (FILTER occur);
    - ``should``: optional; each matching clause adds its BM25 score;
      ``minimum_should_match`` required matches (Lucene default: 0
      when must/filter clauses exist, else 1);
    - ``must_not``: excludes docs; never scored.

    Score = sum of matching scoring-clause BM25 scores; a term listed
    in both must and should contributes once per clause (Lucene scores
    each clause independently). Docs matched only by
    filter/must_not-survival score 0.0 and tiebreak doc_id asc. A query
    with no must/filter/should clause is rejected (pure negation is
    unbounded, as in Lucene). Clause membership is per-doc, so shards
    evaluate locally with the global dfs of the distinct scoring terms."""
    must, should = list(must or []), list(should or [])
    must_not, filter_terms = list(must_not or []), list(filter_terms or [])
    if not must and not filter_terms and not should:
        raise ValueError("bool query needs at least one must/filter/should clause")
    return s._topk(
        k, _bool_topk, must, should, must_not, filter_terms,
        minimum_should_match, k, s._gdfs(sorted(set(must) | set(should))),
    )


def _terms_set_topk(s, sterms: list[str], msm: int, k: int, dfs) -> tuple:
    if not sterms or msm < 1:
        return _no_hits()
    posts = [d for d in (s.postings(t)[0] for t in sterms) if d.size]
    if len(posts) < msm:
        return _no_hits()
    alldocs = np.concatenate(posts) if len(posts) > 1 else posts[0]
    docs, cnts = np.unique(alldocs, return_counts=True)
    cand = docs[cnts >= msm]
    if cand.size == 0:
        return _no_hits()
    scores = s._score_candidates(cand, sterms, s._idfs(sterms, dfs), None)
    return topk_desc(cand, scores, k)


def search_terms_set(
    s, terms: list[str], minimum_should_match: int = 2, k: int = 10
) -> tuple:
    """terms_set query (Lucene CoveringQuery — what OpenSearch compiles
    terms_set's minimum_should_match_script to): docs matching at least
    ``minimum_should_match`` DISTINCT query terms, scored as the BM25
    sum over the doc's matched terms (identical to a bool should with
    msm). Postings doc lists are unique per term, so one concatenate +
    unique-with-counts gives the distinct-match count; candidates below
    msm never reach the scorer. Per-doc counts are shard-complete (docs
    never span shards)."""
    sterms = sorted(set(terms))
    return s._topk(
        k, _terms_set_topk, sterms, minimum_should_match, k, s._gdfs(sterms)
    )


def _synonym_topk(s, groups: list[list[str]], k: int, dfs: list) -> tuple:
    parts = []
    for gterms, gdfs in zip(groups, dfs):
        if not gterms:
            continue
        df_max = float(gdfs.max())
        if df_max <= 0:
            continue
        posts = [p for p in (s.postings(t) for t in gterms) if p[0].size]
        if not posts:
            continue
        if len(posts) == 1:
            docs, tfs = posts[0]
        else:
            alldocs = np.concatenate([p[0] for p in posts])
            alltfs = np.concatenate([p[1] for p in posts])
            docs, inv = np.unique(alldocs, return_inverse=True)
            tfs = np.zeros(docs.size, dtype=np.float64)
            np.add.at(tfs, inv, alltfs)
        parts.append((docs, _saturate(s, docs, tfs, _idf_sum(s, [df_max]))))
    if not parts:
        return _no_hits()
    union = (
        np.unique(np.concatenate([p[0] for p in parts]))
        if len(parts) > 1
        else parts[0][0]
    )
    total = np.zeros(union.size, dtype=np.float64)
    for docs, scores in parts:
        total[np.searchsorted(union, docs)] += scores
    return topk_desc(union, total, k)


def search_synonym(s, groups: list[list[str]], k: int = 10) -> tuple:
    """Lucene SynonymQuery semantics (what a synonym_graph filter
    compiles a term to): each group of synonyms scores as ONE
    pseudo-term — per-doc tf = Σ tf over the group's terms, df = max
    GLOBAL df over the group (SynonymQuery's blended docFreq) — then
    groups combine like independent BM25 should-clauses."""
    gsets = [sorted(set(g)) for g in groups]
    return s._topk(k, _synonym_topk, gsets, k, _group_gdfs(s, gsets))


def _dis_max_topk(s, subs: list[list[str]], tie_breaker: float, k: int, dfs: list) -> tuple:
    parts = [s._bm25_union_scores(sub, d) for sub, d in zip(subs, dfs)]
    parts = [p for p in parts if p[0].size]
    if not parts:
        return _no_hits()
    union = (
        np.unique(np.concatenate([p[0] for p in parts]))
        if len(parts) > 1
        else parts[0][0]
    )
    mat = np.zeros((len(parts), union.size), dtype=np.float64)
    for i, (docs, scores) in enumerate(parts):
        mat[i, np.searchsorted(union, docs)] = scores
    mx = mat.max(axis=0)
    total = mat.sum(axis=0)
    return topk_desc(union, mx + tie_breaker * (total - mx), k)


def search_dis_max(
    s, subqueries: list[list[str]], k: int = 10, *, tie_breaker: float = 0.0
) -> tuple:
    """Lucene DisjunctionMaxQuery: per-doc score = best subquery score +
    tie_breaker · (sum of the others). Each subquery is a boolean-OR
    BM25 query scored over its full match union (the max is taken per
    doc, so subquery top-k pruning would be unsound; a doc lives on one
    shard, so the shard-local combine is exact).

    Float discipline: with >2 subqueries use tie_breaker=0.0 if an
    external system must reproduce scores bitwise — max is
    order-independent, a 3-way float sum is not."""
    if not 0.0 <= tie_breaker <= 1.0:
        raise ValueError("tie_breaker must be in [0, 1]")
    subs = [sorted(set(q)) for q in subqueries]
    return s._topk(k, _dis_max_topk, subs, tie_breaker, k, _group_gdfs(s, subs))


# -- full-union rescoring: BM25 over the whole match set, then a per-doc
# -- function that reorders docs, then ONE top-k --------------------------------


def _rescored_topk(s, sterms: list[str], dfs, k: int, rescore, *args) -> tuple:
    """Exact BM25 over the full boolean-OR match union, then
    ``rescore(s, docs, scores, *args)`` before the one top-k (the
    rescore reorders docs, so top-k pruning on raw BM25 would be
    unsound). The rescore reads only per-doc doc-values or postings,
    which live on the doc's own shard."""
    cand, scores = s._bm25_union_scores(sterms, dfs)
    if cand.size == 0:
        return cand, scores
    return topk_desc(cand, rescore(s, cand, scores, *args), k)


def _rescored(s, terms: list[str], k: int, rescore, *args) -> tuple:
    sterms = sorted(set(terms))
    return s._topk(k, _rescored_topk, sterms, s._gdfs(sterms), k, rescore, *args)


def _gauss_decay(s, docs, bm25, field, origin, scale, decay, offset):
    v = s.field_array(docs, field, np.float64)
    dist = np.maximum(np.abs(v - origin) - offset, 0.0)
    return bm25 * np.exp((dist * dist) * (np.log(decay) / (scale * scale)))


def search_decay(
    s,
    terms: list[str],
    field: str,
    *,
    origin: float,
    scale: float,
    decay: float = 0.5,
    offset: float = 0.0,
    k: int = 10,
) -> tuple:
    """function_score with a gauss decay on a numeric doc-values field
    (FunctionScoreQuery + GaussDecayFunction, multiply boost mode):
    score = bm25 · exp(dist² · ln(decay)/scale²) with
    dist = max(|v − origin| − offset, 0). Scores the FULL match union
    (decay reorders, so top-k pruning on raw BM25 would be unsound),
    then one top-k. Float-op order mirrors the SQL oracle term for
    term."""
    if scale <= 0 or not 0.0 < decay < 1.0:
        raise ValueError("need scale > 0 and 0 < decay < 1")
    return _rescored(s, terms, k, _gauss_decay, field, origin, scale, decay, offset)


def _demote(s, docs, scores, negative, negative_boost):
    neg = s._match_union(negative)
    if neg.size == 0:
        return scores
    pos_c = np.minimum(np.searchsorted(neg, docs), neg.size - 1)
    return np.where(neg[pos_c] == docs, scores * negative_boost, scores)


def search_boosting(
    s,
    positive: list[str],
    negative: list[str],
    *,
    negative_boost: float = 0.5,
    k: int = 10,
) -> tuple:
    """Boosting query (Lucene BoostingQuery / the OpenSearch
    ``boosting`` compound): positive BM25 scores, demoted by
    ``negative_boost`` multiplication for docs that also match the
    negative query — unlike must_not, demoted docs stay in the result
    set. Negative membership is shard-local, so only the positive terms
    need global dfs."""
    if not 0.0 <= negative_boost <= 1.0:
        raise ValueError("negative_boost must be in [0, 1]")
    return _rescored(s, positive, k, _demote, negative, negative_boost)


def _rank_feature(s, docs, scores, field, pivot, function, boost, scaling_factor, exponent):
    v = s.field_array(docs, field, np.float64)
    if function == "saturation":
        if pivot is None or pivot <= 0:
            raise ValueError("saturation needs pivot > 0")
        feat = v / (v + pivot)
    elif function == "log":
        if scaling_factor + v.min() <= 0:
            raise ValueError("log needs scaling_factor + v > 0")
        feat = np.log(scaling_factor + v)
    elif function == "sigmoid":
        if pivot is None or pivot <= 0 or exponent <= 0:
            raise ValueError("sigmoid needs pivot > 0 and exponent > 0")
        ve = np.power(v, exponent)
        feat = ve / (ve + pivot**exponent)
    else:
        raise ValueError(f"unknown rank_feature function: {function}")
    return scores + boost * feat


def search_rank_feature(
    s,
    terms: list[str],
    field: str,
    *,
    pivot: float | None = None,
    function: str = "saturation",
    boost: float = 1.0,
    scaling_factor: float = 1.0,
    exponent: float = 1.0,
    k: int = 10,
) -> tuple:
    """rank_feature scoring clause (the OpenSearch rank_feature query
    inside a bool should, RankFeatureQuery): adds a static per-doc
    feature contribution to the BM25 score of every doc in the text
    match union —

    - ``saturation``: boost · v/(v + pivot)
    - ``log``:        boost · ln(scaling_factor + v)
    - ``sigmoid``:    boost · v^exp/(v^exp + pivot^exp)

    Pinned semantics: the feature clause only BOOSTS docs already
    matching a text clause (it never selects on its own) — the
    recommended bool{must: match, should: rank_feature} pattern. Feature
    values come from doc-values; float-op order mirrors the SQL oracle
    for saturation/log (sigmoid's pow is pytest-only)."""
    return _rescored(
        s, terms, k, _rank_feature, field, pivot, function, boost,
        scaling_factor, exponent,
    )


def _field_value_factor(s, docs, scores, field, factor, modifier, weight):
    x = factor * s.field_array(docs, field, np.float64)
    if modifier == "ln1p":
        boost = np.log(1.0 + x)
    elif modifier == "ln":
        boost = np.log(x)
    elif modifier == "sqrt":
        boost = np.sqrt(x)
    elif modifier == "none":
        boost = x
    else:
        raise ValueError(f"unknown field_value_factor modifier {modifier!r}")
    return scores * (weight * boost)


def search_function_score(
    s,
    terms: list[str],
    field: str,
    k: int = 10,
    *,
    factor: float = 1.0,
    modifier: str = "ln1p",
    weight: float = 1.0,
) -> tuple:
    """function_score with field_value_factor (OpenSearch
    FieldValueFactorFunction): final = bm25 * weight *
    modifier(factor * field_value). The factor re-orders docs, so the
    boost multiplies the FULL union's exact scores before any truncation
    (top-k pruning on the raw subquery would be unsound — same rule as
    dis_max/boosting). ``ln1p`` is computed as ln(1 + x) literally (NOT
    numpy log1p) so a SQL oracle's ln(1 + x) matches float-for-float."""
    return _rescored(s, terms, k, _field_value_factor, field, factor, modifier, weight)


def _distance_feature(s, docs, scores, field, origin, pivot, boost):
    v = s.field_array(docs, field, np.float64)
    return scores + boost * (pivot / (pivot + np.abs(v - origin)))


def search_distance_feature(
    s,
    terms: list[str],
    field: str,
    *,
    origin: float,
    pivot: float,
    boost: float = 1.0,
    k: int = 10,
) -> tuple:
    """distance_feature query (OpenSearch DistanceFeatureQueryBuilder
    over Lucene LongField.newDistanceFeatureQuery) composed the
    recommended way — bool{must: match, should: distance_feature} — so
    the final score is BM25 + boost · pivot/(pivot + |v − origin|) over
    the full text match union (additive reorder ⇒ top-k pruning on raw
    BM25 would be unsound, same contract as rank_feature). Float-op
    order pinned for the SQL oracle."""
    if pivot <= 0:
        raise ValueError("distance_feature needs pivot > 0")
    return _rescored(s, terms, k, _distance_feature, field, origin, pivot, boost)


def _script(s, docs, scores, script):
    cols = {
        c: s.field_values(docs, c).to_numpy(zero_copy_only=False)
        for c in script.columns
    }
    return script.score(cols, scores)


def search_script_score(s, terms: list[str], script, k: int = 10) -> tuple:
    """script_score query (OpenSearch ScriptScoreQuery): wrap the
    inner term query and REPLACE each hit's score with a registered
    score script (query/scripts.py ScoreScript — the compiled-
    Painless analogue) evaluated over the doc's doc-values and the
    inner ``_score``. The script reorders docs arbitrarily, so it
    runs over the FULL union's exact BM25 scores before any
    truncation (same soundness rule as function_score/dis_max)."""
    return _rescored(s, terms, k, _script, script)


# -- pinned -------------------------------------------------------------------


def _existing_ids(s, ids: list[int]) -> list[int]:
    """The ``ids`` this shard holds."""
    ids = np.asarray(ids, dtype=np.int64)
    return ids[_in_sorted(s._dl_doc_ids, ids)].tolist()


def _organic_topk(s, sterms: list[str], pins: list[int], k: int, dfs) -> tuple:
    cand, scores = s._bm25_union_scores(sterms, dfs)
    if cand.size == 0:
        return _no_hits()
    keep = ~np.isin(cand, np.asarray(pins, dtype=np.int64))
    return topk_desc(cand[keep], scores[keep], k)


def search_pinned(s, pinned_ids: list[int], terms: list[str], k: int = 10) -> tuple:
    """pinned query (OpenSearch PinnedQueryBuilder): the given doc ids
    rank first IN THE ORDER GIVEN (synthetic descending scores above
    every organic score), then organic BM25 matches follow with the
    pinned ids removed. Pinned ids missing from the index are skipped
    (the reference's IDs-query semantics): existence is resolved over
    every shard first, then the organic top-k runs with the final pins
    excluded."""
    cand = list(dict.fromkeys(int(i) for i in pinned_ids))
    exists = {i for part in s._all(_existing_ids, cand) for i in part}
    pins = [p for p in cand if p in exists][:k]
    sterms = sorted(set(terms))
    organic = _no_hits()
    if sterms and k > len(pins):
        rest = k - len(pins)
        organic = s._topk(rest, _organic_topk, sterms, pins, rest, s._gdfs(sterms))
    return (
        np.concatenate([np.asarray(pins, dtype=np.int64), organic[0]]),
        np.concatenate(
            [PIN_SCORE_BASE - np.arange(len(pins), dtype=np.float64), organic[1]]
        ),
    )


# -- id, range and sparse-dot queries ------------------------------------------


def _ids_topk(s, ids: np.ndarray, k: int) -> tuple:
    docs = ids[_in_sorted(s._dl_doc_ids, ids)][:k]
    return docs, np.ones(docs.size, dtype=np.float64)


def search_ids(s, ids: list[int], k: int = 10) -> tuple:
    """ids query (Lucene IdsQueryBuilder / TermInSetQuery on _id):
    constant score 1.0 for each EXISTING doc id, duplicates
    collapsed, doc_id-ascending order, k cap. Missing ids are
    skipped silently (the reference's IDs-query semantics, same as
    search_pinned's membership rule)."""
    return s._topk(k, _ids_topk, np.unique(np.asarray(ids, dtype=np.int64)), k)


def _range_topk(s, field: str, lo, hi, k: int) -> tuple:
    dv = s.doc_values()
    ge = dv.accepted(field, ">=", lo)
    lt = dv.accepted(field, "<", hi)
    docs = np.intersect1d(ge, lt, assume_unique=True)[:k]
    return docs, np.ones(docs.size, dtype=np.float64)


def search_range(s, field: str, lo, hi, k: int = 10) -> tuple:
    """Numeric range query over doc-values (Lucene point/range query
    under the CONSTANT_SCORE rewrite): docs with lo <= field < hi,
    score 1.0, doc_id asc — evaluated as two cached doc-values
    predicate scans intersected shard-locally."""
    return s._topk(k, _range_topk, field, lo, hi, k)


def _sparse_dot_topk(s, token_weights: dict[str, float], k: int) -> tuple:
    terms = sorted(token_weights)
    cand = s._match_union(terms)
    if cand.size == 0:
        return _no_hits()
    scores = np.zeros(cand.size, dtype=np.float64)
    for t in terms:
        docs, tfs = s.postings(t)
        if docs.size:
            scores[np.searchsorted(cand, docs)] += token_weights[t] * tfs
    return topk_desc(cand, scores, k)


def search_sparse_dot(s, token_weights: dict[str, float], k: int = 10) -> tuple:
    """Sparse linear dot-product scoring: score(d) = Σ_t q_w(t)·tf_d(t)
    (query/NeuralSparseQueryBuilder.java:569-589 with analyzer tfs) —
    per-doc, so shards score locally with no global stats."""
    return s._topk(k, _sparse_dot_topk, token_weights, k)


# -- language-model similarities ------------------------------------------------

_LM_SIMILARITIES = ("dirichlet", "jelinek_mercer", "dfi")


def _lm_topk(
    s, sterms: list[str], k: int, similarity: str, mu: float, lam: float,
    cfs, total: float,
) -> tuple:
    cand = s._match_union(sterms)
    if cand.size == 0 or total <= 0:
        return _no_hits()
    dl = s.doc_length(cand)
    scores = np.zeros(cand.size, dtype=np.float64)
    for t, cf in zip(sterms, cfs):
        if cf <= 0:
            continue
        docs, tfs = s.postings(t)
        if docs.size == 0:
            continue
        p_c = cf / total
        idx = np.searchsorted(cand, docs)
        if similarity == "dirichlet":
            sc = np.log(1.0 + tfs / (mu * p_c)) + np.log(mu / (dl[idx] + mu))
            sc = np.maximum(0.0, sc)
        elif similarity == "dfi":
            e = cf * dl[idx] / total
            sc = np.zeros(tfs.size, dtype=np.float64)
            m = tfs > e  # masked: the dead branch would log2(<=0)
            sc[m] = np.log2(1.0 + (tfs[m] - e[m]) / np.sqrt(e[m]))
        else:
            sc = np.log(1.0 + ((1.0 - lam) * tfs / dl[idx]) / (lam * p_c))
        scores[idx] += sc
    return topk_desc(cand, scores, k)


def search_lm(
    s,
    terms: list[str],
    k: int = 10,
    *,
    similarity: str = "dirichlet",
    mu: float = 2000.0,
    lam: float = 0.5,
) -> tuple:
    """Language-model similarities (the Lucene similarity module the
    reference inherits — LMDirichletSimilarity /
    LMJelinekMercerSimilarity) over the SAME postings as BM25:

    - dirichlet: per matching term
      max(0, ln(1 + tf/(mu·p_c)) + ln(mu/(dl + mu))),
      p_c = cf/total_tokens (the per-term clamp keeps scores
      non-negative as Lucene requires; a documented deviation from
      Lucene's unclamped sum, pinned by the SQL oracle)
    - jelinek_mercer: per matching term
      ln(1 + ((1-λ)·tf/dl) / (λ·p_c))
    - dfi: divergence from independence, standardized measure
      (DFISimilarity + IndependenceStandardized): expected
      e = cf·dl/T; contribution 0 when tf ≤ e, else
      log2(1 + (tf - e)/sqrt(e)) — terms occurring no more often than
      chance score nothing

    summed over the query's sorted-unique terms. cf and total_tokens
    are collection stats, so they are resolved like global df: cf
    through ``s._gcfs``, total_tokens from the (global) manifest."""
    if similarity not in _LM_SIMILARITIES:
        raise ValueError(f"unknown similarity: {similarity}")
    sterms = sorted(set(terms))
    if not sterms:
        return _no_hits()
    return s._topk(
        k, _lm_topk, sterms, k, similarity, mu, lam, s._gcfs(sterms),
        float(s.manifest.total_tokens),
    )


# -- span queries -------------------------------------------------------------


def _union_df(s, sterms: list[str]) -> int:
    """This shard's union df (span_or, span_multi legs): docs holding
    any of ``sterms``, counted on a doc-space mask (shards are disjoint,
    so the global union df is the sum of these)."""
    hit = np.zeros(s._dl_doc_ids.size, dtype=bool)
    for t in sterms:
        hit[s.postings_full(t)[2]] = True
    return int(np.count_nonzero(hit))


def _span_or_topk(s, sterms: list[str], k: int, df: float) -> tuple:
    cand = s._match_union(sterms)
    if cand.size == 0:
        return _no_hits()
    f = np.zeros(cand.size, dtype=np.float64)
    for docs, tfs in (s.postings(t) for t in sterms):
        if docs.size:
            f[np.searchsorted(cand, docs)] += tfs
    return topk_desc(cand, _saturate(s, cand, f, _idf_sum(s, [df])), k)


def search_span_or(s, clauses: list[str], k: int = 10) -> tuple:
    """span_or query (Lucene SpanOrQuery): matches spans of ANY clause
    term. Per-doc frequency is the TOTAL span count (Σ clause tfs — the
    union of per-term span enumerations), and the query scores as ONE
    pseudo-term: idf of the UNION document frequency × BM25 tf-norm of
    the combined frequency (SpanWeight builds a single
    Similarity.SimScorer over the merged stats). All doc-level — no
    position decode needed, the span union's per-doc cardinality is
    exactly the tf sum."""
    sterms = sorted(set(clauses))
    if not sterms:
        return _no_hits()
    df = float(sum(s._all(_union_df, sterms)))
    return s._topk(k, _span_or_topk, sterms, k, df)


def _span_container(s, little: str, big: list[str]):
    """(little postings, little keys, big phrase-start keys, shift) of
    a span container query, or None when either side has no
    occurrence. The shift covers the little term, the big phrase AND
    the ±(L−1) containment window, so window probes never bleed into a
    neighboring doc's key block."""
    lp = s.postings_positions(little)
    posts = [s.postings_positions(t) for t in big]
    if lp[0].size == 0 or any(p[0].size == 0 for p in posts):
        return None
    shift = np.int64(_max_pos([lp] + posts) + len(big) + 2)
    big_keys = _phrase_keys(posts, shift)
    if big_keys.size == 0:
        return None
    return lp, np.repeat(lp[0], lp[1]) * shift + lp[2], big_keys, shift


def _span_within_topk(s, little: str, big: list[str], k: int, df: float) -> tuple:
    c = _span_container(s, little, big) if big else None
    if c is None:
        return _no_hits()
    (docs_l, tfs_l, _, _), keys_l, big_keys, _ = c
    lo = np.searchsorted(big_keys, keys_l - (len(big) - 1))
    hi = np.searchsorted(big_keys, keys_l, side="right")
    qual = hi > lo
    if not qual.any():
        return _no_hits()
    docs_u, freq = np.unique(np.repeat(docs_l, tfs_l)[qual], return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, _idf_sum(s, [df])), k)


def search_span_within(s, little: str, big: list[str], k: int = 10) -> tuple:
    """span_within query (Lucene SpanWithinQuery): occurrences of the
    ``little`` term that lie INSIDE an occurrence of the ``big`` exact
    phrase (big span [q, q+L−1] contains position p ⟺ q ∈ [p−L+1, p]);
    tf = qualifying little occurrences, scored as single-term BM25 with
    the little term's stored df (the Lucene upper-bound contract, as
    span_not). Vectorized: phrase-start keys once, two searchsorted
    probes per little occurrence."""
    return s._topk(k, _span_within_topk, little, big, k, float(s._gdfs([little])[0]))


def _span_containing_topk(s, little: str, big: list[str], k: int, dfs) -> tuple:
    c = _span_container(s, little, big) if big else None
    if c is None:
        return _no_hits()
    _, keys_l, big_keys, shift = c
    lo = np.searchsorted(keys_l, big_keys)
    hi = np.searchsorted(keys_l, big_keys + (len(big) - 1), side="right")
    qual = hi > lo
    if not qual.any():
        return _no_hits()
    docs_u, freq = np.unique(big_keys[qual] // shift, return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, _idf_sum(s, dfs)), k)


def search_span_containing(s, little: str, big: list[str], k: int = 10) -> tuple:
    """span_containing query (Lucene SpanContainingQuery): occurrences
    of the ``big`` exact phrase that CONTAIN an occurrence of the
    ``little`` term (∃ p ∈ [q, q+L−1] with toks[p] = little); tf =
    qualifying phrase occurrences, scored with the phrase convention
    (idf = Σ per-big-term global idfs, same dl norm — search_phrase's
    contract with the restricted tf)."""
    return s._topk(k, _span_containing_topk, little, big, k, s._gdfs(big))


def _span_first_topk(s, term: str, end: int, k: int, dfs) -> tuple:
    docs, _, posf, tok_start = s.postings_positions(term)
    if docs.size == 0:
        return _no_hits()
    cnt = np.add.reduceat((posf < end).astype(np.int64), tok_start)
    keep = cnt > 0
    docs, f = docs[keep], cnt[keep].astype(np.float64)
    if docs.size == 0:
        return _no_hits()
    return topk_desc(docs, _saturate(s, docs, f, _idf_sum(s, dfs)), k)


def search_span_first(s, term: str, end: int, k: int = 10) -> tuple:
    """span_first query (Lucene SpanFirstQuery): match only term
    occurrences whose span ends within the first ``end`` positions —
    a term span at 0-based position p has end p+1, so the condition
    is p < end (the match-in-the-opening-window primitive, e.g.
    "term appears in the lead"). tf = count of qualifying positions;
    scored like a single-term BM25 with that restricted tf.
    Vectorized: one boolean mask over the flat positions array +
    np.add.reduceat per posting slice. Requires positions."""
    if end <= 0:
        return _no_hits()
    return s._topk(k, _span_first_topk, term, end, k, s._gdfs([term]))


def _span_not_topk(
    s, include: str, exclude: str, pre: int, post: int, k: int, dfs
) -> tuple:
    docs_i, tfs_i, posf_i, _ = s.postings_positions(include)
    if docs_i.size == 0:
        return _no_hits()
    docs_e, tfs_e, posf_e, _ = s.postings_positions(exclude)
    shift = np.int64(
        _max_pos([(docs_i, tfs_i, posf_i), (docs_e, tfs_e, posf_e)])
        + pre + post + 2
    )
    keys_i = np.repeat(docs_i, tfs_i) * shift + posf_i
    keys_e = np.repeat(docs_e, tfs_e) * shift + posf_e
    # an exclude at q kills include at p iff p-pre <= q <= p+post
    lo = np.searchsorted(keys_e, keys_i - pre)
    hi = np.searchsorted(keys_e, keys_i + post, side="right")
    kept = keys_i[hi == lo]
    if kept.size == 0:
        return _no_hits()
    docs_u, freq = np.unique(kept // shift, return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, _idf_sum(s, dfs)), k)


def search_span_not(
    s, include: str, exclude: str, k: int = 10, *, pre: int = 0, post: int = 0
) -> tuple:
    """span_not query (Lucene SpanNotQuery): occurrences of
    ``include`` that have NO ``exclude`` occurrence within
    [p - pre, p + post]; tf = surviving count, scored as
    single-term BM25 with that restricted tf and the include
    term's df (stored df, a valid upper bound — the Lucene
    contract). Vectorized: one searchsorted of include positions
    into the exclude (doc,pos) keyspace per window edge."""
    if pre < 0 or post < 0:
        raise ValueError("pre and post must be >= 0")
    return s._topk(
        k, _span_not_topk, include, exclude, pre, post, k, s._gdfs([include])
    )


def _in_order_topk(
    s, keys: list[np.ndarray], shift: np.int64, slop: int, idf_sum: float,
    k: int,
) -> tuple:
    """Top-k of the in-order span-near chain over per-leg sorted
    ``doc·shift + pos`` keys: each start advances with ONE
    searchsorted per leg to the earliest next occurrence (minimal
    end for that start); tf = starts whose chain fits the window."""
    start = cur = keys[0]
    for nk in keys[1:]:
        # greedy: earliest occurrence of the next leg strictly after cur
        pos = np.searchsorted(nk, cur, side="right")
        ok = pos < nk.size
        nxt = nk[np.minimum(pos, nk.size - 1)]
        # must stay in the same doc
        ok &= (nxt // shift) == (cur // shift)
        start, cur = start[ok], nxt[ok]
        if start.size == 0:
            return _no_hits()
    start = start[(cur - start) <= (len(keys) - 1 + slop)]
    if start.size == 0:
        return _no_hits()
    docs_u, freq = np.unique(start // shift, return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, idf_sum), k)


def _span_near_topk(s, terms: list[str], slop: int, k: int, dfs) -> tuple:
    posts = [s.postings_positions(t) for t in terms]
    if any(p[0].size == 0 for p in posts):
        return _no_hits()
    # window arithmetic stays inside one doc's key range
    shift = np.int64(_max_pos(posts) + len(terms) + slop + 2)
    keys = [np.repeat(p[0], p[1]) * shift + p[2] for p in posts]
    return _in_order_topk(s, keys, shift, slop, _idf_sum(s, dfs), k)


def _span_pair_topk(s, terms: list[str], slop: int, k: int, dfs) -> tuple:
    """2-term unordered span: tf = distinct positions p of EITHER
    term whose partner occurs in (p, p + slop + 1] — each unordered
    window counted once at its min position."""
    posts = [s.postings_positions(t) for t in terms]
    if any(p[0].size == 0 for p in posts):
        return _no_hits()
    shift = np.int64(_max_pos(posts) + slop + 3)
    keys = [np.repeat(p[0], p[1]) * shift + p[2] for p in posts]

    def _starts(anchor: np.ndarray, other: np.ndarray) -> np.ndarray:
        # anchor positions whose partner lies in (key, key + slop + 1]
        # — same doc guaranteed because shift > max_pos + slop + 2
        lo = np.searchsorted(other, anchor, side="right")
        hi = np.searchsorted(other, anchor + slop + 1, side="right")
        return anchor[hi > lo]

    if terms[0] == terms[1]:  # degenerate same-term pair
        starts = _starts(keys[0], keys[0])
    else:
        starts = np.union1d(_starts(keys[0], keys[1]), _starts(keys[1], keys[0]))
    if starts.size == 0:
        return _no_hits()
    docs_u, freq = np.unique(starts // shift, return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, _idf_sum(s, dfs)), k)


def search_span_near(
    s, terms: list[str], k: int = 10, *, slop: int = 0, in_order: bool = True
) -> tuple:
    """In-order span-near query (Lucene SpanNearQuery(inOrder=true) /
    sloppy PhraseQuery matching): a doc matches where positions
    p_0 < p_1 < ... < p_{n-1} of the terms (strictly increasing, in
    order) fit a window of width <= n + slop; slop=0 degenerates to
    exact phrase adjacency.

    tf := number of match START positions with a valid minimal
    completion (greedy earliest-next per step — minimal end for a
    given start, so "exists valid chain" is exact); scored like
    search_phrase (idf summed per term occurrence, same dl norm)
    with weight 1 per span — a documented deviation from Lucene's
    1/(1+matchLength) sloppyFreq, pinned by the SQL oracle.

    Vectorized: (doc, pos) int64 keys; each step advances every
    candidate chain with ONE searchsorted against the next term's
    key array. Requires a positional index.

    ``in_order=False`` (SpanNearQuery(inOrder=false)) supports
    EXACTLY two terms: a window start is any position of either
    term whose partner occurs within the next ``slop + 1``
    positions; tf = distinct window starts (the symmetric
    min-position convention, pinned by the oracle). The general
    n-term unordered matcher (Lucene's priority-queue algorithm)
    is intentionally not restated — compose 2-term spans instead."""
    if not terms:
        return _no_hits()
    if slop < 0:
        raise ValueError("slop must be >= 0")
    kernel = _span_near_topk
    if not in_order:
        if len(terms) != 2:
            raise ValueError(
                "in_order=False supports exactly 2 terms; compose "
                "2-term spans for wider unordered windows"
            )
        kernel = _span_pair_topk
    return s._topk(k, kernel, terms, slop, k, s._gdfs(terms))


def _leg_stats(s, legs: list[tuple[str, str]]) -> list[tuple[list[str], int]]:
    """This shard's (expansion, df) per leg: the leg's dictionary terms
    and the docs holding any of them (shards are disjoint, so the
    global df is the sum)."""
    out = []
    for kind, val in legs:
        terms = [val] if kind == "term" else s.expand_prefix(val)
        out.append((terms, _union_df(s, terms)))
    return out


def _span_multi_topk(
    s, leg_terms: list[list[str]], slop: int, k: int, dfs
) -> tuple:
    leg_parts = []
    for terms in leg_terms:
        parts = [p for p in map(s.postings_positions, terms) if p[0].size]
        if not parts:
            return _no_hits()
        leg_parts.append(parts)
    shift = np.int64(
        max(_max_pos(parts) for parts in leg_parts) + len(leg_terms) + slop + 2
    )
    keys = []
    for parts in leg_parts:
        kk = np.concatenate([np.repeat(p[0], p[1]) * shift + p[2] for p in parts])
        if len(parts) > 1:
            kk.sort()
        keys.append(kk)
    return _in_order_topk(s, keys, shift, slop, _idf_sum(s, dfs), k)


def search_span_multi(
    s, legs: list[tuple[str, str]], k: int = 10, *, slop: int = 0
) -> tuple:
    """In-order span-near whose legs may be multi-term expansions —
    Lucene SpanNearQuery over SpanTermQuery /
    SpanMultiTermQueryWrapper(PrefixQuery) legs (the wrapper's
    SPAN_REWRITE expands the prefix into a SpanOrQuery of dictionary
    terms).

    ``legs``: [("term", t) | ("prefix", p), ...]. Per leg the
    position stream is the UNION of the positions of every matching
    dictionary term (prefix expansion via the sorted-dictionary
    binary search, never a scan); matching and tf are EXACTLY
    search_span_near's greedy in-order chain over the merged
    streams. Scoring (pinned by the SQL oracle, same weight-1 span
    convention): idf_sum = Σ per-leg idf where a multi-term leg's
    df is the number of DISTINCT docs containing ANY expansion —
    the blended idf of the expanded SpanOr leg (summed over the
    shards)."""
    if not legs:
        return _no_hits()
    if slop < 0:
        raise ValueError("slop must be >= 0")
    for kind, _ in legs:
        if kind not in ("term", "prefix"):
            raise ValueError(f"unknown span leg kind {kind!r}")
    parts = s._all(_leg_stats, legs)
    leg_terms = [sorted({t for p in parts for t in p[i][0]}) for i in range(len(legs))]
    dfs = [sum(p[i][1] for p in parts) for i in range(len(legs))]
    return s._topk(k, _span_multi_topk, leg_terms, slop, k, dfs)


def _intervals_topk(s, sterms: list[str], max_gaps: int, k: int, dfs) -> tuple:
    n = len(sterms)
    posts = [s.postings_positions(t) for t in sterms]
    if any(p[0].size == 0 for p in posts):
        return _no_hits()
    shift = np.int64(_max_pos(posts) + 2)
    keys = [np.repeat(p[0], p[1]) * shift + p[2] for p in posts]
    ends = np.unique(np.concatenate(keys))
    ok = np.ones(ends.size, dtype=bool)
    prev_min = np.full(ends.size, np.iinfo(np.int64).max, dtype=np.int64)
    for kt in keys:
        idx = np.searchsorted(kt, ends, side="right") - 1
        has = idx >= 0
        prev = kt[np.maximum(idx, 0)]
        has &= (prev // shift) == (ends // shift)
        ok &= has
        prev_min = np.minimum(prev_min, np.where(has, prev, prev_min))
    ends_v, s_v = ends[ok], prev_min[ok]
    if ends_v.size == 0:
        return _no_hits()
    # ends_v ascending ⇒ np.unique(return_index) picks the smallest
    # end per distinct start = the minimal windows
    u_s, first = np.unique(s_v, return_index=True)
    min_ends = ends_v[first]
    hits = min_ends[(min_ends - u_s) <= (n - 1 + max_gaps)]
    if hits.size == 0:
        return _no_hits()
    docs_u, freq = np.unique(hits // shift, return_counts=True)
    return topk_desc(docs_u, _saturate(s, docs_u, freq, _idf_sum(s, dfs)), k)


def search_intervals(
    s, terms: list[str], k: int = 10, *, max_gaps: int = 0
) -> tuple:
    """UNORDERED n-term intervals query (Lucene intervals
    ``all_of(ordered=false)`` / UnorderedIntervalsSource under the
    minimal-interval semantics of Vigna's "Efficient lazy
    algorithms", which Lucene implements): a doc matches where some
    window contains ALL terms in any order; tf = number of MINIMAL
    such windows (windows containing no smaller qualifying window)
    whose gap count (width − n) is ≤ ``max_gaps``. This is the
    n-term unordered matcher search_span_near(in_order=False)
    deliberately does not restate (it is pinned to 2 terms).

    Vectorized minimal-window enumeration, no per-doc loop: encode
    (doc, pos) as one int64 key; every query-term occurrence is a
    candidate window END; for each term, prev_t(end) = its latest
    occurrence ≤ end (ONE searchsorted per term over all ends);
    window start S(end) = min_t prev_t(end) — since the end token is
    itself a query term, max_t prev_t(end) = end, so [S(end), end]
    is the tightest window ending there. S(end) is non-decreasing in
    end, so a window contains another iff their S ties — minimality
    = keep the FIRST end per distinct S (one np.unique).

    Scored like search_span_near: idf summed per term, weight-1
    windows, BM25 tf saturation (deviation from Lucene's
    1/(1+slop) sloppyFreq, pinned by the SQL oracle)."""
    sterms = sorted(set(terms))
    if len(sterms) < 2:
        raise ValueError("intervals needs >= 2 distinct terms")
    if max_gaps < 0:
        raise ValueError("max_gaps must be >= 0")
    return s._topk(k, _intervals_topk, sterms, max_gaps, k, s._gdfs(sterms))


# -- highlighting ---------------------------------------------------------------


def _best_windows(s, sterms: list[str], want: np.ndarray, window: int) -> tuple:
    e = np.empty(0, np.int64)
    if want.size == 0 or not sterms:
        return e, e, e
    d_parts, p_parts = [], []
    for t in sterms:
        docs, tfs, pos_flat, tok_start = s.postings_positions(t)
        if docs.size == 0:
            continue
        idx_c = np.minimum(np.searchsorted(docs, want), docs.size - 1)
        rows = idx_c[np.flatnonzero(docs[idx_c] == want)]
        if rows.size == 0:
            continue
        d_parts.append(np.repeat(docs[rows], tfs[rows]))
        p_parts.append(pos_flat[posting_gather(tok_start, tfs, rows)])
    if not d_parts:
        return e, e, e
    big = np.int64(1) << np.int64(32)  # positions are int32-bounded
    key = np.concatenate(d_parts) * big + np.concatenate(p_parts)
    key.sort()
    d_s, p_s = key // big, key % big
    hi = np.searchsorted(key, d_s * big + p_s + window)
    cnt = hi - np.arange(key.size)
    order = np.lexsort((p_s, -cnt, d_s))
    first = np.concatenate(([0], np.flatnonzero(np.diff(d_s[order]) != 0) + 1))
    best = order[first]
    return d_s[best], p_s[best], cnt[best]


def highlight_best_window(
    s, terms: list[str], doc_ids: np.ndarray, window: int = 8
) -> tuple:
    """Positional plain highlighter — the Lucene UnifiedHighlighter
    best-passage selection restated over the .prx-style positional
    postings (no re-tokenization, no stored text): for each given doc,
    the window of ``window`` consecutive token positions holding the
    MOST query-term occurrences; ties break to the smallest start. A
    best window always starts at a matched position, so candidates =
    the doc's matched positions and the whole batch folds into ONE
    searchsorted over the (doc, pos) key space. Returns (doc_ids,
    win_start, n_hits) for every requested doc with at least one
    matched position, doc_id ascending. A doc's positions live on one
    shard, so the shard partials concatenate."""
    parts = s._all(
        _best_windows, sorted(set(terms)),
        np.unique(np.asarray(doc_ids, dtype=np.int64)), window,
    )
    if len(parts) == 1:
        return parts[0]
    d, w, h = (np.concatenate([p[i] for p in parts]) for i in range(3))
    order = np.argsort(d)
    return d[order], w[order], h[order]


# -- constant-score multi-term queries -------------------------------------------


def _multiterm_partial(s, expand, args: tuple, k: int, cap: int | None) -> tuple:
    """This shard's doc ids (first ``k``) for the dictionary expansion
    ``expand(s, *args)``, plus the expansion itself when a cap asks
    for the global count. A shard whose own expansion already exceeds
    the cap skips the postings union (the global one exceeds it too)."""
    terms = expand(s, *args)
    if cap is not None and len(terms) > cap:
        return np.empty(0, np.int64), terms
    return s._match_union(terms)[:k], None if cap is None else terms


def _multiterm(s, k: int, cap: int | None, what: str, expand, *args) -> tuple:
    """Constant-score multi-term queries (Lucene's CONSTANT_SCORE
    rewrite): doc membership is decided by terms IN the doc, so each
    shard's LOCAL dictionary expansion is exact for its own docs — no
    expansion phase. ``cap`` (max_expansions) raises when the GLOBAL
    expansion set (the union of the shards') is larger, rather than
    silently unioning an unbounded term range. Merges doc ids only."""
    parts = s._all(_multiterm_partial, expand, args, k, cap)
    if cap is not None:
        n = len(parts[0][1]) if len(parts) == 1 else len({t for p in parts for t in p[1]})
        if n > cap:
            raise ValueError(f"{what} expands to {n} terms (> max_expansions={cap})")
    if len(parts) == 1:
        docs = parts[0][0]
    else:
        docs = np.sort(np.concatenate([p[0] for p in parts]))[:k]
    return docs, np.ones(docs.size, dtype=np.float64)


def search_prefix(
    s, prefix: str, k: int = 10, *, max_expansions: int | None = None
) -> tuple:
    """Constant-score prefix query (Lucene PrefixQuery semantics).
    ``max_expansions`` mirrors the rewrite guard: raise rather than
    silently union an unbounded term range."""
    return _multiterm(s, k, max_expansions, f"prefix {prefix!r}", _prefix_terms, prefix)


def _wildcard_terms(s, pattern: str) -> list[str]:
    fixed = re.split(r"[*?\[]", pattern, maxsplit=1)[0]
    rx = re.compile(fnmatch.translate(pattern))
    return [t for t in s.expand_prefix(fixed) if rx.match(t)]


def search_wildcard(s, pattern: str, k: int = 10) -> tuple:
    """Constant-score wildcard query (Lucene WildcardQuery: ``*`` any
    run, ``?`` one char). The dictionary scan is narrowed to the
    pattern's fixed-prefix range before the per-term regex match."""
    return _multiterm(s, k, None, "", _wildcard_terms, pattern)


def _infix_terms(s, needle: str, n: int) -> list[str]:
    """Dictionary terms containing ``needle``: the needle's covering
    grams intersect to a candidate term set, each verified by a real
    substring check (the gram conjunction over-approximates)."""
    m = s._ngram_term_map(n)
    cand: np.ndarray | None = None
    for i in range(len(needle) - n + 1):
        tids = m.get(needle[i : i + n])
        if tids is None or tids.size == 0:
            return []
        cand = tids if cand is None else np.intersect1d(cand, tids, assume_unique=True)
        if cand.size == 0:
            return []
    return [str(s._gterms[t]) for t in cand if needle in str(s._gterms[t])]


def search_infix_ngram(s, needle: str, k: int = 10, *, n: int = 3) -> tuple:
    """Infix (contains) wildcard accelerated by the dictionary n-gram
    map — the ES `wildcard` field type's query plan: candidate terms
    come from the gram map (no dictionary scan), then take the standard
    CONSTANT_SCORE multi-term union. Results are identical to
    search_wildcard("*needle*"); needles shorter than the gram width
    fall back to that scan path."""
    if len(needle) < n:
        return search_wildcard(s, f"*{needle}*", k)
    return _multiterm(s, k, None, "", _infix_terms, needle, n)


def _regexp_terms(s, pattern: str) -> list[str]:
    m = re.match(r"[^.?*+(){}\[\]|\\^$]*", pattern)
    rx = re.compile(pattern)
    return [t for t in s.expand_prefix(m.group(0) if m else "") if rx.fullmatch(t)]


def search_regexp(s, pattern: str, k: int = 10) -> tuple:
    """Constant-score regexp query (Lucene RegexpQuery under the
    CONSTANT_SCORE rewrite): dictionary terms FULLY matching the
    pattern, narrowed to the pattern's leading-literal prefix range
    before the per-term match (the FST-intersection analogue)."""
    return _multiterm(s, k, None, "", _regexp_terms, pattern)


def search_fuzzy(
    s,
    term: str,
    k: int = 10,
    *,
    max_edits: int = 2,
    prefix_length: int = 0,
    max_expansions: int | None = None,
) -> tuple:
    """Constant-score fuzzy query: union of the expand_fuzzy terms'
    postings (Lucene FuzzyQuery enumeration; constant-score rewrite like
    search_prefix rather than Lucene's blended-freq default, so scores
    are oracle-exact). ``max_expansions`` raises rather than silently
    truncating."""
    return _multiterm(
        s, k, max_expansions, f"fuzzy {term!r}", expand_fuzzy, term,
        max_edits, prefix_length,
    )


# -- explain ---------------------------------------------------------------------


def _explain_partial(s, sterms: list[str], doc_id: int) -> list[tuple]:
    """(term, tf, tf-norm) of each term this shard's postings hold
    ``doc_id`` for — the tf-norm cached at decode, the value
    search_bm25 scores with."""
    out = []
    for t in sterms:
        docs, tfs, _, tfn = s.postings_full(t)
        pos = np.searchsorted(docs, doc_id)
        if pos < docs.size and docs[pos] == doc_id:
            out.append((t, int(tfs[pos]), float(tfn[pos])))
    return out


def explain_bm25(s, terms: list[str], doc_id: int) -> list[dict]:
    """_explain API (OpenSearch TransportExplainAction for a BM25
    text query): the per-term score breakdown for ONE (query, doc)
    pair — tf, df, idf, the tf-norm, and the per-term contribution,
    summing to the search_bm25 score (the same cached tf-norm and the
    global df). Per-term postings seek; no scoring of other docs. Only
    the doc's own shard holds a row."""
    sterms = sorted(set(terms))
    dfs = dict(zip(sterms, s._gdfs(sterms).tolist()))
    out = []
    for part in s._all(_explain_partial, sterms, int(doc_id)):
        for t, tf, tfn in part:
            idf = float(bm25_idf(np.asarray([max(dfs[t], 1e-9)]), s.n_docs)[0])
            out.append({
                "term": t,
                "tf": tf,
                "df": int(dfs[t]),
                "idf": idf,
                "tf_norm": tfn,
                "contribution": idf * tfn,
            })
    return out
