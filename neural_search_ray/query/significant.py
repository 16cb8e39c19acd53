"""significant_terms aggregation (JLH heuristic).

Reference parity: OpenSearch's SignificantTermsAggregator with the
default JLH significance heuristic (SignificantTermsAggregatorFactory /
JLHScore.java): terms whose frequency in the *foreground* set (the
query's match set) is anomalously high versus the *background* set (the
whole collection), scored

    score = (fg_pct − bg_pct) · (fg_pct / bg_pct)
    fg_pct = fg_df / |matches|,   bg_pct = bg_df / n_docs

and only terms with fg_pct > bg_pct qualify (JLHScore.java's
``absoluteProbabilityChange > 0`` gate).

Ray-Data-native shape: foreground doc-frequencies come from the FORWARD
index (one CSR row gather per match doc — the analogue of OpenSearch's
significant_text re-analysis, but without re-tokenizing), background
frequencies from the term dictionary's stored df. The distributed form
is ``significant_partial`` (per shard-subset actor: a (term, fg_df) map
bounded by vocabulary + the match count) merged by sum in
``combine_significant`` at the coordinator — the same distributive
merge as facet_terms, so the result is EXACT across any sharding.

Float-tie discipline: scores are rounded half-up to 6 decimals BEFORE
ranking on both the engine and SQL-oracle sides (same trick as
more_like_this — the expression is float-op-identical, but the ranking
key must not depend on sub-rounding noise).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .aggs import _held

__all__ = [
    "significant_terms",
    "significant_text",
    "significant_partial",
    "fg_map_for_docs",
    "combine_significant",
]


def _round_half_up6(x: np.ndarray) -> np.ndarray:
    f = 1e6
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, np.floor(x * f + 0.5), np.ceil(x * f - 0.5)) / f


_EMPTY = (
    [],
    np.empty(0, np.float64),
    np.empty(0, np.int64),
    np.empty(0, np.int64),
)


def fg_map_for_docs(searcher, docs: np.ndarray) -> dict:
    """{term: fg_df} over an explicit doc-id set, gathered from the
    forward index (one CSR row per doc holds each term once →
    unique-count = df). Bounded by vocabulary — safe to ship."""
    fg: dict[str, int] = defaultdict(int)
    if docs.size == 0:
        return {}
    for shard in sorted(searcher.shards):
        fwd = searcher.forward(shard)
        sel = np.flatnonzero(np.isin(fwd.doc_ids, docs))
        if sel.size == 0:
            continue
        pos, _, _ = fwd.row_slices(sel)
        tids, counts = np.unique(fwd.flat_tids[pos], return_counts=True)
        for tid, c in zip(tids.tolist(), counts.tolist()):
            fg[fwd.terms[tid]] += int(c)
    return dict(fg)


def significant_partial(searcher, terms: list[str]) -> tuple[dict, int]:
    """Shard-subset partial: ({term: fg_df}, match_count) over THIS
    searcher's shards. Bounded by vocabulary, not doc count — safe to
    ship to a coordinator."""
    docs = searcher._match_union(terms)
    return fg_map_for_docs(searcher, docs), int(docs.size)


def _sample_partial(searcher, docs: np.ndarray) -> tuple[dict, int]:
    """``significant_partial`` over the docs of a global sample this
    shard holds."""
    docs = _held(searcher, docs)
    return fg_map_for_docs(searcher, docs), int(docs.size)


def combine_significant(
    partials: list[tuple[dict, int]],
    bg_df_fn,
    n_docs: int,
    size: int = 10,
    min_doc_count: int = 1,
):
    """Coordinator merge: sum fg maps and match counts across partials,
    fetch background dfs for the union vocabulary via ``bg_df_fn(vocab)
    -> int array`` (local df for a single searcher; Σ local df across
    the actor pool for the distributed path), then JLH-score and cut.

    Returns (terms list[str], scores, fg_df, bg_df) aligned arrays.
    """
    fg: dict[str, int] = defaultdict(int)
    fg_count = 0
    for m, c in partials:
        fg_count += c
        for t, d in m.items():
            fg[t] += d
    if not fg or fg_count == 0:
        return _EMPTY
    vocab = sorted(fg)
    fg_df = np.asarray([fg[t] for t in vocab], dtype=np.int64)
    bg_df = np.asarray(bg_df_fn(vocab), dtype=np.int64)
    fp = fg_df / float(fg_count)
    bp = bg_df / float(n_docs)
    # float-op order mirrors the SQL oracle exactly
    score = (fp - bp) * (fp / bp)
    keep = (fp > bp) & (fg_df >= min_doc_count)
    if not keep.any():
        return _EMPTY
    vocab_arr = np.asarray(vocab, dtype=object)[keep]
    score = _round_half_up6(score[keep])
    fg_df, bg_df = fg_df[keep], bg_df[keep]
    order = np.lexsort((vocab_arr, -score))[:size]
    return (
        vocab_arr[order].tolist(),
        score[order],
        fg_df[order],
        bg_df[order],
    )


def _significant(s, parts: list, size: int, min_doc_count: int):
    """JLH over the shard partials, background dfs from ``s._gdfs``."""
    return combine_significant(
        parts, lambda vocab: s._gdfs(vocab), s.n_docs, size, min_doc_count
    )


def significant_terms(
    s,
    terms: list[str],
    size: int = 10,
    min_doc_count: int = 1,
):
    """significant_terms: top ``size`` terms of the boolean-OR match set
    by (JLH score desc, term asc). Per-shard (term, fg_df) maps merge by
    sum and the background dfs are global, so the result is EXACT
    across any sharding. Requires the forward index
    (index/forward.py build_forward_index)."""
    return _significant(s, s._all(significant_partial, terms), size,
                        min_doc_count)


def significant_text(
    s,
    terms: list[str],
    sample_size: int = 30,
    size: int = 10,
    min_doc_count: int = 1,
):
    """significant_text aggregation (SignificantTextAggregator): JLH
    over the TOP-``sample_size`` BEST-SCORING hits only (the sampler
    composition the reference recommends for free-text significance),
    not the whole match set. Foreground dfs come from the forward index
    rows of the sampled docs — the re-analysis step without
    re-tokenizing. Sample membership is pinned by
    (round6(BM25) desc, doc_id) — the agg_sampler tie discipline — so
    the SQL oracle reproduces the same sample."""
    docs, _ = s.search_bm25(terms, k=sample_size)
    return _significant(s, s._all(_sample_partial, np.sort(docs)), size,
                        min_doc_count)
