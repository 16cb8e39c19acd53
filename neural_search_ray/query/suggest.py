"""Term-dictionary ops: terms_enum, rare_terms and the term, completion
and phrase suggesters — each defined once for local and distributed
execution, in the query/aggs.py shape (shard partials fanned out with
``s._all``, global dfs from ``s._gdfs``, one merge), and bound as
methods by both ``IndexSearcher`` and ``DistributedSearcher``. A term
can live on only some shards, so candidate sets are the UNION of the
shard dictionaries and frequencies are global dfs.

Phrase suggester ("did-you-mean" over multi-token input). Reference
parity: the OpenSearch phrase suggester (PhraseSuggester /
NoisyChannelSpellChecker) — candidate corrections generated per token
from the term dictionary, whole-phrase candidates scored by a language
model times an error model. Restated deterministically here:

- candidate generation: per token, dictionary terms within
  ``max_edits`` plain Levenshtein, ranked (distance asc, df desc,
  term asc), top ``per_token`` — identical keys to the term suggester,
  and the input token itself stays a candidate (distance 0);
- language model: the corpus-fit unigram LM (textstats/lm.py) —
  ln P(phrase) = Σ ln p(tᵢ);
- error model: ``edit_penalty`` (default ln ½) per edit — the noisy-
  channel prior that each correction halves the likelihood;
- score = Σ ln p(candᵢ) + edit_penalty · Σ editsᵢ, the exact input
  phrase excluded, top ``size`` by (score desc rounded half-up 6,
  phrase asc).

A token with NO dictionary candidate stays fixed and contributes the
LM floor (min ln p − ln 2) — the held-out smoothing convention.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.analyzer import tokenize
from .aggs import _sum_by_key

__all__ = [
    "agg_rare_terms", "expand_fuzzy", "levenshtein", "suggest_completion",
    "suggest_completion_fuzzy", "suggest_phrase", "suggest_term", "terms_enum",
]


def levenshtein(a: str, b: str) -> int:
    """Plain (unweighted) edit distance — the suggest/fuzzy ranking
    metric; DuckDB's levenshtein() is oracle-exact against it."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


def _edit_dp(cands, q: str, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Levenshtein distances of ``q`` to every candidate's first
    ``width`` characters: (distance to the whole candidate, minimum over
    its non-empty prefixes). One DP column per candidate character j,
    vectorized across candidates (a UTF-32 view) and query prefixes: the
    insertion chain D[i] = min(D[i], D[i-1] + 1) is a running minimum of
    D[i] − i, so the Python loop runs ``width`` times."""
    n, nc = len(q), len(cands)
    chars = np.array(cands, dtype=f"U{width}").view(np.uint32)
    chars = chars.reshape(nc, width).T.copy()  # row j = every term's char j
    lens = np.minimum(np.fromiter(map(len, cands), np.int64, nc), width)
    qc = np.array([ord(c) for c in q], dtype=np.uint32)[:, None]
    ramp = np.arange(n + 1, dtype=np.int32)[:, None]
    col = np.repeat(ramp, nc, axis=1)  # D over query prefixes, j = 0
    full = col[n].copy()
    best = np.full(nc, np.iinfo(np.int32).max, dtype=np.int32)
    for j in range(1, width + 1):
        nxt = np.empty_like(col)
        nxt[0] = j
        np.minimum(col[1:] + 1, col[:-1] + (chars[j - 1] != qc), out=nxt[1:])
        col = np.minimum.accumulate(nxt - ramp, axis=0) + ramp
        alive = j <= lens
        best = np.where(alive, np.minimum(best, col[n]), best)
        full = np.where(j == lens, col[n], full)
    return full, best


def _round6(x: float) -> float:
    return (
        math.floor(x * 1e6 + 0.5) / 1e6
        if x >= 0
        else math.ceil(x * 1e6 - 0.5) / 1e6
    )


# -- shard partials ----------------------------------------------------------


def expand_fuzzy(
    s, term: str, max_edits: int = 2, prefix_length: int = 0
) -> list[str]:
    """This shard's dictionary terms within Levenshtein distance
    ``max_edits`` of ``term`` that share its first ``prefix_length``
    characters — the Lucene FuzzyQuery term enumeration
    (LevenshteinAutomata walked over the FST), restated as a
    prefix-range + length prefilter + one DP vectorized across all
    candidate terms (``_edit_dp``).

    Plain Levenshtein (no transpositions): Lucene's default counts a
    transposition as ONE edit (damerau); we use the classic metric so
    the DuckDB ``levenshtein()`` oracle is exact. Documented
    deviation: a transposed pair costs 2 here vs 1 in Lucene."""
    if max_edits < 0:
        raise ValueError("max_edits must be >= 0")
    if prefix_length > 0:
        cands = s.expand_prefix(term[:prefix_length])
    else:
        cands = [str(t) for t in s._gterms]
    qlen = len(term)
    cands = [t for t in cands if abs(len(t) - qlen) <= max_edits]
    if not cands or qlen == 0:
        return [t for t in cands if len(t) <= max_edits]
    dist, _ = _edit_dp(cands, term, max(map(len, cands)))
    return [cands[i] for i in np.flatnonzero(dist <= max_edits)]


def _dict_slice(s, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """(terms, local dfs) of this shard's dictionary range starting with
    ``prefix`` — a binary-search slice of the sorted term array (the FST
    prefix walk analogue), never a scan."""
    lo = np.searchsorted(s._gterms, prefix)
    hi = np.searchsorted(s._gterms, prefix + chr(0x10FFFF))
    return s._gterms[lo:hi], s._gdf[lo:hi]


def _rare_partial(s, max_doc_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(terms, local dfs) of this shard's terms with local df ≤
    ``max_doc_count`` — one vectorized vocabulary scan."""
    sel = np.flatnonzero(s._gdf <= max_doc_count)
    return s._gterms[sel], s._gdf[sel]


def _fuzzy_completion_partial(
    s, anchor: str, prefix: str, fuzziness: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(terms, local dfs, distances) of this shard's dictionary terms
    starting with ``anchor`` that SOME prefix of is within
    ``fuzziness`` edits of ``prefix`` — the DP runs on the shard, so
    only matches travel (a term's distance does not depend on its
    shard)."""
    terms, dfs = _dict_slice(s, anchor)
    if not len(terms):
        return terms, dfs, np.empty(0, np.int64)
    _, best = _edit_dp(terms, prefix, len(prefix) + fuzziness)
    keep = np.flatnonzero(best <= fuzziness)
    return terms[keep], dfs[keep], best[keep].astype(np.int64)


def _fuzzy_partial(
    s, tokens: list[str], max_edits: int, prefix_length: int
) -> list[list[str]]:
    """Per token, this shard's dictionary terms within ``max_edits``,
    the token itself excluded."""
    return [
        [t for t in expand_fuzzy(s, tok, max_edits, prefix_length) if t != tok]
        for tok in tokens
    ]


def _fuzzy_candidates(
    s, tokens: list[str], max_edits: int, prefix_length: int
) -> list[list[str]]:
    """Per token, the sorted union of the shard candidates (ONE fan-out
    carries every token)."""
    parts = s._all(_fuzzy_partial, tokens, max_edits, prefix_length)
    return [
        sorted({t for p in parts for t in p[i]}) for i in range(len(tokens))
    ]


# -- ops ---------------------------------------------------------------------


def terms_enum(
    s, prefix: str, size: int = 10, min_df: int = 1
) -> tuple[list[str], np.ndarray]:
    """_terms_enum API (OpenSearch TermsEnum action): the index terms
    starting with ``prefix``, term-ordered, with document frequencies —
    bounded binary-search slices of the sorted term dictionary, merged
    by df sum (shards hold disjoint docs). The reference's API caps at
    ``size`` and skips low-df terms via the index options; both knobs
    mirrored here."""
    if size < 1:
        raise ValueError("size must be >= 1")
    terms, dfs = _sum_by_key(s._all(_dict_slice, prefix))
    sel = np.flatnonzero(dfs >= min_df)[:size]
    return [terms[i] for i in sel], dfs[sel]


def suggest_completion(
    s, prefix: str, size: int | None = 5
) -> tuple[list[str], np.ndarray]:
    """Completion suggester over the term dictionary (the corpus-
    backfilled completion-field shape): dictionary terms carrying
    ``prefix``, weight = document frequency, ordered (weight desc, term
    asc); ``size=None`` keeps every term. Shard dictionary slices merge
    by df sum (a term's postings are split across doc shards)."""
    terms, weights = _sum_by_key(s._all(_dict_slice, prefix))
    terms = np.asarray(terms, dtype=object)
    order = np.lexsort((terms, -weights))
    if size is not None:
        order = order[:size]
    return [str(t) for t in terms[order]], weights[order]


def suggest_completion_fuzzy(
    s,
    prefix: str,
    size: int | None = 5,
    *,
    fuzziness: int = 1,
    prefix_length: int = 1,
    min_length: int = 3,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Fuzzy completion suggester (ES completion ``fuzzy`` option /
    Lucene FuzzyCompletionQuery analogue): a dictionary term matches
    when SOME prefix of it is within ``fuzziness`` edits of the query
    prefix. Pinned semantics (documented deviations from Lucene's
    automaton scoring): the first ``prefix_length`` characters must
    match exactly (the candidate set stays a binary-search dictionary
    range, never a scan); prefixes shorter than ``min_length`` fall
    back to exact completion; results order by (edit distance asc,
    weight desc, term asc) and weight = df. The candidates are the
    union of the shards' matches with global dfs, and the
    minimum-over-prefixes distance is ``_edit_dp`` over the first
    len(prefix) + fuzziness characters. Returns (terms, weights,
    distances)."""
    if fuzziness < 0 or prefix_length < 0:
        raise ValueError("fuzziness and prefix_length must be >= 0")
    if len(prefix) < min_length or fuzziness == 0:
        terms, weights = suggest_completion(s, prefix, size)
        return terms, weights, np.zeros(len(terms), np.int64)
    anchor = prefix[: min(prefix_length, len(prefix))]
    parts = s._all(_fuzzy_completion_partial, anchor, prefix, fuzziness)
    dist = {t: d for p in parts for t, d in zip(p[0].tolist(), p[2].tolist())}
    terms, weights = _sum_by_key([p[:2] for p in parts])
    terms = np.asarray(terms, dtype=object)
    best = np.fromiter((dist[t] for t in terms), np.int64, len(terms))
    order = np.lexsort((terms, -weights, best))
    if size is not None:
        order = order[:size]
    return [str(t) for t in terms[order]], weights[order], best[order]


def agg_rare_terms(
    s, max_doc_count: int = 1, size: int = 10
) -> tuple[list[str], np.ndarray]:
    """rare_terms aggregation (the long-tail inverse of the terms agg):
    dictionary terms with df ≤ ``max_doc_count``, ordered (df asc, term
    asc), top ``size`` — evaluated against the term dictionary's stored
    dfs, no postings decode. Exact in two phases: the union of locally
    rare terms is a complete candidate set (a globally rare term is rare
    on every shard that holds it), but local dfs under-count, so with
    more than one shard the candidates' GLOBAL dfs are resolved before
    the cut — a term rare on one shard but frequent overall drops out."""
    if max_doc_count < 1:
        raise ValueError("max_doc_count must be >= 1")
    parts = s._all(_rare_partial, max_doc_count)
    if len(parts) == 1:
        terms, dfs = parts[0]
    else:
        terms = np.asarray(
            sorted({t for p in parts for t in p[0]}), dtype=object
        )
        dfs = s._gdfs(terms.tolist()).astype(np.int64)
        keep = dfs <= max_doc_count
        terms, dfs = terms[keep], dfs[keep]
    order = np.lexsort((terms, dfs))[:size]
    return terms[order].tolist(), dfs[order]


def suggest_term(
    s,
    term: str,
    size: int = 5,
    *,
    max_edits: int = 2,
    prefix_length: int = 0,
    suggest_mode: str = "missing",
) -> list[tuple[str, int, int]]:
    """Term suggester (the OpenSearch ``suggest`` term suggester /
    Lucene DirectSpellChecker): dictionary terms within ``max_edits``
    plain Levenshtein of the input, ranked by (distance asc, df desc,
    term asc); the input term itself is never suggested.
    ``suggest_mode="missing"`` (the default there and here) suppresses
    suggestions when the term exists in the dictionary; "popular" keeps
    only suggestions MORE frequent than the input term (the
    DirectSpellChecker morePopular filter); "always" always suggests.
    Returns [(term, freq, distance)]."""
    if suggest_mode not in ("missing", "popular", "always"):
        raise ValueError(
            "suggest_mode must be 'missing', 'popular' or 'always'"
        )
    in_df = s._gdfs([term])[0]
    if suggest_mode == "missing" and in_df > 0:
        return []
    cands = _fuzzy_candidates(s, [term], max_edits, prefix_length)[0]
    if not cands:
        return []
    dfs = s._gdfs(cands)
    if suggest_mode == "popular":
        keep = dfs > in_df
        cands = [t for t, k in zip(cands, keep) if k]
        dfs = dfs[keep]
    scored = sorted(
        (levenshtein(term, t), -int(df), t) for t, df in zip(cands, dfs)
    )[:size]
    return [(t, -negdf, d) for d, negdf, t in scored]


def suggest_phrase(
    s,
    vocab: dict,
    lnp: np.ndarray,
    text: str,
    *,
    size: int = 3,
    max_edits: int = 1,
    per_token: int = 5,
    edit_penalty: float | None = None,
) -> list[tuple[str, float]]:
    """Top ``size`` corrected phrases for ``text``. ``vocab``/``lnp``
    come from textstats/lm.py fit_unigram_lm (broadcast once at query
    serving). Returns [(phrase, score)], best first."""
    if edit_penalty is None:
        edit_penalty = math.log(0.5)
    tokens = tokenize(text)
    if not tokens:
        return []
    floor = float(np.min(lnp) - math.log(2.0)) if len(lnp) else 0.0
    # each token is its own distance-0 candidate when it is in the
    # dictionary (df > 0)
    cand_lists = [
        cs + [tok]
        for tok, cs in zip(tokens, _fuzzy_candidates(s, tokens, max_edits, 0))
    ]
    every = sorted({t for cs in cand_lists for t in cs})
    df = dict(zip(every, s._gdfs(every).tolist()))
    per_tok_cands: list[list[tuple[str, float, int]]] = []
    for tok, cs in zip(tokens, cand_lists):
        scored = sorted(
            (levenshtein(tok, t), -int(df[t]), t) for t in cs if df[t] > 0
        )[:per_token]
        if not scored:
            per_tok_cands.append([(tok, floor, 0)])
            continue
        per_tok_cands.append(
            [
                (t, float(lnp[vocab[t]]) if t in vocab else floor, d)
                for d, _, t in scored
            ]
        )

    # cross product (bounded by per_token^len(tokens); callers keep
    # phrases short — the suggester is a query-time feature, not a
    # corpus scan)
    phrases: list[tuple[str, ...]] = [()]
    for cands in per_tok_cands:
        phrases = [p + (c[0],) for p in phrases for c in cands]
    lookup = [{c[0]: c for c in cands} for cands in per_tok_cands]
    orig = tuple(tokens)
    out = []
    for p in phrases:
        if p == orig:
            continue
        score = 0.0
        edits = 0
        for i, t in enumerate(p):
            _, lp, d = lookup[i][t]
            score += lp
            edits += d
        out.append((" ".join(p), _round6(score + edit_penalty * edits)))
    out.sort(key=lambda r: (-r[1], r[0]))
    return out[:size]
