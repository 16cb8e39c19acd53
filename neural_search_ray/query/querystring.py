"""simple_query_string — the OpenSearch/Lucene SimpleQueryParser subset
restated: a tiny, never-throwing query grammar that compiles to the
engine's structured clauses (the reference exposes this surface through
OpenSearch's query DSL; its semantics are Lucene's SimpleQueryParser,
lucene/queryparser SimpleQueryParser.java).

Supported syntax (documented subset, everything else is literal text):

    term            optional clause (SHOULD)
    +term           required clause (MUST)
    -term           negated clause (MUST_NOT)
    "a b c"         phrase clause (exact adjacency, positional index)
    pre*            prefix clause (trailing ``*`` only; constant-score)

Unquoted multi-token text analyzes into one clause per token, each
carrying the same occur flag — `+new york` is `+new york`, i.e. the
flag binds to the adjacent token only, as in SimpleQueryParser.
Default operator is OR (clauses are SHOULD; a should-only query needs
at least one match). The parser never raises on user input: dangling
quotes close at end-of-string, a bare ``*``/``+``/``-`` is dropped.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..analysis.analyzer import tokenize
from .bm25 import topk_desc
from .scoring import _no_hits, _phrase_topk

# [+-]? then either a quoted run or a non-space run
_TOKEN = re.compile(r'([+-]?)("([^"]*)"?|[^\s"]+)')


@dataclass(frozen=True)
class Clause:
    occur: str  # "must" | "should" | "must_not"
    kind: str   # "term" | "phrase" | "prefix"
    payload: tuple[str, ...]  # term(s); prefix payload is the stem


def parse_query_string(qs: str, analyzer=None) -> list[Clause]:
    """Parse into clauses; ``analyzer`` tokenizes term/phrase text (the
    engine's own analyzer by default, so query analysis matches index
    analysis — the Lucene rule)."""
    if analyzer is None:
        analyzer = tokenize
    clauses: list[Clause] = []
    occur_map = {"+": "must", "-": "must_not", "": "should"}
    for m in _TOKEN.finditer(qs):
        occur = occur_map[m.group(1)]
        if m.group(3) is not None:  # quoted phrase
            toks = analyzer(m.group(3))
            if toks:
                clauses.append(Clause(occur, "phrase", tuple(toks)))
            continue
        raw = m.group(2)
        if raw.endswith("*") and len(raw) > 1 and "*" not in raw[:-1]:
            stem = raw[:-1].lower()
            if stem:
                clauses.append(Clause(occur, "prefix", (stem,)))
            continue
        for t in analyzer(raw):
            clauses.append(Clause(occur, "term", (t,)))
    return clauses


def _clauses_topk(s, clauses: list[Clause], k: int, dfs: dict):
    """Shard kernel: evaluate the clauses as a boolean combination with
    the resolved dfs of the term and phrase clauses."""

    def phrase(toks) -> tuple[np.ndarray, np.ndarray]:
        # FULL phrase result (every matching doc), docID-sorted
        docs, scores = _phrase_topk(
            s, list(toks), max(s.n_docs, 1), [dfs[t] for t in toks]
        )
        order = np.argsort(docs)
        return docs[order], scores[order]

    def clause_docs(c) -> np.ndarray:
        if c.kind == "term":
            return s.postings(c.payload[0])[0]
        if c.kind == "phrase":
            return phrase(c.payload)[0]
        return s._match_union(s.expand_prefix(c.payload[0]))

    must = [c for c in clauses if c.occur == "must"]
    should = [c for c in clauses if c.occur == "should"]
    nots = [c for c in clauses if c.occur == "must_not"]
    if not must and not should:
        return _no_hits()
    cand: np.ndarray | None = None
    for c in must:
        docs = clause_docs(c)
        cand = docs if cand is None else np.intersect1d(cand, docs, assume_unique=True)
        if cand.size == 0:
            return _no_hits()
    if cand is None:  # should-only: at least one clause must match
        parts = [d for d in (clause_docs(c) for c in should) if d.size]
        if not parts:
            return _no_hits()
        cand = np.unique(np.concatenate(parts)) if len(parts) > 1 else parts[0]
    for c in nots:
        docs = clause_docs(c)
        if docs.size == 0 or cand.size == 0:
            continue
        pos_c = np.minimum(np.searchsorted(docs, cand), docs.size - 1)
        cand = cand[docs[pos_c] != cand]
    if cand.size == 0:
        return _no_hits()
    scoring = must + should
    mult = Counter(c.payload[0] for c in scoring if c.kind == "term")
    sterms = sorted(mult)
    if sterms:
        weights = np.asarray([mult[t] for t in sterms], dtype=np.float64)
        idfs = s._idfs(sterms, [dfs[t] for t in sterms])
        scores = s._score_candidates(cand, sterms, idfs, weights)
    else:
        scores = np.zeros(cand.size, dtype=np.float64)
    for c in scoring:
        if c.kind == "phrase":
            pd_, ps = phrase(c.payload)
        elif c.kind == "prefix":
            pd_ = clause_docs(c)
            ps = np.ones(pd_.size, dtype=np.float64)
        else:
            continue
        if pd_.size == 0:
            continue
        pos_c = np.minimum(np.searchsorted(pd_, cand), pd_.size - 1)
        m = pd_[pos_c] == cand
        scores[m] += ps[pos_c[m]]
    return topk_desc(cand, scores, k)


def _search_clauses(s, clauses: list[Clause], k: int):
    """The op over a clause list: resolve the global dfs of the term and
    phrase clauses in one round, evaluate shard-locally (clause
    membership is per-doc; a prefix expands against each shard's own
    dictionary, exact by doc membership), merge the shard top-ks."""
    terms = sorted({t for c in clauses if c.kind != "prefix" for t in c.payload})
    dfs = dict(zip(terms, s._gdfs(terms).tolist()))
    return s._topk(k, _clauses_topk, clauses, k, dfs)


def search_simple_query_string(s, qs: str, k: int = 10):
    """simple_query_string search (this module's grammar — the Lucene
    SimpleQueryParser subset): parse, then evaluate as a boolean
    combination of term / phrase / prefix clauses.

    - must clauses all required, must_not excluded; with no must clause
      at least one should clause must match (OR default);
    - score = sum of matching SCORING clauses: BM25 for term clauses
      (per-occurrence multiplicity), phrase-BM25 for phrase clauses,
      constant 1.0 for prefix clauses (CONSTANT_SCORE rewrite inside a
      bool, boost 1);
    - only-negative or empty queries match nothing (the parser never
      raises on user input). Phrase clauses need a positional index."""
    return _search_clauses(s, parse_query_string(qs), k)


def search_match_bool_prefix(s, text: str, k: int = 10):
    """match_bool_prefix (ES/OpenSearch MatchBoolPrefixQueryBuilder, the
    search-as-you-type shape): every analyzed term becomes a SHOULD term
    clause except the LAST, which becomes a SHOULD prefix clause
    (constant-score rewrite) — equivalent to simple_query_string
    ``t1 t2 last*`` with OR default."""
    toks = tokenize(text)
    if not toks:
        return _no_hits()
    clauses = [Clause("should", "term", (t,)) for t in toks[:-1]]
    clauses.append(Clause("should", "prefix", (toks[-1],)))
    return _search_clauses(s, clauses, k)
