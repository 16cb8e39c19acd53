"""Classic query_string grammar (Lucene QueryParser subset).

Public-surface analogue: the ``query_string`` query — Lucene's classic
QueryParser (lucene/queryparser classic/QueryParser.jj) — the fuller
grammar next to the never-throwing simple_query_string subset
(query/querystring.py).  Supported syntax (documented subset; the
parser RAISES ``QueryStringError`` on malformed input, matching the
classic parser's strictness, unlike simple_query_string):

    term                      scored SHOULD clause (BM25 per-term)
    "a b"                     phrase clause (positional index)
    pre*                      prefix clause (constant score 1.0)
    +x / -x                   required / prohibited within the group
    NOT x                     same as -x
    x AND y / x OR y          boolean operators (AND binds tighter)
    (x OR y) AND z            grouping
    field:term                fielded term: ``text`` scores BM25;
                              a doc-values field matches constant-score
    field:[a TO b] / {a TO b} doc-values range, inclusive / exclusive,
                              constant score 1.0

Scoring is Lucene BooleanQuery's sum-of-matching-subscorers:
* group: candidates = intersection of MUST sets (else union of
  SHOULDs), minus MUST_NOT sets; score = sum of every matching
  must/should child's score;
* AND = all-must group, OR = all-should group;
* constant-score children (prefix/range/keyword field) contribute 1.0.

Everything evaluates as sorted (docs, scores) numpy pairs — union and
intersection are searchsorted merges over posting-derived arrays, so a
query touches only its terms' postings plus the doc-values masks,
never the corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .bm25 import bm25_idf, topk_desc
from .scoring import _phrase_topk

__all__ = [
    "parse_query", "search_query_string", "execute_query_string",
    "collect_query_terms", "QueryStringError",
]


class QueryStringError(ValueError):
    pass


# --- AST ---------------------------------------------------------------------

@dataclass
class Node:
    kind: str        # term|phrase|prefix|range|kw|group
    payload: object  # see parser
    occur: str = "should"  # must|should|must_not


_TOK = re.compile(
    r"""\s*(?:
        (?P<lp>\()|(?P<rp>\))
      | (?P<phrase>"(?:[^"\\]|\\.)*")
      | (?P<brak>[\[{][^\]}]*[\]}])
      | (?P<word>[^\s()"\[\]{}]+)
    )""",
    re.VERBOSE,
)


def _tokens(text: str) -> list[tuple[str, str]]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOK.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise QueryStringError(f"bad input at {text[pos:pos + 10]!r}")
        pos = m.end()
        for name in ("lp", "rp", "phrase", "brak", "word"):
            if m.group(name) is not None:
                out.append((name, m.group(name)))
                break
    out.append(("eof", ""))
    return out


class _Parser:
    def __init__(self, text: str, analyzer):
        self.toks = _tokens(text)
        self.i = 0
        self.analyzer = analyzer

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self) -> Node:
        node = self._seq()
        if self.peek()[0] != "eof":
            raise QueryStringError(f"trailing input at {self.peek()[1]!r}")
        return node

    def _seq(self) -> Node:
        """Space-separated clauses (the classic parser's implicit
        default-OR sequencing): each keeps its own +/-/NOT occur."""
        kids = [self._or()]
        while self.peek()[0] in ("word", "phrase", "lp", "brak"):
            kids.append(self._or())
        if len(kids) == 1:
            return kids[0]
        return Node("group", kids)

    def _or(self) -> Node:
        kids = [self._and()]
        while self.peek() == ("word", "OR"):
            self.next()
            kids.append(self._and())
        if len(kids) == 1:
            return kids[0]
        return Node("group", [k for k in kids])

    def _and(self) -> Node:
        kids = [self._unary()]
        while self.peek() == ("word", "AND"):
            self.next()
            kids.append(self._unary())
        if len(kids) == 1:
            return kids[0]
        for k in kids:
            if k.occur == "should":
                k.occur = "must"
        return Node("group", kids)

    def _unary(self) -> Node:
        t = self.peek()
        if t == ("word", "NOT"):
            self.next()
            node = self._unary()
            if node.occur == "must_not":
                raise QueryStringError("double negation")
            node.occur = "must_not"
            return node
        if t[0] == "word" and t[1].startswith(("+", "-")) and len(t[1]) > 1:
            occ = "must" if t[1][0] == "+" else "must_not"
            self.toks[self.i] = ("word", t[1][1:])
            node = self._unary()
            node.occur = occ
            return node
        return self._primary()

    def _primary(self) -> Node:
        kind, val = self.next()
        if kind == "lp":
            node = self._seq()
            if self.next()[0] != "rp":
                raise QueryStringError("missing ')'")
            return node
        if kind == "phrase":
            toks = self.analyzer(val[1:-1])
            if not toks:
                raise QueryStringError("empty phrase")
            return Node("phrase", tuple(toks))
        if kind == "word":
            if val in ("AND", "OR", "NOT"):
                raise QueryStringError(f"operator {val} needs operands")
            if ":" in val:
                field, _, rest = val.partition(":")
                if not rest:
                    nk, nv = self.peek()
                    if nk == "brak":
                        self.next()
                        return self._range(field, nv)
                    raise QueryStringError(f"field {field!r} needs a value")
                return self._fielded(field, rest)
            return self._term_like("text", val)
        if kind == "brak":
            raise QueryStringError("range needs a field: prefix")
        raise QueryStringError(f"unexpected {val!r}")

    def _fielded(self, field: str, rest: str) -> Node:
        if field == "text":
            return self._term_like("text", rest)
        # keyword doc-values term: constant-score equality
        return Node("kw", (field, rest))

    def _term_like(self, field: str, raw: str) -> Node:
        if raw.endswith("*") and len(raw) > 1:
            return Node("prefix", raw[:-1].lower())
        toks = self.analyzer(raw)
        if len(toks) != 1:
            raise QueryStringError(f"term {raw!r} analyzed to {len(toks)} tokens")
        return Node("term", toks[0])

    def _range(self, field: str, brak: str) -> Node:
        incl_lo = brak[0] == "["
        incl_hi = brak[-1] == "]"
        body = brak[1:-1]
        m = re.match(r"\s*(\S+)\s+TO\s+(\S+)\s*$", body)
        if not m:
            raise QueryStringError(f"bad range {brak!r}")

        def conv(s):
            if s == "*":
                return None
            try:
                return int(s)
            except ValueError:
                try:
                    return float(s)
                except ValueError:
                    return s
        return Node("range", (field, conv(m.group(1)), conv(m.group(2)),
                              incl_lo, incl_hi))


def parse_query(text: str, analyzer=None) -> Node:
    if analyzer is None:
        from ..analysis.analyzer import tokenize as analyzer
    node = _Parser(text, analyzer).parse()
    return node


# --- evaluation --------------------------------------------------------------

def _score_term(searcher, term: str, dfs: dict):
    """Per-term BM25 score vector over the term's postings (the same
    float ops as search_bm25 / explain_bm25), idf from the resolved
    global df (n_docs/avgdl come from the manifest, so they are global
    on every shard searcher)."""
    docs, tfs = searcher.postings(term)
    if docs.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    df = max(float(dfs[term]), 1e-9)
    idf = float(bm25_idf(np.asarray([df]), searcher.n_docs)[0])
    dl = searcher.doc_length(docs).astype(np.float64)
    k1, b = searcher.bm25.k1, searcher.bm25.b
    tf = tfs.astype(np.float64)
    return docs, idf * tf / (tf + k1 * (1.0 - b + b * dl / searcher.avgdl))


def collect_query_terms(node: Node, out: set | None = None) -> set:
    """Terms whose document frequencies the coordinator must resolve
    globally (term + phrase children; constant-score kinds need none)."""
    out = set() if out is None else out
    if node.kind == "term":
        out.add(node.payload)
    elif node.kind == "phrase":
        out.update(node.payload)
    elif node.kind == "group":
        for k in node.payload:
            collect_query_terms(k, out)
    return out


def _eval(node: Node, searcher, dfs: dict):
    if node.kind == "term":
        return _score_term(searcher, node.payload, dfs)
    if node.kind == "phrase":
        docs, scores = _phrase_topk(
            searcher, list(node.payload), searcher.n_docs,
            [dfs[t] for t in node.payload],
        )
        order = np.argsort(docs, kind="stable")
        return docs[order], scores[order]
    if node.kind == "prefix":
        docs = searcher._match_union(searcher.expand_prefix(node.payload))
        return docs, np.ones(docs.size, np.float64)
    if node.kind == "kw":
        field, value = node.payload
        docs = searcher.accepted_ids(field, "==", value)
        return docs, np.ones(docs.size, np.float64)
    if node.kind == "range":
        field, lo, hi, incl_lo, incl_hi = node.payload
        docs = None
        if lo is not None:
            docs = searcher.accepted_ids(field, ">=" if incl_lo else ">", lo)
        if hi is not None:
            d2 = searcher.accepted_ids(field, "<=" if incl_hi else "<", hi)
            docs = d2 if docs is None else np.intersect1d(
                docs, d2, assume_unique=True
            )
        if docs is None:
            raise QueryStringError("open range on both ends")
        return docs, np.ones(docs.size, np.float64)
    if node.kind == "group":
        musts = [k for k in node.payload if k.occur == "must"]
        shoulds = [k for k in node.payload if k.occur == "should"]
        nots = [k for k in node.payload if k.occur == "must_not"]
        if not musts and not shoulds:
            raise QueryStringError("pure-negative query")
        scored = [(k, _eval(k, searcher, dfs)) for k in musts + shoulds]
        cand = None
        for _k, (d, _s) in scored[: len(musts)]:
            cand = d if cand is None else np.intersect1d(
                cand, d, assume_unique=True
            )
        if cand is None:  # should-only: union of the should sets
            cand = scored[0][1][0]
            for _k, (d, _s) in scored[1:]:
                cand = np.union1d(cand, d)
        for k in nots:
            d, _ = _eval(k, searcher, dfs)
            if cand.size and d.size:
                pos = np.searchsorted(d, cand)
                pos_c = np.minimum(pos, d.size - 1)
                cand = cand[d[pos_c] != cand]
        scores = np.zeros(cand.size, np.float64)
        for _k, (d, s) in scored:
            pos = np.searchsorted(d, cand)
            pos_c = np.minimum(pos, max(d.size - 1, 0))
            hit = (d[pos_c] == cand) if d.size else np.zeros(cand.size, bool)
            scores[hit] += s[pos_c[hit]]
        return cand, scores
    raise QueryStringError(f"bad node {node.kind}")


def _query_string_topk(searcher, node: Node, k: int, dfs: dict):
    docs, scores = _eval(node, searcher, dfs)
    return topk_desc(docs, scores, k)


def search_query_string(s, text: str, k: int | None = 10):
    """Classic query_string search: parse ONCE, resolve the global dfs
    of the scored terms (term + phrase children) in one round, then
    evaluate the whole Boolean tree on each shard with them (docs live
    in exactly one shard, so the set algebra is shard-local) and merge
    the shard top-ks with the engine's (score desc, doc asc) ordering.
    ``k=None`` returns every match."""
    node = parse_query(text)
    if node.occur == "must_not":
        raise QueryStringError("pure-negative query")
    if node.kind != "group":
        node = Node("group", [node])
    terms = sorted(collect_query_terms(node))
    dfs = dict(zip(terms, s._gdfs(terms).tolist()))
    k = s.n_docs if k is None else k  # n_docs bounds every match set
    return s._topk(k, _query_string_topk, node, k, dfs)


# the functional spelling: execute_query_string(searcher, text, k)
execute_query_string = search_query_string
