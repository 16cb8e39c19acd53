"""Distributed query execution: shard-parallel actor fan-out.

The Ray restatement of OpenSearch's coordinator → data-node shard search
(SURVEY.md §3.2, query-then-fetch): a pool of ``ShardSearchActor``s each
holds a disjoint doc-shard subset (warmup in __init__); the driver
resolves GLOBAL term statistics first (df summed over actors — the
coordinator's role; global stats are required for rank-identical BM25,
SURVEY.md §2.5), broadcasts them with each query, and merges per-shard
top-k with the same (score desc, doc_id asc) ordering — proven equal to
a single-searcher run in tests/test_engine_advanced.py.

Actor shape: the BM25 hot path keeps dedicated methods (``stats``,
``local_dfs``, ``search``, ``msearch``); every other shard op goes
through ONE generic ``run(fn, *args, **kwargs)`` that evaluates
``fn(searcher, ...)`` on the actor's shard subset. ``fn`` is an unbound
``IndexSearcher`` method or a module-level ``(searcher, ...)`` function
below, so it pickles by reference. The coordinator fans out with
``_all`` (per-actor results), ``_topk`` (concat + ``topk_desc`` merge),
``_gdfs`` (cached global dfs), ``_digest`` (merged t-digest) and
``_key_sum`` (partial-map sum).

At 256-node scale this is the serving topology: actors pinned per node
via ``ray.remote(num_cpus=...)``, shard assignment from the manifest,
query batches routed with ``map_batches`` or direct actor calls.
"""

from __future__ import annotations

import math

import numpy as np

import ray

from ..agg.sketches import HyperLogLog, TDigest, hash64
from ..analysis.analyzer import tokenize
from ..index.manifest import IndexManifest
from .engine import IndexSearcher, finish_string_stats, levenshtein, topk_desc
from .multifield import search_multi_match
from .queryparser import collect_query_terms, execute_query_string, parse_query
from .significant import combine_significant, significant_partial


class _ShardHost:
    """Actor body shared by both pools: ``self.searcher`` is the state
    built over the actor's shard subset."""

    def run(self, fn, *args, **kwargs):
        """The generic shard op: ``fn(searcher, *args, **kwargs)`` over
        this actor's shard subset."""
        return fn(self.searcher, *args, **kwargs)


@ray.remote
class ShardSearchActor(_ShardHost):
    def __init__(self, index_dir: str, shards: list[int]):
        self.searcher = IndexSearcher(index_dir, shards=shards)

    def stats(self) -> tuple[int, float]:
        """(n_docs, avgdl), both from the manifest — identical on every
        actor since the manifest is global; kept for interface
        completeness (and as the no-op RPC probe)."""
        return self.searcher.n_docs, self.searcher.avgdl

    def local_dfs(self, terms: list[str]) -> list[int]:
        return [self.searcher.local_df(t) for t in terms]

    def search(
        self, terms: list[str], k: int, global_dfs: list[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.searcher.search_bm25(
            terms, k, global_dfs=np.asarray(global_dfs, dtype=np.float64)
        )

    def msearch(
        self,
        term_lists: list[list[str]],
        k: int,
        gdfs_lists: list[list[float]],
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched search: score a whole QUERY BATCH in one actor call.
        Shared terms across the batch decode once (the searcher's LRU
        serves repeats), and the batch pays ONE task round-trip instead
        of one per query — the _msearch API, and the serving shape that
        matters at cluster scale where per-call latency is network-bound."""
        return [
            self.searcher.search_bm25(
                terms, k, global_dfs=np.asarray(gdfs, dtype=np.float64)
            )
            for terms, gdfs in zip(term_lists, gdfs_lists)
        ]


@ray.remote
class MultiFieldShardActor(_ShardHost):
    """One actor holding the SAME doc-shard subset of EVERY field index
    (doc_shard = doc_id % num_doc_shards is field-independent, so the
    per-field subsets are aligned by construction). Its ``searcher`` is
    the (field, IndexSearcher, boost) list search_multi_match takes."""

    def __init__(self, field_dirs: list[tuple[str, str, float]], shards: list[int]):
        self.searcher = [
            (f, IndexSearcher(d, shards=shards), b) for f, d, b in field_dirs
        ]


# -- shard ops with shard-side logic (run on an actor via ``run``) --------


def _local_cfs(s: IndexSearcher, terms: list[str]) -> list[int]:
    """Per-term collection-frequency partials (Σ tf over this actor's
    shard subset) — the LM similarities' collection-model stat, resolved
    coordinator-side like global df."""
    return [s.collection_freq(t) for t in terms]


def _field_dfs(fields: list, keys: list[tuple[str, str]]) -> list[int]:
    """Local df per (field, term) key over a multi-field actor's subset."""
    by_name = {f: s for f, s, _ in fields}
    return [by_name[f].local_df(t) for f, t in keys]


def _cardinality_partial(
    s: IndexSearcher, terms: list[str], field: str, precision_threshold: int,
    p: int,
) -> tuple[str, object]:
    """The OpenSearch cardinality shard protocol: ship the exact
    distinct-value set while it is small, upgrade to HLL registers above
    the threshold — either way the payload is bounded."""
    import pyarrow.compute as pc

    docs = s._match_union(terms)
    if docs.size == 0:
        return ("exact", [])
    uniq = pc.unique(s.field_values(docs, field))
    if len(uniq) <= precision_threshold:
        return ("exact", uniq.to_pylist())
    h = HyperLogLog(p).add_hashed(hash64(uniq.to_numpy(zero_copy_only=False)))
    return ("hll", h.to_bytes())


def _digest_partial(
    s: IndexSearcher, terms: list[str], field: str, delta: float,
    center: float | None = None,
) -> bytes:
    """t-digest centroid partial over this actor's match set (a few KiB
    regardless of match size — TDigestState's transport form); with a
    ``center``, the digest of |v − center| (phase 2 of the MAD)."""
    docs = s._match_union(terms)
    if docs.size == 0:
        return b""
    vals = (
        s.field_values(docs, field)
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )
    if center is not None:
        vals = np.abs(vals - center)
    return TDigest(delta).add(vals).to_bytes()


def _terms_enum_partial(s: IndexSearcher, prefix: str) -> dict:
    """{term: local df} for the prefix slice — the per-shard _terms_enum
    partial (df sums across disjoint shards)."""
    return {t: s.local_df(t) for t in s.expand_prefix(prefix)}


def _pinned_organic(
    s: IndexSearcher, terms: list[str], pins: list[int], k: int,
    global_dfs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Shard-local organic BM25 top-k with the pinned ids removed (the
    pins are re-attached coordinator-side)."""
    cand, scores = s._bm25_union_scores(terms, global_dfs)
    if cand.size == 0 or k <= 0:
        return _no_hits()
    keep = ~np.isin(cand, np.asarray(pins, dtype=np.int64))
    return topk_desc(cand[keep], scores[keep], k)


def _has_docs(s: IndexSearcher, ids: list[int]) -> list[bool]:
    """Per-id existence on this actor's shard subset (pinned-query id
    resolution)."""
    dl_ids = s._dl_doc_ids
    pos = np.searchsorted(dl_ids, ids)
    return [
        bool(p < dl_ids.size and dl_ids[p] == i) for p, i in zip(pos, ids)
    ]


def _rare_candidates(s: IndexSearcher, max_doc_count: int) -> list[str]:
    """Terms LOCALLY rare on this actor's shards. A term globally rare
    must be rare on every shard it appears on, so the union of these
    lists is a complete candidate set — but local dfs UNDER-COUNT (other
    shards may hold more docs), so the coordinator re-resolves global dfs
    before the final cut."""
    sel = np.flatnonzero(s._gdf <= max_doc_count)
    return np.asarray(s._gterms, dtype=object)[sel].tolist()


def _expand_suggest(
    s: IndexSearcher, tokens: list[str], max_edits: int, prefix_length: int
) -> list[list[str]]:
    """Local-dictionary fuzzy expansions, one list per token, the token
    itself excluded (a term can live on only some shards; the union is
    the global dictionary)."""
    return [
        [t for t in s.expand_fuzzy(tok, max_edits, prefix_length) if t != tok]
        for tok in tokens
    ]


# -- coordinator-side merges ----------------------------------------------


def _no_hits() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, np.int64), np.empty(0, np.float64)


def _merge_topk(parts: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Concat the disjoint per-shard (docs, scores) top-ks, global cut."""
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    return topk_desc(docs, scores, k)


def _key_sum(partials, acc: dict | None = None) -> dict:
    """Sum per-shard (key, count) iterables by key — exact for every
    distributive count (each doc lives on exactly one shard)."""
    acc = {} if acc is None else acc
    for pairs in partials:
        for key, c in pairs:
            acc[key] = acc.get(key, 0) + c
    return acc


class _ShardPool:
    """Driver-side actor pool over disjoint doc-shard subsets, plus the
    generic fan-out helpers every coordinator op is written in."""

    def __init__(self, actor_cls, source, num_doc_shards: int, num_actors: int):
        if num_actors < 1:
            raise ValueError(f"num_actors must be >= 1, got {num_actors}")
        shards = list(range(num_doc_shards))
        chunks = [shards[i::num_actors] for i in range(num_actors)]
        # Fault tolerance (SURVEY §4 "fail the partition and retry",
        # serving side): actor state is rebuilt entirely from the
        # immutable on-disk index in __init__, so a crashed shard actor
        # restarts (max_restarts) and the in-flight query task retries
        # (max_task_retries) with bit-identical results — every shard op
        # is a pure read. Proven by the kill-mid-batch rank-identity
        # tests in tests/test_engine_advanced.py and test_multifield.py.
        self.actors = [
            actor_cls.options(max_restarts=2, max_task_retries=2).remote(
                source, c
            )
            for c in chunks
            if c
        ]

    def _call(self, method: str, /, *args, **kwargs) -> list:
        """Invoke one actor method on every actor; per-actor results."""
        return ray.get(
            [getattr(a, method).remote(*args, **kwargs) for a in self.actors]
        )

    def _all(self, fn, /, *args, **kwargs) -> list:
        """Run the shard op ``fn`` on every actor; per-actor results."""
        return self._call("run", fn, *args, **kwargs)

    def _topk(self, k: int, fn, /, *args, **kwargs):
        """Run a shard top-k op everywhere and merge to the global top-k."""
        return _merge_topk(self._all(fn, *args, **kwargs), k)

    @staticmethod
    def _resolve(cache: dict, fetch, keys: list) -> np.ndarray:
        """Global stats aligned to ``keys``: keys missing from ``cache``
        are summed over the per-actor partials ``fetch(missing)`` returns
        (ONE fan-out round) and cached — the stats are immutable for a
        built index."""
        missing = sorted({t for t in keys if t not in cache})
        if missing:
            sums = np.asarray(fetch(missing), dtype=np.float64).sum(axis=0)
            cache.update(zip(missing, sums.tolist()))
        return np.asarray([cache[t] for t in keys], dtype=np.float64)

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []


class DistributedSearcher(_ShardPool):
    """Driver-side handle: builds the actor pool over disjoint shard
    subsets and runs coordinator-reduce queries."""

    def __init__(self, index_dir: str, num_actors: int = 2):
        manifest = IndexManifest.load(index_dir)
        if manifest is None:
            raise FileNotFoundError(index_dir)
        super().__init__(
            ShardSearchActor, index_dir, manifest.num_doc_shards, num_actors
        )
        self.n_docs = manifest.n_docs
        self._total_tokens = float(manifest.total_tokens)
        # coordinator-side global-df cache: dfs are immutable for a built
        # index, so each term pays the phase-1 fan-out ONCE — warm
        # queries are a single RPC round (halves steady-state latency);
        # _gcf is the same cache for the LM collection frequencies
        self._gdf: dict[str, float] = {}
        self._gcf: dict[str, float] = {}

    def _gdfs(self, terms: list[str]) -> np.ndarray:
        """Global dfs aligned to ``terms`` (Σ local df, cached)."""
        return self._resolve(
            self._gdf, lambda m: self._call("local_dfs", m), terms
        )

    def _digest(
        self, terms: list[str], field: str, delta: float,
        center: float | None = None,
    ) -> TDigest | None:
        """Merged t-digest of the shard partials (None: no matches)."""
        parts = [
            b
            for b in self._all(_digest_partial, terms, field, delta, center)
            if b
        ]
        if not parts:
            return None
        t = TDigest.from_bytes(parts[0])
        for b in parts[1:]:
            t.merge(TDigest.from_bytes(b))
        return t

    def _stats_partials(self, terms: list[str], field: str) -> list[dict]:
        """Non-empty per-shard extended_stats partials."""
        return [
            p
            for p in self._all(IndexSearcher.agg_extended_stats, terms, field)
            if p["count"]
        ]

    def warmup(self, term_lists: list[list[str]]) -> None:
        """Batched cache warmup for an expected query workload — the
        reference's explicit warmup API (SURVEY.md §3.3). ONE df
        fan-out round for every distinct term, then one RPC per actor
        that decodes postings + builds block-max metadata in-actor —
        versus 2 RPC rounds per query when warming by just running the
        workload."""
        terms = sorted({t for ts in term_lists for t in ts})
        self._gdfs(terms)
        self._all(IndexSearcher.warm_terms, terms)

    def search_bm25(self, terms: list[str], k: int = 10):
        terms = sorted(set(terms))
        # phase 1 (coordinator): global df = Σ local df, for terms not
        # already cached; phase 2: fan out with global stats, merge
        # per-shard top-k
        gdfs = self._gdfs(terms)
        return _merge_topk(self._call("search", terms, k, gdfs.tolist()), k)

    def msearch_bm25(
        self, term_lists: list[list[str]], k: int = 10
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The _msearch API: N queries in TWO RPC rounds total — one
        global-df fan-out for the union of all uncached terms, then ONE
        batched search call per actor — versus 2·N rounds for a
        sequential loop. Per-query results are bit-identical to
        ``search_bm25`` (same kernel, same global stats); only the
        transport is batched. At 256-node scale this is the difference
        between per-query and per-batch coordinator latency."""
        norm_lists = [sorted(set(ts)) for ts in term_lists]
        self._gdfs([t for ts in norm_lists for t in ts])
        gdfs_lists = [[self._gdf[t] for t in ts] for ts in norm_lists]
        per_actor = self._call("msearch", norm_lists, k, gdfs_lists)
        return [
            _merge_topk([pa_[qi] for pa_ in per_actor], k)
            for qi in range(len(norm_lists))
        ]

    def search_query_string(self, text: str, k: int = 10):
        """Classic query_string through the serving pool: the driver
        parses once to collect the scored terms (term + phrase
        children), ONE global-df fan-out resolves them, then each actor
        evaluates the whole Boolean tree shard-locally with global
        stats (docs live in exactly one shard, so the set algebra is
        shard-local) and the coordinator merges disjoint-shard top-ks —
        rank-identical to the single-process path by construction."""
        terms = sorted(collect_query_terms(parse_query(text)))
        dfs = dict(zip(terms, self._gdfs(terms).tolist()))
        return self._topk(k, execute_query_string, text, k, dfs=dfs)

    def search_lm(
        self,
        terms: list[str],
        k: int = 10,
        *,
        similarity: str = "dirichlet",
        mu: float = 2000.0,
        lam: float = 0.5,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distributed LM similarity: phase 1 resolves the GLOBAL
        collection model — cf(term) = Σ local cf, total_tokens from the
        (global) manifest — exactly the global-df protocol, cached
        coordinator-side; phase 2 fans out with the global stats and
        merges per-shard top-k. Scores are bit-identical to the
        single-node engine because every actor evaluates the same
        kernel on the same global stats."""
        sterms = sorted(set(terms))
        cfs = self._resolve(
            self._gcf, lambda m: self._all(_local_cfs, m), sterms
        )
        return self._topk(
            k, IndexSearcher.search_lm, sterms, k, similarity=similarity,
            mu=mu, lam=lam, global_stats=(cfs, self._total_tokens),
        )

    def search_phrase(self, terms: list[str], k: int = 10):
        """Distributed match_phrase: phrase matching is per-doc, so each
        shard matches locally; only idf needs the coordinator's global
        df phase (dfs passed in GIVEN term order — search_phrase sums
        one idf addend per occurrence)."""
        return self._topk(
            k, IndexSearcher.search_phrase, terms, k,
            global_dfs=self._gdfs(terms),
        )

    def search_bool(
        self,
        must: list[str] | None = None,
        should: list[str] | None = None,
        must_not: list[str] | None = None,
        k: int = 10,
        *,
        filter_terms: list[str] | None = None,
        minimum_should_match: int | None = None,
    ):
        """Distributed BooleanQuery: clause membership is per-doc (shard-
        local); global dfs align to the engine's sorted-distinct scoring
        terms (must + should)."""
        must = list(must or [])
        should = list(should or [])
        return self._topk(
            k, IndexSearcher.search_bool, must, should, list(must_not or []),
            k, filter_terms=list(filter_terms or []),
            minimum_should_match=minimum_should_match,
            global_dfs=self._gdfs(sorted(set(must) | set(should))),
        )

    def search_phrase_prefix(
        self, terms: list[str], k: int = 10, *, max_expansions: int = 50
    ):
        """Distributed match_phrase_prefix. The coordinator resolves ONE
        GLOBAL expansion list (union of per-shard dictionary ranges,
        term order, capped) so every shard scores the same enumerated
        term array — rank-identical to a single searcher, avoiding the
        per-shard-expansion inconsistency ES documents for this query."""
        if not terms:
            return _no_hits()
        locals_ = self._all(IndexSearcher.expand_prefix, terms[-1])
        expansions = sorted({t for ts in locals_ for t in ts})[:max_expansions]
        if not expansions:
            return _no_hits()
        return self._topk(
            k, IndexSearcher.search_phrase_prefix, terms, k,
            expansions=expansions,
            global_dfs=self._gdfs(list(terms[:-1]) + expansions),
        )

    def facet_terms(self, terms: list[str], field: str, size: int = 10):
        """Distributed terms aggregation: shard-local FULL partial maps
        (size=None; match set and doc-values are shard-resident, bounded
        by field cardinality), coordinator sums by value, then the
        global (count desc, value asc) top-size cut — exact because
        partials are complete per shard (no shard_size approximation)."""
        parts = self._all(IndexSearcher.facet_terms, terms, field, size=None)
        acc = _key_sum(zip(values, counts) for values, counts in parts)
        if not acc:
            return [], np.empty(0, np.int64)
        values = list(acc)
        counts = np.asarray([acc[v] for v in values], dtype=np.int64)
        order = np.lexsort((np.asarray(values, dtype=object), -counts))
        sel = order[:size] if size is not None else order
        return [values[i] for i in sel], counts[sel]

    def agg_cardinality(
        self,
        terms: list[str],
        field: str,
        precision_threshold: int = 3000,
        p: int = 14,
    ) -> dict:
        """Distributed cardinality agg: shard partials are exact value
        sets while small (merged by set union — still exact) and HLL
        registers otherwise (merged by register max). The coordinator
        only downgrades to an estimate when the UNION outgrows the
        threshold or any shard upgraded — OpenSearch's semantics."""
        parts = self._all(
            _cardinality_partial, terms, field, precision_threshold, p
        )
        exact_vals: set = set()
        sketches: list[bytes] = []
        for kind, payload in parts:
            if kind == "exact":
                exact_vals.update(payload)
            else:
                sketches.append(payload)
        if not sketches and len(exact_vals) <= precision_threshold:
            return {"value": len(exact_vals), "exact": True}
        h = HyperLogLog(p)
        if sketches:
            h.merge(HyperLogLog.merge_payloads(sketches))
        if exact_vals:
            h.add_hashed(hash64(np.asarray(sorted(exact_vals))))
        return {"value": h.estimate(), "exact": False}

    def agg_percentiles(
        self,
        terms: list[str],
        field: str,
        pcts: tuple[float, ...] = (1, 5, 25, 50, 75, 95, 99),
        delta: float = 100.0,
    ) -> np.ndarray:
        """Distributed percentiles agg (t-digest tier — the mergeable
        form; the exact linear-interpolation tier needs co-located
        values and stays single-searcher / Ray-Data sort territory)."""
        t = self._digest(terms, field, delta)
        if t is None:
            return np.full(len(pcts), np.nan)
        return t.quantiles(np.asarray(pcts, dtype=np.float64) / 100.0)

    def agg_extended_stats(self, terms: list[str], field: str) -> dict:
        """Distributed extended_stats: (count, min, max, sum, sum_sq)
        partials merge associatively; avg/variance/std computed once at
        the coordinator with the same float expression as the single
        searcher — bitwise identical."""
        parts = self._stats_partials(terms, field)
        if not parts:
            return {
                "count": 0, "min": None, "max": None, "sum": 0,
                "avg": None, "sum_of_squares": 0, "variance": None,
                "std_deviation": None,
            }
        n = sum(p["count"] for p in parts)
        total = sum(p["sum"] for p in parts)
        sum_sq = sum(p["sum_of_squares"] for p in parts)
        avg = total / n
        var = sum_sq / n - avg * avg
        return {
            "count": n,
            "min": min(p["min"] for p in parts),
            "max": max(p["max"] for p in parts),
            "sum": total,
            "avg": avg,
            "sum_of_squares": sum_sq,
            "variance": var,
            "std_deviation": float(np.sqrt(var)),
        }

    def agg_t_test(
        self,
        terms_a: list[str],
        terms_b: list[str],
        field: str,
        mode: str = "heteroscedastic",
    ) -> dict:
        """Distributed t_test: exact int64 (n, Σv, Σv²) moment partials
        per side summed at the coordinator, then the SAME pinned final
        expression as IndexSearcher.agg_t_test — bitwise identical to
        the single-node run."""
        pa_ = self._all(IndexSearcher._field_moments, terms_a, field)
        pb = self._all(IndexSearcher._field_moments, terms_b, field)
        n1, s1, ss1 = (sum(p[i] for p in pa_) for i in range(3))
        n2, s2, ss2 = (sum(p[i] for p in pb) for i in range(3))
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

    def agg_string_stats(self, terms: list[str], field: str) -> dict:
        """Distributed string_stats: count/extrema/total partials merge
        associatively, per-codepoint histograms merge by key; entropy is
        one coordinator pass in sorted-codepoint order — identical float
        result regardless of sharding (engine.finish_string_stats)."""
        return finish_string_stats(
            self._all(IndexSearcher.string_stats_partial, terms, field)
        )

    def agg_boxplot(
        self, terms: list[str], field: str, delta: float = 100.0
    ) -> dict:
        """Distributed boxplot (t-digest tier): exact min/max ride the
        extended_stats partials; the quartiles come from the merged
        digest — the reference's mergeable-sketch shape (the exact
        PERCENTILE_CONT tier needs co-located values and stays
        single-searcher)."""
        stats = self._stats_partials(terms, field)
        if not stats:
            return {"min": None, "q1": None, "q2": None, "q3": None,
                    "max": None}
        t = self._digest(terms, field, delta)
        q1, q2, q3 = t.quantiles(np.asarray([0.25, 0.5, 0.75]))
        return {
            "min": float(min(p["min"] for p in stats)),
            "q1": float(q1),
            "q2": float(q2),
            "q3": float(q3),
            "max": float(max(p["max"] for p in stats)),
        }

    def search_distance_feature(
        self, terms: list[str], field: str, *, k: int = 10, **kwargs
    ):
        """Distributed distance_feature: per-doc doc-values feature is
        shard-local; global df broadcast keeps BM25 rank-identical."""
        sterms = sorted(set(terms))
        return self._topk(
            k, IndexSearcher.search_distance_feature, sterms, field, k=k,
            global_dfs=self._gdfs(sterms), **kwargs,
        )

    def search_span_or(self, clauses: list[str], k: int = 10):
        """Distributed span_or: the union df is the SUM of per-shard
        union dfs (disjoint doc sets), resolved coordinator-side like
        global term df, then broadcast — rank-identical to one node."""
        sterms = sorted(set(clauses))
        gdf = float(sum(self._all(IndexSearcher.span_or_union, sterms)))
        return self._topk(
            k, IndexSearcher.search_span_or, sterms, k, global_df=gdf
        )

    def search_span_within(self, little: str, big: list[str], k: int = 10):
        """Distributed span_within: single little-term global df
        broadcast (the span_not discipline) — rank-identical."""
        return self._topk(
            k, IndexSearcher.search_span_within, little, big, k,
            global_df=float(self._gdfs([little])[0]),
        )

    def search_span_containing(
        self, little: str, big: list[str], k: int = 10
    ):
        """Distributed span_containing: big-phrase per-term global dfs
        broadcast (the search_phrase discipline)."""
        return self._topk(
            k, IndexSearcher.search_span_containing, little, big, k,
            global_dfs_big=self._gdfs(big),
        )

    def terms_enum(
        self, prefix: str, size: int = 10, min_df: int = 1
    ) -> tuple[list[str], np.ndarray]:
        """Distributed _terms_enum: per-shard prefix slices merged by
        df-sum (disjoint shards), term-ordered cut — identical to the
        single searcher."""
        merged = _key_sum(
            m.items() for m in self._all(_terms_enum_partial, prefix)
        )
        out_t, out_d = [], []
        for t in sorted(merged):
            if merged[t] >= min_df:
                out_t.append(t)
                out_d.append(merged[t])
                if len(out_t) >= size:
                    break
        return out_t, np.asarray(out_d, dtype=np.int64)

    def search_pinned(
        self, pinned_ids: list[int], terms: list[str], k: int = 10
    ):
        """Distributed pinned query: pin existence resolved across the
        shard actors (order preserved, first k), organic shard top-k
        merged with the pins excluded — same output contract as
        IndexSearcher.search_pinned."""
        cand_pins = list(dict.fromkeys(int(i) for i in pinned_ids))
        exists = self._all(_has_docs, cand_pins)
        pins = [
            p
            for j, p in enumerate(cand_pins)
            if any(e[j] for e in exists)
        ][:k]
        sterms = sorted(set(terms))
        organic_docs, organic_scores = _no_hits()
        if sterms and k > len(pins):
            organic_docs, organic_scores = self._topk(
                k - len(pins), _pinned_organic, sterms, pins, k - len(pins),
                self._gdfs(sterms),
            )
        pin_docs = np.asarray(pins, dtype=np.int64)
        pin_scores = IndexSearcher.PIN_SCORE_BASE - np.arange(
            len(pins), dtype=np.float64
        )
        return (
            np.concatenate([pin_docs, organic_docs]),
            np.concatenate([pin_scores, organic_scores]),
        )

    def agg_scripted_metric(self, terms: list[str], script) -> dict:
        """Distributed scripted_metric: every shard runs the map script
        over its own match set, the coordinator folds the opaque states
        with the script's combine and applies reduce ONCE — the
        OpenSearch script contract verbatim (combine must be
        associative; reduce sees all shard states)."""
        parts = [
            p
            for p in self._all(
                IndexSearcher.agg_scripted_partial, terms, script
            )
            if p is not None
        ]
        if not parts:
            return {f: None for f in script.output_fields}
        return script.reduce(script.combine(parts))

    def agg_adjacency_matrix(
        self, terms: list[str], filters: dict
    ) -> dict:
        """Distributed adjacency_matrix: every doc lives on exactly one
        shard, so singles AND pairwise intersections are distributive
        count-sums (zero buckets stay omitted)."""
        parts = self._all(IndexSearcher.agg_adjacency_matrix, terms, filters)
        return _key_sum(p.items() for p in parts)

    def agg_percentile_ranks(
        self,
        terms: list[str],
        field: str,
        values: tuple[float, ...],
        delta: float = 100.0,
    ) -> np.ndarray:
        """Distributed percentile_ranks (t-digest tier): invert the
        merged digest's quantile function by bisection (the exact
        empirical-CDF tier needs co-located values and stays
        single-searcher)."""
        t = self._digest(terms, field, delta)
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
        self, terms: list[str], field: str, delta: float = 100.0
    ) -> float:
        """Distributed MAD (t-digest tier, two phases): merged digest →
        approximate median, then per-shard digests of |v − median| →
        merged → median again. Both phases ship only centroid bytes."""
        t = self._digest(terms, field, delta)
        if t is None:
            return float("nan")
        med = t.quantile(0.5)
        return float(self._digest(terms, field, delta, med).quantile(0.5))

    def significant_terms(
        self, terms: list[str], size: int = 10, min_doc_count: int = 1
    ):
        """Distributed significant_terms: per-actor (term, fg_df) maps
        merged by sum, background dfs resolved through the same
        coordinator df cache as BM25 — EXACT across any sharding."""
        parts = self._all(significant_partial, terms)
        vocab = sorted({t for m, _ in parts for t in m})
        if not vocab:
            return combine_significant(parts, lambda v: [], self.n_docs, size)
        self._gdfs(vocab)
        return combine_significant(
            parts,
            lambda v: [int(self._gdf[t]) for t in v],
            self.n_docs,
            size,
            min_doc_count,
        )

    def search_decay(
        self,
        terms: list[str],
        field: str,
        *,
        origin: float,
        scale: float,
        decay: float = 0.5,
        offset: float = 0.0,
        k: int = 10,
    ):
        """Distributed function_score decay: the multiplier is a pure
        per-doc doc-values function, so shard top-k merge stays exact
        once idf uses global dfs."""
        sterms = sorted(set(terms))
        return self._topk(
            k, IndexSearcher.search_decay, sterms, field, origin=origin,
            scale=scale, decay=decay, offset=offset, k=k,
            global_dfs=self._gdfs(sterms),
        )

    def search_dis_max(
        self,
        subqueries: list[list[str]],
        k: int = 10,
        *,
        tie_breaker: float = 0.0,
    ):
        """Distributed dis_max: per-subquery global dfs resolved once,
        per-shard full combine (max + tb·rest is per-doc, doc lives on
        ONE shard), exact top-k merge."""
        subs = [sorted(set(s)) for s in subqueries]
        self._gdfs([t for s in subs for t in s])
        return self._topk(
            k, IndexSearcher.search_dis_max, subs, k, tie_breaker=tie_breaker,
            global_dfs=[self._gdfs(s) for s in subs],
        )

    def search_boosting(
        self,
        positive: list[str],
        negative: list[str],
        *,
        negative_boost: float = 0.5,
        k: int = 10,
    ):
        """Distributed boosting: negative membership is shard-local (a
        doc's negative postings live on its own shard), so only the
        positive idf needs the coordinator phase."""
        pos = sorted(set(positive))
        return self._topk(
            k, IndexSearcher.search_boosting, pos, negative,
            negative_boost=negative_boost, k=k, global_dfs=self._gdfs(pos),
        )

    def search_rank_feature(
        self, terms: list[str], field: str, *, k: int = 10, **kwargs
    ):
        """Distributed rank_feature: the feature is per-doc doc-values,
        shard-local by construction."""
        sterms = sorted(set(terms))
        return self._topk(
            k, IndexSearcher.search_rank_feature, sterms, field, k=k,
            global_dfs=self._gdfs(sterms), **kwargs,
        )

    def search_terms_set(
        self, terms: list[str], minimum_should_match: int = 2, k: int = 10
    ):
        """Distributed terms_set: per-doc distinct-match counts are
        shard-complete (a doc's postings never span shards), so each
        shard filters + scores with coordinator-global dfs and the
        merge is a plain exact top-k."""
        sterms = sorted(set(terms))
        return self._topk(
            k, IndexSearcher.search_terms_set, sterms, minimum_should_match,
            k, global_dfs=self._gdfs(sterms),
        )

    def search_function_score(
        self, terms: list[str], field: str, *, k: int = 10, **kwargs
    ):
        """Distributed function_score: the field_value_factor boost is
        per-doc doc-values (shard-local); each shard multiplies its
        FULL union before truncation, so the k-merge stays exact."""
        sterms = sorted(set(terms))
        return self._topk(
            k, IndexSearcher.search_function_score, sterms, field, k=k,
            global_dfs=self._gdfs(sterms), **kwargs,
        )

    def agg_matrix_stats(
        self, terms: list[str], field_x: str, field_y: str = "_dl"
    ) -> dict:
        """Distributed matrix_stats: shard partials are the six exact
        integer sums, merged by plain addition at the coordinator — the
        derived doubles are then BIT-IDENTICAL to single-node (same
        exact sums, same expressions). Higher moments (skew/kurt) are a
        single-node extra; the distributed protocol ships only the
        mergeable core (the agg's documented RunningStats merge)."""
        parts = self._all(
            IndexSearcher.agg_matrix_stats_partial, terms, field_x, field_y
        )
        n, sum_x, sum_xx, sum_y, sum_yy, sum_xy = (
            sum(p[i] for p in parts) for i in range(6)
        )
        if n == 0:
            return {"n": 0}
        mean_x, mean_y = sum_x / n, sum_y / n
        var_x = sum_xx / n - mean_x * mean_x
        var_y = sum_yy / n - mean_y * mean_y
        cov = sum_xy / n - mean_x * mean_y
        denom = np.sqrt(var_x * var_y)
        return {
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

    def highlight_best_window(
        self, terms: list[str], doc_ids: np.ndarray, window: int = 8
    ):
        """Distributed highlighter: a doc's positions live on exactly
        one shard, so per-shard best windows concatenate — no merge
        logic, no duplicate docs possible."""
        parts = self._all(
            IndexSearcher.highlight_best_window, terms,
            np.asarray(doc_ids, dtype=np.int64), window=window,
        )
        d, w, h = (np.concatenate([p[i] for p in parts]) for i in range(3))
        order = np.argsort(d)
        return d[order], w[order], h[order]

    def agg_range(
        self, terms: list[str], field: str, ranges: list[tuple]
    ) -> list[dict]:
        """Distributed range agg: the range list is fixed, so shard
        partials are aligned (cnt, sum) vectors — elementwise sum."""
        parts = self._all(IndexSearcher.agg_range, terms, field, ranges)
        return [
            {
                "from": lo,
                "to": hi,
                "cnt": sum(p[i]["cnt"] for p in parts),
                "sum_v": sum(p[i]["sum_v"] for p in parts),
            }
            for i, (lo, hi) in enumerate(ranges)
        ]

    def facet_top_hits(
        self, terms: list[str], field: str, k_per_bucket: int = 3
    ):
        """Distributed terms-bucket top_hits: per-shard per-bucket top-k
        partials merged bucket-wise at the coordinator, then re-cut —
        exact because each shard's partial is complete for its docs."""
        sterms = sorted(set(terms))
        parts = self._all(
            IndexSearcher.facet_top_hits, sterms, field, k_per_bucket,
            global_dfs=self._gdfs(sterms),
        )
        acc: dict = {}
        for values, _, docs, scores in parts:
            for v, d, s in zip(values, docs, scores):
                acc.setdefault(v, ([], []))
                acc[v][0].append(d)
                acc[v][1].append(s)
        out_v, out_r, out_d, out_s = [], [], [], []
        for bucket in sorted(acc):
            d = np.asarray(acc[bucket][0], dtype=np.int64)
            s = np.asarray(acc[bucket][1], dtype=np.float64)
            order = np.lexsort((d, -s))[:k_per_bucket]
            out_v += [bucket] * order.size
            out_r += list(range(1, order.size + 1))
            out_d.append(d[order])
            out_s.append(s[order])
        if not out_v:
            return [], np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
        return (
            out_v,
            np.asarray(out_r, dtype=np.int64),
            np.concatenate(out_d),
            np.concatenate(out_s),
        )

    def search_synonym(
        self, groups: list[list[str]], k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distributed SynonymQuery: per-group blended df = max over the
        group of GLOBAL dfs (each global df = Σ local), so idf is
        identical on every shard; per-shard top-k merge stays exact."""
        gsets = [sorted(set(g)) for g in groups]
        self._gdfs([t for g in gsets for t in g])
        return self._topk(
            k, IndexSearcher.search_synonym, gsets, k,
            global_dfs=[self._gdfs(g) for g in gsets],
        )

    def agg_rare_terms(
        self, max_doc_count: int = 1, size: int = 10
    ) -> tuple[list[str], np.ndarray]:
        """Distributed rare_terms, two-phase for exactness: (1) union of
        locally-rare candidates (complete: global df ≥ every local df);
        (2) GLOBAL df re-resolution for the candidates — a term rare on
        one shard but frequent overall is correctly dropped, and
        under-counted local dfs are corrected before the cut."""
        if max_doc_count < 1:
            raise ValueError("max_doc_count must be >= 1")
        cand_lists = self._all(_rare_candidates, max_doc_count)
        cands = sorted({t for cl in cand_lists for t in cl})
        if not cands:
            return [], np.empty(0, np.int64)
        self._gdfs(cands)
        terms = np.asarray(
            [t for t in cands if self._gdf[t] <= max_doc_count],
            dtype=object,
        )
        if terms.size == 0:
            return [], np.empty(0, np.int64)
        dfs = np.asarray(
            [int(self._gdf[t]) for t in terms], dtype=np.int64
        )
        order = np.lexsort((terms, dfs))[:size]
        return terms[order].tolist(), dfs[order]

    def agg_composite(
        self,
        terms: list[str],
        sources: list[tuple],
        size: int = 10,
        after: tuple | None = None,
    ):
        """Distributed composite agg: per-shard FULL bucket maps
        (size=None, bounded by bucket cardinality) merged by key-sum,
        then one global key-ordered after/size cut — exact because each
        partial is complete for its shard's docs."""
        parts = self._all(IndexSearcher.agg_composite, terms, sources, size=None)
        acc = _key_sum(zip(map(tuple, keys), counts) for keys, counts in parts)
        keys = sorted(acc)
        if after is not None:
            keys = [k for k in keys if k > tuple(after)]
        keys = keys[:size]
        return keys, np.asarray([acc[k] for k in keys], dtype=np.int64)

    def agg_filters(
        self, terms: list[str], filters: dict
    ) -> dict:
        """Distributed filters agg: per-shard counts sum (distributive)."""
        parts = self._all(IndexSearcher.agg_filters, terms, filters)
        return _key_sum((p.items() for p in parts), dict.fromkeys(filters, 0))

    def suggest_term(
        self,
        term: str,
        size: int = 5,
        *,
        max_edits: int = 2,
        prefix_length: int = 0,
        suggest_mode: str = "missing",
    ) -> list[tuple[str, int, int]]:
        """Distributed term suggester: candidates are the UNION of
        shard-dictionary expansions (a term can live on only some
        shards), frequencies are global dfs via the coordinator cache,
        ranking identical to the single searcher."""
        if suggest_mode not in ("missing", "always"):
            raise ValueError("suggest_mode must be 'missing' or 'always'")
        if suggest_mode == "missing" and self._gdfs([term])[0] > 0:
            return []
        cand_sets = self._all(_expand_suggest, [term], max_edits, prefix_length)
        cands = sorted({t for cs in cand_sets for t in cs[0]})
        if not cands:
            return []
        self._gdfs(cands)
        scored = sorted(
            (levenshtein(term, t), -int(self._gdf[t]), t) for t in cands
        )[:size]
        return [(t, -negdf, d) for d, negdf, t in scored]

    def suggest_phrase(
        self,
        vocab: dict,
        lnp: np.ndarray,
        text: str,
        *,
        size: int = 3,
        max_edits: int = 1,
        per_token: int = 5,
        edit_penalty: float | None = None,
    ) -> list[tuple[str, float]]:
        """Distributed phrase suggester: per-token candidates from the
        UNION of shard-dictionary expansions (one call per actor carries
        every token) ranked by GLOBAL df, then the same noisy-channel LM
        scoring as query/suggest.py (the LM arrays are broadcast by the
        caller)."""
        if edit_penalty is None:
            edit_penalty = math.log(0.5)
        tokens = tokenize(text)
        if not tokens:
            return []
        expansions = self._all(_expand_suggest, tokens, max_edits, 0)
        floor = float(np.min(lnp) - math.log(2.0)) if len(lnp) else 0.0
        per_tok_cands = []
        all_cands = set()
        for ti, tok in enumerate(tokens):
            cs = {t for per_actor in expansions for t in per_actor[ti]}
            cs.add(tok)  # _expand_suggest drops the input token itself
            all_cands |= cs
            per_tok_cands.append(cs)
        self._gdfs(sorted(all_cands))
        out_cands = []
        for tok, cs in zip(tokens, per_tok_cands):
            present = [t for t in cs if self._gdf.get(t, 0) > 0]
            scored = sorted(
                (levenshtein(tok, t), -int(self._gdf[t]), t)
                for t in present
            )[:per_token]
            if not scored:
                out_cands.append([(tok, floor, 0)])
                continue
            out_cands.append(
                [
                    (t, float(lnp[vocab[t]]) if t in vocab else floor, d)
                    for d, _, t in scored
                ]
            )
        phrases: list[tuple[str, ...]] = [()]
        for cands in out_cands:
            phrases = [p + (c[0],) for p in phrases for c in cands]
        lookup = [{c[0]: c for c in cands} for cands in out_cands]
        orig = tuple(tokens)
        results = []
        for p in phrases:
            if p == orig:
                continue
            score, edits = 0.0, 0
            for i, t in enumerate(p):
                _, lp, d = lookup[i][t]
                score += lp
                edits += d
            raw = score + edit_penalty * edits
            r6 = (
                math.floor(raw * 1e6 + 0.5) / 1e6
                if raw >= 0
                else math.ceil(raw * 1e6 - 0.5) / 1e6
            )
            results.append((" ".join(p), r6))
        results.sort(key=lambda r: (-r[1], r[0]))
        return results[:size]

    def _search_multiterm(self, k: int, fn, /, *args, **kwargs):
        """Constant-score multi-term queries (prefix / wildcard / fuzzy /
        regexp): doc-membership is decided by terms IN the doc, so each
        shard's LOCAL dictionary expansion is exact for its own docs —
        no coordinator expansion phase needed. Merges doc ids only
        (score is constant 1.0)."""
        parts = self._all(fn, *args, **kwargs)
        docs = np.sort(np.concatenate([p[0] for p in parts]))[:k]
        return docs, np.ones(docs.size, dtype=np.float64)

    def search_prefix(self, prefix: str, k: int = 10):
        return self._search_multiterm(k, IndexSearcher.search_prefix, prefix, k)

    def search_wildcard(self, pattern: str, k: int = 10):
        return self._search_multiterm(
            k, IndexSearcher.search_wildcard, pattern, k
        )

    def search_regexp(self, pattern: str, k: int = 10):
        return self._search_multiterm(k, IndexSearcher.search_regexp, pattern, k)

    def search_fuzzy(
        self, term: str, k: int = 10, *, max_edits: int = 2,
        prefix_length: int = 0,
    ):
        return self._search_multiterm(
            k, IndexSearcher.search_fuzzy, term, k, max_edits=max_edits,
            prefix_length=prefix_length,
        )

    def search_match_bool_prefix(self, text: str, k: int = 10):
        """Distributed match_bool_prefix: ONE global-df round for the
        term clauses (the prefix clause is constant-score and expands
        against each shard's LOCAL dictionary — exact by doc-membership),
        then shard-local evaluation — doc spaces are disjoint so the
        merge is concat + top-k."""
        toks = tokenize(text)
        if not toks:
            return _no_hits()
        gdfs = dict(zip(toks[:-1], self._gdfs(toks[:-1]).tolist()))
        return self._topk(
            k, IndexSearcher.search_match_bool_prefix, text, k=k,
            global_dfs=gdfs,
        )

    def suggest_completion(self, prefix: str, size: int = 5):
        """Distributed completion: per-shard FULL (terms, local dfs)
        dictionary slices (size=None — bounded by the dictionary, never a
        postings decode) merge by df SUM per term (a term's postings are
        split across doc shards), then one global (weight desc, term asc)
        cut."""
        parts = self._all(IndexSearcher.suggest_completion, prefix, size=None)
        agg = _key_sum(zip(terms, dfs.tolist()) for terms, dfs in parts)
        if not agg:
            return [], np.empty(0, np.int64)
        terms = np.asarray(sorted(agg), dtype=object)
        weights = np.asarray([agg[str(t)] for t in terms], dtype=np.int64)
        order = np.lexsort((terms, -weights))[:size]
        return [str(t) for t in terms[order]], weights[order]


class MultiFieldDistributedSearcher(_ShardPool):
    """Distributed multi_match: per-field global-df phase, shard-local
    scoring (global n_docs/avgdl come from each field's manifest), and
    a concat + top-k merge over the disjoint doc shards."""

    def __init__(
        self, field_dirs: list[tuple[str, str, float]], num_actors: int = 2
    ):
        manifests = [IndexManifest.load(d) for _, d, _ in field_dirs]
        if any(m is None for m in manifests):
            raise FileNotFoundError("missing field index manifest")
        shards_n = {m.num_doc_shards for m in manifests}
        if len(shards_n) != 1:
            raise ValueError(
                "multi_match field indexes must share num_doc_shards "
                f"(got {sorted(shards_n)}) so doc shards stay aligned"
            )
        super().__init__(
            MultiFieldShardActor, field_dirs, shards_n.pop(), num_actors
        )
        # per-(field, term) df cache, same immutability argument as
        # DistributedSearcher._gdf
        self._gdf: dict[tuple[str, str], float] = {}
        self._field_names = [f for f, _, _ in field_dirs]

    def search_multi_match(
        self,
        terms: list[str],
        k: int = 10,
        *,
        match_type: str = "best_fields",
        tie_breaker: float = 0.0,
    ):
        sterms = sorted(set(terms))
        if not sterms:
            return _no_hits()
        keys = [(f, t) for f in self._field_names for t in sterms]
        flat = self._resolve(
            self._gdf, lambda m: self._all(_field_dfs, m), keys
        )
        n = len(sterms)
        gdfs = {
            f: flat[i * n:(i + 1) * n] for i, f in enumerate(self._field_names)
        }
        return self._topk(
            k, search_multi_match, sterms, k, match_type=match_type,
            tie_breaker=tie_breaker, global_dfs=gdfs,
        )
