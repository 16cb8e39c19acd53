"""Distributed query execution: shard-parallel actor fan-out.

The Ray restatement of OpenSearch's coordinator → data-node shard search
(SURVEY.md §3.2, query-then-fetch): each searcher opens a *view* over a
disjoint doc-shard subset on each of its shard hosts; the driver
resolves GLOBAL term statistics first (df summed over actors — the
coordinator's role; global stats are required for rank-identical BM25,
SURVEY.md §2.5), broadcasts them with each query, and merges per-shard
top-k with the same (score desc, doc_id asc) ordering — proven equal to
a single-searcher run in tests/test_engine_advanced.py.

Actor shape: ONE actor class, ``ShardHost``, holds any number of
searcher *views*, ``{view id: searcher state}``. Every host method
(``open``, ``close``, ``stats``, ``local_dfs``, ``search``, ``msearch``,
``run``) takes the view key first, and a host that lacks the view (after
a restart, say) opens it from the key itself: the key carries the view
id, the state factory, its source, the shard chunk and a digest of
``manifest.json`` plus the tombstone files the coordinator read, and a
host opens no other index generation (``StaleIndexView``). Hosts are
shared: a per-Ray-session registry lends live hosts to each new pool,
spawns only the missing ones, and ``shutdown`` kills a host as soon as
no pool borrows it — so a searcher reopened while the old one is still
open pays the ``IndexSearcher`` open plus warmup, not a process spawn.
The BM25 hot path keeps dedicated methods (``stats``, ``local_dfs``,
``search``, ``msearch``); every other shard op goes through ONE generic
``run(key, fn, *args, **kwargs)`` that evaluates ``fn(searcher, ...)``
on the view. ``fn`` is an unbound ``IndexSearcher`` method or a
module-level ``(searcher, ...)`` function, so it pickles by reference.

Where shard ops live: the aggregation and term-dictionary ops
(facets, metric and sketch aggs, terms_enum, rare_terms, the term /
completion / phrase suggesters) are defined ONCE, as shard partials plus
a merge, in query/aggs.py and query/suggest.py, and bound here and on
``IndexSearcher`` as the same function objects; this module supplies
their context — ``_all`` (one ``run`` per host) and ``_gdfs`` (cached
global dfs). The scoring ops (``search_*``, ``highlight_best_window``)
and ``significant_terms`` are written here: coordinator phases (global
dfs, LM collection stats, expansion lists) plus ``_topk`` (concat +
``topk_desc`` merge) over ``IndexSearcher`` methods or the few
module-level shard ops below.

At 256-node scale this is the serving topology: actors pinned per node
via ``ray.remote(num_cpus=...)``, shard assignment from the manifest,
query batches routed with ``map_batches`` or direct actor calls.
"""

from __future__ import annotations

import functools
import hashlib
import os
import types
import uuid
import weakref

import numpy as np

import ray

from ..analysis.analyzer import tokenize
from ..index.deletes import TOMBSTONE_DIR
from ..index.manifest import MANIFEST_NAME, IndexManifest
from . import aggs, suggest
from .engine import IndexSearcher, topk_desc
from .multifield import search_multi_match
from .queryparser import collect_query_terms, execute_query_string, parse_query
from .significant import combine_significant, significant_partial


class StaleIndexView(RuntimeError):
    """A shard host was asked to open a searcher view of an index
    generation that is no longer the one on disk (the index changed
    after the coordinator opened it, e.g. before a host restart)."""


def _index_digest(dirs: list[str]) -> str:
    """Digest of what an ``IndexSearcher`` open reads to fix its view:
    ``manifest.json`` plus every tombstone file, for each index dir."""
    h = hashlib.sha1()
    for d in dirs:
        paths = [os.path.join(d, MANIFEST_NAME)]
        tdir = os.path.join(d, TOMBSTONE_DIR)
        if os.path.isdir(tdir):
            paths += [os.path.join(tdir, f) for f in sorted(os.listdir(tdir))
                      if f.endswith(".parquet")]
        for p in paths:
            with open(p, "rb") as f:
                h.update(p.encode() + b"\0" + f.read())
    return h.hexdigest()


def _open_fields(
    field_dirs: list, *, shards: list[int]
) -> list[tuple[str, IndexSearcher, float]]:
    """Multi-field view state: the SAME doc-shard subset of EVERY field
    index (doc_shard = doc_id % num_doc_shards is field-independent, so
    the per-field subsets are aligned by construction), as the (field,
    IndexSearcher, boost) list search_multi_match takes."""
    return [(f, IndexSearcher(d, shards=shards), b) for f, d, b in field_dirs]


# The view states a view key can name: ``factory(source, shards=[...])``.
_FACTORIES = {"index": IndexSearcher, "fields": _open_fields}


def _open_view(key: list):
    """Open a view from its key — everything a host needs, by value:
    ``[view id, factory name, source, shard chunk, digest]``, where the
    source is an index dir or ``[[field, dir, boost], ...]`` and the
    digest pins the index generation the coordinator read. Any other
    generation is refused (checked before and after the open, so a
    commit landing mid-open cannot slip a newer index in).

    The key is a plain list of strs/ints/floats because every call
    carries it: Ray ships such lists on its msgpack path, while a
    dataclass or tuple is pickled (~10–25 µs per host per call)."""
    _, factory, source, shards, digest = key
    dirs = [source] if factory == "index" else [d for _, d, _ in source]
    if _index_digest(dirs) == digest:
        state = _FACTORIES[factory](source, shards=shards)
        if _index_digest(dirs) == digest:
            return state
    raise StaleIndexView(
        f"index at {dirs} changed since this searcher was opened; "
        "open a new searcher to see the current generation"
    )


@ray.remote
class ShardHost:
    """A serving process shared by every searcher generation: ``views``
    maps a view id to its state (an ``IndexSearcher``, or the multi-field
    list), opened lazily from the view key each call carries."""

    def __init__(self):
        self.views: dict[str, object] = {}

    def _view(self, key: list):
        state = self.views.get(key[0])
        if state is None:
            state = self.views[key[0]] = _open_view(key)
        return state

    def open(self, key: list) -> None:
        self._view(key)

    def close(self, key: list) -> None:
        self.views.pop(key[0], None)

    def stats(self, key: list) -> tuple[int, float]:
        """(n_docs, avgdl), both from the manifest — identical on every
        actor since the manifest is global; kept for interface
        completeness (and as the no-op RPC probe)."""
        s = self._view(key)
        return s.n_docs, s.avgdl

    def local_dfs(self, key: list, terms: list[str]) -> list[int]:
        s = self._view(key)
        return [s.local_df(t) for t in terms]

    def search(
        self, key: list, terms: list[str], k: int, global_dfs: list[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._view(key).search_bm25(
            terms, k, global_dfs=np.asarray(global_dfs, dtype=np.float64)
        )

    def msearch(
        self,
        key: list,
        term_lists: list[list[str]],
        k: int,
        gdfs_lists: list[list[float]],
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched search: score a whole QUERY BATCH in one actor call.
        Shared terms across the batch decode once (the searcher's LRU
        serves repeats), and the batch pays ONE task round-trip instead
        of one per query — the _msearch API, and the serving shape that
        matters at cluster scale where per-call latency is network-bound."""
        s = self._view(key)
        return [
            s.search_bm25(terms, k, global_dfs=np.asarray(gdfs, dtype=np.float64))
            for terms, gdfs in zip(term_lists, gdfs_lists)
        ]

    def run(self, key: list, fn, *args, **kwargs):
        """The generic shard op: ``fn(state, *args, **kwargs)`` over
        this view's shard subset."""
        return fn(self._view(key), *args, **kwargs)


# Live shard hosts of the current Ray session → how many pools borrow
# each, in spawn order. Keyed by session, so a handle from an earlier
# ``ray.init`` is never reused.
_HOSTS: dict[tuple[str, str], dict] = {}


def _session() -> tuple[str, str]:
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _borrow(n: int) -> list:
    """Lend the first ``n`` live hosts, spawning only the missing ones.
    Every pool takes a prefix of the spawn order, so the live host
    count never exceeds the largest pool open."""
    if not ray.is_initialized():
        ray.init()
    session = _session()
    if session not in _HOSTS:
        _HOSTS.clear()
    hosts = _HOSTS.setdefault(session, {})
    # Fault tolerance (SURVEY §4 "fail the partition and retry", serving
    # side): a view is rebuilt entirely from its key and the immutable
    # on-disk index, so a crashed host restarts (max_restarts) and the
    # in-flight query task retries (max_task_retries) with bit-identical
    # results — every shard op is a pure read. Proven by the
    # kill-mid-batch rank-identity tests in tests/test_engine_advanced.py
    # and test_multifield.py.
    while len(hosts) < n:
        hosts[ShardHost.options(max_restarts=2, max_task_retries=2).remote()] = 0
    lent = list(hosts)[:n]
    for h in lent:
        hosts[h] += 1
    return lent


def _release(session: tuple[str, str], views: list) -> None:
    """Give a pool's hosts back: close its views, and kill every host no
    pool borrows any more (idle processes are never parked)."""
    if not ray.is_initialized() or _session() != session:
        return  # the session ended, and its hosts with it
    hosts = _HOSTS.get(session, {})
    for v in views:
        if v.host not in hosts:  # dropped as dead
            continue
        hosts[v.host] -= 1
        if hosts[v.host]:
            v.host.close.remote(v.key)
        else:
            del hosts[v.host]
            ray.kill(v.host)


def _drop_dead(actor_id: str | None) -> None:
    """Forget a host that died for good, so no pool borrows it again."""
    for hosts in _HOSTS.values():
        for h in [h for h in hosts if h._actor_id.hex() == actor_id]:
            del hosts[h]


class _HostView:
    """One searcher's handle on a shared host: ``.search.remote(...)``
    is ``host.search.remote(key, ...)`` for this searcher's view;
    ``.host`` is the raw ``ActorHandle``."""

    def __init__(self, host, key: list):
        self.host = host
        self.key = key

    def __getattr__(self, method: str):
        return types.SimpleNamespace(
            remote=functools.partial(getattr(self.host, method).remote, self.key)
        )


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


# -- coordinator-side merges ----------------------------------------------


def _no_hits() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, np.int64), np.empty(0, np.float64)


def _merge_topk(parts: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Concat the disjoint per-shard (docs, scores) top-ks, global cut."""
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    return topk_desc(docs, scores, k)


class _ShardPool:
    """Driver-side pool: one view per borrowed host over disjoint
    doc-shard subsets, plus the generic fan-out helpers every
    coordinator op is written in."""

    # matched values live on the hosts: no co-located-only agg extras
    _co_located = False

    def __init__(
        self, factory, source, digest: str, num_doc_shards: int, num_actors: int
    ):
        if num_actors < 1:
            raise ValueError(f"num_actors must be >= 1, got {num_actors}")
        shards = list(range(num_doc_shards))
        chunks = [shards[i::num_actors] for i in range(num_actors)]
        chunks = [c for c in chunks if c]
        view = uuid.uuid4().hex
        self.actors = [
            _HostView(h, [view, factory, source, c, digest])
            for h, c in zip(_borrow(len(chunks)), chunks)
        ]
        for a in self.actors:
            a.open.remote()
        # released by shutdown(), or when the pool is garbage-collected
        self._finalize = weakref.finalize(self, _release, _session(), self.actors)
        self._finalize.atexit = False

    def _call(self, method: str, /, *args, **kwargs) -> list:
        """Invoke one host method on this pool's view on every host;
        per-actor results."""
        refs = [
            getattr(a.host, method).remote(a.key, *args, **kwargs)
            for a in self.actors
        ]
        try:
            return ray.get(refs)
        except ray.exceptions.ActorDiedError as e:
            _drop_dead(e.actor_id)
            raise

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
        (ONE fan-out round) and cached — the stats are immutable per
        searcher generation (every view is pinned to the index digest the
        coordinator read)."""
        missing = sorted({t for t in keys if t not in cache})
        if missing:
            sums = np.asarray(fetch(missing), dtype=np.float64).sum(axis=0)
            cache.update(zip(missing, sums.tolist()))
        return np.asarray([cache[t] for t in keys], dtype=np.float64)

    def shutdown(self) -> None:
        """Close this searcher's views and release its hosts; a host no
        other searcher borrows is killed here."""
        self._finalize()
        self.actors = []


class DistributedSearcher(_ShardPool):
    """Driver-side handle: builds the actor pool over disjoint shard
    subsets and runs coordinator-reduce queries."""

    def __init__(self, index_dir: str, num_actors: int = 2):
        # digest BEFORE the manifest read: a commit landing in between
        # then fails the hosts' digest check instead of pairing these
        # stats with a newer index
        digest = _index_digest([index_dir])
        manifest = IndexManifest.load(index_dir)
        if manifest is None:
            raise FileNotFoundError(index_dir)
        super().__init__(
            "index", index_dir, digest, manifest.num_doc_shards, num_actors
        )
        self.n_docs = manifest.n_docs
        self._total_tokens = float(manifest.total_tokens)
        # coordinator-side global-df cache: dfs are immutable per
        # searcher generation (the hosts' views are pinned to the index
        # generation this constructor read; a reopen is a new searcher
        # with empty caches), so each term pays the phase-1 fan-out ONCE
        # — warm queries are a single RPC round (halves steady-state
        # latency); _gcf is the same cache for the LM collection
        # frequencies
        self._gdf: dict[str, float] = {}
        self._gcf: dict[str, float] = {}

    def _gdfs(self, terms: list[str]) -> np.ndarray:
        """Global dfs aligned to ``terms`` (Σ local df, cached)."""
        return self._resolve(
            self._gdf, lambda m: self._call("local_dfs", m), terms
        )

    # aggregation and dictionary ops: the same functions IndexSearcher
    # binds (query/aggs.py, query/suggest.py); the t-digest tier of the
    # quantile aggs is the only tier (exact needs co-located values)
    facet_terms = aggs.facet_terms
    facet_top_hits = aggs.facet_top_hits
    agg_composite = aggs.agg_composite
    agg_extended_stats = aggs.agg_extended_stats
    agg_t_test = aggs.agg_t_test
    agg_matrix_stats = aggs.agg_matrix_stats
    agg_range = aggs.agg_range
    agg_filters = aggs.agg_filters
    agg_adjacency_matrix = aggs.agg_adjacency_matrix
    agg_cardinality = aggs.agg_cardinality
    agg_string_stats = aggs.agg_string_stats
    agg_scripted_metric = aggs.agg_scripted_metric
    agg_percentiles = aggs.tdigest_percentiles
    agg_percentile_ranks = aggs.tdigest_percentile_ranks
    agg_mad = aggs.tdigest_mad
    agg_boxplot = aggs.tdigest_boxplot
    terms_enum = suggest.terms_enum
    agg_rare_terms = suggest.agg_rare_terms
    suggest_term = suggest.suggest_term
    suggest_completion = suggest.suggest_completion
    suggest_phrase = suggest.suggest_phrase

    def warmup(self, term_lists: list[list[str]]) -> None:
        """Batched cache warmup for an expected query workload — the
        reference's explicit warmup API (SURVEY.md §3.3). ONE df
        fan-out round for every distinct term, then one RPC per actor
        that decodes postings + builds dense tf-norm vectors in-actor —
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

class MultiFieldDistributedSearcher(_ShardPool):
    """Distributed multi_match: per-field global-df phase, shard-local
    scoring (global n_docs/avgdl come from each field's manifest), and
    a concat + top-k merge over the disjoint doc shards."""

    def __init__(
        self, field_dirs: list[tuple[str, str, float]], num_actors: int = 2
    ):
        digest = _index_digest([d for _, d, _ in field_dirs])
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
            "fields", [list(t) for t in field_dirs], digest, shards_n.pop(),
            num_actors,
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
