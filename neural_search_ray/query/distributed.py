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
searcher *views*, ``{view id: IndexSearcher}``, each over one index.
Every host method (``open``, ``close``, ``stats``, ``local_dfs``,
``search``, ``msearch``, ``run``) takes the view key first, and a host
that lacks the view (after a restart, say) opens it from the key
itself: the key carries the view id, the index dir, the shard chunk and
a digest of ``manifest.json`` plus the tombstone files the coordinator
read, and a host opens no other index generation (``StaleIndexView``). Hosts are
shared: a per-Ray-session registry lends live hosts to each new pool,
spawns only the missing ones, and ``shutdown`` kills a host as soon as
no pool borrows it — so a searcher reopened while the old one is still
open pays the ``IndexSearcher`` open plus warmup, not a process spawn.
The BM25 hot path keeps dedicated methods (``stats``, ``local_dfs``,
``search``, ``msearch``); every other shard op goes through ONE generic
``run(key, fn, *args, **kwargs)`` that evaluates ``fn(searcher, ...)``
on the view, and a multi-field op goes through ``run_views(keys, fn,
...)``, which evaluates ``fn([searcher, ...], ...)`` over one view per
field index. ``fn`` is an unbound ``IndexSearcher`` method or a
module-level function, so it pickles by reference.

Where shard ops live: every aggregation, term-dictionary, significance
and scoring op is defined ONCE — query/aggs.py, query/suggest.py and
query/significant.py (shard partials plus a merge), query/scoring.py and
the two query-string grammars in query/queryparser.py /
query/querystring.py (stats resolved through the context, one shard
kernel, a merge) — and bound by the ``SharedOps`` list (query/ops.py)
that this class and ``IndexSearcher`` both inherit. This module supplies
their context: ``_all`` (one ``run`` per host), ``_topk`` (``_all`` plus
the concat + ``topk_desc`` merge), and the cached global stats
``_gdfs`` (df) and ``_gcfs`` (LM collection frequency). Only the BM25
hot path (``search_bm25``, ``msearch_bm25``, ``warmup``) is written
here. The multi-field ops (query/multifield.py, the ``MultiFieldOps``
list) run on ``MultiFieldDistributedSearcher``: one
``DistributedSearcher`` per field index, all on the same hosts.

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

from ..index.deletes import TOMBSTONE_DIR
from ..index.manifest import MANIFEST_NAME, IndexManifest
from .bm25 import topk_desc
from .engine import IndexSearcher
from .multifield import MultiFieldOps
from .ops import SharedOps


class StaleIndexView(RuntimeError):
    """A shard host was asked to open a searcher view of an index
    generation that is no longer the one on disk (the index changed
    after the coordinator opened it, e.g. before a host restart)."""


def _index_digest(index_dir: str) -> str:
    """Digest of what an ``IndexSearcher`` open reads to fix its view:
    ``manifest.json`` plus every tombstone file."""
    h = hashlib.sha1()
    paths = [os.path.join(index_dir, MANIFEST_NAME)]
    tdir = os.path.join(index_dir, TOMBSTONE_DIR)
    if os.path.isdir(tdir):
        paths += [os.path.join(tdir, f) for f in sorted(os.listdir(tdir))
                  if f.endswith(".parquet")]
    for p in paths:
        with open(p, "rb") as f:
            h.update(p.encode() + b"\0" + f.read())
    return h.hexdigest()


def _open_view(key: list) -> IndexSearcher:
    """Open a view from its key — everything a host needs, by value:
    ``[view id, index dir, shard chunk, digest]``, where the digest pins
    the index generation the coordinator read. Any other generation is
    refused (checked before and after the open, so a commit landing
    mid-open cannot slip a newer index in).

    The key is a plain list of strs/ints because every call carries it:
    Ray ships such lists on its msgpack path, while a dataclass or tuple
    is pickled (~10–25 µs per host per call)."""
    _, index_dir, shards, digest = key
    if _index_digest(index_dir) == digest:
        view = IndexSearcher(index_dir, shards=shards)
        if _index_digest(index_dir) == digest:
            return view
    raise StaleIndexView(
        f"index at {index_dir} changed since this searcher was opened; "
        "open a new searcher to see the current generation"
    )


@ray.remote
class ShardHost:
    """A serving process shared by every searcher generation: ``views``
    maps a view id to its ``IndexSearcher``, opened lazily from the view
    key each call carries."""

    def __init__(self):
        self.views: dict[str, IndexSearcher] = {}

    def _view(self, key: list) -> IndexSearcher:
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
        """The generic shard op: ``fn(searcher, *args, **kwargs)`` over
        this view's shard subset."""
        return fn(self._view(key), *args, **kwargs)

    def run_views(self, keys: list, fn, *args, **kwargs):
        """A shard op over several views of one shard chunk (one per
        field index): ``fn([searcher, ...], *args, **kwargs)``."""
        return fn([self._view(k) for k in keys], *args, **kwargs)


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


def _merge_topk(parts: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Concat the disjoint per-shard (docs, scores) top-ks, global cut."""
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    return topk_desc(docs, scores, k)


class _ShardPool:
    """Driver-side pool: one view per borrowed host over disjoint
    doc-shard subsets, plus the generic fan-out helpers every
    coordinator op is written in."""

    # matched values live on the hosts: no co-located-only agg extras,
    # and the quantile aggs default to their t-digest tier
    _co_located = False

    def __init__(
        self, index_dir: str, digest: str, num_doc_shards: int, num_actors: int
    ):
        if num_actors < 1:
            raise ValueError(f"num_actors must be >= 1, got {num_actors}")
        shards = list(range(num_doc_shards))
        chunks = [shards[i::num_actors] for i in range(num_actors)]
        chunks = [c for c in chunks if c]
        view = uuid.uuid4().hex
        self.actors = [
            _HostView(h, [view, index_dir, c, digest])
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


class DistributedSearcher(SharedOps, _ShardPool):
    """Driver-side handle: builds the actor pool over disjoint shard
    subsets and runs coordinator-reduce queries."""

    def __init__(self, index_dir: str, num_actors: int = 2):
        # digest BEFORE the manifest read: a commit landing in between
        # then fails the hosts' digest check instead of pairing these
        # stats with a newer index
        digest = _index_digest(index_dir)
        manifest = IndexManifest.load(index_dir)
        if manifest is None:
            raise FileNotFoundError(index_dir)
        super().__init__(index_dir, digest, manifest.num_doc_shards, num_actors)
        self.manifest = manifest
        self.n_docs = manifest.n_docs
        self.avgdl = manifest.avgdl
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

    def _gcfs(self, terms: list[str]) -> np.ndarray:
        """Global collection frequencies aligned to ``terms`` (Σ local
        cf, cached)."""
        return self._resolve(
            self._gcf, lambda m: self._all(IndexSearcher._gcfs, m), terms
        )

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


class MultiFieldDistributedSearcher(MultiFieldOps):
    """The multi-field pool: one ``DistributedSearcher`` per field index,
    all on the same hosts, so a multi-field shard kernel runs once per
    host over that host's per-field views (``run_views``); per-field
    dfs come from each field pool's cached ``_gdfs``."""

    # one ActorDiedError path and one merge for both pool shapes
    _call = _ShardPool._call
    _topk = _ShardPool._topk

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
        self.fields = [
            (f, DistributedSearcher(d, num_actors), b) for f, d, b in field_dirs
        ]
        pools = [p for _, p, _ in self.fields]
        # _borrow lends a prefix of the spawn order and the fields share
        # num_doc_shards, so host i holds the same doc-shard chunk of
        # every field index (doc_shard = doc_id % num_doc_shards)
        placement = [(a.host, a.key[2]) for a in pools[0].actors]
        assert all([(a.host, a.key[2]) for a in p.actors] == placement
                   for p in pools)
        self.actors = [
            _HostView(a.host, [p.actors[i].key for p in pools])
            for i, a in enumerate(pools[0].actors)
        ]

    def _all(self, fn, /, *args, **kwargs) -> list:
        """Run the multi-field shard op ``fn([view per field], ...)`` on
        every host; per-host results."""
        return self._call("run_views", fn, *args, **kwargs)

    def shutdown(self) -> None:
        for _, p, _ in self.fields:
            p.shutdown()
        self.actors = []
