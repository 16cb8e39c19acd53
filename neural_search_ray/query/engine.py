"""Query execution: index loading (warmup), BM25 / sparse-dot top-k search.

Reference restatement (SURVEY.md §3.2/§3.3): the query actor pool IS the
warmup mechanism — each ``IndexSearcher`` loads its partitions' posting +
doc-length files once in ``__init__`` (the Ray analogue of
NeuralSparseIndexShard.warmUp, sparse/NeuralSparseIndexShard.java:82-104).
Posting payloads stay as raw delta+varint buffers until first use, then
decode into a bounded LRU term cache (the analogue of
sparse/cache/LruTermCache.java:13 + CacheGatedPostingsReader).

Scoring parity: exact Lucene-default BM25 (query/bm25.py) with global
collection stats; ties (score desc, doc_id asc). ``search_bm25`` has one
exact kernel, ``_search_dense``: each term's postings carry precomputed
tf-norms and doc-space positions, so a term is one scatter-add into a
shard-sized accumulator — or, for a term in at least
``DENSE_TFN_THRESHOLD`` of the shard's docs, one contiguous add of its
cached dense tf-norm vector. Terms accumulate in sorted order, so scores
are bit-identical to the candidate scorer (``_score_candidates``) that
the other match-union operators use.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import BM25Config, QueryConfig
from ..index.codec import decoder_for
from ..index.manifest import DOCLEN_BUCKET, IndexManifest
from ..state.stats import stats
from . import aggs, suggest
from .bm25 import bm25_idf, bm25_term_idfs


def _binary_views(chunked) -> tuple[np.ndarray, memoryview]:
    """(offsets int64, data memoryview) for a binary column — row i's
    payload is data[offsets[i]:offsets[i+1]], zero-copy."""
    col = chunked.cast(pa.large_binary()).combine_chunks()
    off = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + len(col) + 1
    ]
    return off, memoryview(col.buffers()[2])


def topk_desc(doc_ids: np.ndarray, scores: np.ndarray, k: int):
    """Top-k by (score desc, doc_id asc) using argpartition (no full sort)."""
    n = doc_ids.size
    if n == 0:
        return doc_ids[:0], scores[:0]
    k = min(k, n)
    if n > 4 * k:
        part = np.argpartition(-scores, k - 1)[:k]
        kth = scores[part].min()
        # include every doc tied with the k-th score so tiebreak is exact
        pool = np.flatnonzero(scores >= kth)
    else:
        pool = np.arange(n)
    order = np.lexsort((doc_ids[pool], -scores[pool]))[:k]
    sel = pool[order]
    return doc_ids[sel], scores[sel]


class _LruTerms:
    """Bounded decoded-postings cache (term → tuple of ndarrays).

    Optionally RAM-accounted against a per-actor ``CircuitBreaker``
    (state/breaker.py), matching the reference's "cache writes blocked
    when breaker trips" (CircuitBreakerManager.java:37-52): a put the
    breaker refuses first evicts LRU entries (crediting their bytes)
    until the new value fits; only a value larger than the entire budget
    is skipped outright. Overwrites credit the replaced value's bytes."""

    def __init__(self, max_items: int = 100_000, breaker=None, label: str = "terms"):
        from ..state.breaker import NOOP_BREAKER

        self.max_items = max_items
        self.breaker = breaker if breaker is not None else NOOP_BREAKER
        self.label = label
        self._d: OrderedDict[str, tuple[np.ndarray, ...]] = OrderedDict()

    @staticmethod
    def _nbytes(value) -> int:
        if isinstance(value, tuple):
            return sum(getattr(a, "nbytes", 0) for a in value)
        return getattr(value, "nbytes", 0)

    def get(self, term):
        v = self._d.get(term)
        if v is not None:
            self._d.move_to_end(term)
        return v

    def put(self, term, value):
        old = self._d.pop(term, None)
        if old is not None:
            # overwrite: credit the old value's bytes first, or a racing
            # double-put (concurrent warmup + query) permanently inflates
            # used_bytes and trips the breaker spuriously
            self.breaker.release_bytes(self._nbytes(old))
        nb = self._nbytes(value)
        limit = getattr(self.breaker, "limit_bytes", None)
        admitted = True
        if limit is not None and nb * getattr(self.breaker, "overhead", 1.0) > limit:
            admitted = False  # value alone exceeds the budget: never evict for it
        else:
            # breaker full: evict LRU entries (crediting bytes) until the
            # new value fits — otherwise the cache freezes on whatever was
            # cached first and a workload shift decodes every query forever
            while not self.breaker.add_memory_usage(nb, self.label):
                if not self._d:
                    admitted = False  # other tenants hold the budget
                    break
                _, victim = self._d.popitem(last=False)
                self.breaker.release_bytes(self._nbytes(victim))
        if not admitted:
            # a refused OVERWRITE must not lose the previously cached
            # value — re-admit it (its bytes were just released, so this
            # only fails if another tenant grabbed them mid-flight)
            if old is not None and self.breaker.add_memory_usage(
                self._nbytes(old), self.label
            ):
                self._d[term] = old
            return
        self._d[term] = value
        if len(self._d) > self.max_items:
            _, lru = self._d.popitem(last=False)
            self.breaker.release_bytes(self._nbytes(lru))

    def clear(self):
        for old in self._d.values():
            self.breaker.release_bytes(self._nbytes(old))
        self._d.clear()


class IndexSearcher:
    """Holds raw postings + doc lengths for a set of doc shards.

    ``shards=None`` loads every shard; on a cluster each actor of the pool
    gets a disjoint shard subset and the driver merges per-shard top-k.
    """

    def __init__(
        self,
        index_dir: str,
        shards: list[int] | None = None,
        term_cache_items: int = 100_000,
        cache_limit_bytes: int | None = None,
        stats_override: tuple[int, float] | None = None,
    ):
        from ..index.deletes import load_tombstones

        manifest = IndexManifest.load(index_dir)
        if manifest is None:
            raise FileNotFoundError(f"no index manifest in {index_dir}")
        self.manifest = manifest
        self.index_dir = index_dir
        self._dv = None  # lazy doc-values reader (index/docvalues.py)
        # Tombstoned docs (index/deletes.py — the Lucene liveDocs model):
        # excluded from every result, but collection stats (n_docs, avgdl,
        # df, idf) stay STALE until purge_deletes rewrites the
        # segments — exactly Lucene's docFreq-counts-deleted semantics.
        # Snapshot at init: like an IndexReader, this searcher's view is
        # frozen; deletes issued later need a new searcher.
        self._deleted = load_tombstones(index_dir)
        self.n_deleted = int(self._deleted.size)
        self.n_docs = manifest.n_docs
        self.avgdl = manifest.avgdl
        # dfs_query_then_fetch stats override (multi-index search): the
        # coordinator resolves the CROSS-INDEX (N, avgdl) and hands them
        # in BEFORE any postings decode — tf-norms are precomputed at
        # decode against self.avgdl, so the override must be set at
        # construction, never after (query/multi.py).
        if stats_override is not None:
            self.n_docs = int(stats_override[0])
            self.avgdl = float(stats_override[1])
        self.bm25 = BM25Config(**manifest.bm25)
        self.shards = (
            set(shards) if shards is not None else set(range(manifest.num_doc_shards))
        )
        # per-actor RAM budget for decoded caches (the reference's sparse
        # circuit breaker, CircuitBreakerManager.java); None = unlimited,
        # bounded by LRU item count + object-store backpressure only.
        if cache_limit_bytes is not None:
            from ..state.breaker import CircuitBreaker

            self.breaker = CircuitBreaker(cache_limit_bytes)
        else:
            from ..state.breaker import NOOP_BREAKER

            self.breaker = NOOP_BREAKER
        self._cache = _LruTerms(term_cache_items, self.breaker, "postings")
        # term → dense tf-norm vector + presence mask (_dense_term)
        self._dense_cache = _LruTerms(4096, self.breaker, "dense_tfn")
        self._dense_refused: set[str] = set()  # breaker-refused dense terms
        self._decode = decoder_for(manifest.posting_codec)
        post_paths: list[str] = []
        dl_paths: list[str] = []
        for seg in manifest.complete_segments():
            for f in seg["files"]:
                if f["doc_shard"] not in self.shards:
                    continue
                p = os.path.join(index_dir, f["path"])
                (dl_paths if f["term_bucket"] == DOCLEN_BUCKET else post_paths).append(p)
        # One threaded Arrow dataset scan over every posting file (vs one
        # sequential pq.read_table per (shard, bucket) file — 2k+ tiny
        # reads dominated searcher warmup), then VECTORIZED term grouping:
        # posting buffers stay zero-copy memoryview slices of the Arrow
        # data buffer (to_pylist boxed every buffer into Python bytes).
        self._gid: dict[str, int] = {}
        self.has_positions = bool(getattr(manifest, "index_positions", False))
        n_rows = 0
        if post_paths:
            import pyarrow.dataset as pads

            cols = ["term", "df", "docs", "tfs"]
            if self.has_positions:
                cols.append("pos")
            tbl = pads.dataset(post_paths).to_table(columns=cols)
            n_rows = tbl.num_rows
        if n_rows:
            self._p_df = tbl["df"].to_numpy()  # int64 on disk
            # zero-copy binary views (large_binary → int64 offsets so a
            # combined shard column > 2 GiB can't overflow)
            self._docs_off, self._docs_data = _binary_views(tbl.column("docs"))
            self._tfs_off, self._tfs_data = _binary_views(tbl.column("tfs"))
            if self.has_positions:
                self._pos_off, self._pos_data = _binary_views(tbl.column("pos"))
            # group rows by term with Arrow C++ string sort (an object-dtype
            # np.argsort is 10x slower); row order within a term group is
            # irrelevant — multi-segment postings re-sort by docID at decode
            term_col = tbl["term"].combine_chunks()
            order_arr = pc.sort_indices(term_col)
            order = order_arr.to_numpy().astype(np.int64)
            st = term_col.take(order_arr)
            neq = pc.not_equal(st.slice(1), st.slice(0, n_rows - 1))
            bnd = np.flatnonzero(neq.to_numpy(zero_copy_only=False)) + 1
            starts = np.concatenate(([0], bnd))
            ends = np.concatenate((bnd, [n_rows]))
            self._row_order = order
            self._gstart = starts
            self._gend = ends
            self._gdf = np.add.reduceat(self._p_df[order], starts)
            group_terms = st.take(pa.array(starts)).to_pylist()
            self._gid = dict(zip(group_terms, range(starts.size)))
            # lexicographically sorted unique terms (Arrow sorts by UTF-8
            # bytes == code-point order), group id g == sorted rank g —
            # the term dictionary for prefix/wildcard expansion
            self._gterms = np.array(group_terms, dtype=object)
        else:
            self._p_df = np.empty(0, np.int64)
            self._docs_off = np.zeros(1, np.int64)
            self._docs_data = memoryview(b"")
            self._tfs_off = np.zeros(1, np.int64)
            self._tfs_data = memoryview(b"")
            self._row_order = np.empty(0, np.int64)
            self._gstart = np.empty(0, np.int64)
            self._gend = np.empty(0, np.int64)
            self._gdf = np.empty(0, np.int64)
            self._gterms = np.empty(0, dtype=object)
        if self.has_positions and not hasattr(self, "_pos_off"):
            self._pos_off = np.zeros(1, np.int64)
            self._pos_data = memoryview(b"")
        dl_docs: list[np.ndarray] = []
        dl_vals: list[np.ndarray] = []
        if dl_paths:
            import pyarrow.dataset as pads

            dt = pads.dataset(dl_paths).to_table(columns=["doc_id", "dl"])
            if dt.num_rows:
                dl_docs.append(dt["doc_id"].to_numpy())
                dl_vals.append(dt["dl"].to_numpy())
        if dl_docs:
            all_docs = np.concatenate(dl_docs)
            all_dls = np.concatenate(dl_vals)
            order = np.argsort(all_docs, kind="stable")
            self._dl_doc_ids = all_docs[order]
            dls = all_dls[order].astype(np.int64)
            if getattr(self.bm25, "norm_quantization", "none") == "norm4":
                from .bm25 import dl_quantize_norm4

                dls = dl_quantize_norm4(dls)
            self._dl = dls.astype(np.float64)
        else:
            self._dl_doc_ids = np.empty(0, np.int64)
            self._dl = np.empty(0, np.float64)

    # ---- doc-values (engine-side field lookup / filter evaluation) -------
    def doc_values(self):
        """Shard-local doc-values reader (lazy; requires
        index/docvalues.py build_doc_values to have run)."""
        if self._dv is None:
            from ..index.docvalues import DocValues

            self._dv = DocValues(self.index_dir, sorted(self.shards))
        return self._dv

    def accepted_ids(self, column: str, op: str, value) -> np.ndarray:
        """Sorted doc_ids of THIS searcher's shards matching the
        predicate — evaluated engine-side against the doc-values sidecar
        (the pipeline passes (column, op, value), never an O(N) array)."""
        return self.doc_values().accepted(column, op, value)

    def field_values(self, doc_ids: np.ndarray, column: str) -> pa.Array:
        """Per-hit field fetch from doc-values (collapse / by_field
        rerank — ByFieldRerankProcessor.java:72-160 analogue)."""
        return self.doc_values().lookup(doc_ids, column)

    def field_array(
        self, doc_ids: np.ndarray, column: str, dtype=np.int64
    ) -> np.ndarray:
        """``field_values`` as a numpy ``dtype`` array (exact int64 by
        default — the numeric agg and scoring input); the pseudo-column
        ``"_dl"`` is the BM25 doc length."""
        if column == "_dl":
            return self.doc_length(doc_ids).astype(dtype)
        return (
            self.field_values(doc_ids, column)
            .to_numpy(zero_copy_only=False)
            .astype(dtype)
        )

    # ---- stats -----------------------------------------------------------
    def local_df(self, term: str) -> int:
        g = self._gid.get(term)
        return int(self._gdf[g]) if g is not None else 0

    def doc_length(self, doc_ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._dl_doc_ids, doc_ids)
        return self._dl[pos]

    # ---- aggregation and dictionary ops (query/aggs.py, query/suggest.py)
    # Each is defined once and bound here and on DistributedSearcher:
    # this searcher is the one-shard context — ``_all`` evaluates a shard
    # partial on itself, ``_gdfs`` reads its own term dictionary, and
    # every matched value is in-process (``_co_located``).
    _co_located = True

    def _all(self, fn, /, *args, **kwargs) -> list:
        """The shard op ``fn`` over this searcher: its one partial."""
        return [fn(self, *args, **kwargs)]

    def _gdfs(self, terms: list[str]) -> np.ndarray:
        """dfs aligned to ``terms`` (0 for a term not in the dictionary),
        float64: term ids from the dictionary's hash index, then one
        vectorized gather."""
        ids = np.fromiter((self._gid.get(t, -1) for t in terms), np.int64,
                          len(terms))
        if not self._gdf.size:
            return np.zeros(ids.size, np.float64)
        return np.where(ids >= 0, self._gdf[ids], 0).astype(np.float64)

    facet_terms = aggs.facet_terms
    facet_top_hits = aggs.facet_top_hits
    agg_composite = aggs.agg_composite
    agg_stats = aggs.agg_stats
    agg_extended_stats = aggs.agg_extended_stats
    agg_sampler = aggs.agg_sampler
    agg_t_test = aggs.agg_t_test
    agg_matrix_stats = aggs.agg_matrix_stats
    agg_range = aggs.agg_range
    agg_filters = aggs.agg_filters
    agg_adjacency_matrix = aggs.agg_adjacency_matrix
    agg_cardinality = aggs.agg_cardinality
    agg_string_stats = aggs.agg_string_stats
    agg_scripted_metric = aggs.agg_scripted_metric
    terms_enum = suggest.terms_enum
    agg_rare_terms = suggest.agg_rare_terms
    suggest_term = suggest.suggest_term
    suggest_completion = suggest.suggest_completion
    suggest_phrase = suggest.suggest_phrase

    # ---- postings access (lazy decode + LRU) -----------------------------
    def postings_full(self, term: str):
        """(docs, tfs, pos, tfn): docIDs, float64 tfs, positions in the
        shard doc-length array, and the query-independent BM25 tf-norm
        tf/(tf + k1(1-b+b·dl/avgdl)) — precomputed ONCE at decode so every
        query just scales by idf (bitwise-identical to computing inline)."""
        hit = self._cache.get(term)
        if hit is not None:
            return hit
        stats.incr("postings_decoded")
        g = self._gid.get(term)
        empty = (
            np.empty(0, np.int64), np.empty(0, np.float64),
            np.empty(0, np.int64), np.empty(0, np.float64),
        )
        if g is None:
            return empty
        rows = self._row_order[self._gstart[g] : self._gend[g]]
        if rows.size == 1:
            r = int(rows[0])
            df = int(self._p_df[r])
            docs = np.cumsum(
                self._decode(self._docs_data[self._docs_off[r] : self._docs_off[r + 1]], df)
            )
            tfs = self._decode(
                self._tfs_data[self._tfs_off[r] : self._tfs_off[r + 1]], df
            ).astype(np.float64)
        else:
            # one row per segment: decode each, merge doc-sorted
            ds_, fs = [], []
            for r in rows:
                r = int(r)
                df = int(self._p_df[r])
                ds_.append(
                    np.cumsum(
                        self._decode(
                            self._docs_data[self._docs_off[r] : self._docs_off[r + 1]], df
                        )
                    )
                )
                fs.append(
                    self._decode(
                        self._tfs_data[self._tfs_off[r] : self._tfs_off[r + 1]], df
                    ).astype(np.float64)
                )
            docs = np.concatenate(ds_)
            tfs = np.concatenate(fs)
            order = np.argsort(docs, kind="stable")
            docs = docs[order]
            tfs = tfs[order]
        if self._deleted.size and docs.size:
            # liveDocs filter at decode time (cached, so the cost is paid
            # once per term): deleted docs vanish from every query path —
            # BM25 accumulator, candidate scorer, sparse dot — while the
            # stored df stays stale (Lucene docFreq semantics).
            pos_t = np.searchsorted(self._deleted, docs)
            pos_tc = np.minimum(pos_t, self._deleted.size - 1)
            live = self._deleted[pos_tc] != docs
            docs, tfs = docs[live], tfs[live]
        if self.manifest.weight_quantization == "u8":
            # quantized tier: stored "tf" is the FeatureField-encoded
            # frequency — decode back to the float32 weight grid
            # (ValueEncoder.java:34-42)
            from ..stages.quantize import feature_decode

            tfs = feature_decode(tfs.astype(np.int64)).astype(np.float64)
        pos = np.searchsorted(self._dl_doc_ids, docs)
        k1, b = self.bm25.k1, self.bm25.b
        norm = k1 * (1.0 - b + b * self._dl[pos] / self.avgdl)
        tfn = tfs / (tfs + norm)
        v = (docs, tfs, pos, tfn)
        self._cache.put(term, v)
        return v

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids int64 sorted, tfs float64) for a term; decoded once."""
        v = self.postings_full(term)
        return v[0], v[1]

    def postings_positions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(docs, tfs int64, pos_flat, tok_start) — docID-sorted postings
        with per-posting within-doc token positions (posting i's positions
        are ``pos_flat[tok_start[i] : tok_start[i] + tfs[i]]``, strictly
        increasing). Requires IndexConfig(index_positions=True); cached in
        the RAM-accounted postings LRU under a tuple key (term strings and
        tuples can't collide)."""
        if not self.has_positions:
            raise ValueError(
                "index was built without positions "
                "(IndexConfig.index_positions=True)"
            )
        key = ("pos", term)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        from ..index.codec import posting_gather, positions_undelta

        g = self._gid.get(term)
        empty = (
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.int64), np.empty(0, np.int64),
        )
        if g is None:
            return empty
        stats.incr("postings_decoded")
        rows = self._row_order[self._gstart[g] : self._gend[g]]
        ds_, fs, ps = [], [], []
        for r in rows:
            r = int(r)
            df = int(self._p_df[r])
            ds_.append(
                np.cumsum(
                    self._decode(
                        self._docs_data[self._docs_off[r] : self._docs_off[r + 1]], df
                    )
                )
            )
            tfs_r = self._decode(
                self._tfs_data[self._tfs_off[r] : self._tfs_off[r + 1]], df
            )
            fs.append(tfs_r)
            pdel = self._decode(
                self._pos_data[self._pos_off[r] : self._pos_off[r + 1]],
                int(tfs_r.sum()),
            )
            ps.append(positions_undelta(pdel, np.cumsum(tfs_r) - tfs_r, tfs_r))
        docs = np.concatenate(ds_)
        tfs = np.concatenate(fs)
        posf = np.concatenate(ps)
        if len(rows) > 1:
            order = np.argsort(docs, kind="stable")
            posf = posf[posting_gather(np.cumsum(tfs) - tfs, tfs, order)]
            docs, tfs = docs[order], tfs[order]
        if self._deleted.size and docs.size:
            pos_t = np.searchsorted(self._deleted, docs)
            pos_tc = np.minimum(pos_t, self._deleted.size - 1)
            kept = np.flatnonzero(self._deleted[pos_tc] != docs)
            posf = posf[posting_gather(np.cumsum(tfs) - tfs, tfs, kept)]
            docs, tfs = docs[kept], tfs[kept]
        v = (docs, tfs, posf, np.cumsum(tfs) - tfs)
        self._cache.put(key, v)
        return v

    def warm_terms(self, terms: list[str]) -> int:
        """Explicit cache warmup — the reference's warmup API
        (NeuralSparseIndexShard.warmUp, sparse/NeuralSparseIndexShard.java:82-104)
        restated over this searcher's caches: decode postings and precompute
        tf-norms for each distinct term, so the first real query runs at
        steady-state latency. Returns the number of terms touched."""
        n = 0
        n_docs = self._dl_doc_ids.size
        for t in dict.fromkeys(terms):
            docs = self.postings_full(t)[0]
            if docs.size and docs.size >= self.DENSE_TFN_THRESHOLD * n_docs:
                # stopword-grade term: pre-build the dense tf-norm vector
                # so the first query doesn't pay the one-time scatter
                self._dense_term(t)
            n += 1
        return n

    def clear_caches(self) -> dict:
        """The reference's clear-cache API (NeuralSparseIndexShard.clearCache):
        drop decoded postings + dense tf-norm caches, credit the breaker,
        and return the breaker snapshot (used_bytes should drop to ~0)."""
        self._cache.clear()
        self._dense_cache.clear()
        self._dense_refused.clear()
        return self.breaker.snapshot()

    # ---- search ----------------------------------------------------------
    def _score_candidates(
        self,
        cand: np.ndarray,
        terms: list[str],
        idfs: np.ndarray,
        query_weights: np.ndarray | None,
    ) -> np.ndarray:
        """Exact BM25 score of each candidate over the given terms
        (terms in sorted order → deterministic accumulation). Uses the
        precomputed per-posting tf-norms; same float ops as inline."""
        scores = np.zeros(cand.size, dtype=np.float64)
        for i, t in enumerate(terms):
            if idfs[i] == 0.0:
                continue
            docs, _, _, tfn = self.postings_full(t)
            if docs.size == 0:
                continue
            if docs.size >= cand.size:
                pos = np.searchsorted(docs, cand)
                pos_c = np.minimum(pos, docs.size - 1)
                m = docs[pos_c] == cand
                contrib = np.where(m, idfs[i] * tfn[pos_c], 0.0)
            else:
                pos = np.searchsorted(cand, docs)
                pos_c = np.minimum(pos, cand.size - 1)
                m = cand[pos_c] == docs
                contrib = np.zeros(cand.size, dtype=np.float64)
                contrib[pos_c[m]] = idfs[i] * tfn[m]
            if query_weights is not None:
                contrib = contrib * query_weights[i]
            scores += contrib
        return scores

    def _idfs(self, terms: list[str], global_dfs=None) -> np.ndarray:
        """Per-term BM25 idfs (0 for an absent term) from ``global_dfs``
        (aligned with ``terms``) when given, else from local dfs."""
        if global_dfs is None:
            global_dfs = [self.local_df(t) for t in terms]
        return bm25_term_idfs(global_dfs, self.n_docs)

    def search_bm25(
        self,
        terms: list[str],
        k: int = 10,
        *,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k BM25 over this searcher's shards (exact; one kernel,
        ``_search_dense``).

        ``global_dfs``: per-(sorted-unique)-term GLOBAL document
        frequencies, for shard-subset actors (driver supplies them so idf
        is identical across the pool). Defaults to local df.
        """
        terms = sorted(set(terms))
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        stats.incr("bm25_queries")
        return self._search_dense(terms, self._idfs(terms, global_dfs), k)

    def search_phrase(
        self,
        terms: list[str],
        k: int = 10,
        *,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact-adjacency phrase top-k — Lucene PhraseQuery (slop=0, the
        match_phrase default) under BM25Similarity, which the reference's
        hybrid query inherits for lexical sub-queries on text fields
        (SURVEY.md §2.9; neural-search wraps arbitrary Lucene queries):

        - a doc matches when the terms occur at consecutive positions;
          tf := the number of phrase occurrences (overlapping matches
          count, as in Lucene's ExactPhraseMatcher);
        - idf := SUM of the per-term idfs, one addend per query-term
          OCCURRENCE (BM25Similarity.idfExplain over the termStats
          array), so a repeated term contributes twice;
        - the same dl norm as term queries: score =
          idf_sum * tf / (tf + k1*(1-b+b*dl/avgdl)).

        Vectorized adjacency: term i's (doc, position-i) pairs become
        int64 keys doc*shift + (pos-i); the phrase-start set is the k-way
        sorted-unique intersection, one np.intersect1d per term.

        ``global_dfs``: per-term (in the given order) global document
        frequencies for shard-subset actors, as in search_bm25."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not terms:
            return empty
        posts = [self.postings_positions(t) for t in terms]
        if any(p[0].size == 0 for p in posts):
            return empty
        if global_dfs is None:
            dfs = np.asarray([self.local_df(t) for t in terms], dtype=np.float64)
        else:
            dfs = np.asarray(global_dfs, dtype=np.float64)
        idf_sum = float(bm25_idf(np.maximum(dfs, 1e-9), self.n_docs).sum())
        # shift > max adjusted position keeps (doc, pos) keys collision-free;
        # docs.max()*shift stays far inside int64 for any real corpus
        max_pos = max(int(p[2].max()) if p[2].size else 0 for p in posts)
        shift = np.int64(max_pos + 2)
        cur = None
        for i, (docs, tfs, posf, _tok) in enumerate(posts):
            keys = np.repeat(docs, tfs) * shift + (posf - i)
            if i:
                keys = keys[posf >= i]
            cur = (
                keys if cur is None
                else np.intersect1d(cur, keys, assume_unique=True)
            )
            if cur.size == 0:
                return empty
        docs_u, freq = np.unique(cur // shift, return_counts=True)
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf_sum * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def search_ids(
        self, ids: list[int], k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """ids query (Lucene IdsQueryBuilder / TermInSetQuery on _id):
        constant score 1.0 for each EXISTING doc id, duplicates
        collapsed, doc_id-ascending order, k cap. Missing ids are
        skipped silently (the reference's IDs-query semantics, same as
        search_pinned's membership rule)."""
        arr = np.unique(np.asarray(ids, dtype=np.int64))
        if arr.size == 0 or self._dl_doc_ids.size == 0:
            # empty request OR empty index (the size-1 clamp below
            # would otherwise index an empty array with -1)
            return np.empty(0, np.int64), np.empty(0, np.float64)
        pos = np.searchsorted(self._dl_doc_ids, arr)
        pos_c = np.minimum(pos, self._dl_doc_ids.size - 1)
        docs = arr[self._dl_doc_ids[pos_c] == arr][:k]
        return docs, np.ones(docs.size, dtype=np.float64)

    # ---- multi-term (term-dictionary expansion) queries -------------------
    def expand_prefix(self, prefix: str) -> list[str]:
        """Terms of this searcher's dictionary starting with ``prefix``
        (binary search over the sorted term array — never a full scan)."""
        return [str(t) for t in suggest._dict_slice(self, prefix)[0]]

    def _constant_score_union(
        self, terms: list[str], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Union the terms' postings, score 1.0, tiebreak doc_id asc —
        Lucene's CONSTANT_SCORE multi-term rewrite (MultiTermQuery
        .CONSTANT_SCORE_REWRITE, the PrefixQuery/WildcardQuery default)."""
        arrs = [self.postings(t)[0] for t in terms]
        arrs = [a for a in arrs if a.size]
        if not arrs:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        docs = np.unique(np.concatenate(arrs)) if len(arrs) > 1 else arrs[0]
        docs = docs[:k]
        return docs, np.ones(docs.size, dtype=np.float64)

    def search_prefix(
        self, prefix: str, k: int = 10, *, max_expansions: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Constant-score prefix query (Lucene PrefixQuery semantics).
        ``max_expansions`` mirrors the rewrite guard: raise rather than
        silently union an unbounded term range."""
        terms = self.expand_prefix(prefix)
        if max_expansions is not None and len(terms) > max_expansions:
            raise ValueError(
                f"prefix {prefix!r} expands to {len(terms)} terms "
                f"(> max_expansions={max_expansions})"
            )
        return self._constant_score_union(terms, k)

    def search_wildcard(self, pattern: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Constant-score wildcard query (Lucene WildcardQuery: ``*`` any
        run, ``?`` one char). The dictionary scan is narrowed to the
        pattern's fixed-prefix range before the per-term regex match."""
        import fnmatch
        import re

        fixed = re.split(r"[*?\[]", pattern, maxsplit=1)[0]
        rx = re.compile(fnmatch.translate(pattern))
        return self._constant_score_union(
            [t for t in self.expand_prefix(fixed) if rx.match(t)], k
        )

    def _ngram_term_map(self, n: int = 3) -> dict:
        """gram → sorted term-id array over the dictionary (built once
        per searcher — the ES `wildcard` field type's ngram acceleration
        structure, term-level). Grams are produced with ONE Arrow slice
        kernel per offset (offsets bounded by the longest dictionary
        term), then grouped with a single argsort — no per-term Python
        in the build."""
        cached = getattr(self, "_ngmap_cache", None)
        if cached is not None and cached[0] == n:
            return cached[1]
        terms_pa = pa.array([str(t) for t in self._gterms], type=pa.string())
        lens = pc.utf8_length(terms_pa).to_numpy(zero_copy_only=False)
        max_len = int(lens.max()) if lens.size else 0
        gram_parts, tid_parts = [], []
        for off in range(0, max(max_len - n + 1, 0)):
            keep = np.flatnonzero(lens >= off + n)
            if keep.size == 0:
                break
            gram_parts.append(
                pc.utf8_slice_codeunits(
                    terms_pa.take(pa.array(keep)), off, off + n
                )
            )
            tid_parts.append(keep)
        out: dict[str, np.ndarray] = {}
        if gram_parts:
            grams = np.asarray(
                pa.concat_arrays(gram_parts).to_pylist(), dtype=object
            )
            tids = np.concatenate(tid_parts)
            order = np.argsort(grams, kind="stable")
            grams, tids = grams[order], tids[order]
            uniq, starts = np.unique(grams, return_index=True)
            bounds = np.append(starts, grams.size)
            for i, g in enumerate(uniq):
                out[str(g)] = np.unique(tids[bounds[i] : bounds[i + 1]])
        self._ngmap_cache = (n, out)
        return out

    def search_infix_ngram(
        self, needle: str, k: int = 10, *, n: int = 3
    ) -> tuple[np.ndarray, np.ndarray]:
        """Infix (contains) wildcard accelerated by the dictionary n-gram
        map — the ES `wildcard` field type's query plan: the needle's
        covering grams intersect to a candidate term set (no dictionary
        scan), each candidate is VERIFIED by a real substring check
        (gram conjunction over-approximates), then the verified terms
        take the standard CONSTANT_SCORE multi-term union. Results are
        identical to search_wildcard("*needle*"); needles shorter than
        the gram width fall back to that scan path."""
        if len(needle) < n:
            return self.search_wildcard(f"*{needle}*", k)
        m = self._ngram_term_map(n)
        cand: np.ndarray | None = None
        for i in range(len(needle) - n + 1):
            tids = m.get(needle[i : i + n])
            if tids is None or tids.size == 0:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            cand = (
                tids
                if cand is None
                else np.intersect1d(cand, tids, assume_unique=True)
            )
            if cand.size == 0:
                return np.empty(0, np.int64), np.empty(0, np.float64)
        terms = [
            str(self._gterms[t]) for t in cand if needle in str(self._gterms[t])
        ]
        return self._constant_score_union(terms, k)

    def search_regexp(self, pattern: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Constant-score regexp query (Lucene RegexpQuery under the
        CONSTANT_SCORE rewrite): dictionary terms FULLY matching the
        pattern, narrowed to the pattern's leading-literal prefix range
        before the per-term match (the FST-intersection analogue)."""
        import re

        m = re.match(r"[^.?*+(){}\[\]|\\^$]*", pattern)
        fixed = m.group(0) if m else ""
        rx = re.compile(pattern)
        return self._constant_score_union(
            [t for t in self.expand_prefix(fixed) if rx.fullmatch(t)], k
        )

    def expand_fuzzy(
        self, term: str, max_edits: int = 2, prefix_length: int = 0
    ) -> list[str]:
        """Dictionary terms within Levenshtein distance ``max_edits`` of
        ``term`` that share its first ``prefix_length`` characters — the
        Lucene FuzzyQuery term enumeration (LevenshteinAutomata walked
        over the FST), restated as a prefix-range + length prefilter +
        one BANDED DP vectorized across all candidate terms (numpy
        unicode arrays are UTF-32, so the codepoint matrix is a zero-copy
        view; the DP inner loops are len(term) x maxlen ~ few hundred
        O(V) vector ops, never a per-term Python loop).

        Plain Levenshtein (no transpositions): Lucene's default counts a
        transposition as ONE edit (damerau); we use the classic metric so
        the DuckDB ``levenshtein()`` oracle is exact. Documented
        deviation: a transposed pair costs 2 here vs 1 in Lucene."""
        if max_edits < 0:
            raise ValueError("max_edits must be >= 0")
        if prefix_length > 0:
            cands = self.expand_prefix(term[:prefix_length])
        else:
            cands = [str(t) for t in self._gterms]
        qlen = len(term)
        cands = [t for t in cands if abs(len(t) - qlen) <= max_edits]
        if not cands or qlen == 0:
            return [t for t in cands if len(t) <= max_edits]
        maxlen = max(len(t) for t in cands)
        n = len(cands)
        tm = (
            np.array(cands, dtype=f"U{maxlen}")
            .view(np.uint32)
            .reshape(n, maxlen)
            .astype(np.int64)
        )  # 0 = padding (no real codepoint)
        lens = np.count_nonzero(tm, axis=1)
        q = (
            np.array([term], dtype=f"U{qlen}")
            .view(np.uint32)
            .astype(np.int64)
        )
        prev = np.broadcast_to(
            np.arange(maxlen + 1, dtype=np.int64), (n, maxlen + 1)
        ).copy()
        cur = np.empty_like(prev)
        for i in range(1, qlen + 1):
            cur[:, 0] = i
            for j in range(1, maxlen + 1):
                cost = (tm[:, j - 1] != q[i - 1]).astype(np.int64)
                np.minimum(prev[:, j] + 1, prev[:, j - 1] + cost, out=cur[:, j])
                np.minimum(cur[:, j], cur[:, j - 1] + 1, out=cur[:, j])
            prev, cur = cur, prev
        dist = prev[np.arange(n), lens]
        return [cands[i] for i in np.flatnonzero(dist <= max_edits)]

    def search_fuzzy(
        self,
        term: str,
        k: int = 10,
        *,
        max_edits: int = 2,
        prefix_length: int = 0,
        max_expansions: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Constant-score fuzzy query: union of the expand_fuzzy terms'
        postings (Lucene FuzzyQuery enumeration; constant-score rewrite
        like search_prefix rather than Lucene's blended-freq default, so
        scores are oracle-exact). ``max_expansions`` raises rather than
        silently truncating."""
        terms = self.expand_fuzzy(term, max_edits, prefix_length)
        if max_expansions is not None and len(terms) > max_expansions:
            raise ValueError(
                f"fuzzy {term!r} expands to {len(terms)} terms "
                f"(> max_expansions={max_expansions})"
            )
        return self._constant_score_union(terms, k)

    def search_bool(
        self,
        must: list[str] | None = None,
        should: list[str] | None = None,
        must_not: list[str] | None = None,
        k: int = 10,
        *,
        filter_terms: list[str] | None = None,
        minimum_should_match: int | None = None,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Boolean term query — Lucene BooleanQuery under BM25Similarity:

        - ``must``: every term required; contributes to the score;
        - ``filter_terms``: required, NOT scored (FILTER occur);
        - ``should``: optional; each matching clause adds its BM25 score;
          ``minimum_should_match`` required matches (Lucene default: 0
          when must/filter clauses exist, else 1);
        - ``must_not``: excludes docs; never scored.

        Score = sum of matching scoring-clause BM25 scores; a term listed
        in both must and should contributes once per clause (Lucene
        scores each clause independently). Docs matched only by
        filter/must_not-survival score 0.0 and tiebreak doc_id asc.
        A query with no must/filter/should clause is rejected (pure
        negation is unbounded, as in Lucene)."""
        must = list(must or [])
        should = list(should or [])
        must_not = list(must_not or [])
        filter_terms = list(filter_terms or [])
        required = sorted(set(must) | set(filter_terms))
        if not required and not should:
            raise ValueError(
                "bool query needs at least one must/filter/should clause"
            )
        msm = minimum_should_match
        if msm is None:
            msm = 0 if required else 1
        if not required:
            msm = max(msm, 1)  # should-only: at least one must match
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))

        cand: np.ndarray | None = None
        for t in required:
            docs = self.postings(t)[0]
            if docs.size == 0:
                return empty
            cand = (
                docs
                if cand is None
                else np.intersect1d(cand, docs, assume_unique=True)
            )
            if cand.size == 0:
                return empty
        should_set = sorted(set(should))
        if should_set and msm > 0:
            if cand is None:
                parts = [
                    d for d in (self.postings(t)[0] for t in should_set)
                    if d.size
                ]
                if not parts:
                    return empty
                u, c = np.unique(np.concatenate(parts), return_counts=True)
                cand = u[c >= msm]
            else:
                cnt = np.zeros(cand.size, dtype=np.int64)
                for t in should_set:
                    docs = self.postings(t)[0]
                    if docs.size == 0:
                        continue
                    pos = np.searchsorted(docs, cand)
                    pos_c = np.minimum(pos, docs.size - 1)
                    cnt += docs[pos_c] == cand
                cand = cand[cnt >= msm]
            if cand.size == 0:
                return empty
        for t in sorted(set(must_not)):
            docs = self.postings(t)[0]
            if docs.size == 0 or cand.size == 0:
                continue
            pos = np.searchsorted(docs, cand)
            pos_c = np.minimum(pos, docs.size - 1)
            cand = cand[docs[pos_c] != cand]
        if cand.size == 0:
            return empty
        # scoring multiset: must + should, one contribution per clause
        # occurrence (weights carry the multiplicity)
        from collections import Counter

        mult = Counter(must) + Counter(should)
        sterms = sorted(mult)
        if sterms:
            weights = np.asarray([mult[t] for t in sterms], dtype=np.float64)
            # global_dfs: per-(sorted-distinct-scoring-term) GLOBAL doc
            # frequencies for shard-subset actors, as in search_bm25
            idfs = self._idfs(sterms, global_dfs)
            scores = self._score_candidates(cand, sterms, idfs, weights)
        else:  # filter-only query: constant 0.0, doc_id-ordered
            scores = np.zeros(cand.size, dtype=np.float64)
        return topk_desc(cand, scores, k)

    def highlight_best_window(
        self,
        terms: list[str],
        doc_ids: np.ndarray,
        window: int = 8,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positional plain highlighter — the Lucene UnifiedHighlighter
        best-passage selection restated over the .prx-style positional
        postings (no re-tokenization, no stored text): for each given
        doc, the window of ``window`` consecutive token positions
        holding the MOST query-term occurrences; ties break to the
        smallest start. A best window always starts at a matched
        position, so candidates = the doc's matched positions and the
        whole batch folds into ONE searchsorted over the (doc, pos)
        key space. Returns (doc_ids, win_start, n_hits) for every
        requested doc with at least one matched position. Shard-safe:
        positions are shard-local, so shard partials concatenate."""
        sterms = sorted(set(terms))
        want = np.unique(np.asarray(doc_ids, dtype=np.int64))
        e = np.empty(0, np.int64)
        if want.size == 0 or not sterms:
            return e, e, e
        from ..index.codec import posting_gather

        d_parts, p_parts = [], []
        for t in sterms:
            docs, tfs, pos_flat, tok_start = self.postings_positions(t)
            if docs.size == 0:
                continue
            idx = np.searchsorted(docs, want)
            idx_c = np.minimum(idx, docs.size - 1)
            sel = np.flatnonzero(docs[idx_c] == want)
            rows = idx_c[sel]
            if rows.size == 0:
                continue
            gp = pos_flat[posting_gather(tok_start, tfs, rows)]
            d_parts.append(np.repeat(docs[rows], tfs[rows]))
            p_parts.append(gp)
        if not d_parts:
            return e, e, e
        d = np.concatenate(d_parts)
        p = np.concatenate(p_parts)
        big = np.int64(1) << np.int64(32)  # positions are int32-bounded
        key = d * big + p
        key.sort()
        d_s, p_s = key // big, key % big
        hi = np.searchsorted(key, d_s * big + p_s + window)
        cnt = hi - np.arange(key.size)
        order = np.lexsort((p_s, -cnt, d_s))
        first = np.concatenate(
            ([0], np.flatnonzero(np.diff(d_s[order]) != 0) + 1)
        )
        best = order[first]
        return d_s[best], p_s[best], cnt[best]

    def search_phrase_prefix(
        self,
        terms: list[str],
        k: int = 10,
        *,
        max_expansions: int = 50,
        expansions: list[str] | None = None,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """match_phrase_prefix — Lucene MultiPhraseQuery with the LAST
        position expanded to the first ``max_expansions`` dictionary
        terms (in term order) sharing the prefix, the ES/OpenSearch
        match_phrase_prefix semantics:

        - tf := phrase occurrences where positions 0..n-2 match the fixed
          terms exactly and position n-1 matches ANY expansion;
        - idf := sum over the whole enumerated term array (each fixed
          term once per occurrence + each expansion term once), the
          MultiPhraseWeight/allTermStats behavior;
        - same dl norm as search_phrase. Requires a positional index.

        ``expansions``: a coordinator-resolved expansion list overriding
        the local dictionary walk (shard-subset actors must all score
        the SAME capped term array — per-shard expansion is the known
        ES match_phrase_prefix inconsistency we avoid); ``global_dfs``:
        global doc frequencies aligned to fixed + expansions order."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not terms:
            return empty
        fixed, prefix = terms[:-1], terms[-1]
        if expansions is None:
            expansions = self.expand_prefix(prefix)[:max_expansions]
        if not expansions:
            return empty
        n = len(terms)
        posts = [self.postings_positions(t) for t in fixed]
        if any(p[0].size == 0 for p in posts):
            return empty
        eposts = [self.postings_positions(t) for t in expansions]
        if global_dfs is None:
            dfs = np.asarray(
                [self.local_df(t) for t in fixed + expansions],
                dtype=np.float64,
            )
        else:
            dfs = np.asarray(global_dfs, dtype=np.float64)
        idf_sum = float(bm25_idf(np.maximum(dfs, 1e-9), self.n_docs).sum())
        max_pos = max(
            [int(p[2].max()) if p[2].size else 0 for p in posts + eposts]
        )
        shift = np.int64(max_pos + 2)
        cur = None
        for i, (docs, tfs, posf, _tok) in enumerate(posts):
            keys = np.repeat(docs, tfs) * shift + (posf - i)
            if i:
                keys = keys[posf >= i]
            cur = (
                keys
                if cur is None
                else np.intersect1d(cur, keys, assume_unique=True)
            )
            if cur.size == 0:
                return empty
        # virtual last slot: DEDUPED union of the expansions' (doc, pos)
        # keys (two expansions at one position are a single match slot)
        lparts = []
        for docs, tfs, posf, _tok in eposts:
            if docs.size == 0:
                continue
            keys = np.repeat(docs, tfs) * shift + (posf - (n - 1))
            lparts.append(keys[posf >= n - 1] if n > 1 else keys)
        if not lparts:
            return empty
        last = np.unique(np.concatenate(lparts))
        cur = (
            last
            if cur is None
            else np.intersect1d(cur, last, assume_unique=True)
        )
        if cur.size == 0:
            return empty
        docs_u, freq = np.unique(cur // shift, return_counts=True)
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf_sum * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def agg_terms_stats(
        self, terms: list[str], bucket_field: str, metric_field: str
    ) -> list[dict]:
        """terms bucket agg with a stats SUB-aggregation (the standard
        OpenSearch bucket+metric composition: terms { stats }): one row
        per bucket value over the boolean-OR match set, carrying count /
        min / max / sum / avg of the metric field. Vectorized: one
        np.unique inverse + bincount / minimum.at per bucket set; shard
        partials are (bucket, count, min, max, sum) maps merged by key —
        the same distributive shape as agg_stats. Buckets ordered by
        (count desc, key asc), the terms-agg default."""
        docs = self._match_union(sorted(set(terms)))
        if docs.size == 0:
            return []
        keys = self.field_values(docs, bucket_field).to_pylist()
        vals = self.field_array(docs, metric_field)
        uniq, inv = np.unique(np.asarray(keys, dtype=object), return_inverse=True)
        n = uniq.size
        counts = np.bincount(inv, minlength=n)
        sums = np.bincount(inv, weights=vals, minlength=n).astype(np.int64)
        mins = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        maxs = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(mins, inv, vals)
        np.maximum.at(maxs, inv, vals)
        order = np.lexsort((uniq, -counts))
        return [
            {
                "key": uniq[i],
                "doc_count": int(counts[i]),
                "min": int(mins[i]),
                "max": int(maxs[i]),
                "sum": int(sums[i]),
                "avg": int(sums[i]) / int(counts[i]),
            }
            for i in order
        ]

    def agg_multi_terms(
        self, terms: list[str], fields: list[str], size: int | None = 10
    ) -> tuple[list[tuple], np.ndarray]:
        """multi_terms aggregation (OpenSearch multi_terms agg):
        composite buckets over 2+ doc-values fields with doc counts,
        ordered (count desc, key tuple asc), keys returned as tuples of
        strings — the composite agg's partial (one Arrow group-by over
        the field tuple) re-ordered by count. Shard partials are full
        maps bounded by the PRODUCT of field cardinalities (the agg's
        documented cost), merged by bucket-key sum."""
        if len(fields) < 2:
            raise ValueError("multi_terms needs >= 2 fields")
        keys, counts = aggs._composite_partial(
            self, terms, [("terms", f) for f in fields]
        )
        cols = [np.asarray(c, dtype=object) for c in zip(*keys)]
        order = np.lexsort((*reversed(cols), -counts))[:size]
        return [tuple(str(c[i]) for c in cols) for i in order], counts[order]

    def agg_weighted_avg(
        self, terms: list[str], value_field: str, weight_field: str = "_dl"
    ) -> dict:
        """weighted_avg aggregation (OpenSearch weighted_avg agg):
        Σ(value·weight)/Σweight over the match set. ``weight_field``
        "_dl" uses the BM25 doc length (a weight every index already
        holds); any numeric doc-values field works. Integer partial
        sums divide ONCE so the SQL oracle matches bitwise; shard
        partials (Σvw, Σw) merge associatively."""
        docs = self._match_union(sorted(set(terms)))
        if docs.size == 0:
            return {"value": None, "sum_vw": 0, "sum_w": 0}
        vals = self.field_array(docs, value_field)
        w = self.field_array(docs, weight_field)
        sum_vw = int((vals * w).sum())
        sum_w = int(w.sum())
        return {
            "value": (sum_vw / sum_w) if sum_w else None,
            "sum_vw": sum_vw,
            "sum_w": sum_w,
        }

    def agg_diversified_sampler(
        self,
        terms: list[str],
        diversify_field: str,
        agg_field: str,
        *,
        shard_size: int = 20,
        max_docs_per_value: int = 2,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[list, np.ndarray]:
        """diversified_sampler agg + nested terms agg (OpenSearch
        DiversifiedAggregator over BestDocsDeferringCollector): walk the
        match set best-first by (round6 BM25 desc, doc_id asc), skip
        docs whose ``diversify_field`` value already holds
        ``max_docs_per_value`` picks, stop at ``shard_size`` docs, then
        count the sample by ``agg_field`` (count desc, value asc).
        Greedy-with-quota over a fixed order == filter rank-within-value
        <= quota then take the top ``shard_size`` — both sides computed
        that way (vectorized cumcount; no Python doc loop). Scores are
        rounded to 6dp BEFORE ranking so the walk order is
        cross-engine stable."""
        docs, scores = self._bm25_union_scores(terms, global_dfs)
        if docs.size == 0:
            return [], np.empty(0, np.int64)
        f = 1e6
        scores = np.floor(scores * f + 0.5) / f  # scores are >= 0
        order = np.lexsort((docs, -scores))
        docs_o = docs[order]
        dv = np.asarray(
            self.field_values(docs_o, diversify_field).to_pylist(),
            dtype=object,
        )
        _, inv = np.unique(dv, return_inverse=True)
        # occurrence index of each position within its value, in walk
        # order: stable argsort by code keeps walk order inside groups
        grp = np.argsort(inv, kind="stable")
        g = inv[grp]
        occ = np.empty(inv.size, dtype=np.int64)
        occ[grp] = np.arange(g.size) - np.searchsorted(g, g)
        keep = np.flatnonzero(occ < max_docs_per_value)[:shard_size]
        return aggs._top_buckets(
            *aggs._value_counts(self, docs_o[keep], agg_field)
        )

    def agg_top_metrics(
        self,
        terms: list[str],
        sort_field: str,
        metric_field: str = "_dl",
        size: int = 3,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """top_metrics aggregation (OpenSearch top_metrics agg): the
        metric field's values at the top ``size`` docs of the match set
        ordered by (sort_field desc, doc_id asc — the deterministic tie
        rule). Returns (doc_ids, sort_values, metric_values). Shard
        partials are each shard's own top ``size`` rows; the
        coordinator merge is a size-bounded re-sort — exact because a
        doc's sort value is shard-local."""
        docs = self._match_union(sorted(set(terms)))
        if docs.size == 0:
            e = np.empty(0, np.int64)
            return e, e, e
        sv = self.field_array(docs, sort_field)
        sel = np.lexsort((docs, -sv))[:size]
        top = docs[sel]
        mv = self.field_array(top, metric_field)
        return top, sv[sel], mv

    def search_terms_set(
        self,
        terms: list[str],
        minimum_should_match: int = 2,
        k: int = 10,
        *,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """terms_set query (Lucene CoveringQuery — what OpenSearch
        compiles terms_set's minimum_should_match_script to): docs
        matching at least ``minimum_should_match`` DISTINCT query
        terms, scored as the BM25 sum over the doc's matched terms
        (identical to a bool should with msm). Postings doc lists are
        unique per term, so one concatenate + unique-with-counts gives
        the distinct-match count; candidates below msm never reach the
        scorer. Per-doc counts are shard-complete (docs never span
        shards), so shard-subset actors run this verbatim with
        coordinator-supplied global dfs."""
        sterms = sorted(set(terms))
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not sterms or minimum_should_match < 1:
            return empty
        posts = [self.postings(t)[0] for t in sterms]
        posts = [d for d in posts if d.size]
        if len(posts) < minimum_should_match:
            return empty
        alldocs = np.concatenate(posts) if len(posts) > 1 else posts[0]
        docs, cnts = np.unique(alldocs, return_counts=True)
        cand = docs[cnts >= minimum_should_match]
        if cand.size == 0:
            return empty
        idfs = self._idfs(sterms, global_dfs)
        scores = self._score_candidates(cand, sterms, idfs, None)
        return topk_desc(cand, scores, k)

    def search_function_score(
        self,
        terms: list[str],
        field: str,
        k: int = 10,
        *,
        factor: float = 1.0,
        modifier: str = "ln1p",
        weight: float = 1.0,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """function_score with field_value_factor (OpenSearch
        FieldValueFactorFunction): final = bm25 * weight *
        modifier(factor * field_value). The factor re-orders docs, so
        the boost multiplies the FULL union's exact scores before any
        truncation (top-k pruning on the raw subquery would be
        unsound — same rule as dis_max/boosting). ``ln1p`` is computed
        as ln(1 + x) literally (NOT numpy log1p) so a SQL oracle's
        ln(1 + x) matches float-for-float."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        docs, scores = self._bm25_union_scores(terms, global_dfs)
        if docs.size == 0:
            return empty
        v = self.field_array(docs, field, np.float64)
        x = factor * v
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
        return topk_desc(docs, scores * (weight * boost), k)

    def agg_histogram(
        self, terms: list[str], field: str, interval: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Histogram aggregation (OpenSearch histogram agg) over the
        boolean-OR match set: fixed-interval buckets
        (floor(value/interval)*interval), (bucket asc, count) — exact,
        shard partials merge by bucket-key sum."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        docs = self._match_union(terms)
        if docs.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        vals = self.field_array(docs, field)
        buckets = (vals // interval) * interval
        u, c = np.unique(buckets, return_counts=True)
        return u, c.astype(np.int64)

    def search_range(
        self, field: str, lo, hi, k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Numeric range query over doc-values (Lucene point/range query
        under the CONSTANT_SCORE rewrite): docs with lo <= field < hi,
        score 1.0, doc_id asc — evaluated as two cached doc-values
        predicate scans intersected shard-locally."""
        dv = self.doc_values()
        ge = dv.accepted(field, ">=", lo)
        lt = dv.accepted(field, "<", hi)
        docs = np.intersect1d(ge, lt, assume_unique=True)[:k]
        return docs, np.ones(docs.size, dtype=np.float64)

    def _match_union(self, terms: list[str]) -> np.ndarray:
        """Sorted doc_ids of the boolean-OR match set (the agg scope)."""
        arrs = [self.postings(t)[0] for t in sorted(set(terms))]
        arrs = [a for a in arrs if a.size]
        if not arrs:
            return np.empty(0, np.int64)
        return np.unique(np.concatenate(arrs)) if len(arrs) > 1 else arrs[0]

    def match_docs(self, terms: list[str]) -> np.ndarray:
        """Public boolean-OR match set — the _delete_by_query /
        _update_by_query selection surface (those APIs resolve a query
        to its matching doc ids, then act on the ids)."""
        return self._match_union(terms)

    def search_script_score(
        self,
        terms: list[str],
        script,
        k: int = 10,
        *,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """script_score query (OpenSearch ScriptScoreQuery): wrap the
        inner term query and REPLACE each hit's score with a registered
        score script (query/scripts.py ScoreScript — the compiled-
        Painless analogue) evaluated over the doc's doc-values and the
        inner ``_score``. The script reorders docs arbitrarily, so it
        runs over the FULL union's exact BM25 scores before any
        truncation (same soundness rule as function_score/dis_max)."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        docs, scores = self._bm25_union_scores(terms, global_dfs)
        if docs.size == 0:
            return empty
        cols = {
            c: self.field_values(docs, c).to_numpy(zero_copy_only=False)
            for c in script.columns
        }
        return topk_desc(docs, script.score(cols, scores), k)

    def search_span_first(
        self,
        term: str,
        end: int,
        k: int = 10,
        *,
        global_df: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """span_first query (Lucene SpanFirstQuery): match only term
        occurrences whose span ends within the first ``end`` positions —
        a term span at 0-based position p has end p+1, so the condition
        is p < end (the match-in-the-opening-window primitive, e.g.
        "term appears in the lead"). tf = count of qualifying positions;
        scored like a single-term BM25 with that restricted tf.
        Vectorized: one boolean mask over the flat positions array +
        np.add.reduceat per posting slice. Requires positions."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if end <= 0:
            return empty
        docs, tfs, posf, tok_start = self.postings_positions(term)
        if docs.size == 0:
            return empty
        cnt = np.add.reduceat((posf < end).astype(np.int64), tok_start)
        keep = cnt > 0
        docs, f = docs[keep], cnt[keep].astype(np.float64)
        if docs.size == 0:
            return empty
        df = float(self.local_df(term)) if global_df is None else float(global_df)
        idf = float(bm25_idf(np.asarray([max(df, 1e-9)]), self.n_docs)[0])
        dl = self.doc_length(docs)
        k1, b = self.bm25.k1, self.bm25.b
        scores = idf * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs, scores, k)

    def search_intervals(
        self,
        terms: list[str],
        k: int = 10,
        *,
        max_gaps: int = 0,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
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
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        sterms = sorted(set(terms))
        n = len(sterms)
        if n < 2:
            raise ValueError("intervals needs >= 2 distinct terms")
        if max_gaps < 0:
            raise ValueError("max_gaps must be >= 0")
        posts = [self.postings_positions(t) for t in sterms]
        if any(p[0].size == 0 for p in posts):
            return empty
        if global_dfs is None:
            dfs = np.asarray(
                [self.local_df(t) for t in sterms], dtype=np.float64
            )
        else:
            dfs = np.asarray(global_dfs, dtype=np.float64)
        idf_sum = float(bm25_idf(np.maximum(dfs, 1e-9), self.n_docs).sum())
        max_pos = max(int(p[2].max()) if p[2].size else 0 for p in posts)
        shift = np.int64(max_pos + 2)
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
            return empty
        # ends_v ascending ⇒ np.unique(return_index) picks the smallest
        # end per distinct start = the minimal windows
        u_s, first = np.unique(s_v, return_index=True)
        min_ends = ends_v[first]
        w_ok = (min_ends - u_s) <= (n - 1 + max_gaps)
        hits = min_ends[w_ok]
        if hits.size == 0:
            return empty
        docs_u, freq = np.unique(hits // shift, return_counts=True)
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf_sum * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def total_tokens(self) -> int:
        """Collection token count (Σ doc length over complete segments)
        — the LM similarities' collection-model denominator. Stale
        until purge like n_docs/avgdl, the liveDocs stats model."""
        return self.manifest.total_tokens

    def collection_freq(self, term: str) -> int:
        """Collection frequency (Σ tf over all docs) — computed from
        the decoded postings (the term dict stores df, not cf; postings
        are LRU-cached so repeat queries pay nothing)."""
        _, tfs = self.postings(term)
        return int(tfs.sum())

    def search_lm(
        self,
        terms: list[str],
        k: int = 10,
        *,
        similarity: str = "dirichlet",
        mu: float = 2000.0,
        lam: float = 0.5,
        global_stats: tuple[np.ndarray, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
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
          log2(1 + (tf - e)/sqrt(e)) — terms occurring no more often
          than chance score nothing

        summed over the query's sorted-unique terms.
        ``global_stats``: optional (cfs aligned to sorted-unique terms,
        total_tokens) for shard-subset actors — cf/total are collection
        stats, so distributed scoring needs the coordinator's globals,
        exactly the global-df protocol."""
        if similarity not in ("dirichlet", "jelinek_mercer", "dfi"):
            raise ValueError(f"unknown similarity: {similarity}")
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        sterms = sorted(set(terms))
        if not sterms:
            return empty
        if global_stats is None:
            cfs = np.asarray(
                [self.collection_freq(t) for t in sterms], dtype=np.float64
            )
            total = float(self.total_tokens())
        else:
            cfs = np.asarray(global_stats[0], dtype=np.float64)
            total = float(global_stats[1])
        cand = self._match_union(sterms)
        if cand.size == 0 or total <= 0:
            return empty
        dl = self.doc_length(cand)
        scores = np.zeros(cand.size, dtype=np.float64)
        for t, cf in zip(sterms, cfs):
            if cf <= 0:
                continue
            docs, tfs = self.postings(t)
            if docs.size == 0:
                continue
            p_c = cf / total
            idx = np.searchsorted(cand, docs)
            if similarity == "dirichlet":
                s = np.log(1.0 + tfs / (mu * p_c)) + np.log(
                    mu / (dl[idx] + mu)
                )
                s = np.maximum(0.0, s)
            elif similarity == "dfi":
                e = cf * dl[idx] / total
                s = np.zeros(tfs.size, dtype=np.float64)
                m = tfs > e  # masked: the dead branch would log2(<=0)
                s[m] = np.log2(1.0 + (tfs[m] - e[m]) / np.sqrt(e[m]))
            else:
                s = np.log(
                    1.0 + ((1.0 - lam) * tfs / dl[idx]) / (lam * p_c)
                )
            scores[idx] += s
        return topk_desc(cand, scores, k)

    def search_span_not(
        self,
        include: str,
        exclude: str,
        k: int = 10,
        *,
        pre: int = 0,
        post: int = 0,
        global_df: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """span_not query (Lucene SpanNotQuery): occurrences of
        ``include`` that have NO ``exclude`` occurrence within
        [p - pre, p + post]; tf = surviving count, scored as
        single-term BM25 with that restricted tf and the include
        term's df (stored df, a valid upper bound — the Lucene
        contract). Vectorized: one searchsorted of include positions
        into the exclude (doc,pos) keyspace per window edge."""
        if pre < 0 or post < 0:
            raise ValueError("pre and post must be >= 0")
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        docs_i, tfs_i, posf_i, tok_i = self.postings_positions(include)
        if docs_i.size == 0:
            return empty
        docs_e, tfs_e, posf_e, tok_e = self.postings_positions(exclude)
        max_pos = int(
            max(
                posf_i.max() if posf_i.size else 0,
                posf_e.max() if posf_e.size else 0,
            )
        )
        shift = np.int64(max_pos + pre + post + 2)
        keys_i = np.repeat(docs_i, tfs_i) * shift + posf_i
        if docs_e.size:
            keys_e = np.repeat(docs_e, tfs_e) * shift + posf_e
            # an exclude at q kills include at p iff p-pre <= q <= p+post
            lo = np.searchsorted(keys_e, keys_i - pre)
            hi = np.searchsorted(keys_e, keys_i + post, side="right")
            survive = hi == lo
        else:
            survive = np.ones(keys_i.size, dtype=bool)
        kept = keys_i[survive]
        if kept.size == 0:
            return empty
        docs_u, freq = np.unique(kept // shift, return_counts=True)
        df = (
            float(self.local_df(include))
            if global_df is None
            else float(global_df)
        )
        idf = float(bm25_idf(np.asarray([max(df, 1e-9)]), self.n_docs)[0])
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def _float_values(self, terms: list[str], field: str) -> np.ndarray:
        """``field`` doc-values over the boolean-OR match set, float64."""
        docs = self._match_union(terms)
        if docs.size == 0:
            return np.empty(0, np.float64)
        return self.field_array(docs, field, np.float64)

    def agg_percentiles(
        self,
        terms: list[str],
        field: str,
        pcts: tuple[float, ...] = (1, 5, 25, 50, 75, 95, 99),
        method: str = "exact",
        delta: float = 100.0,
    ) -> np.ndarray:
        """Percentiles aggregation (OpenSearch percentiles agg) over the
        boolean-OR match set. ``method="exact"`` is the SQL-oracleable
        linear-interpolation quantile (PERCENTILE_CONT / numpy
        "linear"); ``method="tdigest"`` is the reference's default
        TDigestState path — a mergeable sketch whose shard partials are
        a few KiB of centroids regardless of match-set size
        (aggs.tdigest_percentiles, shared with DistributedSearcher)."""
        if method == "tdigest":
            return aggs.tdigest_percentiles(self, terms, field, pcts, delta)
        vals = self._float_values(terms, field)
        if vals.size == 0:
            return np.full(len(pcts), np.nan)
        if method == "exact":
            return np.percentile(vals, list(pcts), method="linear")
        raise ValueError(f"unknown percentiles method: {method}")

    def agg_mad(
        self,
        terms: list[str],
        field: str,
        method: str = "exact",
        delta: float = 100.0,
    ) -> float:
        """median_absolute_deviation aggregation: median(|v − median(v)|).
        Exact tier = interpolated medians (PERCENTILE_CONT twice,
        SQL-oracleable); ``method="tdigest"`` approximates both medians
        through the sketch like the reference's
        MedianAbsoluteDeviationAggregator (aggs.tdigest_mad)."""
        if method == "tdigest":
            return aggs.tdigest_mad(self, terms, field, delta)
        vals = self._float_values(terms, field)
        if vals.size == 0:
            return float("nan")
        if method == "exact":
            med = np.percentile(vals, 50, method="linear")
            return float(
                np.percentile(np.abs(vals - med), 50, method="linear")
            )
        raise ValueError(f"unknown mad method: {method}")

    def agg_percentile_ranks(
        self,
        terms: list[str],
        field: str,
        values: tuple[float, ...],
        method: str = "exact",
        delta: float = 100.0,
    ) -> np.ndarray:
        """percentile_ranks aggregation (inverse percentiles): for each
        given value, the percentage of match-set field values ≤ it.
        Exact tier = the empirical CDF (100·|v ≤ x|/n, SQL-oracleable);
        ``method="tdigest"`` inverts the sketch's quantile function
        (aggs.tdigest_percentile_ranks)."""
        if method == "tdigest":
            return aggs.tdigest_percentile_ranks(
                self, terms, field, values, delta
            )
        vals = self._float_values(terms, field)
        if vals.size == 0:
            return np.full(len(values), np.nan)
        if method == "exact":
            sv = np.sort(vals)
            c = np.searchsorted(sv, np.asarray(values, np.float64), "right")
            return 100.0 * c / sv.size
        raise ValueError(f"unknown percentile_ranks method: {method}")

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
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """function_score with a gauss decay on a numeric doc-values
        field (FunctionScoreQuery + GaussDecayFunction, multiply boost
        mode): score = bm25 · exp(dist² · ln(decay)/scale²) with
        dist = max(|v − origin| − offset, 0). Scores the FULL match
        union (decay reorders, so top-k pruning on raw BM25 would be
        unsound), then one top-k. Float-op order mirrors the SQL oracle
        term for term."""
        if scale <= 0 or not 0.0 < decay < 1.0:
            raise ValueError("need scale > 0 and 0 < decay < 1")
        sterms = sorted(set(terms))
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not sterms:
            return empty
        idfs = self._idfs(sterms, global_dfs)
        cand = self._match_union(sterms)
        if cand.size == 0:
            return empty
        bm25 = self._score_candidates(cand, sterms, idfs, None)
        v = self.field_array(cand, field, np.float64)
        dist = np.maximum(np.abs(v - origin) - offset, 0.0)
        mult = np.exp((dist * dist) * (np.log(decay) / (scale * scale)))
        return topk_desc(cand, bm25 * mult, k)

    def search_rank_feature(
        self,
        terms: list[str],
        field: str,
        *,
        pivot: float | None = None,
        function: str = "saturation",
        boost: float = 1.0,
        scaling_factor: float = 1.0,
        exponent: float = 1.0,
        k: int = 10,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """rank_feature scoring clause (the OpenSearch rank_feature
        query inside a bool should, RankFeatureQuery): adds a static
        per-doc feature contribution to the BM25 score of every doc in
        the text match union —

        - ``saturation``: boost · v/(v + pivot)
        - ``log``:        boost · ln(scaling_factor + v)
        - ``sigmoid``:    boost · v^exp/(v^exp + pivot^exp)

        Pinned semantics: the feature clause only BOOSTS docs already
        matching a text clause (it never selects on its own) — the
        recommended bool{must: match, should: rank_feature} pattern.
        Feature values come from doc-values; float-op order mirrors the
        SQL oracle for saturation/log (sigmoid's pow is pytest-only)."""
        cand, scores = self._bm25_union_scores(terms, global_dfs)
        if cand.size == 0:
            return cand, scores
        v = self.field_array(cand, field, np.float64)
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
        return topk_desc(cand, scores + boost * feat, k)

    def _bm25_union_scores(
        self, terms: list[str], global_dfs: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(union docs, exact BM25 scores) over the full boolean-OR
        match set — the building block for score-combining wrappers
        (dis_max / boosting / bucketed top_hits) where top-k pruning on
        the raw subquery would be unsound."""
        sterms = sorted(set(terms))
        if not sterms:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        idfs = self._idfs(sterms, global_dfs)
        cand = self._match_union(sterms)
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        return cand, self._score_candidates(cand, sterms, idfs, None)

    def search_synonym(
        self,
        groups: list[list[str]],
        k: int = 10,
        *,
        global_dfs: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lucene SynonymQuery semantics (what a synonym_graph filter
        compiles a term to): each group of synonyms scores as ONE
        pseudo-term — per-doc tf = Σ tf over the group's terms, df =
        max df over the group (SynonymQuery's blended docFreq) — then
        groups combine like independent BM25 should-clauses.

        ``global_dfs``: optional list (one array per group, aligned to
        the group's sorted-unique terms) for shard-subset actors."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        parts = []
        for gi, group in enumerate(groups):
            gterms = sorted(set(group))
            if not gterms:
                continue
            if global_dfs is None:
                dfs = np.asarray(
                    [self.local_df(t) for t in gterms], dtype=np.float64
                )
            else:
                dfs = np.asarray(global_dfs[gi], dtype=np.float64)
            df_max = float(dfs.max())
            if df_max <= 0:
                continue
            posts = [self.postings(t) for t in gterms]
            posts = [p for p in posts if p[0].size]
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
            idf = float(bm25_idf(np.asarray([df_max]), self.n_docs)[0])
            dl = self.doc_length(docs)
            k1, b = self.bm25.k1, self.bm25.b
            scores = idf * tfs / (
                tfs + k1 * (1.0 - b + b * dl / self.avgdl)
            )
            parts.append((docs, scores))
        if not parts:
            return empty
        union = (
            np.unique(np.concatenate([p[0] for p in parts]))
            if len(parts) > 1
            else parts[0][0]
        )
        total = np.zeros(union.size, dtype=np.float64)
        for docs, scores in parts:
            total[np.searchsorted(union, docs)] += scores
        return topk_desc(union, total, k)

    def search_dis_max(
        self,
        subqueries: list[list[str]],
        k: int = 10,
        *,
        tie_breaker: float = 0.0,
        global_dfs: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lucene DisjunctionMaxQuery: per-doc score = best subquery
        score + tie_breaker · (sum of the others). Each subquery is a
        boolean-OR BM25 query scored over its full match union (the max
        is taken per doc, so subquery top-k pruning would be unsound).

        ``global_dfs``: optional list (one array per subquery, aligned
        with sorted-unique subquery terms) for shard-subset actors.

        Float discipline: with >2 subqueries use tie_breaker=0.0 if an
        external system must reproduce scores bitwise — max is
        order-independent, a 3-way float sum is not."""
        if not 0.0 <= tie_breaker <= 1.0:
            raise ValueError("tie_breaker must be in [0, 1]")
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        parts = [
            self._bm25_union_scores(
                sub, None if global_dfs is None else global_dfs[i]
            )
            for i, sub in enumerate(subqueries)
        ]
        parts = [p for p in parts if p[0].size]
        if not parts:
            return empty
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

    def search_boosting(
        self,
        positive: list[str],
        negative: list[str],
        *,
        negative_boost: float = 0.5,
        k: int = 10,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Boosting query (Lucene BoostingQuery / the OpenSearch
        ``boosting`` compound): positive BM25 scores, demoted by
        ``negative_boost`` multiplication for docs that also match the
        negative query — unlike must_not, demoted docs stay in the
        result set."""
        if not 0.0 <= negative_boost <= 1.0:
            raise ValueError("negative_boost must be in [0, 1]")
        cand, scores = self._bm25_union_scores(positive, global_dfs)
        if cand.size == 0:
            return cand, scores
        neg = self._match_union(negative)
        if neg.size:
            pos_t = np.searchsorted(neg, cand)
            pos_c = np.minimum(pos_t, neg.size - 1)
            is_neg = neg[pos_c] == cand
            scores = np.where(is_neg, scores * negative_boost, scores)
        return topk_desc(cand, scores, k)

    def search_span_near(
        self,
        terms: list[str],
        k: int = 10,
        *,
        slop: int = 0,
        in_order: bool = True,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
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
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not terms:
            return empty
        if slop < 0:
            raise ValueError("slop must be >= 0")
        if not in_order:
            if len(terms) != 2:
                raise ValueError(
                    "in_order=False supports exactly 2 terms; compose "
                    "2-term spans for wider unordered windows"
                )
            return self._span_unordered_pair(terms, k, slop, global_dfs)
        n = len(terms)
        posts = [self.postings_positions(t) for t in terms]
        if any(p[0].size == 0 for p in posts):
            return empty
        if global_dfs is None:
            dfs = np.asarray(
                [self.local_df(t) for t in terms], dtype=np.float64
            )
        else:
            dfs = np.asarray(global_dfs, dtype=np.float64)
        idf_sum = float(bm25_idf(np.maximum(dfs, 1e-9), self.n_docs).sum())
        max_pos = max(int(p[2].max()) if p[2].size else 0 for p in posts)
        # window arithmetic stays inside one doc's key range
        shift = np.int64(max_pos + n + slop + 2)
        keys = [
            np.repeat(p[0], p[1]) * shift + p[2] for p in posts
        ]  # each sorted: docs asc, positions asc within doc
        start = keys[0]
        cur = start
        for i in range(1, n):
            # greedy: earliest occurrence of term i strictly after cur
            pos = np.searchsorted(keys[i], cur, side="right")
            ok = pos < keys[i].size
            nxt = keys[i][np.minimum(pos, keys[i].size - 1)]
            # must stay in the same doc
            ok &= (nxt // shift) == (cur // shift)
            start, cur = start[ok], nxt[ok]
            if start.size == 0:
                return empty
        width_ok = (cur - start) <= (n - 1 + slop)
        start = start[width_ok]
        if start.size == 0:
            return empty
        docs_u, freq = np.unique(start // shift, return_counts=True)
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf_sum * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def search_span_multi(
        self,
        legs: list[tuple[str, str]],
        k: int = 10,
        *,
        slop: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
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
        the blended idf of the expanded SpanOr leg."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not legs:
            return empty
        if slop < 0:
            raise ValueError("slop must be >= 0")
        n = len(legs)
        leg_keys: list[np.ndarray] = []
        leg_dfs: list[int] = []
        max_pos = 0
        leg_parts: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
        for kind, val in legs:
            if kind == "term":
                terms = [val]
            elif kind == "prefix":
                terms = self.expand_prefix(val)
            else:
                raise ValueError(f"unknown span leg kind {kind!r}")
            parts = []
            for t in terms:
                p = self.postings_positions(t)
                if p[0].size:
                    parts.append((p[0], p[1], p[2]))
            if not parts:
                return empty
            leg_parts.append(parts)
            leg_dfs.append(
                int(
                    np.unique(np.concatenate([pp[0] for pp in parts])).size
                    if len(parts) > 1
                    else parts[0][0].size
                )
            )
            max_pos = max(
                max_pos,
                max(int(pp[2].max()) if pp[2].size else 0 for pp in parts),
            )
        shift = np.int64(max_pos + n + slop + 2)
        for parts in leg_parts:
            keys = np.concatenate(
                [np.repeat(pp[0], pp[1]) * shift + pp[2] for pp in parts]
            )
            if len(parts) > 1:
                keys.sort()
            leg_keys.append(keys)
        idf_sum = float(
            bm25_idf(
                np.maximum(np.asarray(leg_dfs, dtype=np.float64), 1e-9),
                self.n_docs,
            ).sum()
        )
        start = leg_keys[0]
        cur = start
        for i in range(1, n):
            pos = np.searchsorted(leg_keys[i], cur, side="right")
            ok = pos < leg_keys[i].size
            nxt = leg_keys[i][np.minimum(pos, leg_keys[i].size - 1)]
            ok &= (nxt // shift) == (cur // shift)
            start, cur = start[ok], nxt[ok]
            if start.size == 0:
                return empty
        width_ok = (cur - start) <= (n - 1 + slop)
        start = start[width_ok]
        if start.size == 0:
            return empty
        docs_u, freq = np.unique(start // shift, return_counts=True)
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf_sum * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def search_query_string(
        self, qs: str, k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """simple_query_string search (query/querystring.py grammar —
        the Lucene SimpleQueryParser subset): parse, then evaluate as a
        boolean combination of term / phrase / prefix clauses.

        - must clauses all required, must_not excluded; with no must
          clause at least one should clause must match (OR default);
        - score = sum of matching SCORING clauses: BM25 for term
          clauses (per-occurrence multiplicity), phrase-BM25 for phrase
          clauses, constant 1.0 for prefix clauses (CONSTANT_SCORE
          rewrite inside a bool, boost 1);
        - only-negative or empty queries match nothing (the parser
          never raises on user input). Phrase clauses need a positional
          index."""
        from .querystring import parse_query_string

        return self._eval_clauses(parse_query_string(qs), k)

    def search_match_bool_prefix(
        self, text: str, k: int = 10, *, global_dfs: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """match_bool_prefix (ES/OpenSearch MatchBoolPrefixQueryBuilder,
        the search-as-you-type shape): every analyzed term becomes a
        SHOULD term clause except the LAST, which becomes a SHOULD
        prefix clause (constant-score rewrite) — equivalent to
        simple_query_string ``t1 t2 last*`` with OR default."""
        from ..analysis.analyzer import tokenize as _tok
        from .querystring import Clause

        toks = _tok(text)
        if not toks:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        clauses = [Clause("should", "term", (t,)) for t in toks[:-1]]
        clauses.append(Clause("should", "prefix", (toks[-1],)))
        return self._eval_clauses(clauses, k, global_dfs=global_dfs)

    def suggest_completion_fuzzy(
        self,
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
        prefix.  Pinned semantics (documented deviations from Lucene's
        automaton scoring): the first ``prefix_length`` characters must
        match exactly (the candidate slice stays a binary-search
        dictionary range, never a scan); prefixes shorter than
        ``min_length`` fall back to exact completion; results order by
        (edit distance asc, weight desc, term asc) and weight = df.

        The per-candidate minimum-over-prefixes distance is one numpy
        DP over the fixed-width UTF-32 view of the candidate slice —
        loops run over the (short) pattern/prefix lengths only, all
        candidate-axis work is vectorized.  Returns (terms, weights,
        distances)."""
        if fuzziness < 0 or prefix_length < 0:
            raise ValueError("fuzziness and prefix_length must be >= 0")
        if len(prefix) < min_length or fuzziness == 0:
            terms, weights = self.suggest_completion(prefix, size)
            return terms, weights, np.zeros(len(terms), np.int64)
        plen = min(prefix_length, len(prefix))
        anchor = prefix[:plen]
        terms, weights = suggest._dict_slice(self, anchor)
        if terms.size == 0:
            return [], np.empty(0, np.int64), np.empty(0, np.int64)
        n = len(prefix)
        m = n + fuzziness  # longest candidate prefix worth considering
        # fixed-width UTF-32 char matrix: (N, m), 0-padded past each term
        chars = (
            np.array(terms, dtype=f"U{m}")
            .view(np.uint32)
            .reshape(len(terms), m)
        )
        tlens = np.minimum(
            np.fromiter((len(t) for t in terms), np.int64, len(terms)), m
        )
        q = np.array([ord(c) for c in prefix], dtype=np.uint32)
        big = np.int32(127)
        # D[i] = edit distance between q[:i] and the current candidate
        # prefix; best = min over prefix lengths j (1..len(t)) of D[n]
        D_prev = np.tile(np.arange(n + 1, dtype=np.int32), (len(terms), 1))
        best = np.full(len(terms), big, dtype=np.int32)
        for j in range(1, m + 1):
            c = chars[:, j - 1]
            D_new = np.empty_like(D_prev)
            D_new[:, 0] = j
            for i in range(1, n + 1):
                sub = D_prev[:, i - 1] + (c != q[i - 1])
                D_new[:, i] = np.minimum(
                    np.minimum(D_prev[:, i] + 1, D_new[:, i - 1] + 1), sub
                )
            alive = j <= tlens
            best = np.where(alive, np.minimum(best, D_new[:, n]), best)
            D_prev = D_new
        keep = best <= fuzziness
        terms, weights, best = terms[keep], weights[keep], best[keep]
        order = np.lexsort((terms, -weights, best))
        if size is not None:
            order = order[:size]
        return (
            [str(t) for t in terms[order]],
            weights[order],
            best[order].astype(np.int64),
        )

    def _eval_clauses(
        self, clauses: list, k: int, *, global_dfs: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        from collections import Counter

        empty = (np.empty(0, np.int64), np.empty(0, np.float64))

        def _clause_docs(c) -> np.ndarray:
            if c.kind == "term":
                return self.postings(c.payload[0])[0]
            if c.kind == "phrase":
                return self._qs_phrase(c.payload)[0]
            terms = self.expand_prefix(c.payload[0])
            arrs = [self.postings(t)[0] for t in terms]
            arrs = [a for a in arrs if a.size]
            if not arrs:
                return np.empty(0, np.int64)
            return np.unique(np.concatenate(arrs)) if len(arrs) > 1 else arrs[0]

        must = [c for c in clauses if c.occur == "must"]
        should = [c for c in clauses if c.occur == "should"]
        nots = [c for c in clauses if c.occur == "must_not"]
        if not must and not should:
            return empty
        cand: np.ndarray | None = None
        for c in must:
            docs = _clause_docs(c)
            cand = (
                docs
                if cand is None
                else np.intersect1d(cand, docs, assume_unique=True)
            )
            if cand.size == 0:
                return empty
        if cand is None:  # should-only: at least one clause must match
            parts = [d for d in (_clause_docs(c) for c in should) if d.size]
            if not parts:
                return empty
            cand = (
                np.unique(np.concatenate(parts))
                if len(parts) > 1
                else parts[0]
            )
        for c in nots:
            docs = _clause_docs(c)
            if docs.size == 0 or cand.size == 0:
                break
            pos = np.searchsorted(docs, cand)
            pos_c = np.minimum(pos, docs.size - 1)
            cand = cand[docs[pos_c] != cand]
        if cand.size == 0:
            return empty
        scoring = must + should
        mult = Counter(
            c.payload[0] for c in scoring if c.kind == "term"
        )
        sterms = sorted(mult)
        if sterms:
            weights = np.asarray([mult[t] for t in sterms], dtype=np.float64)
            idfs = self._idfs(
                sterms,
                None if global_dfs is None else [global_dfs[t] for t in sterms],
            )
            scores = self._score_candidates(cand, sterms, idfs, weights)
        else:
            scores = np.zeros(cand.size, dtype=np.float64)
        for c in scoring:
            if c.kind == "phrase":
                pd_, ps = self._qs_phrase(c.payload)
            elif c.kind == "prefix":
                pd_ = _clause_docs(c)
                ps = np.ones(pd_.size, dtype=np.float64)
            else:
                continue
            if pd_.size == 0:
                continue
            pos = np.searchsorted(pd_, cand)
            pos_c = np.minimum(pos, pd_.size - 1)
            m = pd_[pos_c] == cand
            scores[m] += ps[pos_c[m]]
        return topk_desc(cand, scores, k)

    def _qs_phrase(self, toks) -> tuple[np.ndarray, np.ndarray]:
        """FULL phrase result (every matching doc), docID-sorted, cached
        per phrase for the duration of one query evaluation path."""
        docs, scores = self.search_phrase(list(toks), k=max(self.n_docs, 1))
        order = np.argsort(docs)
        return docs[order], scores[order]

    def _span_unordered_pair(
        self,
        terms: list[str],
        k: int,
        slop: int,
        global_dfs: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """2-term unordered span: tf = distinct positions p of EITHER
        term whose partner occurs in (p, p + slop + 1] — each unordered
        window counted once at its min position."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        posts = [self.postings_positions(t) for t in terms]
        if any(p[0].size == 0 for p in posts):
            return empty
        if global_dfs is None:
            dfs = np.asarray(
                [self.local_df(t) for t in terms], dtype=np.float64
            )
        else:
            dfs = np.asarray(global_dfs, dtype=np.float64)
        idf_sum = float(bm25_idf(np.maximum(dfs, 1e-9), self.n_docs).sum())
        max_pos = max(int(p[2].max()) if p[2].size else 0 for p in posts)
        shift = np.int64(max_pos + slop + 3)
        keys = [np.repeat(p[0], p[1]) * shift + p[2] for p in posts]

        def _starts(anchor: np.ndarray, other: np.ndarray) -> np.ndarray:
            # anchor positions whose partner lies in (key, key + slop + 1]
            # — same doc guaranteed because shift > max_pos + slop + 2
            lo = np.searchsorted(other, anchor, side="right")
            hi = np.searchsorted(other, anchor + slop + 1, side="right")
            return anchor[hi > lo]

        starts = np.union1d(_starts(keys[0], keys[1]), _starts(keys[1], keys[0]))
        if terms[0] == terms[1]:  # degenerate same-term pair
            starts = _starts(keys[0], keys[0])
        if starts.size == 0:
            return empty
        docs_u, freq = np.unique(starts // shift, return_counts=True)
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf_sum * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    # coverage fraction above which a term's tf-norms are cached DENSE
    # (one n-float vector): contiguous SIMD add beats the gather/scatter
    # by ~4x, and stopword-grade terms (df/n ≈ 0.95-1.0) dominate the
    # query-latency tail
    DENSE_TFN_THRESHOLD = 0.5

    def _dense_term(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(tfn over the FULL doc space with 0 at absent docs, presence
        mask), or None when the breaker refuses to cache it — the dense
        form only pays for itself when built ONCE, so on refusal the
        caller must stay on the scatter path (rebuilding 9n bytes per
        query would be slower than the scatter-add it replaces). Cached
        in the RAM-accounted LRU."""
        if term in self._dense_refused:
            return None
        hit = self._dense_cache.get(term)
        if hit is not None:
            return hit
        _, _, pos, tfn = self.postings_full(term)
        n = self._dl_doc_ids.size
        dense = np.zeros(n, dtype=np.float64)
        dense[pos] = tfn
        present = np.zeros(n, dtype=bool)
        present[pos] = True
        val = (dense, present)
        self._dense_cache.put(term, val)
        if self._dense_cache.get(term) is None:  # breaker refused the bytes
            self._dense_refused.add(term)
            return None
        return val

    def _search_dense(self, terms, idfs, k):
        """Dense-accumulator scoring over the shard's doc space: postings
        carry precomputed local positions, so each term is one
        scatter-add — or, for high-coverage (stopword-grade) terms, one
        contiguous add of the cached dense tf-norm vector (adding w·0 at
        absent docs is a float no-op, so scores stay bitwise identical).
        Accumulation order = sorted terms, same expression — identical
        scores to ``_score_candidates``."""
        n = self._dl_doc_ids.size
        scores = np.zeros(n, dtype=np.float64)
        touched = np.zeros(n, dtype=bool)
        for i, t in enumerate(terms):
            if idfs[i] == 0.0:
                continue
            docs, _, pos, tfn = self.postings_full(t)
            if docs.size == 0:
                continue
            dt = (
                self._dense_term(t)
                if pos.size >= self.DENSE_TFN_THRESHOLD * n
                else None
            )
            if dt is not None:
                dense, present = dt
                scores += idfs[i] * dense
                touched |= present
            else:
                scores[pos] += idfs[i] * tfn  # doc appears once per posting list
                touched[pos] = True
        cand_pos = np.flatnonzero(touched)
        if cand_pos.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if cand_pos.size == n:  # full coverage: skip two n-sized gathers
            return topk_desc(self._dl_doc_ids, scores, k)
        return topk_desc(self._dl_doc_ids[cand_pos], scores[cand_pos], k)

    def search_sparse_dot(
        self, token_weights: dict[str, float], k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sparse linear dot-product scoring: score(d) = Σ_t q_w(t)·tf_d(t)
        (query/NeuralSparseQueryBuilder.java:569-589 with analyzer tfs)."""
        terms = sorted(token_weights)
        plists = [self.postings(t) for t in terms]
        nonempty = [d for d, _ in plists if d.size]
        if not nonempty:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        cand = (
            np.unique(np.concatenate(nonempty)) if len(nonempty) > 1 else nonempty[0]
        )
        scores = np.zeros(cand.size, dtype=np.float64)
        for t, (docs, tfs) in zip(terms, plists):
            if docs.size == 0:
                continue
            pos = np.searchsorted(cand, docs)
            scores[pos] += token_weights[t] * tfs
        return topk_desc(cand, scores, k)

    def _phrase_start_keys(
        self, terms: list[str], shift: np.int64
    ) -> np.ndarray | None:
        """Sorted ``doc*shift + start`` keys of every exact-phrase
        occurrence of ``terms`` — the k-way (doc, pos−i) intersection
        from search_phrase, factored for the span containers."""
        posts = [self.postings_positions(t) for t in terms]
        if any(p[0].size == 0 for p in posts):
            return None
        cur = None
        for i, (docs, tfs, posf, _tok) in enumerate(posts):
            keys = np.repeat(docs, tfs) * shift + (posf - i)
            if i:
                keys = keys[posf >= i]
            cur = (
                keys if cur is None
                else np.intersect1d(cur, keys, assume_unique=True)
            )
            if cur.size == 0:
                return None
        return cur

    def _span_container_shift(
        self, little: str, big: list[str]
    ) -> np.int64:
        """Collision-free (doc, pos) key shift covering the little term,
        the big phrase AND the ±(L−1) containment window — window probes
        must never bleed into a neighboring doc's key block."""
        mx = 0
        for t in [little] + list(big):
            posf = self.postings_positions(t)[2]
            if posf.size:
                mx = max(mx, int(posf.max()))
        return np.int64(mx + len(big) + 2)

    def search_span_within(
        self,
        little: str,
        big: list[str],
        k: int = 10,
        *,
        global_df: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """span_within query (Lucene SpanWithinQuery): occurrences of
        the ``little`` term that lie INSIDE an occurrence of the ``big``
        exact phrase (big span [q, q+L−1] contains position p ⟺
        q ∈ [p−L+1, p]); tf = qualifying little occurrences, scored as
        single-term BM25 with the little term's stored df (the Lucene
        upper-bound contract, as span_not). Vectorized: phrase-start
        keys once, two searchsorted probes per little occurrence."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not big:
            return empty
        docs_l, tfs_l, posf_l, _ = self.postings_positions(little)
        if docs_l.size == 0:
            return empty
        L = len(big)
        shift = self._span_container_shift(little, big)
        big_keys = self._phrase_start_keys(big, shift)
        if big_keys is None:
            return empty
        keys_l = np.repeat(docs_l, tfs_l) * shift + posf_l
        lo = np.searchsorted(big_keys, keys_l - (L - 1))
        hi = np.searchsorted(big_keys, keys_l, side="right")
        qual = hi > lo
        if not qual.any():
            return empty
        docs_u, freq = np.unique(
            np.repeat(docs_l, tfs_l)[qual], return_counts=True
        )
        df = (
            float(self.local_df(little))
            if global_df is None
            else float(global_df)
        )
        idf = float(bm25_idf(np.asarray([max(df, 1e-9)]), self.n_docs)[0])
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def search_span_containing(
        self,
        little: str,
        big: list[str],
        k: int = 10,
        *,
        global_dfs_big: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """span_containing query (Lucene SpanContainingQuery):
        occurrences of the ``big`` exact phrase that CONTAIN an
        occurrence of the ``little`` term (∃ p ∈ [q, q+L−1] with
        toks[p] = little); tf = qualifying phrase occurrences, scored
        with the phrase convention (idf = Σ per-big-term idfs, same dl
        norm — search_phrase's contract with the restricted tf)."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not big:
            return empty
        docs_l, tfs_l, posf_l, _ = self.postings_positions(little)
        L = len(big)
        shift = self._span_container_shift(little, big)
        big_keys = self._phrase_start_keys(big, shift)
        if big_keys is None or docs_l.size == 0:
            return empty
        keys_l = np.repeat(docs_l, tfs_l) * shift + posf_l
        lo = np.searchsorted(keys_l, big_keys)
        hi = np.searchsorted(keys_l, big_keys + (L - 1), side="right")
        qual = hi > lo
        if not qual.any():
            return empty
        docs_u, freq = np.unique(big_keys[qual] // shift, return_counts=True)
        if global_dfs_big is None:
            dfs = np.asarray(
                [self.local_df(t) for t in big], dtype=np.float64
            )
        else:
            dfs = np.asarray(global_dfs_big, dtype=np.float64)
        idf_sum = float(bm25_idf(np.maximum(dfs, 1e-9), self.n_docs).sum())
        dl = self.doc_length(docs_u)
        k1, b = self.bm25.k1, self.bm25.b
        f = freq.astype(np.float64)
        scores = idf_sum * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(docs_u, scores, k)

    def explain_bm25(
        self, terms: list[str], doc_id: int
    ) -> list[dict]:
        """_explain API (OpenSearch TransportExplainAction for a BM25
        text query): the per-term score breakdown for ONE (query, doc)
        pair — tf, df, idf, the tf-norm, and the per-term contribution,
        summing to exactly the search_bm25 score (same float ops, so
        explain is bitwise-consistent with ranking). Per-term postings
        seek + one doc_length lookup; no scoring of other docs."""
        doc_id = int(doc_id)
        dl = float(self.doc_length(np.asarray([doc_id], dtype=np.int64))[0])
        k1, b = self.bm25.k1, self.bm25.b
        out = []
        for t in sorted(set(terms)):
            docs, tfs = self.postings(t)
            pos = np.searchsorted(docs, doc_id)
            if pos >= docs.size or docs[pos] != doc_id:
                continue
            tf = float(tfs[pos])
            df = self.local_df(t)
            idf = float(
                bm25_idf(np.asarray([max(float(df), 1e-9)]), self.n_docs)[0]
            )
            tfn = tf / (tf + k1 * (1.0 - b + b * dl / self.avgdl))
            out.append(
                {
                    "term": t,
                    "tf": int(tf),
                    "df": int(df),
                    "idf": idf,
                    "tf_norm": tfn,
                    "contribution": idf * tfn,
                }
            )
        return out

    def span_or_union(self, clauses: list[str]) -> int:
        """Local union document frequency of a span_or clause set —
        shards hold disjoint doc sets, so the GLOBAL union df is the
        plain sum of these across shards (the distributed protocol)."""
        return int(self._match_union(sorted(set(clauses))).size)

    def search_span_or(
        self,
        clauses: list[str],
        k: int = 10,
        global_df: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """span_or query (Lucene SpanOrQuery): matches spans of ANY
        clause term. Per-doc frequency is the TOTAL span count
        (Σ clause tfs — the union of per-term span enumerations), and
        the query scores as ONE pseudo-term: idf of the UNION document
        frequency × BM25 tf-norm of the combined frequency (SpanWeight
        builds a single Similarity.SimScorer over the merged stats).
        All doc-level — no position decode needed, the span union's
        per-doc cardinality is exactly the tf sum."""
        sterms = sorted(set(clauses))
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not sterms:
            return empty
        plists = [self.postings(t) for t in sterms]
        nonempty = [(d, f) for d, f in plists if d.size]
        if not nonempty:
            return empty
        cand = (
            np.unique(np.concatenate([d for d, _ in nonempty]))
            if len(nonempty) > 1
            else nonempty[0][0]
        )
        f = np.zeros(cand.size, dtype=np.float64)
        for docs, tfs in nonempty:
            f[np.searchsorted(cand, docs)] += tfs
        df = float(cand.size) if global_df is None else float(global_df)
        idf = float(bm25_idf(np.asarray([max(df, 1e-9)]), self.n_docs)[0])
        dl = self.doc_length(cand)
        k1, b = self.bm25.k1, self.bm25.b
        scores = idf * f / (f + k1 * (1.0 - b + b * dl / self.avgdl))
        return topk_desc(cand, scores, k)

    # ---- boxplot / variable-width histogram metric aggs ------------------
    def agg_boxplot(
        self,
        terms: list[str],
        field: str,
        method: str = "exact",
        delta: float = 100.0,
    ) -> dict:
        """boxplot aggregation (OpenSearch BoxplotAggregator): min / q1 /
        q2 / q3 / max of a numeric doc-values field over the boolean-OR
        match set. ``method="exact"`` uses linear-interpolation quantiles
        (PERCENTILE_CONT / numpy "linear" — SQL-oracleable, exact);
        ``method="tdigest"`` mirrors the reference's TDigestState tier
        whose shard partials are mergeable centroid sketches
        (aggs.tdigest_boxplot)."""
        if method == "tdigest":
            return aggs.tdigest_boxplot(self, terms, field, delta)
        vals = self._float_values(terms, field)
        if vals.size == 0:
            return {"min": None, "q1": None, "q2": None, "q3": None,
                    "max": None}
        if method != "exact":
            raise ValueError(f"unknown boxplot method: {method}")
        q1, q2, q3 = np.percentile(vals, [25, 50, 75], method="linear")
        return {
            "min": float(vals.min()),
            "q1": float(q1),
            "q2": float(q2),
            "q3": float(q3),
            "max": float(vals.max()),
        }

    def agg_variable_width(
        self, terms: list[str], field: str, buckets: int = 4
    ) -> list[dict]:
        """variable_width_histogram aggregation — deterministic
        EQUAL-DEPTH tier. The reference's
        VariableWidthHistogramAggregator clusters with an
        order-dependent streaming heuristic (collection order changes
        the buckets — no stable oracle exists by design), so this
        engine pins the deterministic equal-depth restatement: bucket
        edges at the i/buckets interpolated quantiles
        (PERCENTILE_CONT), values binned by count(edges ≤ v)
        (np.searchsorted side="right"), per-bucket min/max/avg/count
        from exact int64 partials. Non-empty buckets only, keyed by
        bucket ordinal."""
        if buckets < 2:
            raise ValueError("buckets must be >= 2")
        docs = self._match_union(terms)
        if docs.size == 0:
            return []
        vals = self.field_array(docs, field)
        qs = [i * 100.0 / buckets for i in range(1, buckets)]
        edges = np.percentile(
            vals.astype(np.float64), qs, method="linear"
        )
        ring = np.searchsorted(edges, vals, side="right")
        cnt = np.bincount(ring, minlength=buckets)
        tot = np.bincount(ring, weights=vals, minlength=buckets)
        mn = np.full(buckets, np.iinfo(np.int64).max)
        mx = np.full(buckets, np.iinfo(np.int64).min)
        np.minimum.at(mn, ring, vals)
        np.maximum.at(mx, ring, vals)
        out = []
        for b in range(buckets):
            if cnt[b] == 0:
                continue
            out.append(
                {
                    "bucket": b,
                    "count": int(cnt[b]),
                    "min": int(mn[b]),
                    "max": int(mx[b]),
                    "avg": int(tot[b]) / int(cnt[b]),
                }
            )
        return out

    # ---- distance_feature / pinned queries --------------------------------
    def search_distance_feature(
        self,
        terms: list[str],
        field: str,
        *,
        origin: float,
        pivot: float,
        boost: float = 1.0,
        k: int = 10,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """distance_feature query (OpenSearch DistanceFeatureQueryBuilder
        over Lucene LongField.newDistanceFeatureQuery) composed the
        recommended way — bool{must: match, should: distance_feature} —
        so the final score is BM25 + boost · pivot/(pivot + |v − origin|)
        over the full text match union (additive reorder ⇒ top-k pruning
        on raw BM25 would be unsound, same contract as rank_feature).
        Float-op order pinned for the SQL oracle."""
        if pivot <= 0:
            raise ValueError("distance_feature needs pivot > 0")
        cand, scores = self._bm25_union_scores(terms, global_dfs)
        if cand.size == 0:
            return cand, scores
        v = self.field_array(cand, field, np.float64)
        feat = boost * (pivot / (pivot + np.abs(v - origin)))
        return topk_desc(cand, scores + feat, k)

    #: pinned-hit synthetic score base — far above any organic BM25 score,
    #: mirroring PinnedQueryBuilder's MAX_ORGANIC_SCORE pinning contract.
    #: 1e9 keeps PIN_SCORE_BASE − i exactly representable in float64
    #: (ulp spacing < 1), so the SQL oracle's replay is bit-identical.
    PIN_SCORE_BASE = 1.0e9

    def search_pinned(
        self,
        pinned_ids: list[int],
        terms: list[str],
        k: int = 10,
        global_dfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """pinned query (OpenSearch PinnedQueryBuilder): the given doc
        ids rank first IN THE ORDER GIVEN (synthetic descending scores
        above every organic score), then organic BM25 matches follow
        with the pinned ids removed. Pinned ids missing from the index
        are skipped (the reference's IDs-query semantics)."""
        seen: set[int] = set()
        pins: list[int] = []
        for i in pinned_ids:
            i = int(i)
            if i in seen:
                continue
            seen.add(i)
            pos = np.searchsorted(self._dl_doc_ids, i)
            if pos < self._dl_doc_ids.size and self._dl_doc_ids[pos] == i:
                pins.append(i)
        pins = pins[:k]
        cand, scores = self._bm25_union_scores(terms, global_dfs)
        if cand.size and k > len(pins):
            keep = ~np.isin(cand, np.asarray(pins, dtype=np.int64))
            organic_docs, organic_scores = topk_desc(
                cand[keep], scores[keep], k - len(pins)
            )
        else:
            organic_docs = np.empty(0, np.int64)
            organic_scores = np.empty(0, np.float64)
        pin_docs = np.asarray(pins, dtype=np.int64)
        pin_scores = self.PIN_SCORE_BASE - np.arange(
            len(pins), dtype=np.float64
        )
        return (
            np.concatenate([pin_docs, organic_docs]),
            np.concatenate([pin_scores, organic_scores]),
        )


class SearchStage:
    """map_batches callable-class: batch-evaluate queries against the index.

    Actor-pool usage: ``queries_ds.map_batches(SearchStage,
    fn_constructor_kwargs=dict(index_dir=...), concurrency=N,
    batch_format="pyarrow")`` — index load happens once per actor
    (warmup-as-init, SURVEY.md §3.3).

    Input batch: (query_id:int64, query_text:string). Output: one row per
    hit (query_id, rank, doc_id, score).
    """

    def __init__(
        self,
        index_dir: str,
        k: int = 10,
        shards: list[int] | None = None,
        config: QueryConfig | None = None,
    ):
        from ..analysis.analyzer import tokenize
        from ..config import AnalyzerConfig

        self.searcher = IndexSearcher(index_dir, shards)
        self.k = config.k if config else k
        acfg = self.searcher.manifest.analyzer
        self._analyzer_cfg = AnalyzerConfig(**acfg)
        self._tokenize = tokenize

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, scores = [], [], [], []
        for qid, qtext in zip(
            batch["query_id"].to_pylist(), batch["query_text"].to_pylist()
        ):
            terms = self._tokenize(qtext or "", self._analyzer_cfg)
            d, s = self.searcher.search_bm25(terms, self.k)
            qids.append(np.full(d.size, qid, dtype=np.int64))
            ranks.append(np.arange(1, d.size + 1, dtype=np.int64))
            docs.append(d)
            scores.append(s)
        cat = lambda xs, dt: np.concatenate(xs) if xs else np.empty(0, dt)  # noqa: E731
        return pa.table(
            {
                "query_id": cat(qids, np.int64),
                "rank": cat(ranks, np.int64),
                "doc_id": cat(docs, np.int64),
                "score": cat(scores, np.float64),
            }
        )
