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
from . import aggs, queryparser, querystring, scoring, suggest
from .bm25 import bm25_idf, bm25_term_idfs, topk_desc


def _binary_views(chunked) -> tuple[np.ndarray, memoryview]:
    """(offsets int64, data memoryview) for a binary column — row i's
    payload is data[offsets[i]:offsets[i+1]], zero-copy."""
    col = chunked.cast(pa.large_binary()).combine_chunks()
    off = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + len(col) + 1
    ]
    return off, memoryview(col.buffers()[2])


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

    # ---- ops defined once for both searchers ------------------------------
    # The aggregation and dictionary ops (query/aggs.py, query/suggest.py)
    # and the scoring ops (query/scoring.py, the query-string grammars in
    # query/queryparser.py and query/querystring.py) are bound here and on
    # DistributedSearcher as the same functions. This searcher is their
    # one-shard context: ``_all`` evaluates a shard partial on itself,
    # ``_topk`` returns its shard kernel's top-k as is (no merge), the
    # stats come from its own dictionary and postings, and every matched
    # value is in-process (``_co_located``).
    _co_located = True

    def _all(self, fn, /, *args, **kwargs) -> list:
        """The shard op ``fn`` over this searcher: its one partial."""
        return [fn(self, *args, **kwargs)]

    def _topk(self, k: int, fn, /, *args, **kwargs):
        """The shard top-k kernel ``fn`` over this searcher: its one
        partial already is the top-k."""
        return fn(self, *args, **kwargs)

    def _gdfs(self, terms: list[str]) -> np.ndarray:
        """dfs aligned to ``terms`` (0 for a term not in the dictionary),
        float64: one lookup per term in the dictionary's hash index (a
        query's few terms cost less this way than through numpy calls)."""
        gid, gdf = self._gid, self._gdf
        return np.array(
            [gdf[g] if (g := gid.get(t)) is not None else 0 for t in terms],
            dtype=np.float64,
        )

    def _gcfs(self, terms: list[str]) -> np.ndarray:
        """Collection frequencies aligned to ``terms``, float64 — the LM
        similarities' collection-model stat (also the shard partial the
        pool sums)."""
        return np.asarray(
            [self.collection_freq(t) for t in terms], dtype=np.float64
        )

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
    search_phrase = scoring.search_phrase
    search_phrase_prefix = scoring.search_phrase_prefix
    search_bool = scoring.search_bool
    search_terms_set = scoring.search_terms_set
    search_synonym = scoring.search_synonym
    search_dis_max = scoring.search_dis_max
    search_decay = scoring.search_decay
    search_boosting = scoring.search_boosting
    search_rank_feature = scoring.search_rank_feature
    search_function_score = scoring.search_function_score
    search_distance_feature = scoring.search_distance_feature
    search_pinned = scoring.search_pinned
    search_lm = scoring.search_lm
    search_span_or = scoring.search_span_or
    search_span_within = scoring.search_span_within
    search_span_containing = scoring.search_span_containing
    highlight_best_window = scoring.highlight_best_window
    search_prefix = scoring.search_prefix
    search_wildcard = scoring.search_wildcard
    search_regexp = scoring.search_regexp
    search_fuzzy = scoring.search_fuzzy
    search_query_string = queryparser.search_query_string
    search_simple_query_string = querystring.search_simple_query_string
    search_match_bool_prefix = querystring.search_match_bool_prefix
    PIN_SCORE_BASE = scoring.PIN_SCORE_BASE

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
        sterms = sorted(set(terms))
        docs, scores = self._bm25_union_scores(sterms, self._gdfs(sterms))
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
    ) -> tuple[np.ndarray, np.ndarray]:
        """script_score query (OpenSearch ScriptScoreQuery): wrap the
        inner term query and REPLACE each hit's score with a registered
        score script (query/scripts.py ScoreScript — the compiled-
        Painless analogue) evaluated over the doc's doc-values and the
        inner ``_score``. The script reorders docs arbitrarily, so it
        runs over the FULL union's exact BM25 scores before any
        truncation (same soundness rule as function_score/dis_max)."""
        sterms = sorted(set(terms))
        docs, scores = self._bm25_union_scores(sterms, self._gdfs(sterms))
        if docs.size == 0:
            return docs, scores
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
        idf = scoring._idf_sum(self, self._gdfs([term]))
        return topk_desc(docs, scoring._saturate(self, docs, f, idf), k)

    def search_intervals(
        self,
        terms: list[str],
        k: int = 10,
        *,
        max_gaps: int = 0,
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
        shift = np.int64(scoring._max_pos(posts) + 2)
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
        idf_sum = scoring._idf_sum(self, self._gdfs(sterms))
        return topk_desc(docs_u, scoring._saturate(self, docs_u, freq, idf_sum), k)

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

    def search_span_not(
        self,
        include: str,
        exclude: str,
        k: int = 10,
        *,
        pre: int = 0,
        post: int = 0,
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
        idf = scoring._idf_sum(self, self._gdfs([include]))
        return topk_desc(docs_u, scoring._saturate(self, docs_u, freq, idf), k)

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

    def search_span_near(
        self,
        terms: list[str],
        k: int = 10,
        *,
        slop: int = 0,
        in_order: bool = True,
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
            return self._span_unordered_pair(terms, k, slop)
        n = len(terms)
        posts = [self.postings_positions(t) for t in terms]
        if any(p[0].size == 0 for p in posts):
            return empty
        # window arithmetic stays inside one doc's key range
        shift = np.int64(scoring._max_pos(posts) + n + slop + 2)
        keys = [
            np.repeat(p[0], p[1]) * shift + p[2] for p in posts
        ]  # each sorted: docs asc, positions asc within doc
        idf_sum = scoring._idf_sum(self, self._gdfs(terms))
        return self._in_order_topk(keys, shift, slop, idf_sum, k)

    def _in_order_topk(
        self, keys: list[np.ndarray], shift: np.int64, slop: int,
        idf_sum: float, k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
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
                return scoring._no_hits()
        start = start[(cur - start) <= (len(keys) - 1 + slop)]
        if start.size == 0:
            return scoring._no_hits()
        docs_u, freq = np.unique(start // shift, return_counts=True)
        return topk_desc(docs_u, scoring._saturate(self, docs_u, freq, idf_sum), k)

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
        idf_sum = scoring._idf_sum(self, leg_dfs)
        return self._in_order_topk(leg_keys, shift, slop, idf_sum, k)

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

    def _span_unordered_pair(
        self,
        terms: list[str],
        k: int,
        slop: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """2-term unordered span: tf = distinct positions p of EITHER
        term whose partner occurs in (p, p + slop + 1] — each unordered
        window counted once at its min position."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        posts = [self.postings_positions(t) for t in terms]
        if any(p[0].size == 0 for p in posts):
            return empty
        shift = np.int64(scoring._max_pos(posts) + slop + 3)
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
        idf_sum = scoring._idf_sum(self, self._gdfs(terms))
        return topk_desc(docs_u, scoring._saturate(self, docs_u, freq, idf_sum), k)

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
