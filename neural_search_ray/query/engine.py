"""The shard reader: index loading (warmup), postings, doc values,
dictionary and stats lookups, and the BM25 top-k hot path.

Every other search-time op is one function ``op(s, ...)`` in the op
modules, bound through ``SharedOps`` (query/ops.py); ``IndexSearcher``
is their one-shard context and the reader each shard host serves.

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
from ..index.codec import PostingRows, posting_gather, row_columns
from ..index.manifest import DOCLEN_BUCKET, IndexManifest
from ..state.stats import stats
from . import aggs, suggest
from .bm25 import bm25_term_idfs, topk_desc
from .ops import SharedOps


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


class IndexSearcher(SharedOps):
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
        self._fwd: dict = {}  # lazy per-shard forward readers (forward())
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

            tbl = pads.dataset(post_paths).to_table(
                columns=row_columns(self.has_positions)
            )
            n_rows = tbl.num_rows
        if n_rows:
            # zero-copy views of the posting columns, decoded per term
            self._rows = PostingRows(tbl, manifest.posting_codec)
            self._p_df = self._rows.df
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
            self._row_order = np.empty(0, np.int64)
            self._gstart = np.empty(0, np.int64)
            self._gend = np.empty(0, np.int64)
            self._gdf = np.empty(0, np.int64)
            self._gterms = np.empty(0, dtype=object)
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

    def forward(self, shard: int):
        """Shard ``shard``'s forward-index reader (lazy, opened once;
        requires index/forward.py build_forward_index to have run)."""
        fwd = self._fwd.get(shard)
        if fwd is None:
            from ..index.forward import ShardForward

            fwd = self._fwd[shard] = ShardForward(self.index_dir, shard)
        return fwd

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
        default — the numeric scoring input), aligned to ``doc_ids``;
        a doc without a value raises (aggs drop such docs through
        query/aggs.py ``_present``). The pseudo-column ``"_dl"`` is the
        BM25 doc length."""
        if column == "_dl":
            return self.doc_length(doc_ids).astype(dtype)
        vals = self.field_values(doc_ids, column)
        if vals.null_count:
            raise ValueError(
                f"field {column!r} has no value for {vals.null_count} of "
                f"the {len(vals)} docs"
            )
        return vals.to_numpy(zero_copy_only=False).astype(dtype)

    # ---- stats -----------------------------------------------------------
    def local_df(self, term: str) -> int:
        g = self._gid.get(term)
        return int(self._gdf[g]) if g is not None else 0

    def doc_length(self, doc_ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._dl_doc_ids, doc_ids)
        return self._dl[pos]

    # ---- the one-shard op context (query/ops.py) ---------------------------
    # ``_all`` evaluates a shard partial on this searcher, ``_topk``
    # returns its kernel's top-k as is (no merge), the stats come from
    # its own dictionary and postings, and every matched value is
    # in-process (``_co_located``).
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

    # in-process only: a shard pool has no single dictionary to expand
    # against, and these aggs' merges are not exact over shards
    expand_fuzzy = suggest.expand_fuzzy
    agg_diversified_sampler = aggs.agg_diversified_sampler
    agg_variable_width = aggs.agg_variable_width

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
        docs, tfs, _, _ = self._rows.decode(rows)
        tfs = tfs.astype(np.float64)
        if rows.size > 1:
            # one row per segment: merge doc-sorted
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
        g = self._gid.get(term)
        empty = (
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.int64), np.empty(0, np.int64),
        )
        if g is None:
            return empty
        stats.incr("postings_decoded")
        rows = self._row_order[self._gstart[g] : self._gend[g]]
        docs, tfs, _, posf = self._rows.decode(rows, positions=True)
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

    # ---- dictionary expansion and match sets -------------------------------
    def expand_prefix(self, prefix: str) -> list[str]:
        """Terms of this searcher's dictionary starting with ``prefix``
        (binary search over the sorted term array — never a full scan)."""
        return [str(t) for t in suggest._dict_slice(self, prefix)[0]]

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
