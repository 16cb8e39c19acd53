"""The benchmark's three workloads, timed from outside the engine.

Every workload sets up a serving index, serves BM25 queries and ingests
small segments beside reads; they differ in where the time goes:

- ``build_batch``: one light serving pass and a short ingest, then bulk
  ``build_index`` in the bench shape while the serving pool sits idle.
- ``serve_bm25``: a closed-loop client sends the F2 query mix through
  ``DistributedSearcher.search_bm25``, then the same set through
  ``msearch_bm25`` batches; a short ingest follows.
- ``ingest_refresh``: cycles of segment add, upsert of recent docs,
  searcher reopen with warmup, and the query set on the grown index.

So every workload reports every end-to-end metric, each measured on real
work of that workload. Each operation is counted as attempted; it fails
when it raises, runs past its deadline, or fails its correctness gate:

- every served or msearch result must equal, in doc ids and scores, an
  in-process ``IndexSearcher`` over the same index;
- every build must record exactly the pages fed in, in complete segments;
- every upsert must leave the expected live doc count and no tombstones.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import ray

from neural_search_ray.analysis.analyzer import tokenize
from neural_search_ray.config import IndexConfig
from neural_search_ray.corpus import extract
from neural_search_ray.corpus.generator import _CORE, _VOCAB, generate_pages
from neural_search_ray.index.build import build_index
from neural_search_ray.index.deletes import load_tombstones, upsert_docs
from neural_search_ray.index.manifest import DOCLEN_BUCKET, IndexManifest
from neural_search_ray.query.distributed import DistributedSearcher
from neural_search_ray.query.engine import IndexSearcher
from neural_search_ray.state.stats import stats

WORKLOADS = ("build_batch", "serve_bm25", "ingest_refresh")

# (name, unit) of every end-to-end metric, reported by every workload
END_TO_END = (
    ("setup_s", "s"),
    ("build_docs_per_s", "docs/s"),
    ("index_bytes_per_doc", "B/doc"),
    ("query_p50_ms", "ms"),
    ("msearch_qps", "queries/s"),
    ("segment_add_s", "s"),
    ("upsert_s", "s"),
    ("reopen_s", "s"),
)

QUERY_CLASSES = ("common", "mid", "rare", "stop")
COUNTERS = (
    "bm25_queries", "maxscore_certified", "maxscore_fallback",
    "blockmax_fallback_dense", "blockmax_blocks_scanned",
    "blockmax_blocks_skipped", "postings_decoded",
)

# (name, unit) of every per-layer metric, reported by every traced run.
# query_p99_ms is an end-to-end figure kept here: on a shared VM its
# run-to-run spread (CPU steal stalls hit ~1 % of queries) is wider than
# any bound an end-to-end metric may have.
PER_LAYER = (
    ("query_p99_ms", "ms"),
    ("corpus.generate_extract_s", "s"),
    ("analysis.analyze_s", "s"),
    ("index.build.partials_s", "s"),
    ("index.build.partial_rows", "count"),
    ("index.build.write_s", "s"),
    ("index.build.exchange_s", "s"),
    ("index.build.files_per_segment", "count"),
    ("index.build.bytes_per_doc", "B/doc"),
    ("index.build.group_skew", "ratio"),
    ("index.deletes.delete_s", "s"),
    ("index.deletes.purge_s", "s"),
    ("index.deletes.files_rewritten", "count"),
    ("index.deletes.bytes_rewritten_per_doc", "B/doc"),
    ("query.engine.open_s", "s"),
    *((f"query.engine.kernel_ms.{c}", "ms") for c in QUERY_CLASSES),
    ("query.engine.merge_ms", "ms"),
    *((f"query.engine.stats.{c}", "count") for c in COUNTERS),
    ("query.engine.maxscore_certified_ratio", "ratio"),
    ("query.engine.blocks_skipped_ratio", "ratio"),
    ("query.distributed.rpc_noop_ms", "ms"),
    ("query.distributed.fanout_ms", "ms"),
    ("query.distributed.df_phase_ms", "ms"),
    ("query.distributed.warmup_s", "s"),
    ("query.distributed.msearch_batch_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


@dataclass(frozen=True)
class Sizes:
    setups: int = 2              # setups per run; setup_s is their median
    base_pages: int = 6_000      # serving base index
    base_shape: tuple = (4, 2)   # (num_shards, num_salts) of base + segments
    bulk_pages: int = 60_000     # build_batch: at least one bulk build
    bulk_shape: tuple = (16, 8)  # the bench shape
    n_queries: int = 400         # F2 mix; twice F2's 200 for steadier figures
    msearch_batch: int = 50
    segment_docs: int = 500
    upsert_docs: int = 100
    cycles: int = 3              # ingest_refresh: at least this many cycles
    tail_cycles: int = 2         # ingest cycles that end build_batch and serve_bm25
    probe_calls: int = 100       # per RPC probe, traced runs only


FULL = Sizes()
SMOKE = Sizes(
    setups=1, base_pages=1_000, bulk_pages=2_000, bulk_shape=(4, 2),
    n_queries=40, msearch_batch=10, segment_docs=100, upsert_docs=20, cycles=1,
    tail_cycles=1, probe_calls=10,
)
ACTORS = 2               # the serving pool
PAGES_PER_BLOCK = 8_192  # generate_pages parallelism

# per-operation deadlines (s): a stuck call fails one operation
BUILD_TIMEOUT = 90
INGEST_TIMEOUT = 60
OPEN_TIMEOUT = 60
QUERY_TIMEOUT = 10
RPC_TIMEOUT = 10


@dataclass(frozen=True)
class Query:
    cls: str
    terms: list
    k: int


def f2_queries(seed: int, n: int) -> list[Query]:
    """FIXTURES.md F2 mix from ``seed``: 40 % common, 30 % mid, 20 % rare,
    10 % stopword/OOV terms, 1-6 terms, k=100 on every 40th query."""
    rng = np.random.RandomState(seed)
    pools = {
        "common": list(_CORE),
        "mid": [str(t) for t in _VOCAB[100:1100]],
        "rare": [str(t) for t in _VOCAB[len(_VOCAB) // 2:][:2000]],
        "stop": ["the", "of", "and", "zzzunknownterm", "qqqmissing"],
    }
    out = []
    for i in range(n):
        r = rng.rand()
        cls = "common" if r < 0.4 else "mid" if r < 0.7 else "rare" if r < 0.9 else "stop"
        pool = pools[cls]
        words = [pool[rng.randint(len(pool))] for _ in range(rng.randint(1, 7))]
        out.append(Query(cls, tokenize(" ".join(words)), 100 if i % 40 == 0 else 10))
    return out


class OpFailed(Exception):
    pass


class Aborted(Exception):
    """A failed operation left nothing for the rest of the run to use."""


class Gate:
    def __init__(self):
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Ops:
    """Operations attempted and failed; failures are logged to stderr.
    Past ``deadline`` (monotonic seconds) every operation fails and the
    run is aborted, so a run that keeps timing out still ends."""

    def __init__(self, deadline: float):
        self.attempted = 0
        self.failed = 0
        self.deadline = deadline

    @contextlib.contextmanager
    def op(self, what: str, timeout: float, fatal: bool = True):
        self.attempted += 1
        gate = Gate()
        left = self.deadline - time.monotonic()
        if left <= 0:
            self.failed += 1
            print(f"perfbench: {what}: run deadline passed", file=sys.stderr)
            raise Aborted(what)
        try:
            with _deadline(min(timeout, left), what):
                yield gate
        except Exception:  # boundary: record the failure, keep the run going
            self.failed += 1
            print(f"perfbench: {what} failed\n{traceback.format_exc()}", file=sys.stderr)
            if fatal:
                raise Aborted(what) from None
            return
        if gate.problems:
            self.failed += 1
            print(f"perfbench: {what}: {'; '.join(gate.problems[:5])}", file=sys.stderr)


@contextlib.contextmanager
def _deadline(seconds: float, what: str):
    """Raise OpFailed in the main thread after ``seconds`` (SIGALRM; Ray's
    blocking get runs signal handlers, so a stuck ``ray.get`` is cut)."""

    def expire(signum, frame):
        raise OpFailed(f"{what}: no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _same(got, want) -> bool:
    return np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _median(xs) -> float:
    return float(statistics.median(xs))


def _pct(xs, q: float) -> float:
    if not xs:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


class Scenario:
    """One run of one workload. ``tracer`` is a NullTracer when tracing
    is off; the work done is the same either way, except the RPC probes
    and the warm kernel pass, which only feed per-layer metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, sizes: Sizes,
                 workdir: str, tracer, deadline_s: float = 150.0):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.sizes, self.workdir, self.tracer = sizes, workdir, tracer
        self.ops = Ops(time.monotonic() + deadline_s)
        self.queries = f2_queries(seed, sizes.n_queries)
        self.base_cfg = IndexConfig(num_shards=sizes.base_shape[0],
                                    num_salts=sizes.base_shape[1])
        self.bulk_cfg = IndexConfig(num_shards=sizes.bulk_shape[0],
                                    num_salts=sizes.bulk_shape[1])
        # raw samples behind the end-to-end metrics
        self.setup_s: list[float] = []
        self.builds: dict[str, list[dict]] = {"base": [], "bulk": [], "add": []}
        self.latency_s: list[float] = []
        self.msearch_qps: list[float] = []
        self.reopen_s: list[float] = []
        self.segment_add_s: list[float] = []
        self.upsert_s: list[float] = []
        self.upserts: list[dict] = []
        self.counters: dict[str, int] | None = None
        self.next_doc_id = 0

    # -- building -----------------------------------------------------------
    def pages(self, n: int, seed: int, first_id: int):
        """n synthetic pages from ``seed`` with doc ids first_id.., text
        extracted from html (the north-rule input)."""
        ds = generate_pages(n, seed=seed, parallelism=-(-n // PAGES_PER_BLOCK))
        if first_id:
            import pyarrow.compute as pc

            ds = ds.map_batches(
                lambda b: b.set_column(0, "doc_id", pc.add(b["doc_id"], first_id)),
                batch_format="pyarrow", batch_size=None,
            )
        stage = self.tracer.remote("corpus.generate_extract", extract.extract_text_stage)
        return ds.map_batches(stage, batch_format="pyarrow", batch_size=None)

    def build(self, kind: str, index_dir: str, n: int, cfg: IndexConfig,
              segment_id: str, seed: int) -> None:
        first_id = self.next_doc_id
        self.next_doc_id += n
        before = IndexManifest.load(index_dir)
        n_before = before.n_docs if before else 0
        with self.ops.op(f"{kind} build {segment_id}", BUILD_TIMEOUT) as gate:
            with self.tracer.span("index.build", kind=kind) as attrs:
                t0 = time.perf_counter()
                m = build_index(self.pages(n, seed, first_id), index_dir, cfg,
                                segment_id=segment_id)
                wall = time.perf_counter() - t0
            seg = m.segments[segment_id]
            shape = _segment_shape(index_dir, seg)
            attrs.update(shape)  # the span keeps this dict
            gate.check(seg["n_docs"] == n, f"segment holds {seg['n_docs']} docs, fed {n}")
            gate.check(m.n_docs == n_before + n, f"index holds {m.n_docs} docs")
            gate.check(all(s["complete"] for s in m.segments.values()),
                       "incomplete segment in manifest")
        self.builds[kind].append({"wall": wall, "docs": n, **shape})

    # -- serving ------------------------------------------------------------
    def open_searcher(self, index_dir: str) -> tuple[DistributedSearcher, float]:
        """A new serving pool with warmup; returns it and its open time."""
        with self.ops.op("open searcher", OPEN_TIMEOUT):
            t0 = time.perf_counter()
            searcher = DistributedSearcher(index_dir, num_actors=ACTORS)
            try:
                with self.tracer.span("query.distributed.warmup"):
                    searcher.warmup([q.terms for q in self.queries])
            except BaseException:
                searcher.shutdown()
                raise
            open_s = time.perf_counter() - t0
        return searcher, open_s

    def expected(self, index_dir: str) -> list:
        """Reference results from an in-process searcher over the whole
        index. The first pass of a run also yields the ``state.stats``
        counts; traced runs time a second, warm pass per query class."""
        with self.ops.op("reference pass", OPEN_TIMEOUT):
            with self.tracer.span("query.engine.open"):
                ref = IndexSearcher(index_dir)
            first = self.counters is None
            if first:
                stats.reset()
            out = [ref.search_bm25(q.terms, q.k) for q in self.queries]
            if first:
                snap = stats.snapshot()
                self.counters = {c: int(snap.get(c, 0)) for c in COUNTERS}
            if self.tracer.enabled:
                for q in self.queries:
                    with self.tracer.span("query.engine.kernel", cls=q.cls):
                        ref.search_bm25(q.terms, q.k)
            self.ref = ref
        return out

    def serve(self, searcher, expected, *, passes: int = 0, budget_s: float = 0.0):
        """Closed loop, one client: the next query is sent when the last
        reply arrived. Runs ``passes`` passes over the set, or until
        ``budget_s`` has elapsed."""
        n = len(self.queries)
        t_end = time.perf_counter() + budget_s
        i = 0
        while i < passes * n or (budget_s and time.perf_counter() < t_end):
            q, want = self.queries[i % n], expected[i % n]
            with self.ops.op(f"query {i % n}", QUERY_TIMEOUT, fatal=False) as gate:
                t0 = time.perf_counter()
                got = searcher.search_bm25(q.terms, q.k)
                self.latency_s.append(time.perf_counter() - t0)
                gate.check(_same(got, want), f"query {i % n} differs from in-process result")
            i += 1

    def msearch(self, searcher, expected, *, passes: int = 0, budget_s: float = 0.0):
        """The query set through ``msearch_bm25`` in batches of one k;
        msearch_qps is queries over the wall time of a whole pass."""
        by_k: dict[int, list[int]] = {}
        for i, q in enumerate(self.queries):
            by_k.setdefault(q.k, []).append(i)
        b = self.sizes.msearch_batch
        batches = [(k, ids[j:j + b]) for k, ids in sorted(by_k.items())
                   for j in range(0, len(ids), b)]
        t_end = time.perf_counter() + budget_s
        p = 0
        while p < passes or (budget_s and time.perf_counter() < t_end):
            pass_s = 0.0
            for k, ids in batches:
                with self.ops.op("msearch batch", QUERY_TIMEOUT, fatal=False) as gate:
                    with self.tracer.span("query.distributed.msearch_batch"):
                        t0 = time.perf_counter()
                        got = searcher.msearch_bm25([self.queries[i].terms for i in ids], k)
                        pass_s += time.perf_counter() - t0
                    bad = [i for i, g in zip(ids, got) if not _same(g, expected[i])]
                    gate.check(not bad, f"msearch results differ for queries {bad[:5]}")
            self.msearch_qps.append(len(self.queries) / pass_s)
            p += 1

    def probes(self, searcher) -> None:
        """Traced runs: the RPC floor, the bare kernel fan-out and the
        df phase, each called directly on the serving actors."""
        if not self.tracer.enabled:
            return
        actors = searcher.actors
        qs = [q for q in self.queries if q.terms][: self.sizes.probe_calls]
        for i in range(self.sizes.probe_calls):
            with self.ops.op("rpc probe", RPC_TIMEOUT, fatal=False):
                with self.tracer.span("query.distributed.rpc_noop"):
                    ray.get(actors[i % len(actors)].stats.remote(), timeout=RPC_TIMEOUT)
        for q in qs:
            gdfs = [float(self.ref.local_df(t)) for t in sorted(set(q.terms))]
            with self.ops.op("fanout probe", RPC_TIMEOUT, fatal=False):
                with self.tracer.span("query.distributed.fanout"):
                    ray.get([a.search.remote(sorted(set(q.terms)), q.k, gdfs) for a in actors],
                            timeout=RPC_TIMEOUT)
        # a cold term set per call: terms this probe has not asked for yet
        seen: set = set()
        for q in qs:
            terms = sorted(set(q.terms) - seen) or [f"zzzprobe{len(seen)}"]
            seen.update(terms)
            with self.ops.op("df probe", RPC_TIMEOUT, fatal=False):
                with self.tracer.span("query.distributed.df_phase"):
                    ray.get([a.local_dfs.remote(terms) for a in actors], timeout=RPC_TIMEOUT)

    # -- phases -------------------------------------------------------------
    def setup(self):
        """Build the serving base index and open the searcher with warmup,
        ``setups`` times; the last one is kept."""
        searcher = None
        for i in range(self.sizes.setups):
            if searcher is not None:
                searcher.shutdown()
                shutil.rmtree(index_dir, ignore_errors=True)
            index_dir = os.path.join(self.workdir, f"base-{i}")
            self.next_doc_id = 0
            t0 = time.perf_counter()
            self.build("base", index_dir, self.sizes.base_pages, self.base_cfg,
                       "base", self.seed)
            searcher, _ = self.open_searcher(index_dir)
            self.setup_s.append(time.perf_counter() - t0)
        return index_dir, searcher

    def ingest_cycle(self, c: int, index_dir: str, searcher):
        """Add a segment and upsert its newest docs; then reopen the
        searcher and run the query set on the grown index."""
        t0 = time.perf_counter()
        self.build("add", index_dir, self.sizes.segment_docs, self.base_cfg,
                   f"add-{c:03d}", self.seed * 1000 + 2 * c + 1)
        self.segment_add_s.append(time.perf_counter() - t0)
        self.upsert(index_dir, f"upsert-{c:03d}", self.seed * 1000 + 2 * c + 2)
        new, open_s = self.open_searcher(index_dir)
        self.reopen_s.append(open_s)
        searcher.shutdown()
        expected = self.expected(index_dir)
        self.serve(new, expected, passes=1)
        self.msearch(new, expected, passes=1)
        return new

    def upsert(self, index_dir: str, seg_id: str, seed: int) -> None:
        """Upsert the newest ``upsert_docs`` docs with new text."""
        n = self.sizes.upsert_docs
        first = self.next_doc_id - n
        ids = np.arange(first, self.next_doc_id, dtype=np.int64)
        before = IndexManifest.load(index_dir)
        with self.ops.op(f"upsert {seg_id}", INGEST_TIMEOUT) as gate:
            with self.tracer.span("index.deletes.upsert"):
                t0 = time.perf_counter()
                m = upsert_docs(index_dir, self.pages(n, seed, first),
                                segment_id=seg_id, doc_ids=ids)
                self.upsert_s.append(time.perf_counter() - t0)
            gate.check(m.n_docs == before.n_docs,
                       f"{m.n_docs} live docs after upsert, expected {before.n_docs}")
            gate.check(load_tombstones(index_dir).size == 0, "tombstones left after upsert")
            gate.check(all(s["complete"] for s in m.segments.values()),
                       "incomplete segment in manifest")
            rewritten = [s for sid, s in m.segments.items()
                         if sid not in before.segments and sid != seg_id]
            n_bytes = sum(_segment_shape(index_dir, s)["bytes"] for s in rewritten)
            self.upserts.append({"files": sum(len(s["files"]) for s in rewritten),
                                 "bytes_per_doc": n_bytes / n})

    # -- workloads ----------------------------------------------------------
    def run(self) -> None:
        sz = self.sizes
        searcher = None
        try:
            index_dir, searcher = self.setup()
            expected = self.expected(index_dir)
            if self.workload == "build_batch":
                # serving and ingest first, so the bulk builds' aftermath
                # does not land in their timings
                self.serve(searcher, expected, passes=1)
                self.msearch(searcher, expected, passes=1)
                self.probes(searcher)
                for c in range(sz.tail_cycles):
                    searcher = self.ingest_cycle(c, index_dir, searcher)
                t_end = time.perf_counter() + self.seconds
                n = 0
                while n < 1 or time.perf_counter() < t_end:
                    bulk_dir = os.path.join(self.workdir, f"bulk-{n}")
                    self.next_doc_id = 0  # a fresh index each time
                    self.build("bulk", bulk_dir, sz.bulk_pages, self.bulk_cfg,
                               "bulk", self.seed)
                    shutil.rmtree(bulk_dir, ignore_errors=True)
                    n += 1
            elif self.workload == "serve_bm25":
                self.serve(searcher, expected, budget_s=self.seconds * 2 / 3)
                self.msearch(searcher, expected, budget_s=self.seconds / 3, passes=1)
                self.probes(searcher)
                for c in range(sz.tail_cycles):
                    searcher = self.ingest_cycle(c, index_dir, searcher)
            else:
                self.probes(searcher)
                t_end = time.perf_counter() + self.seconds
                c = 0
                while c < sz.cycles or time.perf_counter() < t_end:
                    searcher = self.ingest_cycle(c, index_dir, searcher)
                    c += 1
        except Aborted:
            pass
        finally:
            if searcher is not None:
                searcher.shutdown()

    # -- results ------------------------------------------------------------
    def sample_counts(self) -> dict[str, int]:
        """How many samples stand behind the end-to-end medians."""
        primary = self.builds["bulk" if self.workload == "build_batch" else "base"]
        return {"setups": len(self.setup_s), "builds": len(primary),
                "queries": len(self.latency_s), "msearch_passes": len(self.msearch_qps),
                "segment_adds": len(self.segment_add_s), "upserts": len(self.upsert_s),
                "reopens": len(self.reopen_s)}

    def end_to_end(self) -> dict[str, float]:
        primary = self.builds["bulk" if self.workload == "build_batch" else "base"]
        values = {
            "setup_s": lambda: _median(self.setup_s),
            "build_docs_per_s": lambda: _median([b["docs"] / b["wall"] for b in primary]),
            "index_bytes_per_doc": lambda: _median([b["bytes"] / b["docs"] for b in primary]),
            "query_p50_ms": lambda: _pct(self.latency_s, 50) * 1e3,
            "msearch_qps": lambda: _median(self.msearch_qps),
            "segment_add_s": lambda: _median(self.segment_add_s),
            "upsert_s": lambda: _median(self.upsert_s),
            "reopen_s": lambda: _median(self.reopen_s),
        }
        return _available(values)

    def per_layer(self, roots, wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the run's spans. Build layers come from
        the workload's own builds (bulk, base or segment add), one value
        per build_index call, median over calls; times are self times."""
        spans = [s for r in roots for s in (r, *r.descendants())]

        def named(name: str):
            return [s for s in spans if s.name == name]

        sz = self.sizes
        kind = {"build_batch": "bulk", "serve_bm25": "base", "ingest_refresh": "add"}[self.workload]
        builds = [s for s in named("index.build") if s.attrs.get("kind") == kind]
        # counts come only from the operations every run makes, so they
        # repeat exactly for one seed; a timed loop may add more
        n_adds = sz.cycles if self.workload == "ingest_refresh" else sz.tail_cycles
        counted = builds[:{"bulk": 1, "base": sz.setups, "add": n_adds}[kind]]
        upserts = self.upserts[:n_adds]

        def per_build(name: str):
            return _median([sum(d.self_time for d in b.descendants() if d.name == name)
                            for b in builds])

        def ms(name: str):
            return _median([s.dur for s in named(name)]) * 1e3

        def per_upsert(name: str):
            ups = named("index.deletes.upsert")
            return _median([sum(d.self_time for d in u.descendants() if d.name == name)
                            for u in ups])

        c = self.counters or {}
        values = {
            "query_p99_ms": lambda: _pct(self.latency_s, 99) * 1e3,
            "corpus.generate_extract_s": lambda: per_build("corpus.generate_extract"),
            "analysis.analyze_s": lambda: per_build("analysis.analyze"),
            "index.build.partials_s": lambda: per_build("index.build.partials"),
            "index.build.partial_rows": lambda: _median(
                [sum(d.attrs["rows"] for d in b.descendants() if d.name == "index.build.partials")
                 for b in counted]),
            "index.build.write_s": lambda: per_build("index.build.write"),
            "index.build.exchange_s": lambda: _median([b.self_time for b in builds]),
            "index.build.files_per_segment": lambda: _median([b.attrs["files"] for b in counted]),
            "index.build.bytes_per_doc": lambda: _median(
                [b.attrs["bytes"] / b.attrs["n_docs"] for b in counted]),
            "index.build.group_skew": lambda: _median([b.attrs["skew"] for b in counted]),
            "index.deletes.delete_s": lambda: per_upsert("index.deletes.delete"),
            "index.deletes.purge_s": lambda: per_upsert("index.deletes.purge"),
            "index.deletes.files_rewritten": lambda: _median([u["files"] for u in upserts]),
            "index.deletes.bytes_rewritten_per_doc": lambda: _median(
                [u["bytes_per_doc"] for u in upserts]),
            "query.engine.open_s": lambda: _median([s.dur for s in named("query.engine.open")]),
            **{f"query.engine.kernel_ms.{cls}": (lambda cls=cls: _median(
                [s.dur for s in named("query.engine.kernel") if s.attrs["cls"] == cls]) * 1e3)
               for cls in QUERY_CLASSES},
            "query.engine.merge_ms": lambda: ms("query.engine.merge"),
            **{f"query.engine.stats.{k}": (lambda k=k: c[k]) for k in COUNTERS},
            "query.engine.maxscore_certified_ratio": lambda: (
                c["maxscore_certified"] / max(c["bm25_queries"], 1)),
            "query.engine.blocks_skipped_ratio": lambda: c["blockmax_blocks_skipped"] / max(
                c["blockmax_blocks_scanned"] + c["blockmax_blocks_skipped"], 1),
            "query.distributed.rpc_noop_ms": lambda: ms("query.distributed.rpc_noop"),
            "query.distributed.fanout_ms": lambda: ms("query.distributed.fanout"),
            "query.distributed.df_phase_ms": lambda: ms("query.distributed.df_phase"),
            "query.distributed.warmup_s": lambda: _median(
                [s.dur for s in named("query.distributed.warmup")]),
            "query.distributed.msearch_batch_ms": lambda: ms("query.distributed.msearch_batch"),
            "trace.overhead_pct": lambda: 100.0 * self.tracer.overhead_s / wall_s,
        }
        return _available(values)


def _available(values: dict) -> dict[str, float]:
    """Evaluate each metric; one with no samples (its operations failed)
    is left out, and the run is already marked incorrect."""
    out = {}
    for name, fn in values.items():
        try:
            out[name] = float(fn())
        except (KeyError, ValueError, ZeroDivisionError, statistics.StatisticsError):
            pass
    return out


def _segment_shape(index_dir: str, seg: dict) -> dict:
    """File count, bytes on disk, docs and group skew (max/median
    n_postings over the posting files) of one manifest segment."""
    files = seg["files"]
    posting = [f["n_postings"] for f in files if f["term_bucket"] != DOCLEN_BUCKET]
    med = float(np.median(posting)) if posting else 0.0
    return {
        "files": len(files),
        "bytes": sum(os.path.getsize(os.path.join(index_dir, f["path"])) for f in files),
        "n_docs": seg["n_docs"],
        "skew": max(posting) / med if med else 0.0,
    }
