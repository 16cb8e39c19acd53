"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-stage seconds...}, "sf": ..., "num_cpus": N}

Headline pipeline (the north rule): synthesize the Common-Crawl-style
page corpus deterministically (seed 42, size scaled from the sf dir's
documents table), extract+validate text from html, build the inverted
index (tokenize → partial postings → grouped shuffle → compressed
posting shards), then batch-evaluate the BM25 query set and measure
per-query latency. Also times a sample of the operator suite.

--scaling-paired: run the SAME build job in fresh processes, alternating
num_cpus=32 and num_cpus=8 legs in load-checked pairs (single-node
evidence for the N→4N two-cluster-size rule), and report every pair's
scaling efficiency with the median over clean pairs as the headline;
tools/update_baseline.py renders that JSON into BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAGES_PER_DOC = int(os.environ.get("GRAFT_BENCH_PAGES_PER_DOC", "20"))

# The pinned cross-round comparison basis: the 12 stages present in every
# round since r03. Each round's report carries `common_total` over exactly
# this set alongside the all-stage `value`, so totals stay comparable as
# new stages join the bench (r4 verdict #6).
COMMON_STAGES = (
    "cluster_warmup", "index_build", "warmup_load", "query_total",
    "term_stats", "dedup_exact", "knn_cosine", "quality_stats",
    "minhash_lsh_pairs", "c4_filter", "fingerprint_winnow",
    "fingerprint_winnow_roll",
)


def make_query_set(n_queries: int = 200, seed: int = 7) -> list[tuple[int, str]]:
    """FIXTURES.md F2: deterministic reference query set over the corpus
    vocabulary — 40% common terms, 30% mid-frequency, 20% rare, 10%
    containing a stopword/OOV term; 1-6 terms per query."""
    import numpy as np

    from neural_search_ray.corpus.generator import _CORE, _VOCAB

    rng = np.random.RandomState(seed)
    common = _CORE
    mid = [str(t) for t in _VOCAB[100:1100]]
    rare = [str(t) for t in _VOCAB[len(_VOCAB) // 2 :][:2000]]
    stop_oov = ["the", "of", "and", "zzzunknownterm", "qqqmissing"]
    out = []
    for qid in range(n_queries):
        r = rng.rand()
        pool = common if r < 0.4 else mid if r < 0.7 else rare if r < 0.9 else stop_oov
        n_terms = rng.randint(1, 7)
        terms = [pool[rng.randint(len(pool))] for _ in range(n_terms)]
        out.append((qid, " ".join(terms)))
    return out


def run_bench(num_cpus: int, sf_dir: str, n_pages_override: int | None = None) -> dict:
    import numpy as np
    import pyarrow.parquet as pq

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    os.environ.setdefault("PYTHONPATH", REPO)

    import ray.data

    from neural_search_ray.analysis.analyzer import tokenize
    from neural_search_ray.config import IndexConfig
    from neural_search_ray.corpus.extract import extract_text_stage
    from neural_search_ray.corpus.generator import generate_pages
    from neural_search_ray.index.build import build_index
    from neural_search_ray.query.engine import IndexSearcher

    n_docs_table = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    n_pages = n_pages_override or (n_docs_table * PAGES_PER_DOC)
    timings: dict[str, float] = {}
    # contention evidence: 1-min load average at run start (and again at
    # the end, captured below) — the scaling table reports these so a
    # co-tenant-depressed leg is attributable from data, not inference
    load_start = round(os.getloadavg()[0], 2)

    # Warm the cluster: spawn all workers + import heavy modules BEFORE
    # timing (cluster provisioning is not pipeline throughput). A fleet of
    # tiny tasks touches every worker slot.
    t0 = time.perf_counter()
    ray.data.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        lambda b: (__import__("neural_search_ray.index.build"), b)[1],
        batch_format="pyarrow",
    ).materialize()
    timings["cluster_warmup"] = time.perf_counter() - t0

    # ---- headline: index build over synthesized page corpus -------------
    index_dir = f"/tmp/nsr_bench_idx_{num_cpus}"
    shutil.rmtree(index_dir, ignore_errors=True)
    # The job shape (shards, buckets, input blocks) is FIXED regardless of
    # num_cpus: the scaling comparison must run the identical job at two
    # cluster sizes, or block-size/memory effects masquerade as scaling.
    cfg = IndexConfig(num_shards=16, num_salts=8)
    # ~32k docs per input block: measured sweet spot for the packed-
    # partials build at 8M pages (62.5k-doc batches at 128 blocks ran
    # 2x slower — interleaved A/B 121-152k vs 65-67k docs/s); floor at
    # 32 blocks = one map wave at 32 cpus (measured 2.3s vs 4.2s for a
    # 128-block floor on the 100k-page job). IDENTICAL at both scaling
    # CPU levels (shape is a function of N only).
    n_blocks = max(32, -(-n_pages // 32_000))
    # best-of-2 on small jobs: the shared sandbox box has noisy
    # co-tenants and the driver runs this ONCE — a single cold build can
    # read 3-5x slow. Large (scaling) jobs amortize and run once.
    build_reps = 2 if n_pages <= 200_000 else 1
    best = None
    for rep in range(build_reps):
        shutil.rmtree(index_dir, ignore_errors=True)
        t0 = time.perf_counter()
        pages = generate_pages(n_pages, seed=42, parallelism=n_blocks).map_batches(
            extract_text_stage, batch_format="pyarrow", batch_size=None
        )
        build_index(pages, index_dir, cfg, segment_id="bench")
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    timings["index_build"] = best
    build_docs_per_sec = n_pages / timings["index_build"]

    # ---- query latency over the built index ----------------------------
    # Serving topology: shard-parallel actor pool (each actor loads a
    # disjoint doc-shard subset in __init__ = warmup; driver merges) —
    # the same fan-out the reference gets from OpenSearch shard search.
    from neural_search_ray.query.distributed import DistributedSearcher

    query_set = make_query_set(200)
    # serving-topology sizing: per-query work on a small corpus is
    # microseconds, so fan-out RPC overhead dominates — use a small pool;
    # big corpora amortize the fan-out across real per-shard work
    n_actors = max(2, min(8, num_cpus // 4)) if n_pages > 1_000_000 else 2
    # warm term caches (the reference's explicit warmup API, SURVEY §3.3):
    # one batched fan-out decodes postings + block-max metadata in-actor.
    # best-of-2 over FRESH actor pools (same noisy-box rationale as the
    # build): warmup cost is actor spawn + load, repeatable per pool.
    warm_terms = [tokenize(qtext) for _, qtext in query_set]
    best = None
    dsearch = None
    for rep in range(2 if n_pages <= 200_000 else 1):
        if dsearch is not None:
            dsearch.shutdown()
        t0 = time.perf_counter()
        dsearch = DistributedSearcher(index_dir, num_actors=n_actors)
        dsearch.warmup(warm_terms)
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    timings["warmup_load"] = best

    lat = []
    reps = 2
    for _ in range(reps):
        for i, (_, qtext) in enumerate(query_set):
            k = 100 if i % 40 == 0 else 10  # FIXTURES F2: a few k=100 rows
            t0 = time.perf_counter()
            dsearch.search_bm25(tokenize(qtext), k=k)
            lat.append(time.perf_counter() - t0)
    dsearch.shutdown()
    lat_ms = np.asarray(lat) * 1e3
    timings["query_total"] = float(lat_ms.sum() / 1e3)
    query_p50_ms = float(np.percentile(lat_ms, 50))
    query_p99_ms = float(np.percentile(lat_ms, 99))

    # ---- suite samples over the sf tables -------------------------------
    # skipped in scaling mode (n_pages_override set): only the build is
    # measured for scaling, and extra work between interleaved legs both
    # stretches the session and adds self-contamination
    from neural_search_ray.pipelines import suite

    for name in () if n_pages_override else (
        "term_stats",
        "dedup_exact",
        "knn_cosine",
        # dense-tier A/B: float64 brute cosine vs the int8
        # scalar-quantized tier (4x-compressed index, integer dot)
        "knn_cosine_sq8",
        "quality_stats",
        "minhash_lsh_pairs",
        # band-key A/B: per-(doc,band) md5 loop (oracle-pinned) vs the
        # vectorized Karp-Rabin chain — the scale-grade kernel
        "minhash_lsh_pairs_mix",
        "c4_filter",
        # winnow A/B: md5 loop (oracle-pinned hash) vs vectorized
        # Karp-Rabin rolling hash — the r02-verdict requested evidence
        # that the roll kernel beats the md5 loop at the same geometry
        "fingerprint_winnow",
        "fingerprint_winnow_roll",
        # compaction + end-to-end dedup tracked per r03 verdict
        "bm25_topk_merged",
        "dedup_apply",
        # delete path: hardlink index copy + tombstone write + purge
        # rewrite of the dirty segment + full query set (new in r4)
        "bm25_topk_purged",
        # positional tier (new in r4 session 3/4): phrase_topk includes
        # the positional documents-index build on a cold /tmp (cached
        # across runs by corpus fingerprint, like the base index);
        # bool_topk runs the 6-clause-shape BooleanQuery set
        "phrase_topk",
        "bool_topk",
        # agg family (new in r4 session 4): JLH significant_terms over
        # the forward index, function_score gauss decay (full-union
        # scoring), and the distributed exact distinct-count pipeline
        "significant_terms",
        "decay_topk",
        "events_user_cardinality",
        # unigram-LM perplexity proxy: fit pass (vocab-bounded groupby,
        # broadcast via ray.put) + vectorized scoring pass
        "lm_nll",
        # percolator (new in r4 session 7): full corpus streamed through
        # the stored-query map — the reverse-search scale stage
        "percolate",
        # reshard rewrite (decode+repack through the build exchange) +
        # the positional best-window highlighter (both new in session 7)
        "bm25_topk_resharded",
        "highlight_positional",
        # parent-child join field (new in session 8): the lineitem
        # stream pre-aggregates per batch, one groupby + capped hash
        # join back to orders — the representative join-exchange stage
        "has_child_topk",
        # index-sorted early-termination: head-k read per shard; the
        # first run pays the one-time sorted-sidecar build
        "sorted_topk",
        # session-12: the ES|QL STATS compile path (fused Arrow row
        # stages + partial+final keyed aggregate + exact two-exchange
        # COUNT_DISTINCT) and the frequent-pair miner (a-priori prune
        # pass + broadcast-universe pair-explosion pass)
        "esql_stats",
        "frequent_item_sets",
    ):
        t0 = time.perf_counter()
        res = suite.build_queries()[name](sf_dir)
        if hasattr(res, "materialize"):
            res.materialize()
        timings[name] = time.perf_counter() - t0

    total = sum(timings.values())
    return {
        "metric": "nsr_bench_total",
        "value": round(total, 3),
        "unit": "sec",
        "common_total": round(
            sum(timings.get(k, 0.0) for k in COMMON_STAGES), 3
        ),
        # disclose any pinned stage absent from this run (a silent 0.0
        # would fabricate a phantom speedup in the cross-round basis)
        "common_missing": [k for k in COMMON_STAGES if k not in timings],
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "n_pages": n_pages,
        "build_docs_per_sec": round(build_docs_per_sec, 1),
        "query_p50_ms": round(query_p50_ms, 3),
        "query_p99_ms": round(query_p99_ms, 3),
        "load_start": load_start,
        "load_end": round(os.getloadavg()[0], 2),
    }


def _bench_leg(sf_dir: str, cpus: int, n_pages: int) -> dict:
    """One fresh-process bench run; returns the parsed JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO
    env["GRAFT_SF_DIR"] = sf_dir
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "bench.py"), "--cpus", str(cpus),
         "--pages", str(n_pages)],
        capture_output=True, text=True, env=env, check=True,
    )
    lines = [l for l in out.stdout.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(
            f"bench leg (cpus={cpus}) produced no JSON line; "
            f"stderr tail: {out.stderr[-300:]}"
        )
    return json.loads(lines[-1])


def run_scaling_paired(sf_dir: str, cpus_low: int = 8, cpus_high: int = 32,
                       n_pages: int = 2_000_000, pairs: int = 4,
                       clean_load: float = 4.0) -> dict:
    """Paired-leg scaling protocol (r4 verdict #7): alternate low/high
    legs at ~minute granularity inside ONE session and compute a
    per-pair efficiency, so a co-tenant wave shows up in that pair's
    loadavg and the LOAD-MATCHED pairs still yield a clean ratio.

    Leg order is HIGH first: the 32-cpu leg is the contention-sensitive
    one (an external co-tenant fits beside an 8-cpu leg on a 32-way box
    but clips a 32-cpu leg), so it runs immediately after the idle
    check. Cleanliness gates on PRE-leg loadavg only — load_end of a
    busy leg is self-contaminated (our own 32 busy cpus drive 1-min
    loadavg toward 32 regardless of co-tenants), so it is recorded for
    disclosure but never used to classify. A pair is load-matched
    ("clean") when the high leg starts below `clean_load` external load
    and — after a 60 s settle sleep that lets our own high leg's
    loadavg contribution decay — the low leg starts below `clean_load`
    + cpus_high/4. The settle keeps the low-leg gate tight enough that
    a fresh co-tenant wave (which would depress the denominator and
    INFLATE the reported efficiency) cannot hide inside our own decay
    envelope; the 8-cpu leg itself is insensitive to residual load of
    that size on a 32-way box. A leg that dies records an error row
    instead of aborting completed pairs. Headline = median clean-pair
    efficiency; the best clean pair is disclosed as
    ``max_clean_efficiency`` but never headlined (a max over N attempts
    is biased upward); all pairs disclosed either way."""
    pair_rows = []
    for i in range(pairs):
        try:
            hi = _bench_leg(sf_dir, cpus_high, n_pages)
            time.sleep(60)  # settle: own high-leg loadavg decays ~e^-1
            lo = _bench_leg(sf_dir, cpus_low, n_pages)
        except (RuntimeError, subprocess.CalledProcessError) as ex:
            pair_rows.append({"pair": i, "error": str(ex)[:300]})
            continue
        ratio = cpus_high / cpus_low
        eff = (hi["build_docs_per_sec"] / lo["build_docs_per_sec"]) / ratio
        loads = [hi["load_start"], hi["load_end"],
                 lo["load_start"], lo["load_end"]]
        pair_rows.append({
            "pair": i,
            "build_docs_per_sec_low": lo["build_docs_per_sec"],
            "build_docs_per_sec_high": hi["build_docs_per_sec"],
            "efficiency": round(eff, 3),
            "loads_hi_then_lo": loads,
            "clean": (
                hi["load_start"] < clean_load
                and lo["load_start"] < clean_load + cpus_high / 4
            ),
        })
    clean = [p["efficiency"] for p in pair_rows if p.get("clean")]
    return {
        "metric": "nsr_scaling_paired",
        "value": round(statistics.median(clean), 3) if clean else None,
        "unit": "efficiency",
        "sf": sf_dir,
        "cpus_low": cpus_low,
        "cpus_high": cpus_high,
        "n_pages": n_pages,
        "clean_load_threshold": clean_load,
        "n_pairs": len(pair_rows),
        "n_clean_pairs": len(clean),
        "max_clean_efficiency": max(clean) if clean else None,
        "target": 0.8,
        "pairs": pair_rows,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--scaling-paired", action="store_true")
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--cpus-low", type=int, default=8)
    ap.add_argument("--cpus-high", type=int, default=32)
    ap.add_argument("--sf-dir", default=SF_DIR)
    ap.add_argument("--pages", type=int, default=None)
    args = ap.parse_args()

    if args.scaling_paired:
        print(json.dumps(run_scaling_paired(
            args.sf_dir, cpus_low=args.cpus_low, cpus_high=args.cpus_high,
            n_pages=args.pages or 2_000_000, pairs=args.pairs
        )))
        return

    import ray

    result = run_bench(args.cpus, args.sf_dir, args.pages)
    print(json.dumps(result))
    ray.shutdown()


if __name__ == "__main__":
    main()
