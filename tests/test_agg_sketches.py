"""Mergeable-sketch aggregations (agg/sketches.py, agg/dataset.py) and
the engine-side cardinality / percentiles / significant_terms / decay
operators (query/engine.py, query/significant.py)."""

import math

import numpy as np
import pyarrow as pa
import pytest

import ray

from neural_search_ray.agg.sketches import HyperLogLog, TDigest, hash64
from neural_search_ray.analysis.analyzer import tokenize
from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from neural_search_ray.query.engine import IndexSearcher


class TestHash64:
    def test_deterministic_and_typed(self):
        a = hash64(np.arange(100, dtype=np.int64))
        b = hash64(np.arange(100, dtype=np.int64))
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.uint64
        s = hash64(np.array(["a", "b", "a"], dtype=object))
        assert s[0] == s[2] and s[0] != s[1]


class TestHyperLogLog:
    def test_error_bound(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 2**62, size=300_000)
        true = np.unique(vals).size
        h = HyperLogLog(p=14).add(vals)
        est = h.estimate()
        # std err ~1.04/sqrt(2^14) = 0.8%; allow 4 sigma
        assert abs(est - true) / true < 0.033

    def test_small_range_correction_exactish(self):
        h = HyperLogLog(p=14).add(np.arange(50))
        assert abs(h.estimate() - 50) < 3

    def test_merge_equals_union(self):
        a = np.arange(0, 60_000)
        b = np.arange(30_000, 90_000)
        ha = HyperLogLog(12).add(a)
        hb = HyperLogLog(12).add(b)
        hu = HyperLogLog(12).add(np.concatenate([a, b]))
        merged = HyperLogLog(12)
        merged.merge(ha).merge(hb)
        # register-max merge is EXACTLY the union sketch
        np.testing.assert_array_equal(merged.registers, hu.registers)

    def test_idempotent_merge(self):
        h = HyperLogLog(10).add(np.arange(1000))
        before = h.registers.copy()
        h.merge(h)
        np.testing.assert_array_equal(h.registers, before)

    def test_serde_and_payload_merge(self):
        parts = []
        for lo in range(0, 40_000, 10_000):
            parts.append(
                HyperLogLog(12).add(np.arange(lo, lo + 10_000)).to_bytes()
            )
        merged = HyperLogLog.merge_payloads(parts)
        whole = HyperLogLog(12).add(np.arange(40_000))
        np.testing.assert_array_equal(merged.registers, whole.registers)
        rt = HyperLogLog.from_bytes(whole.to_bytes())
        np.testing.assert_array_equal(rt.registers, whole.registers)

    def test_precision_mismatch(self):
        with pytest.raises(ValueError):
            HyperLogLog(10).merge(HyperLogLog(11))
        with pytest.raises(ValueError):
            HyperLogLog(3)


class TestTDigest:
    QS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

    def _check(self, vals, t, tol):
        span = vals.max() - vals.min()
        for q in self.QS:
            exact = np.percentile(vals, q * 100, method="linear")
            assert abs(t.quantile(q) - exact) <= tol * span, q

    def test_uniform_bounds(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1000, size=50_000)
        self._check(vals, TDigest(200).add(vals), 0.01)

    def test_skewed_bounds(self):
        rng = np.random.default_rng(4)
        vals = rng.lognormal(0, 1.5, size=50_000)
        t = TDigest(200).add(vals)
        # rank (cdf) error form for skewed data: the estimated quantile
        # must sit between the exact q±2% quantiles
        for q in self.QS:
            lo = np.percentile(vals, max(q - 0.02, 0.0) * 100)
            hi = np.percentile(vals, min(q + 0.02, 1.0) * 100)
            assert lo <= t.quantile(q) <= hi, q

    def test_merge_of_chunks(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(100, 25, size=40_000)
        whole = TDigest(200).add(vals)
        t = TDigest(200)
        for chunk in np.split(vals, 8):
            t.merge(TDigest(200).add(chunk))
        span = vals.max() - vals.min()
        for q in self.QS:
            assert abs(t.quantile(q) - whole.quantile(q)) <= 0.01 * span

    def test_extremes_exact(self):
        vals = np.arange(1000, dtype=np.float64)
        t = TDigest(100).add(vals)
        assert t.quantile(0.0) == 0.0
        assert t.quantile(1.0) == 999.0
        assert t.count == 1000

    def test_serde_roundtrip(self):
        t = TDigest(150).add(np.arange(5000, dtype=np.float64))
        rt = TDigest.from_bytes(t.to_bytes())
        np.testing.assert_array_equal(rt.means, t.means)
        np.testing.assert_array_equal(rt.weights, t.weights)
        assert rt.quantile(0.37) == t.quantile(0.37)

    def test_empty_and_single(self):
        assert math.isnan(TDigest().quantile(0.5))
        t = TDigest().add([42.0])
        assert t.quantile(0.5) == 42.0


@pytest.fixture(scope="module")
def agg_searcher(tmp_path_factory, sf_dir, ray_session):
    from neural_search_ray.index.docvalues import build_doc_values
    from neural_search_ray.index.forward import build_forward_index

    d = str(tmp_path_factory.mktemp("agg_idx"))
    build_index(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
        d,
        IndexConfig(num_shards=2, num_salts=2),
    )
    build_doc_values(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        ),
        d,
        num_shards=2,
    )
    build_forward_index(d)
    return IndexSearcher(d)


@pytest.fixture(scope="module")
def doc_fields(sf_dir):
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )
    return {
        int(d): (tokenize(x), int(n))
        for d, x, n in zip(
            t["doc_id"].to_pylist(),
            t["text"].to_pylist(),
            t["n_chars"].to_pylist(),
        )
    }


def _match_vals(doc_fields, terms):
    ts = set(terms)
    return np.asarray(
        sorted(
            n for toks, n in doc_fields.values() if ts & set(toks)
        ),
        dtype=np.float64,
    )


class TestEngineCardinality:
    def test_exact_tier(self, agg_searcher, doc_fields):
        terms = tokenize("data query")
        vals = _match_vals(doc_fields, terms)
        got = agg_searcher.agg_cardinality(terms, "n_chars", 10**9)
        assert got == {"value": np.unique(vals).size, "exact": True}

    def test_sketch_tier(self, agg_searcher, doc_fields):
        terms = tokenize("data query")
        true = np.unique(_match_vals(doc_fields, terms)).size
        got = agg_searcher.agg_cardinality(
            terms, "n_chars", precision_threshold=0
        )
        assert got["exact"] is False
        assert abs(got["value"] - true) / true < 0.1

    def test_no_match(self, agg_searcher):
        got = agg_searcher.agg_cardinality(["zzznope"], "n_chars")
        assert got == {"value": 0, "exact": True}


class TestEnginePercentiles:
    def test_exact_matches_numpy(self, agg_searcher, doc_fields):
        terms = tokenize("merge sort window")
        vals = _match_vals(doc_fields, terms)
        pcts = (1, 5, 25, 50, 75, 95, 99)
        got = agg_searcher.agg_percentiles(terms, "n_chars", pcts)
        np.testing.assert_array_equal(
            got, np.percentile(vals, list(pcts), method="linear")
        )

    def test_tdigest_close(self, agg_searcher, doc_fields):
        terms = tokenize("the")
        vals = _match_vals(doc_fields, terms)
        got = agg_searcher.agg_percentiles(
            terms, "n_chars", (50,), method="tdigest"
        )
        exact = np.percentile(vals, 50)
        assert abs(got[0] - exact) <= 0.02 * (vals.max() - vals.min())

    def test_empty_and_bad_method(self, agg_searcher):
        out = agg_searcher.agg_percentiles(["zzznope"], "n_chars", (50,))
        assert np.isnan(out).all()
        with pytest.raises(ValueError, match="method"):
            agg_searcher.agg_percentiles(["data"], "n_chars", (50,), "nope")


class TestExtendedStats:
    def test_matches_bruteforce(self, agg_searcher, doc_fields):
        terms = tokenize("data query")
        vals = _match_vals(doc_fields, terms)
        got = agg_searcher.agg_extended_stats(terms, "n_chars")
        assert got["count"] == vals.size
        assert got["sum"] == int(vals.sum())
        assert got["sum_of_squares"] == int((vals * vals).sum())
        avg = got["sum"] / got["count"]
        assert got["avg"] == avg
        want_var = got["sum_of_squares"] / got["count"] - avg * avg
        assert got["variance"] == want_var
        assert got["std_deviation"] == np.sqrt(want_var)
        # sanity vs numpy population variance (same quantity, other route)
        np.testing.assert_allclose(got["variance"], vals.var(), rtol=1e-6)

    def test_no_match(self, agg_searcher):
        got = agg_searcher.agg_extended_stats(["zzznope"], "n_chars")
        assert got["count"] == 0 and got["variance"] is None


class TestRankFeature:
    def test_saturation_matches_bruteforce(self, agg_searcher, doc_fields):
        terms = tokenize("data query")
        bd, bs = agg_searcher.search_bm25(terms, k=10**6)
        nmap = {d: n for d, (_, n) in doc_fields.items()}
        want = {
            d: s + 2.0 * (nmap[d] / (nmap[d] + 200.0))
            for d, s in zip(bd.tolist(), bs.tolist())
        }
        docs, scores = agg_searcher.search_rank_feature(
            terms, "n_chars", pivot=200.0, boost=2.0, k=10**6
        )
        assert set(docs.tolist()) == set(bd.tolist())
        for d, s in zip(docs.tolist(), scores.tolist()):
            assert s == want[d], d

    def test_log_and_sigmoid(self, agg_searcher):
        terms = tokenize("merge sort")
        ld, ls = agg_searcher.search_rank_feature(
            terms, "n_chars", function="log", scaling_factor=1.0, k=10
        )
        sd, ss = agg_searcher.search_rank_feature(
            terms, "n_chars", function="sigmoid", pivot=200.0,
            exponent=2.0, k=10,
        )
        assert ld.size == 10 and sd.size == 10
        # sigmoid contribution is bounded by boost
        bd, bs = agg_searcher.search_bm25(terms, k=10**6)
        base = dict(zip(bd.tolist(), bs.tolist()))
        for d, s in zip(sd.tolist(), ss.tolist()):
            assert 0.0 <= s - base[d] <= 1.0

    def test_validation(self, agg_searcher):
        with pytest.raises(ValueError):
            agg_searcher.search_rank_feature(["data"], "n_chars")
        with pytest.raises(ValueError, match="unknown"):
            agg_searcher.search_rank_feature(
                ["data"], "n_chars", pivot=1.0, function="nope"
            )
        with pytest.raises(ValueError):
            agg_searcher.search_rank_feature(
                ["data"], "n_chars", function="sigmoid", pivot=1.0,
                exponent=0.0,
            )


class TestCompositeAgg:
    SOURCES = [("terms", "lang"), ("histogram", "n_chars", 100)]

    @pytest.fixture(scope="class")
    def lang_searcher(self, agg_searcher):
        return agg_searcher  # module fixture builds lang + n_chars

    def _brute(self, sf_dir, doc_fields, qterms):
        import pyarrow.parquet as pq
        from collections import Counter

        t = pq.read_table(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        )
        meta = {
            int(d): (lg, (n // 100) * 100)
            for d, lg, n in zip(
                t["doc_id"].to_pylist(),
                t["lang"].to_pylist(),
                t["n_chars"].to_pylist(),
            )
        }
        ts = set(qterms)
        c = Counter(
            meta[d]
            for d, (toks, _) in doc_fields.items()
            if ts & set(toks)
        )
        return sorted(c.items())

    def test_pages_cover_bruteforce(self, lang_searcher, doc_fields, sf_dir):
        qterms = tokenize("data query")
        want = self._brute(sf_dir, doc_fields, qterms)
        got, after = [], None
        while True:
            keys, counts = lang_searcher.agg_composite(
                qterms, self.SOURCES, size=4, after=after
            )
            if not keys:
                break
            got += list(zip(keys, counts.tolist()))
            after = keys[-1]
        assert got == want

    def test_after_is_strict(self, lang_searcher):
        qterms = tokenize("data")
        k1, _ = lang_searcher.agg_composite(qterms, self.SOURCES, size=3)
        k2, _ = lang_searcher.agg_composite(
            qterms, self.SOURCES, size=3, after=k1[-1]
        )
        assert not (set(k1) & set(k2))
        assert all(k > k1[-1] for k in k2)

    def test_validation_and_empty(self, lang_searcher):
        with pytest.raises(ValueError, match="interval"):
            lang_searcher.agg_composite(
                ["data"], [("histogram", "n_chars", 0)]
            )
        with pytest.raises(ValueError, match="source"):
            lang_searcher.agg_composite(["data"], [("nope", "lang")])
        keys, counts = lang_searcher.agg_composite(
            ["zzznope"], self.SOURCES
        )
        assert keys == [] and counts.size == 0


class TestPercentileRanks:
    def test_exact_matches_bruteforce(self, agg_searcher, doc_fields):
        terms = tokenize("data query")
        vals = _match_vals(doc_fields, terms)
        for x in (120, 150, 200, 400):
            got = agg_searcher.agg_percentile_ranks(
                terms, "n_chars", (x,)
            )[0]
            want = 100.0 * int((vals <= x).sum()) / vals.size
            assert got == want, x

    def test_tdigest_inverse_close(self, agg_searcher, doc_fields):
        terms = tokenize("the")
        vals = _match_vals(doc_fields, terms)
        xs = (150.0, 300.0, 500.0)
        got = agg_searcher.agg_percentile_ranks(
            terms, "n_chars", xs, method="tdigest"
        )
        exact = [100.0 * (vals <= x).sum() / vals.size for x in xs]
        assert np.all(np.diff(got) >= 0)  # CDF is monotone
        np.testing.assert_allclose(got, exact, atol=4.0)

    def test_empty_and_bad_method(self, agg_searcher):
        out = agg_searcher.agg_percentile_ranks(["zzznope"], "n_chars", (1,))
        assert np.isnan(out).all()
        with pytest.raises(ValueError, match="method"):
            agg_searcher.agg_percentile_ranks(
                ["data"], "n_chars", (1,), method="nope"
            )


class TestUnigramLM:
    @pytest.fixture(scope="class")
    def fitted(self, sf_dir, ray_session):
        from neural_search_ray.textstats.lm import fit_unigram_lm

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        return fit_unigram_lm(ds)

    def test_fit_matches_bruteforce(self, fitted, doc_fields):
        vocab, lnp, total = fitted
        from collections import Counter

        cf = Counter()
        for toks, _ in doc_fields.values():
            cf.update(toks)
        assert total == sum(cf.values())
        assert set(vocab) == set(cf)
        for t, i in vocab.items():
            assert lnp[i] == np.log(cf[t] / total), t

    def test_scores_match_bruteforce(self, fitted, sf_dir, ray_session):
        from neural_search_ray.textstats.lm import lm_nll_dataset

        vocab, lnp, _ = fitted
        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        rows = {r["doc_id"]: r for r in lm_nll_dataset(ds).take_all()}
        import pyarrow.parquet as pq

        t = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        from neural_search_ray.analysis.analyzer import tokenize as tok

        for d, x in list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))[:50]:
            toks = tok(x)
            from collections import Counter

            c = Counter(toks)
            want = -sum(
                n * lnp[vocab[w]] for w, n in sorted(c.items())
            ) / len(toks)
            assert rows[d]["n_tokens"] == len(toks)
            # reduceat is pairwise, python sum sequential: 1-ulp apart
            np.testing.assert_allclose(rows[d]["nll"], want, rtol=1e-12)

    def test_oov_raises_without_smoothing(self, fitted):
        from neural_search_ray.textstats.lm import nll_score_stage

        vocab, lnp, _ = fitted
        batch = pa.table({"text": ["zzznotinvocab word"]})
        with pytest.raises(KeyError):
            nll_score_stage(vocab, lnp)(batch)
        out = nll_score_stage(vocab, lnp, smooth_unseen=True)(batch)
        assert out["nll"][0].as_py() > 0


class TestSignificantTerms:
    def _brute(self, doc_fields, qterms, size=10):
        ts = set(qterms)
        match = [toks for toks, _ in doc_fields.values() if ts & set(toks)]
        n_docs = float(len(doc_fields))
        f = float(len(match))
        fg = {}
        for toks in match:
            for t in set(toks):
                fg[t] = fg.get(t, 0) + 1
        bg = {}
        for toks, _ in doc_fields.values():
            for t in set(toks):
                bg[t] = bg.get(t, 0) + 1
        scored = []
        for t, fd in fg.items():
            fp, bp = fd / f, bg[t] / n_docs
            if fp > bp:
                raw = (fp - bp) * (fp / bp)
                scored.append((-np.floor(raw * 1e6 + 0.5) / 1e6, t, fd))
        scored.sort()
        return [t for _, t, _ in scored[:size]]

    def test_matches_bruteforce(self, agg_searcher, doc_fields):
        from neural_search_ray.query.significant import significant_terms

        for q in ("data query", "vector search", "the fast join"):
            terms, scores, fg, bg = significant_terms(
                agg_searcher, tokenize(q), size=10
            )
            assert terms == self._brute(doc_fields, tokenize(q)), q
            assert np.all(np.diff(scores) <= 0)
            assert np.all(fg >= 1) and np.all(bg >= fg)

    def test_no_match(self, agg_searcher):
        from neural_search_ray.query.significant import significant_terms

        terms, scores, fg, bg = significant_terms(agg_searcher, ["zzznope"])
        assert terms == [] and scores.size == 0

    def test_forward_files_opened_once(self, agg_searcher, monkeypatch):
        """The searcher keeps one forward reader per shard: a second call
        opens no forward file and returns the same result."""
        from neural_search_ray.index import forward
        from neural_search_ray.query.engine import IndexSearcher
        from neural_search_ray.query.significant import significant_terms

        s = IndexSearcher(agg_searcher.index_dir)
        first = significant_terms(s, tokenize("data query"), size=10)
        opened = []
        init = forward.ShardForward.__init__

        def counting_init(self, index_dir, shard):
            opened.append(shard)
            init(self, index_dir, shard)

        monkeypatch.setattr(forward.ShardForward, "__init__", counting_init)
        second = significant_terms(s, tokenize("data query"), size=10)
        assert opened == []
        assert first[0] == second[0]
        for a, b in zip(first[1:], second[1:]):
            assert np.array_equal(a, b)


class TestDecay:
    def test_validation(self, agg_searcher):
        with pytest.raises(ValueError):
            agg_searcher.search_decay(
                ["data"], "n_chars", origin=0, scale=0
            )
        with pytest.raises(ValueError):
            agg_searcher.search_decay(
                ["data"], "n_chars", origin=0, scale=10, decay=1.0
            )

    def test_huge_offset_is_plain_bm25(self, agg_searcher):
        terms = tokenize("data query")
        dd, ds_ = agg_searcher.search_decay(
            terms, "n_chars", origin=0, scale=10, offset=1e15, k=10
        )
        bd, bs = agg_searcher.search_bm25(terms, k=10)
        np.testing.assert_array_equal(dd, bd)
        np.testing.assert_allclose(ds_, bs, rtol=1e-15)

    def test_decay_prefers_near_origin(self, agg_searcher, doc_fields):
        # between two docs with equal bm25, the one closer to origin wins:
        # verify the multiplier ordering via a brute recompute
        terms = tokenize("data")
        docs, scores = agg_searcher.search_decay(
            terms, "n_chars", origin=150, scale=100, offset=10, k=5
        )
        assert docs.size > 0 and np.all(np.diff(scores) <= 0)


class TestDistributedAggs:
    """Shard-actor-pool variants must equal the single-searcher results
    (exact for cardinality-exact / significant / decay; register-exact
    for the HLL tier because registers depend only on the value SET)."""

    @pytest.fixture(scope="class")
    def dist(self, agg_searcher, ray_session):
        from neural_search_ray.query.distributed import DistributedSearcher

        d = DistributedSearcher(agg_searcher.index_dir, num_actors=2)
        yield d
        d.shutdown()

    def test_cardinality_exact(self, dist, agg_searcher):
        terms = tokenize("data query")
        want = agg_searcher.agg_cardinality(terms, "n_chars", 10**9)
        assert dist.agg_cardinality(terms, "n_chars", 10**9) == want

    def test_cardinality_sketch_matches_single(self, dist, agg_searcher):
        terms = tokenize("data query")
        got = dist.agg_cardinality(terms, "n_chars", precision_threshold=0)
        want = agg_searcher.agg_cardinality(
            terms, "n_chars", precision_threshold=0
        )
        assert got["exact"] is False
        # identical registers → identical estimate, any sharding
        assert got["value"] == want["value"]

    def test_percentiles_tdigest_close(self, dist, agg_searcher, doc_fields):
        terms = tokenize("the")
        vals = _match_vals(doc_fields, terms)
        got = dist.agg_percentiles(terms, "n_chars", (25, 50, 75))
        exact = np.percentile(vals, [25, 50, 75])
        span = vals.max() - vals.min()
        assert np.all(np.abs(got - exact) <= 0.03 * span)

    def test_significant_matches_single(self, dist, agg_searcher):
        from neural_search_ray.query.significant import significant_terms

        for q in ("data query", "vector search"):
            want = significant_terms(agg_searcher, tokenize(q), size=10)
            got = dist.significant_terms(tokenize(q), size=10)
            assert got[0] == want[0], q
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(got[2], want[2])
            np.testing.assert_array_equal(got[3], want[3])

    def test_decay_matches_single(self, dist, agg_searcher):
        terms = tokenize("data query")
        want = agg_searcher.search_decay(
            terms, "n_chars", origin=150, scale=100, offset=10, k=10
        )
        got = dist.search_decay(
            terms, "n_chars", origin=150, scale=100, offset=10, k=10
        )
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-15)


class TestDatasetAggs:
    @pytest.fixture(scope="class")
    def events(self, sf_dir, ray_session):
        return ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
        )

    @pytest.fixture(scope="class")
    def truth(self, sf_dir):
        import duckdb

        return {
            r[0]: r[1]
            for r in duckdb.sql(
                "SELECT event_type, count(DISTINCT user_id) FROM "
                f"'{sf_dir}/events.parquet' GROUP BY event_type"
            ).fetchall()
        }

    def test_exact_distinct(self, events, truth):
        from neural_search_ray.agg.dataset import exact_distinct

        got = {
            r["event_type"]: r["distinct_count"]
            for r in exact_distinct(events, "event_type", "user_id").take_all()
        }
        assert got == truth

    def test_hll_cardinality(self, events, truth):
        from neural_search_ray.agg.dataset import hll_cardinality

        got = {
            r["event_type"]: r["approx_distinct"]
            for r in hll_cardinality(
                events, "event_type", "user_id"
            ).take_all()
        }
        assert set(got) == set(truth)
        for k, v in truth.items():
            assert abs(got[k] - v) / max(v, 1) < 0.05, k

    def test_tdigest_quantiles(self, sf_dir, ray_session):
        import duckdb

        from neural_search_ray.agg.dataset import tdigest_quantiles

        ds = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        )
        rows = tdigest_quantiles(
            ds, "event_type", "value", qs=(0.5,), delta=200
        ).take_all()
        exact = {
            r[0]: r[1]
            for r in duckdb.sql(
                "SELECT event_type, quantile_cont(value, 0.5), "
                "max(value) - min(value) FROM "
                f"'{sf_dir}/events.parquet' GROUP BY event_type"
            ).fetchall()
        }
        span = {
            r[0]: r[2]
            for r in duckdb.sql(
                "SELECT event_type, quantile_cont(value, 0.5), "
                "max(value) - min(value) FROM "
                f"'{sf_dir}/events.parquet' GROUP BY event_type"
            ).fetchall()
        }
        assert {r["event_type"] for r in rows} == set(exact)
        for r in rows:
            k = r["event_type"]
            assert abs(r["value"] - exact[k]) <= 0.02 * span[k], k


class TestMadAndFilters:
    def test_mad_matches_bruteforce(self, agg_searcher, doc_fields):
        terms = tokenize("data query")
        vals = _match_vals(doc_fields, terms)
        med = np.percentile(vals, 50)
        want = np.percentile(np.abs(vals - med), 50)
        assert agg_searcher.agg_mad(terms, "n_chars") == want

    def test_mad_tdigest_close(self, agg_searcher, doc_fields):
        terms = tokenize("the")
        vals = _match_vals(doc_fields, terms)
        med = np.percentile(vals, 50)
        exact = np.percentile(np.abs(vals - med), 50)
        got = agg_searcher.agg_mad(terms, "n_chars", method="tdigest")
        span = vals.max() - vals.min()
        assert abs(got - exact) <= 0.03 * span

    def test_mad_empty_and_bad(self, agg_searcher):
        import math

        assert math.isnan(agg_searcher.agg_mad(["zzznope"], "n_chars"))
        with pytest.raises(ValueError, match="method"):
            agg_searcher.agg_mad(["data"], "n_chars", method="nope")

    def test_filters_match_bruteforce(self, agg_searcher, doc_fields, sf_dir):
        import pyarrow.parquet as pq

        t = pq.read_table(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        )
        meta = {
            int(d): (lg, int(n))
            for d, lg, n in zip(
                t["doc_id"].to_pylist(),
                t["lang"].to_pylist(),
                t["n_chars"].to_pylist(),
            )
        }
        terms = tokenize("data query")
        ts = set(terms)
        match = [
            d for d, (toks, _) in doc_fields.items() if ts & set(toks)
        ]
        got = agg_searcher.agg_filters(
            terms,
            {
                "short": ("n_chars", "<", 150),
                "en": ("lang", "==", "en"),
            },
        )
        assert got["short"] == sum(1 for d in match if meta[d][1] < 150)
        assert got["en"] == sum(1 for d in match if meta[d][0] == "en")
        empty = agg_searcher.agg_filters(
            ["zzznope"], {"x": ("n_chars", "<", 150)}
        )
        assert empty == {"x": 0}


class TestAdjacencyMatrix:
    def test_matches_bruteforce(self, agg_searcher, doc_fields, sf_dir):
        import pyarrow.parquet as pq

        t = pq.read_table(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        )
        meta = {
            int(d): (lg, int(n))
            for d, lg, n in zip(
                t["doc_id"].to_pylist(),
                t["lang"].to_pylist(),
                t["n_chars"].to_pylist(),
            )
        }
        terms = tokenize("data query")
        ts = set(terms)
        match = [d for d, (toks, _) in doc_fields.items() if ts & set(toks)]
        preds = {
            "en": lambda d: meta[d][0] == "en",
            "short": lambda d: meta[d][1] < 150,
        }
        want = {}
        for n, p in preds.items():
            c = sum(1 for d in match if p(d))
            if c:
                want[n] = c
        both = sum(
            1 for d in match if preds["en"](d) and preds["short"](d)
        )
        if both:
            want["en&short"] = both
        got = agg_searcher.agg_adjacency_matrix(
            terms,
            {"en": ("lang", "==", "en"), "short": ("n_chars", "<", 150)},
        )
        assert got == want
        assert agg_searcher.agg_adjacency_matrix(["zzznope"], {}) == {}


class TestPhraseSuggest:
    @pytest.fixture(scope="class")
    def lm(self, sf_dir, ray_session):
        from neural_search_ray.textstats.lm import fit_unigram_lm

        return fit_unigram_lm(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
        )

    def test_matches_bruteforce(self, agg_searcher, lm):
        import itertools
        import math

        from neural_search_ray.query.suggest import levenshtein
        from neural_search_ray.query.suggest import suggest_phrase

        vocab, lnp, _ = lm
        text = "dat query"
        toks = text.split()
        cand_lists = []
        for tok in toks:
            cs = sorted(
                (levenshtein(tok, t), -agg_searcher.local_df(t), t)
                for t in agg_searcher.expand_fuzzy(tok, 2, 0)
            )[:5]
            cand_lists.append([(t, d) for d, _, t in cs])
        want = []
        for combo in itertools.product(*cand_lists):
            phrase = tuple(c[0] for c in combo)
            if phrase == tuple(toks):
                continue
            sc = sum(lnp[vocab[c[0]]] for c in combo) + math.log(0.5) * sum(
                c[1] for c in combo
            )
            sc = math.floor(sc * 1e6 + 0.5) / 1e6 if sc >= 0 else math.ceil(sc * 1e6 - 0.5) / 1e6
            want.append((" ".join(phrase), sc))
        want.sort(key=lambda r: (-r[1], r[0]))
        got = suggest_phrase(
            agg_searcher, vocab, lnp, text, size=3, max_edits=2
        )
        assert got == want[:3]

    def test_floor_and_edges(self, agg_searcher, lm):
        from neural_search_ray.query.suggest import suggest_phrase

        vocab, lnp, _ = lm
        # OOV token with no candidates stays fixed at the LM floor
        got = suggest_phrase(agg_searcher, vocab, lnp, "zzzzqqqq dat")
        assert got and all(p.startswith("zzzzqqqq ") for p, _ in got)
        assert suggest_phrase(agg_searcher, vocab, lnp, "") == []
        # exact input phrase is never suggested
        got = suggest_phrase(agg_searcher, vocab, lnp, "data query")
        assert all(p != "data query" for p, _ in got)


class TestBigramLM:
    @pytest.fixture(scope="class")
    def model(self, sf_dir, ray_session):
        from neural_search_ray.textstats.lm import fit_bigram_lm

        return fit_bigram_lm(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
        )

    def test_fit_matches_bruteforce(self, model, doc_fields):
        from collections import Counter

        cbi, cctx = Counter(), Counter()
        for toks, _ in doc_fields.values():
            for a, b in zip(toks, toks[1:]):
                cbi[(a, b)] += 1
                cctx[a] += 1
        pv, bl = model["bi"]
        assert len(pv) == len(cbi)
        for pair, i in pv.items():
            a, b = pair.split("\x1f")
            assert bl[i] == np.log(cbi[(a, b)] / float(cctx[a])), pair

    def test_scores_match_bruteforce(self, model, sf_dir, ray_session):
        from neural_search_ray.textstats.lm import lm_bigram_nll_dataset

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        rows = {r["doc_id"]: r for r in lm_bigram_nll_dataset(ds).take_all()}
        import pyarrow.parquet as pq

        from neural_search_ray.analysis.analyzer import tokenize as tok

        uv, ul = model["uni"]
        pv, bl = model["bi"]
        t = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        for d, x in list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))[:40]:
            toks = tok(x)
            acc = ul[uv[toks[0]]]
            for a, b in zip(toks, toks[1:]):
                acc += bl[pv[a + "\x1f" + b]]
            np.testing.assert_allclose(
                rows[d]["nll"], -acc / len(toks), rtol=1e-12
            )
            assert rows[d]["n_tokens"] == len(toks)

    def test_unseen_raises_and_floor(self, model):
        from neural_search_ray.textstats.lm import bigram_nll_stage

        batch = pa.table({"text": ["data zzznotseen"]})
        with pytest.raises(KeyError):
            bigram_nll_stage(model)(batch)
        out = bigram_nll_stage(model, smooth_unseen=True)(batch)
        assert out["nll"][0].as_py() > 0


class TestMisraGries:
    def test_guarantee_on_zipf(self):
        from neural_search_ray.agg.sketches import MisraGries

        rng = np.random.default_rng(11)
        vals = rng.zipf(1.5, size=200_000) % 10_000
        true = {}
        for v in vals.tolist():
            true[v] = true.get(v, 0) + 1
        k = 50
        mg = MisraGries(k)
        for chunk in np.split(vals, 20):  # streaming adds
            mg.add(chunk)
        n = vals.size
        bound = n / (k + 1)
        # every true heavy hitter survives
        for v, c in true.items():
            if c > bound:
                assert v in mg.counts, v
        # reported counts are under-estimates within the bound
        for v, c in mg.counts.items():
            assert c <= true[v]
            assert true[v] - c <= mg.offset_total <= bound

    def test_merge_matches_stream(self):
        from neural_search_ray.agg.sketches import MisraGries

        rng = np.random.default_rng(12)
        vals = rng.zipf(1.3, size=100_000) % 1000
        parts = [MisraGries(40).add(c) for c in np.split(vals, 8)]
        merged = parts[0]
        for p in parts[1:]:
            merged.merge(p)
        true = {}
        for v in vals.tolist():
            true[v] = true.get(v, 0) + 1
        bound = vals.size / 41
        for v, c in true.items():
            if c > bound:
                assert v in merged.counts, v
        with pytest.raises(ValueError):
            MisraGries(10).merge(MisraGries(11))

    def test_exact_when_vocab_fits(self):
        from neural_search_ray.agg.sketches import MisraGries

        vals = np.array([1, 1, 1, 2, 2, 3] * 10)
        mg = MisraGries(10).add(vals)
        assert mg.top(3) == [(1, 30), (2, 20), (3, 10)]
        assert mg.offset_total == 0

    def test_dataset_heavy_hitters_exact_tier(self, sf_dir, ray_session):
        import duckdb

        from neural_search_ray.agg.dataset import heavy_hitters_terms

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        got = heavy_hitters_terms(ds, k=100, top=5)
        want = duckdb.sql(
            "SELECT term, count(*) c FROM ("
            "SELECT lower(t.term) term FROM "
            f"'{sf_dir}/documents.parquet', "
            "unnest(string_split(text, ' ')) t(term) WHERE t.term<>'') "
            "GROUP BY term ORDER BY c DESC, term LIMIT 5"
        ).fetchall()
        assert [(t, c) for t, c in got] == want


class TestDistributedAggs2:
    @pytest.fixture(scope="class")
    def dist(self, agg_searcher, ray_session):
        from neural_search_ray.query.distributed import DistributedSearcher

        d = DistributedSearcher(agg_searcher.index_dir, num_actors=2)
        yield d
        d.shutdown()

    def test_extended_stats_identical(self, dist, agg_searcher):
        terms = tokenize("data query")
        assert dist.agg_extended_stats(terms, "n_chars") == \
            agg_searcher.agg_extended_stats(terms, "n_chars")
        assert dist.agg_extended_stats(["zzznope"], "n_chars")["count"] == 0

    def test_adjacency_identical(self, dist, agg_searcher):
        filters = {
            "en": ("lang", "==", "en"),
            "short": ("n_chars", "<", 150),
        }
        terms = tokenize("data query")
        assert dist.agg_adjacency_matrix(terms, filters) == \
            agg_searcher.agg_adjacency_matrix(terms, filters)

    def test_percentile_ranks_close(self, dist, agg_searcher, doc_fields):
        terms = tokenize("the")
        vals = _match_vals(doc_fields, terms)
        xs = (150.0, 300.0)
        got = dist.agg_percentile_ranks(terms, "n_chars", xs)
        exact = [100.0 * (vals <= x).sum() / vals.size for x in xs]
        np.testing.assert_allclose(got, exact, atol=5.0)

    def test_mad_close(self, dist, agg_searcher, doc_fields):
        terms = tokenize("the")
        vals = _match_vals(doc_fields, terms)
        med = np.percentile(vals, 50)
        exact = np.percentile(np.abs(vals - med), 50)
        got = dist.agg_mad(terms, "n_chars")
        span = vals.max() - vals.min()
        assert abs(got - exact) <= 0.05 * span
        import math

        assert math.isnan(dist.agg_mad(["zzznope"], "n_chars"))


class TestDistributedPhraseSuggest:
    def test_matches_single(self, agg_searcher, ray_session, sf_dir):
        from neural_search_ray.query.distributed import DistributedSearcher
        from neural_search_ray.query.suggest import suggest_phrase
        from neural_search_ray.textstats.lm import fit_unigram_lm

        vocab, lnp, _ = fit_unigram_lm(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
        )
        d = DistributedSearcher(agg_searcher.index_dir, num_actors=2)
        try:
            for text in ("dat query", "merge sorr", "zzzzqqqq dat", ""):
                want = suggest_phrase(
                    agg_searcher, vocab, lnp, text, size=3, max_edits=2
                )
                got = d.suggest_phrase(
                    vocab, lnp, text, size=3, max_edits=2
                )
                assert got == want, text
        finally:
            d.shutdown()


class TestKeyedHeavyHitters:
    def test_exact_when_vocab_fits(self, sf_dir, ray_session):
        import duckdb

        from neural_search_ray.agg.dataset import heavy_hitters_by_key

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["lang", "text"]
        )
        got = {
            (r["lang"], r["rank"]): (r["term"], r["cf"])
            for r in heavy_hitters_by_key(ds, "lang", k=100, top=3).take_all()
        }
        want = duckdb.sql(
            "SELECT lang, term, cf, rank FROM ("
            "SELECT lang, term, count(*) cf, row_number() OVER "
            "(PARTITION BY lang ORDER BY count(*) DESC, term) rank FROM ("
            "SELECT d.lang, lower(t.term) term FROM "
            f"'{sf_dir}/documents.parquet' d, "
            "unnest(string_split(d.text, ' ')) t(term) WHERE t.term<>'') "
            "GROUP BY lang, term) WHERE rank <= 3"
        ).fetchall()
        assert got == {(lg, rk): (t, c) for lg, t, c, rk in want}

    def test_bounded_when_vocab_overflows(self, sf_dir, ray_session):
        # tiny k forces trims: counts must under-estimate within
        # N_key/(k+1) and true heavy items must survive
        import duckdb

        from neural_search_ray.agg.dataset import heavy_hitters_by_key

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["lang", "text"]
        )
        k = 8
        rows = heavy_hitters_by_key(ds, "lang", k=k, top=k).take_all()
        truth = {
            (lg, t): c
            for lg, t, c in duckdb.sql(
                "SELECT lang, term, count(*) FROM ("
                "SELECT d.lang, lower(t.term) term FROM "
                f"'{sf_dir}/documents.parquet' d, "
                "unnest(string_split(d.text, ' ')) t(term) "
                "WHERE t.term<>'') GROUP BY lang, term"
            ).fetchall()
        }
        n_per_key = {}
        for (lg, _), c in truth.items():
            n_per_key[lg] = n_per_key.get(lg, 0) + c
        for r in rows:
            true_c = truth[(r["lang"], r["term"])]
            assert r["cf"] <= true_c
            assert true_c - r["cf"] <= n_per_key[r["lang"]] / (k + 1)


@pytest.fixture(scope="module")
def s9_searcher(tmp_path_factory, sf_dir, ray_session):
    """Searcher with (lang, source, n_chars) doc-values — the session-9
    operator surface (boxplot / t_test / string_stats / distance_feature
    / pinned) needs the source keyword column."""
    from neural_search_ray.index.docvalues import build_doc_values

    d = str(tmp_path_factory.mktemp("s9_idx"))
    build_index(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
        d,
        IndexConfig(num_shards=2, num_salts=2),
    )
    build_doc_values(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "source", "n_chars"],
        ),
        d,
        num_shards=2,
    )
    return IndexSearcher(d)


@pytest.fixture(scope="module")
def doc_sources(sf_dir):
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return dict(zip(t["doc_id"].to_pylist(), t["source"].to_pylist()))


class TestBoxplot:
    def test_exact_matches_numpy(self, s9_searcher, doc_fields):
        terms = tokenize("data query")
        vals = _match_vals(doc_fields, terms)
        got = s9_searcher.agg_boxplot(terms, "n_chars")
        q1, q2, q3 = np.percentile(vals, [25, 50, 75], method="linear")
        assert got["min"] == vals.min() and got["max"] == vals.max()
        assert got["q1"] == q1 and got["q2"] == q2 and got["q3"] == q3

    def test_tdigest_tier_bounded(self, s9_searcher, doc_fields):
        terms = tokenize("data query")
        vals = _match_vals(doc_fields, terms)
        got = s9_searcher.agg_boxplot(terms, "n_chars", method="tdigest")
        assert got["min"] == vals.min() and got["max"] == vals.max()
        assert got["q1"] <= got["q2"] <= got["q3"]
        assert vals.min() <= got["q1"] and got["q3"] <= vals.max()

    def test_empty_and_validation(self, s9_searcher):
        got = s9_searcher.agg_boxplot(["zzznope"], "n_chars")
        assert got["min"] is None and got["q2"] is None
        with pytest.raises(ValueError, match="method"):
            s9_searcher.agg_boxplot(["data"], "n_chars", method="nope")


class TestTTest:
    def test_welch_matches_numpy(self, s9_searcher, doc_fields):
        ta, tb = tokenize("data query"), tokenize("the fast join")
        va, vb = _match_vals(doc_fields, ta), _match_vals(doc_fields, tb)
        got = s9_searcher.agg_t_test(ta, tb, "n_chars")
        assert got["n1"] == va.size and got["n2"] == vb.size
        want = (va.mean() - vb.mean()) / np.sqrt(
            va.var(ddof=1) / va.size + vb.var(ddof=1) / vb.size
        )
        np.testing.assert_allclose(got["t"], want, rtol=1e-9)

    def test_identical_populations_t_zero(self, s9_searcher):
        ta = tokenize("data query")
        got = s9_searcher.agg_t_test(ta, ta, "n_chars")
        assert got["t"] == 0.0

    def test_homoscedastic_pooled(self, s9_searcher, doc_fields):
        ta, tb = tokenize("vector search"), tokenize("merge sort window")
        va, vb = _match_vals(doc_fields, ta), _match_vals(doc_fields, tb)
        got = s9_searcher.agg_t_test(ta, tb, "n_chars", mode="homoscedastic")
        n1, n2 = va.size, vb.size
        sp2 = ((n1 - 1) * va.var(ddof=1) + (n2 - 1) * vb.var(ddof=1)) / (
            n1 + n2 - 2
        )
        want = (va.mean() - vb.mean()) / np.sqrt(sp2 * (1 / n1 + 1 / n2))
        np.testing.assert_allclose(got["t"], want, rtol=1e-9)

    def test_degenerate_and_validation(self, s9_searcher):
        got = s9_searcher.agg_t_test(["zzznope"], ["data"], "n_chars")
        assert got["n1"] == 0 and got["t"] is None
        with pytest.raises(ValueError, match="mode"):
            s9_searcher.agg_t_test(["data"], ["query"], "n_chars", mode="x")


class TestStringStats:
    def test_matches_bruteforce(self, s9_searcher, doc_fields, doc_sources):
        from collections import Counter

        terms = tokenize("data query")
        ts = set(terms)
        vals = [
            doc_sources[d]
            for d, (toks, _) in doc_fields.items()
            if ts & set(toks)
        ]
        got = s9_searcher.agg_string_stats(terms, "source")
        lens = [len(v) for v in vals]
        assert got["count"] == len(vals)
        assert got["min_length"] == min(lens)
        assert got["max_length"] == max(lens)
        assert got["avg_length"] == sum(lens) / len(vals)
        cnt = Counter("".join(vals))
        total = sum(cnt.values())
        want = -sum(
            (c / total) * np.log2(c / total) for c in cnt.values()
        )
        np.testing.assert_allclose(got["entropy"], want, rtol=1e-12)

    def test_empty(self, s9_searcher):
        got = s9_searcher.agg_string_stats(["zzznope"], "source")
        assert got["count"] == 0 and got["entropy"] == 0.0


class TestDistanceFeature:
    def test_matches_bruteforce(self, s9_searcher, doc_fields):
        terms = tokenize("data query")
        bd, bs = s9_searcher.search_bm25(terms, k=10**6)
        nmap = {d: n for d, (_, n) in doc_fields.items()}
        want = {
            d: s + 2.0 * (50.0 / (50.0 + abs(nmap[d] - 300.0)))
            for d, s in zip(bd.tolist(), bs.tolist())
        }
        docs, scores = s9_searcher.search_distance_feature(
            terms, "n_chars", origin=300.0, pivot=50.0, boost=2.0, k=10**6
        )
        assert set(docs.tolist()) == set(bd.tolist())
        for d, s in zip(docs.tolist(), scores.tolist()):
            assert s == want[d], d

    def test_validation(self, s9_searcher):
        with pytest.raises(ValueError, match="pivot"):
            s9_searcher.search_distance_feature(
                ["data"], "n_chars", origin=0.0, pivot=0.0
            )


class TestPinned:
    def test_pins_first_in_order(self, s9_searcher):
        terms = tokenize("data query")
        docs, scores = s9_searcher.search_pinned([7, 3, 11], terms, k=10)
        assert docs[:3].tolist() == [7, 3, 11]
        base = s9_searcher.PIN_SCORE_BASE
        assert scores[:3].tolist() == [base, base - 1.0, base - 2.0]
        assert docs.size == 10
        # organic tail: BM25 order with the pins removed
        bd, _ = s9_searcher.search_bm25(terms, k=20)
        organic = [d for d in bd.tolist() if d not in (7, 3, 11)][:7]
        assert docs[3:].tolist() == organic
        assert (scores[3:] < base - 2.0).all()

    def test_missing_and_duplicate_pins(self, s9_searcher):
        terms = tokenize("data query")
        docs, _ = s9_searcher.search_pinned(
            [10**9, 7, 7, 3], terms, k=10
        )
        assert docs[:2].tolist() == [7, 3]
        assert 10**9 not in docs.tolist()
        assert len(set(docs.tolist())) == docs.size

    def test_pins_cap_at_k(self, s9_searcher):
        docs, scores = s9_searcher.search_pinned(
            [1, 2, 3, 4, 5], tokenize("data"), k=3
        )
        assert docs.tolist() == [1, 2, 3]


class TestDistributedS9:
    """Distributed t_test / string_stats / boxplot / distance_feature /
    pinned vs the single searcher: moment- and histogram-merged aggs are
    bitwise identical; the boxplot tdigest tier is tolerance-bounded."""

    @pytest.fixture(scope="class")
    def dist9(self, s9_searcher, ray_session):
        from neural_search_ray.query.distributed import DistributedSearcher

        d = DistributedSearcher(s9_searcher.index_dir, num_actors=2)
        yield d
        d.shutdown()

    def test_t_test_identical(self, dist9, s9_searcher):
        ta, tb = tokenize("data query"), tokenize("the fast join")
        for mode in ("heteroscedastic", "homoscedastic"):
            want = s9_searcher.agg_t_test(ta, tb, "n_chars", mode=mode)
            got = dist9.agg_t_test(ta, tb, "n_chars", mode=mode)
            assert got == want, mode

    def test_string_stats_identical(self, dist9, s9_searcher):
        for q in ("data query", "vector search"):
            want = s9_searcher.agg_string_stats(tokenize(q), "source")
            got = dist9.agg_string_stats(tokenize(q), "source")
            assert got == want, q

    def test_boxplot_bounded(self, dist9, s9_searcher, doc_fields):
        terms = tokenize("the")
        vals = _match_vals(doc_fields, terms)
        got = dist9.agg_boxplot(terms, "n_chars")
        exact = s9_searcher.agg_boxplot(terms, "n_chars")
        assert got["min"] == exact["min"] and got["max"] == exact["max"]
        span = vals.max() - vals.min()
        for key in ("q1", "q2", "q3"):
            assert abs(got[key] - exact[key]) <= 0.03 * span, key

    def test_distance_feature_identical(self, dist9, s9_searcher):
        args = dict(origin=300.0, pivot=50.0, boost=2.0, k=12)
        sd, ss = s9_searcher.search_distance_feature(
            tokenize("data query"), "n_chars", **args
        )
        dd, ds_ = dist9.search_distance_feature(
            tokenize("data query"), "n_chars", **args
        )
        assert dd.tolist() == sd.tolist()
        np.testing.assert_allclose(ds_, ss, rtol=1e-15)

    def test_pinned_identical(self, dist9, s9_searcher):
        for pins in ([7, 3, 11], [10**9, 5], []):
            sd, ss = s9_searcher.search_pinned(
                pins, tokenize("data query"), k=10
            )
            dd, ds_ = dist9.search_pinned(pins, tokenize("data query"), k=10)
            assert dd.tolist() == sd.tolist(), pins
            np.testing.assert_allclose(ds_, ss, rtol=1e-15)


class TestSpanOr:
    def test_matches_bruteforce(self, s9_searcher, doc_fields):
        from collections import Counter

        clauses = tokenize("merge sort window")
        cs = set(clauses)
        per = {
            d: sum(c for t, c in Counter(toks).items() if t in cs)
            for d, (toks, _) in doc_fields.items()
        }
        per = {d: f for d, f in per.items() if f > 0}
        df = len(per)
        idf = np.log1p(
            (s9_searcher.n_docs - df + 0.5) / (df + 0.5)
        )
        k1, b = s9_searcher.bm25.k1, s9_searcher.bm25.b
        avgdl = s9_searcher.avgdl
        want = {
            d: idf * f / (f + k1 * (1.0 - b + b * len(doc_fields[d][0]) / avgdl))
            for d, f in per.items()
        }
        docs, scores = s9_searcher.search_span_or(clauses, k=10**6)
        assert set(docs.tolist()) == set(per)
        for d, s in zip(docs.tolist(), scores.tolist()):
            np.testing.assert_allclose(s, want[d], rtol=1e-12)

    def test_single_clause_equals_bm25(self, s9_searcher):
        sd, ss = s9_searcher.search_span_or(["data"], k=10)
        bd, bs = s9_searcher.search_bm25(["data"], k=10)
        assert sd.tolist() == bd.tolist()
        np.testing.assert_allclose(ss, bs, rtol=1e-12)

    def test_empty(self, s9_searcher):
        d, _ = s9_searcher.search_span_or([], k=5)
        assert d.size == 0
        d, _ = s9_searcher.search_span_or(["zzznope"], k=5)
        assert d.size == 0


class TestDistributedSpanOr:
    def test_identical_to_single(self, s9_searcher, ray_session):
        from neural_search_ray.query.distributed import DistributedSearcher

        d = DistributedSearcher(s9_searcher.index_dir, num_actors=2)
        try:
            for q in ("merge sort window", "data query", "vector"):
                sd, ss = s9_searcher.search_span_or(tokenize(q), k=12)
                dd, ds_ = d.search_span_or(tokenize(q), k=12)
                assert dd.tolist() == sd.tolist(), q
                np.testing.assert_allclose(ds_, ss, rtol=1e-15)
        finally:
            d.shutdown()


class TestSignificantText:
    def test_matches_bruteforce(self, agg_searcher, doc_fields):
        from collections import Counter

        from neural_search_ray.query.significant import significant_text

        terms = tokenize("data query")
        # sample = top-30 by BM25 (engine's own ranking is the spec)
        docs, _ = agg_searcher.search_bm25(terms, k=30)
        sample = set(docs.tolist())
        fg = Counter()
        for d in sample:
            fg.update(set(doc_fields[d][0]))
        n = agg_searcher.n_docs
        rows = []
        for t, f in fg.items():
            fp, bp = f / len(sample), agg_searcher.local_df(t) / n
            if fp > bp:
                raw = (fp - bp) * (fp / bp)
                rows.append((np.floor(raw * 1e6 + 0.5) / 1e6, t, f))
        got_t, got_s, got_f, _ = significant_text(
            agg_searcher, terms, sample_size=30, size=10
        )
        want = sorted(rows, key=lambda r: (-r[0], r[1]))[:10]
        assert got_t == [t for _, t, _ in want]
        assert got_f.tolist() == [f for _, _, f in want]

    def test_sample_smaller_than_match_set(self, agg_searcher):
        from neural_search_ray.query.significant import (
            significant_terms,
            significant_text,
        )

        terms = tokenize("the data")
        t_all = significant_terms(agg_searcher, terms, size=10)
        t_sample = significant_text(
            agg_searcher, terms, sample_size=5, size=10
        )
        # the 5-doc sample has fg_count=5 — different scores than the
        # full match set (the sampling is real, not a pass-through)
        assert t_sample[2].max() <= 5
        assert t_all[2].max() >= t_sample[2].max()


class TestVariableWidth:
    def test_matches_bruteforce(self, s9_searcher, doc_fields):
        terms = tokenize("data query")
        vals = _match_vals(doc_fields, terms).astype(np.int64)
        got = s9_searcher.agg_variable_width(terms, "n_chars", buckets=4)
        edges = np.percentile(
            vals.astype(np.float64), [25, 50, 75], method="linear"
        )
        ring = np.searchsorted(edges, vals, side="right")
        for b in got:
            sel = vals[ring == b["bucket"]]
            assert b["count"] == sel.size
            assert b["min"] == sel.min() and b["max"] == sel.max()
            assert b["avg"] == int(sel.sum()) / sel.size
        assert sum(b["count"] for b in got) == vals.size
        # equal-depth: buckets within 1 quantile step of each other
        cnts = [b["count"] for b in got]
        assert len(cnts) >= 2

    def test_empty_and_validation(self, s9_searcher):
        assert s9_searcher.agg_variable_width(["zzznope"], "n_chars") == []
        with pytest.raises(ValueError, match="buckets"):
            s9_searcher.agg_variable_width(["data"], "n_chars", buckets=1)
