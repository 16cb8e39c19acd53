"""Boolean / fuzzy / regexp / match_phrase_prefix query operators
(query/engine.py search_bool, expand_fuzzy/search_fuzzy, search_regexp,
search_phrase_prefix) — Lucene BooleanQuery / FuzzyQuery / RegexpQuery /
MultiPhraseQuery semantics restated over this engine."""

import numpy as np
import pyarrow as pa
import pytest

import ray

from neural_search_ray.analysis.analyzer import tokenize
from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from neural_search_ray.query.bm25 import bm25_idf
from neural_search_ray.query.engine import IndexSearcher


def _lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


@pytest.fixture(scope="module")
def searcher(tmp_path_factory, sf_dir, ray_session):
    d = str(tmp_path_factory.mktemp("qops_idx"))
    build_index(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
        d,
        IndexConfig(num_shards=4, num_salts=2, index_positions=True),
    )
    return IndexSearcher(d)


@pytest.fixture(scope="module")
def corpus(sf_dir):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return {
        int(d): tokenize(x)
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }


class TestFuzzy:
    def test_expansion_matches_bruteforce(self, searcher):
        vocab = [str(t) for t in searcher._gterms]
        for q, e, pl in [("quer", 1, 0), ("tabel", 2, 0), ("grop", 1, 1),
                         ("sort", 2, 0), ("xyzzy", 2, 0), ("a", 1, 0)]:
            want = [
                t for t in vocab
                if _lev(t, q) <= e and t[:pl] == q[:pl]
            ]
            assert searcher.expand_fuzzy(q, e, pl) == want, (q, e, pl)

    def test_distance_zero_is_exact(self, searcher):
        assert searcher.expand_fuzzy("data", 0) == ["data"]

    def test_constant_score_union(self, searcher, corpus):
        docs, scores = searcher.search_fuzzy("dat", k=10, max_edits=1)
        terms = set(searcher.expand_fuzzy("dat", 1))
        want = sorted(
            d for d, toks in corpus.items() if terms & set(toks)
        )[:10]
        assert docs.tolist() == want
        assert np.all(scores == 1.0)

    def test_max_expansions_guard(self, searcher):
        with pytest.raises(ValueError, match="max_expansions"):
            searcher.search_fuzzy("data", max_edits=2, max_expansions=0)

    def test_negative_edits_rejected(self, searcher):
        with pytest.raises(ValueError):
            searcher.expand_fuzzy("data", -1)


class TestRegexp:
    def test_fullmatch_vs_scan(self, searcher, corpus):
        import re

        for pat in ["s(can|ort)", "[bf]ast", "qu.*", ".a.a", "colum?n"]:
            rx = re.compile(pat)
            terms = {
                t for t in (str(x) for x in searcher._gterms)
                if rx.fullmatch(t)
            }
            want = sorted(
                d for d, toks in corpus.items() if terms & set(toks)
            )[:10]
            docs, scores = searcher.search_regexp(pat, k=10)
            assert docs.tolist() == want, pat
            assert np.all(scores == 1.0)

    def test_anchored_not_substring(self, searcher):
        # "can" alone must NOT match "scan" (full match, Lucene Regexp)
        assert "scan" not in [
            str(searcher._gterms[i])
            for i in range(len(searcher._gterms))
            if str(searcher._gterms[i]) == "can"
        ]
        docs, _ = searcher.search_regexp("can", k=10)
        # only docs containing the literal term "can" (none in corpus)
        ids = searcher.postings("can")[0]
        assert docs.tolist() == ids[:10].tolist()


class TestBool:
    def _ref(self, searcher, corpus, must, should, must_not, filt, msm):
        required = sorted(set(must) | set(filt))
        msm_eff = msm if msm is not None else (0 if required else 1)
        if not required:
            msm_eff = max(msm_eff, 1)
        from collections import Counter

        mult = Counter(must) + Counter(should)
        hits = []
        for d, toks in corpus.items():
            ts = set(toks)
            if any(t not in ts for t in required):
                continue
            if msm_eff and sum(t in ts for t in sorted(set(should))) < msm_eff:
                continue
            if any(t in ts for t in must_not):
                continue
            score = 0.0
            dl = float(len(toks))
            k1, b = searcher.bm25.k1, searcher.bm25.b
            for t, w in mult.items():
                tf = toks.count(t)
                if tf == 0:
                    continue
                idf = float(
                    bm25_idf(
                        np.array([max(searcher.local_df(t), 1e-9)]),
                        searcher.n_docs,
                    )[0]
                )
                score += w * idf * tf / (
                    tf + k1 * (1 - b + b * dl / searcher.avgdl)
                )
            hits.append((-score, d))
        hits.sort()
        return [d for _, d in hits], [-s for s, _ in hits]

    @pytest.mark.parametrize(
        "must,should,must_not,filt,msm",
        [
            (["data"], ["query", "fast"], ["slow"], [], None),
            ([], ["merge", "sort", "join"], [], [], 2),
            (["table", "scan"], [], [], [], None),
            (["data"], ["data", "query"], [], [], None),
            ([], ["group"], ["agg"], [], None),
            ([], ["join"], [], ["fast"], 0),
            ([], ["join", "merge"], ["slow"], ["fast"], 1),
        ],
    )
    def test_matches_bruteforce(
        self, searcher, corpus, must, should, must_not, filt, msm
    ):
        docs, scores = searcher.search_bool(
            must, should, must_not, k=25,
            filter_terms=filt, minimum_should_match=msm,
        )
        rd, rs = self._ref(searcher, corpus, must, should, must_not, filt, msm)
        assert docs.tolist() == rd[:25]
        np.testing.assert_allclose(scores, rs[: docs.size], rtol=1e-10)

    def test_pure_negation_rejected(self, searcher):
        with pytest.raises(ValueError, match="clause"):
            searcher.search_bool(must_not=["data"])

    def test_filter_only_scores_zero(self, searcher, corpus):
        docs, scores = searcher.search_bool(filter_terms=["fast"], k=8)
        want = sorted(d for d, toks in corpus.items() if "fast" in toks)[:8]
        assert docs.tolist() == want
        assert np.all(scores == 0.0)

    def test_duplicate_clause_doubles_score(self, searcher):
        d1, s1 = searcher.search_bool(should=["data"], k=5)
        d2, s2 = searcher.search_bool(should=["data", "data"], k=5)
        assert d1.tolist() == d2.tolist()
        np.testing.assert_allclose(2 * s1, s2, rtol=1e-12)

    def test_unknown_must_term_empty(self, searcher):
        docs, _ = searcher.search_bool(must=["zzznothere"], should=["data"])
        assert docs.size == 0


class TestPhrasePrefix:
    def test_matches_bruteforce(self, searcher, corpus):
        for qtext in ["data qu", "merge so", "the f", "a b"]:
            toks = tokenize(qtext)
            fixed, prefix = toks[:-1], toks[-1]
            exp = searcher.expand_prefix(prefix)[:50]
            n = len(toks)
            dfs = [max(searcher.local_df(t), 1e-9) for t in fixed + exp]
            idf_sum = float(
                bm25_idf(np.array(dfs, dtype=np.float64), searcher.n_docs).sum()
            )
            hits = []
            k1, b = searcher.bm25.k1, searcher.bm25.b
            for d, dt in corpus.items():
                tf = sum(
                    1
                    for i in range(len(dt) - n + 1)
                    if dt[i : i + n - 1] == fixed and dt[i + n - 1] in exp
                )
                if tf:
                    dl = float(len(dt))
                    hits.append(
                        (
                            -idf_sum * tf
                            / (tf + k1 * (1 - b + b * dl / searcher.avgdl)),
                            d,
                        )
                    )
            hits.sort()
            docs, scores = searcher.search_phrase_prefix(toks, k=12)
            assert docs.tolist() == [d for _, d in hits[:12]], qtext
            np.testing.assert_allclose(
                scores, [-s for s, _ in hits[:12]], rtol=1e-10
            )

    def test_max_expansions_cap_is_term_ordered(self, tmp_path, ray_session):
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": [0, 1, 2],
                    "text": ["x ba", "x bc", "x bb"],
                }
            )
        )
        idx = str(tmp_path / "cap")
        build_index(
            ds, idx,
            IndexConfig(num_shards=2, num_salts=1, index_positions=True),
        )
        s = IndexSearcher(idx)
        # expansions of "b" in term order: ba, bb, bc; cap 2 keeps ba, bb
        docs, _ = s.search_phrase_prefix(["x", "b"], k=10, max_expansions=2)
        assert set(docs.tolist()) == {0, 2}

    def test_empty_cases(self, searcher):
        d, _ = searcher.search_phrase_prefix([], k=5)
        assert d.size == 0
        d, _ = searcher.search_phrase_prefix(["zzznope", "qu"], k=5)
        assert d.size == 0
        d, _ = searcher.search_phrase_prefix(["data", "zzznope"], k=5)
        assert d.size == 0

    def test_single_prefix_term(self, searcher, corpus):
        # one-token phrase_prefix: tf = occurrences of ANY expansion
        docs, scores = searcher.search_phrase_prefix(["qu"], k=10)
        exp = set(searcher.expand_prefix("qu")[:50])
        want = {d for d, toks in corpus.items() if exp & set(toks)}
        assert set(docs.tolist()) <= want and docs.size == min(10, len(want))


class TestSpanNear:
    def _ref(self, corpus, searcher, terms, slop):
        """Greedy-minimal in-order chain reference in plain Python."""
        n = len(terms)
        dfs = [max(searcher.local_df(t), 1e-9) for t in terms]
        idf_sum = float(
            bm25_idf(np.array(dfs, dtype=np.float64), searcher.n_docs).sum()
        )
        hits = []
        k1, b = searcher.bm25.k1, searcher.bm25.b
        for d, toks in corpus.items():
            tf = 0
            for i, t in enumerate(toks):
                if t != terms[0]:
                    continue
                cur = i
                ok = True
                for j in range(1, n):
                    nxt = next(
                        (p for p in range(cur + 1, len(toks))
                         if toks[p] == terms[j]),
                        None,
                    )
                    if nxt is None:
                        ok = False
                        break
                    cur = nxt
                if ok and cur - i <= n - 1 + slop:
                    tf += 1
            if tf:
                dl = float(len(toks))
                hits.append(
                    (
                        -idf_sum * tf
                        / (tf + k1 * (1 - b + b * dl / searcher.avgdl)),
                        d,
                    )
                )
        hits.sort()
        return [d for _, d in hits], [-s for s, _ in hits]

    @pytest.mark.parametrize(
        "terms,slop",
        [
            (["data", "query"], 0),
            (["data", "query"], 1),
            (["merge", "sort"], 2),
            (["the", "join"], 3),
            (["table", "scan", "filter"], 1),
            (["slow", "group", "agg"], 2),
        ],
    )
    def test_matches_bruteforce(self, searcher, corpus, terms, slop):
        docs, scores = searcher.search_span_near(terms, k=15, slop=slop)
        rd, rs = self._ref(corpus, searcher, terms, slop)
        assert docs.tolist() == rd[:15], (terms, slop)
        np.testing.assert_allclose(scores, rs[: docs.size], rtol=1e-10)

    def test_slop_zero_equals_phrase(self, searcher):
        for q in ["data query", "table scan filter"]:
            toks = tokenize(q)
            sd, ss = searcher.search_span_near(toks, k=15, slop=0)
            pd_, ps = searcher.search_phrase(toks, k=15)
            assert sd.tolist() == pd_.tolist()
            np.testing.assert_allclose(ss, ps, rtol=1e-12)

    def test_negative_slop_rejected(self, searcher):
        with pytest.raises(ValueError):
            searcher.search_span_near(["data", "query"], slop=-1)

    def _ref_unordered(self, corpus, searcher, t0, t1, slop):
        dfs = np.array(
            [max(searcher.local_df(t), 1e-9) for t in (t0, t1)]
        )
        idf_sum = float(bm25_idf(dfs, searcher.n_docs).sum())
        hits = []
        k1, b = searcher.bm25.k1, searcher.bm25.b
        for d, toks in corpus.items():
            tf = 0
            for i, t in enumerate(toks):
                if t == t0:
                    other = t1
                elif t == t1:
                    other = t0
                else:
                    continue
                if other in toks[i + 1 : i + slop + 2]:
                    tf += 1
            if tf:
                dl = float(len(toks))
                hits.append(
                    (
                        -idf_sum * tf
                        / (tf + k1 * (1 - b + b * dl / searcher.avgdl)),
                        d,
                    )
                )
        hits.sort()
        return [d for _, d in hits], [-s for s, _ in hits]

    @pytest.mark.parametrize(
        "t0,t1,slop",
        [
            ("query", "data", 1),
            ("sort", "merge", 2),
            ("scan", "table", 0),
            ("join", "the", 3),
        ],
    )
    def test_unordered_matches_bruteforce(
        self, searcher, corpus, t0, t1, slop
    ):
        docs, scores = searcher.search_span_near(
            [t0, t1], k=15, slop=slop, in_order=False
        )
        rd, rs = self._ref_unordered(corpus, searcher, t0, t1, slop)
        assert docs.tolist() == rd[:15], (t0, t1, slop)
        np.testing.assert_allclose(scores, rs[: docs.size], rtol=1e-10)

    def test_unordered_superset_of_ordered(self, searcher):
        od, _ = searcher.search_span_near(
            ["data", "query"], k=10**6, slop=2
        )
        ud, _ = searcher.search_span_near(
            ["data", "query"], k=10**6, slop=2, in_order=False
        )
        assert set(od.tolist()) <= set(ud.tolist())

    def test_unordered_requires_two_terms(self, searcher):
        with pytest.raises(ValueError, match="exactly 2"):
            searcher.search_span_near(
                ["a", "b", "c"], slop=1, in_order=False
            )

    def test_empty_cases(self, searcher):
        d, _ = searcher.search_span_near([], k=5)
        assert d.size == 0
        d, _ = searcher.search_span_near(["zzznope", "data"], k=5, slop=3)
        assert d.size == 0


class TestFacetTerms:
    @pytest.fixture(scope="class")
    def dv_searcher(self, searcher, sf_dir, ray_session):
        from neural_search_ray.index.docvalues import build_doc_values

        import ray as _ray

        docs = _ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "lang", "n_chars"],
        )
        build_doc_values(
            docs, searcher.index_dir,
            num_shards=searcher.manifest.num_doc_shards,
        )
        return searcher

    def test_counts_match_bruteforce(self, dv_searcher, corpus, sf_dir):
        import pyarrow.parquet as pq
        from collections import Counter

        langs = dict(
            zip(
                pq.read_table(
                    f"{sf_dir}/documents.parquet", columns=["doc_id"]
                )["doc_id"].to_pylist(),
                pq.read_table(
                    f"{sf_dir}/documents.parquet", columns=["lang"]
                )["lang"].to_pylist(),
            )
        )
        for q in ["data query", "merge sort window", "vector search"]:
            terms = set(tokenize(q))
            match = {
                d for d, toks in corpus.items() if terms & set(toks)
            }
            want = Counter(langs[d] for d in match)
            values, counts = dv_searcher.facet_terms(tokenize(q), "lang")
            got = dict(zip(values, counts.tolist()))
            assert got == dict(want), q
            # ordering: count desc, value asc
            pairs = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
            assert values == [v for v, _ in pairs]

    def test_size_cap(self, dv_searcher):
        values, counts = dv_searcher.facet_terms(["data"], "lang", size=1)
        assert len(values) == 1 == counts.size

    def test_no_match_empty(self, dv_searcher):
        values, counts = dv_searcher.facet_terms(["zzznope"], "lang")
        assert values == [] and counts.size == 0


class TestAggregations:
    @pytest.fixture(scope="class")
    def nchars(self, sf_dir):
        import pyarrow.parquet as pq

        t = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        return dict(
            zip(t["doc_id"].to_pylist(), t["n_chars"].to_pylist())
        )

    def test_stats_matches_bruteforce(self, dv2_searcher, corpus, nchars):
        for q in ["data query", "vector search"]:
            terms = set(tokenize(q))
            vals = [
                nchars[d]
                for d, toks in corpus.items()
                if terms & set(toks)
            ]
            s = dv2_searcher.agg_stats(tokenize(q), "n_chars")
            assert s["count"] == len(vals)
            assert s["min"] == min(vals) and s["max"] == max(vals)
            assert s["sum"] == sum(vals)
            assert s["avg"] == sum(vals) / len(vals)

    def test_stats_empty(self, dv2_searcher):
        s = dv2_searcher.agg_stats(["zzznope"], "n_chars")
        assert s == {
            "count": 0, "min": None, "max": None, "sum": 0, "avg": None,
        }

    def test_histogram_matches_bruteforce(self, dv2_searcher, corpus, nchars):
        from collections import Counter

        terms = {"data"}
        want = Counter(
            (nchars[d] // 50) * 50
            for d, toks in corpus.items()
            if terms & set(toks)
        )
        u, c = dv2_searcher.agg_histogram(["data"], "n_chars", 50)
        assert dict(zip(u.tolist(), c.tolist())) == dict(want)
        assert np.all(np.diff(u) > 0)  # buckets ascending

    def test_histogram_bad_interval(self, dv2_searcher):
        with pytest.raises(ValueError):
            dv2_searcher.agg_histogram(["data"], "n_chars", 0)

    def test_range_matches_bruteforce(self, dv2_searcher, nchars):
        docs, scores = dv2_searcher.search_range("n_chars", 100, 200, k=12)
        want = sorted(d for d, v in nchars.items() if 100 <= v < 200)[:12]
        assert docs.tolist() == want
        assert np.all(scores == 1.0)
        d, _ = dv2_searcher.search_range("n_chars", 10**8, 10**9, k=5)
        assert d.size == 0

    @pytest.fixture(scope="class")
    def dv2_searcher(self, searcher, sf_dir, ray_session):
        import ray as _ray

        from neural_search_ray.index.docvalues import build_doc_values

        build_doc_values(
            _ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "n_chars"],
            ),
            searcher.index_dir,
            num_shards=searcher.manifest.num_doc_shards,
        )
        return searcher


class TestQueryStringParser:
    def test_clause_shapes(self):
        from neural_search_ray.query.querystring import parse_query_string

        cs = parse_query_string('+data -slow "merge sort" qu* fast')
        assert [(c.occur, c.kind, c.payload) for c in cs] == [
            ("must", "term", ("data",)),
            ("must_not", "term", ("slow",)),
            ("should", "phrase", ("merge", "sort")),
            ("should", "prefix", ("qu",)),
            ("should", "term", ("fast",)),
        ]

    def test_never_raises(self):
        from neural_search_ray.query.querystring import parse_query_string

        # dangling quote closes at EOS; bare +/-/* are dropped
        cs = parse_query_string('-"data query +  * - WEIRD*case')
        kinds = [(c.occur, c.kind) for c in cs]
        assert ("must_not", "phrase") in kinds
        assert parse_query_string("") == []
        assert parse_query_string("   ") == []
        # mid-token * is literal text, analyzed as a term
        cs = parse_query_string("a*b")
        assert all(c.kind == "term" for c in cs)

    def test_occur_binds_to_adjacent_token_only(self):
        from neural_search_ray.query.querystring import parse_query_string

        cs = parse_query_string("+new york")
        assert [(c.occur, c.payload[0]) for c in cs] == [
            ("must", "new"), ("should", "york"),
        ]


class TestQueryString:
    def _ref(self, searcher, corpus, qs):
        """Brute-force clause evaluation in plain Python."""
        from neural_search_ray.query.querystring import parse_query_string

        clauses = parse_query_string(qs)
        must = [c for c in clauses if c.occur == "must"]
        should = [c for c in clauses if c.occur == "should"]
        nots = [c for c in clauses if c.occur == "must_not"]
        if not must and not should:
            return [], []
        vocab = [str(t) for t in searcher._gterms]

        def matches(c, toks):
            if c.kind == "term":
                return c.payload[0] in toks
            if c.kind == "phrase":
                n = len(c.payload)
                return any(
                    tuple(toks[i : i + n]) == c.payload
                    for i in range(len(toks) - n + 1)
                )
            return any(t.startswith(c.payload[0]) for t in toks)

        def phrase_score(c, toks, dl):
            n = len(c.payload)
            tf = sum(
                1
                for i in range(len(toks) - n + 1)
                if tuple(toks[i : i + n]) == c.payload
            )
            if tf == 0:
                return 0.0
            dfs = np.array(
                [max(searcher.local_df(t), 1e-9) for t in c.payload]
            )
            idf = float(bm25_idf(dfs, searcher.n_docs).sum())
            k1, b = searcher.bm25.k1, searcher.bm25.b
            return idf * tf / (tf + k1 * (1 - b + b * dl / searcher.avgdl))

        hits = []
        for d, toks in corpus.items():
            if any(not matches(c, toks) for c in must):
                continue
            if any(matches(c, toks) for c in nots):
                continue
            if not must and not any(matches(c, toks) for c in should):
                continue
            dl = float(len(toks))
            score = 0.0
            k1, b = searcher.bm25.k1, searcher.bm25.b
            for c in must + should:
                if c.kind == "term":
                    tf = toks.count(c.payload[0])
                    if tf:
                        idf = float(
                            bm25_idf(
                                np.array(
                                    [max(searcher.local_df(c.payload[0]), 1e-9)]
                                ),
                                searcher.n_docs,
                            )[0]
                        )
                        score += idf * tf / (
                            tf + k1 * (1 - b + b * dl / searcher.avgdl)
                        )
                elif c.kind == "phrase":
                    score += phrase_score(c, toks, dl)
                else:
                    score += 1.0 if matches(c, toks) else 0.0
            hits.append((-score, d))
        hits.sort()
        return [d for _, d in hits], [-s for s, _ in hits]

    @pytest.mark.parametrize(
        "qs",
        [
            "data query -slow",
            "+merge +sort join",
            '"table scan" filter',
            '+"data query" -batch',
            "qu* fast",
            "+table sc*",
            'the "group agg"',
            "data data",  # duplicate should term: multiplicity 2
        ],
    )
    def test_matches_bruteforce(self, searcher, corpus, qs):
        docs, scores = searcher.search_simple_query_string(qs, k=20)
        rd, rs = self._ref(searcher, corpus, qs)
        assert docs.tolist() == rd[:20], qs
        np.testing.assert_allclose(scores, rs[: docs.size], rtol=1e-10)

    def test_only_negative_matches_nothing(self, searcher):
        d, _ = searcher.search_simple_query_string("-data", k=5)
        assert d.size == 0
        d, _ = searcher.search_simple_query_string("", k=5)
        assert d.size == 0


class TestMoreLikeThis:
    def test_excludes_source_and_is_deterministic(self, sf_dir, ray_session):
        from neural_search_ray.pipelines.suite import (
            _MLT_MOD,
            q_more_like_this,
        )

        t1 = q_more_like_this(sf_dir)
        t2 = q_more_like_this(sf_dir)
        assert t1.equals(t2)
        assert t1.num_rows > 0
        qids = np.asarray(t1["query_id"].to_pylist())
        docs = np.asarray(t1["doc_id"].to_pylist())
        # ES include=false: a source doc never appears in its own hits
        assert not np.any(qids == docs)
        # every source is a sampled doc
        assert np.all(qids % _MLT_MOD == 0)


class TestDistributedQueryOps:
    """The shard-actor-pool path must be rank-identical (docs AND
    scores) to the single-process searcher for every new query type —
    global stats resolved by the coordinator, matching shard-local."""

    @pytest.fixture(scope="class")
    def dsearch(self, searcher, ray_session):
        from neural_search_ray.query.distributed import DistributedSearcher

        d = DistributedSearcher(searcher.index_dir, num_actors=2)
        yield d
        d.shutdown()

    def test_phrase_identical(self, searcher, dsearch):
        for q in ["data query", "merge sort", "table scan filter"]:
            sd, ss = searcher.search_phrase(tokenize(q), k=12)
            dd, ds_ = dsearch.search_phrase(tokenize(q), k=12)
            assert dd.tolist() == sd.tolist(), q
            np.testing.assert_allclose(ds_, ss, rtol=1e-12)

    def test_bool_identical(self, searcher, dsearch):
        cases = [
            (["data"], ["query", "fast"], ["slow"], [], None),
            ([], ["merge", "sort", "join"], [], [], 2),
            ([], ["join"], [], ["fast"], 0),
        ]
        for must, should, mn, filt, msm in cases:
            sd, ss = searcher.search_bool(
                must, should, mn, k=15,
                filter_terms=filt, minimum_should_match=msm,
            )
            dd, ds_ = dsearch.search_bool(
                must, should, mn, k=15,
                filter_terms=filt, minimum_should_match=msm,
            )
            assert dd.tolist() == sd.tolist()
            np.testing.assert_allclose(ds_, ss, rtol=1e-12)

    def test_phrase_prefix_identical(self, searcher, dsearch):
        for q in ["data qu", "the f", "a b"]:
            sd, ss = searcher.search_phrase_prefix(tokenize(q), k=12)
            dd, ds_ = dsearch.search_phrase_prefix(tokenize(q), k=12)
            assert dd.tolist() == sd.tolist(), q
            np.testing.assert_allclose(ds_, ss, rtol=1e-12)

    def test_facet_identical(self, searcher, dsearch, sf_dir):
        import ray as _ray
        from neural_search_ray.index.docvalues import build_doc_values

        build_doc_values(
            _ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "n_chars"],
            ),
            searcher.index_dir,
            num_shards=searcher.manifest.num_doc_shards,
        )
        for q in ["data query", "vector search", "zzznope"]:
            sv, sc = searcher.facet_terms(tokenize(q), "lang")
            dv, dc = dsearch.facet_terms(tokenize(q), "lang")
            assert dv == sv, q
            assert dc.tolist() == sc.tolist()

    def test_multiterm_identical(self, searcher, dsearch):
        pairs = [
            (searcher.search_prefix, dsearch.search_prefix, ("qu",)),
            (searcher.search_wildcard, dsearch.search_wildcard, ("s*m",)),
            (searcher.search_regexp, dsearch.search_regexp, ("gr[ao]up",)),
        ]
        for sf_, df_, args in pairs:
            sd, _ = sf_(*args, k=12)
            dd, dsc = df_(*args, k=12)
            assert dd.tolist() == sd.tolist(), args
            assert np.all(dsc == 1.0)
        sd, _ = searcher.search_fuzzy("quer", k=12, max_edits=1)
        dd, _ = dsearch.search_fuzzy("quer", k=12, max_edits=1)
        assert dd.tolist() == sd.tolist()


class TestDisMax:
    def _brute(self, searcher, subs, tb, k=10):
        parts = [
            searcher.search_bm25(sub, k=10**6)
            for sub in subs
        ]
        acc = {}
        for docs, scores in parts:
            for d, s in zip(docs.tolist(), scores.tolist()):
                acc.setdefault(d, []).append(s)
        scored = []
        for d, ss in acc.items():
            mx = max(ss)
            scored.append((-(mx + tb * (sum(ss) - mx)), d))
        scored.sort()
        return [d for _, d in scored[:k]], [-s for s, _ in scored[:k]]

    @pytest.mark.parametrize(
        "subs,tb",
        [
            ([["data", "query"], ["vector", "search"]], 0.0),
            ([["merge", "sort"], ["window"]], 0.3),
            ([["the"], ["join", "table"]], 0.5),
        ],
    )
    def test_matches_bruteforce(self, searcher, subs, tb):
        docs, scores = searcher.search_dis_max(subs, k=10, tie_breaker=tb)
        rd, rs = self._brute(searcher, subs, tb)
        assert docs.tolist() == rd
        np.testing.assert_allclose(scores, rs, rtol=1e-12)

    def test_tb_one_disjoint_equals_bool_or(self, searcher):
        dd, ds = searcher.search_dis_max(
            [["data", "query"], ["join"]], k=10, tie_breaker=1.0
        )
        bd, bs = searcher.search_bm25(["data", "query", "join"], k=10)
        assert dd.tolist() == bd.tolist()
        np.testing.assert_allclose(ds, bs, rtol=1e-12)

    def test_validation_and_empty(self, searcher):
        with pytest.raises(ValueError):
            searcher.search_dis_max([["a"]], tie_breaker=1.5)
        d, _ = searcher.search_dis_max([["zzznope"], []], k=5)
        assert d.size == 0


class TestBoosting:
    def test_demotes_but_keeps(self, searcher):
        pd_, ps = searcher.search_bm25(["data", "query"], k=10**6)
        docs, scores = searcher.search_boosting(
            ["data", "query"], ["slow"], negative_boost=0.5, k=10**6
        )
        assert set(docs.tolist()) == set(pd_.tolist())  # nothing removed
        base = dict(zip(pd_.tolist(), ps.tolist()))
        neg = set(searcher.postings("slow")[0].tolist())
        for d, s in zip(docs.tolist(), scores.tolist()):
            want = base[d] * 0.5 if d in neg else base[d]
            assert s == want, d

    def test_boost_one_is_identity(self, searcher):
        bd, bs = searcher.search_bm25(["merge", "sort"], k=10)
        dd, ds = searcher.search_boosting(
            ["merge", "sort"], ["the"], negative_boost=1.0, k=10
        )
        np.testing.assert_array_equal(dd, bd)
        np.testing.assert_array_equal(ds, bs)

    def test_unknown_negative_and_validation(self, searcher):
        bd, _ = searcher.search_bm25(["data"], k=10)
        dd, _ = searcher.search_boosting(["data"], ["zzznope"], k=10)
        np.testing.assert_array_equal(dd, bd)
        with pytest.raises(ValueError):
            searcher.search_boosting(["data"], ["slow"], negative_boost=2.0)


class TestTopHits:
    @pytest.fixture(scope="class")
    def dv_searcher(self, searcher, sf_dir, ray_session):
        from neural_search_ray.index.docvalues import build_doc_values

        build_doc_values(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
            ),
            searcher.index_dir,
            num_shards=searcher.manifest.num_doc_shards,
        )
        return searcher

    def test_matches_bruteforce(self, dv_searcher, sf_dir):
        import pyarrow.parquet as pq

        langs = dict(
            zip(
                pq.read_table(
                    f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
                )["doc_id"].to_pylist(),
                pq.read_table(
                    f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
                )["lang"].to_pylist(),
            )
        )
        terms = ["data", "query"]
        cd, cs = dv_searcher.search_bm25(terms, k=10**6)
        cs = np.floor(cs * 1e6 + 0.5) / 1e6
        want = {}
        for lang in sorted(set(langs.values())):
            sel = [i for i, d in enumerate(cd.tolist()) if langs[d] == lang]
            if not sel:
                continue
            d = cd[sel]
            s = cs[sel]
            o = np.lexsort((d, -s))[:3]
            want[lang] = (d[o].tolist(), s[o].tolist())
        bv, br, bd, bs = dv_searcher.facet_top_hits(terms, "lang", 3)
        got = {}
        for v, r, d, s in zip(bv, br.tolist(), bd.tolist(), bs.tolist()):
            got.setdefault(v, ([], []))
            got[v][0].append(d)
            got[v][1].append(s)
        assert {k: v[0] for k, v in got.items()} == {
            k: v[0] for k, v in want.items()
        }
        for k in want:
            np.testing.assert_allclose(got[k][1], want[k][1], rtol=0)

    def test_no_match(self, dv_searcher):
        bv, br, bd, bs = dv_searcher.facet_top_hits(["zzznope"], "lang")
        assert bv == [] and bd.size == 0


class TestSuggestTerm:
    def test_missing_mode_gates_known_terms(self, searcher):
        assert searcher.suggest_term("data") == []
        assert searcher.suggest_term("dta") != []

    def test_ranking_matches_bruteforce(self, searcher):
        vocab = [str(t) for t in searcher._gterms]
        for q in ("dat", "tabel", "ro", "grup"):
            want = sorted(
                (_lev(q, t), -searcher.local_df(t), t)
                for t in vocab
                if t != q and _lev(q, t) <= 2
            )[:5]
            got = searcher.suggest_term(q, size=5, suggest_mode="always")
            assert got == [(t, -nd, d) for d, nd, t in want], q

    def test_never_suggests_self_and_validates(self, searcher):
        got = searcher.suggest_term("sort", suggest_mode="always")
        assert all(t != "sort" for t, _, _ in got)
        with pytest.raises(ValueError, match="suggest_mode"):
            searcher.suggest_term("x", suggest_mode="nope")

    def test_popular_mode_filters_by_df(self, searcher):
        """popular keeps only suggestions with df STRICTLY above the
        input's df — a rare-but-present term can still be corrected,
        unlike missing mode."""
        # 'row' exists; its 2-edit neighbor 'slow' is MORE frequent —
        # missing mode is silent, popular still corrects
        in_df = searcher.local_df("row")
        assert in_df > 0
        assert searcher.suggest_term("row", suggest_mode="missing") == []
        got = searcher.suggest_term("row", suggest_mode="popular", size=10)
        assert got, "popular should still correct a present term"
        assert all(f > in_df for _, f, _ in got)
        alw = searcher.suggest_term("row", suggest_mode="always", size=10)
        assert {t for t, _, _ in got} <= {t for t, _, _ in alw}


class TestDistributedCompound:
    """Distributed dis_max / boosting / rank_feature / top_hits /
    suggest must be identical to the single searcher (docs AND scores;
    same global-stats coordinator discipline as BM25)."""

    @pytest.fixture(scope="class")
    def dv2_searcher(self, searcher, sf_dir, ray_session):
        from neural_search_ray.index.docvalues import build_doc_values

        build_doc_values(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "n_chars"],
            ),
            searcher.index_dir,
            num_shards=searcher.manifest.num_doc_shards,
        )
        return searcher

    @pytest.fixture(scope="class")
    def dsearch2(self, dv2_searcher, ray_session):
        from neural_search_ray.query.distributed import DistributedSearcher

        d = DistributedSearcher(dv2_searcher.index_dir, num_actors=2)
        yield d
        d.shutdown()

    def test_dis_max_identical(self, dv2_searcher, dsearch2):
        for subs, tb in [
            ([["data", "query"], ["vector", "search"]], 0.0),
            ([["merge", "sort"], ["window"]], 0.3),
        ]:
            sd, ss = dv2_searcher.search_dis_max(subs, k=12, tie_breaker=tb)
            dd, ds_ = dsearch2.search_dis_max(subs, k=12, tie_breaker=tb)
            assert dd.tolist() == sd.tolist(), subs
            np.testing.assert_allclose(ds_, ss, rtol=1e-14)

    def test_boosting_identical(self, dv2_searcher, dsearch2):
        sd, ss = dv2_searcher.search_boosting(
            ["data", "query"], ["slow"], negative_boost=0.4, k=12
        )
        dd, ds_ = dsearch2.search_boosting(
            ["data", "query"], ["slow"], negative_boost=0.4, k=12
        )
        assert dd.tolist() == sd.tolist()
        np.testing.assert_allclose(ds_, ss, rtol=1e-14)

    def test_rank_feature_identical(self, dv2_searcher, dsearch2):
        sd, ss = dv2_searcher.search_rank_feature(
            ["data", "query"], "n_chars", pivot=200.0, boost=2.0, k=12
        )
        dd, ds_ = dsearch2.search_rank_feature(
            ["data", "query"], "n_chars", pivot=200.0, boost=2.0, k=12
        )
        assert dd.tolist() == sd.tolist()
        np.testing.assert_allclose(ds_, ss, rtol=1e-14)

    def test_top_hits_identical(self, dv2_searcher, dsearch2):
        sv, sr, sdd, sss = dv2_searcher.facet_top_hits(
            ["data", "query"], "lang", 3
        )
        dv, dr, ddd, dss = dsearch2.facet_top_hits(
            ["data", "query"], "lang", 3
        )
        assert dv == sv
        np.testing.assert_array_equal(dr, sr)
        np.testing.assert_array_equal(ddd, sdd)
        np.testing.assert_array_equal(dss, sss)

    def test_suggest_identical(self, dv2_searcher, dsearch2):
        for q in ("dat", "tabel", "ro", "grup", "sort"):
            assert dsearch2.suggest_term(
                q, suggest_mode="always"
            ) == dv2_searcher.suggest_term(q, suggest_mode="always"), q
        assert dsearch2.suggest_term("data") == []


class TestSynonymQuery:
    def _brute(self, searcher, corpus, groups, k=10):
        k1, b = searcher.bm25.k1, searcher.bm25.b
        acc = {}
        for group in groups:
            gterms = sorted(set(group))
            df_max = max(searcher.local_df(t) for t in gterms)
            if df_max <= 0:
                continue
            idf = float(bm25_idf(np.array([float(df_max)]), searcher.n_docs)[0])
            for d, toks in corpus.items():
                tf = sum(toks.count(t) for t in gterms)
                if tf:
                    dl = float(len(toks))
                    s = idf * tf / (tf + k1 * (1 - b + b * dl / searcher.avgdl))
                    acc[d] = acc.get(d, 0.0) + s
        hits = sorted((-s, d) for d, s in acc.items())[:k]
        return [d for _, d in hits], [-s for s, _ in hits]

    @pytest.mark.parametrize(
        "groups",
        [
            [["data", "stream"], ["query"]],
            [["fast", "quick"], ["scan", "table"]],
            [["the"], ["row", "line"]],
        ],
    )
    def test_matches_bruteforce(self, searcher, corpus, groups):
        docs, scores = searcher.search_synonym(groups, k=10)
        rd, rs = self._brute(searcher, corpus, groups)
        assert docs.tolist() == rd, groups
        np.testing.assert_allclose(scores, rs, rtol=1e-12)

    def test_single_term_group_is_plain_bm25(self, searcher):
        sd, ss = searcher.search_synonym([["data"]], k=10)
        bd, bs = searcher.search_bm25(["data"], k=10)
        np.testing.assert_array_equal(sd, bd)
        np.testing.assert_allclose(ss, bs, rtol=1e-15)

    def test_oov_group_skipped(self, searcher):
        sd, ss = searcher.search_synonym(
            [["zzznope", "qqqmissing"], ["data"]], k=10
        )
        bd, _ = searcher.search_bm25(["data"], k=10)
        np.testing.assert_array_equal(sd, bd)
        d, _ = searcher.search_synonym([["zzznope"]], k=5)
        assert d.size == 0


class TestRareTerms:
    def test_matches_bruteforce(self, searcher, corpus):
        from collections import Counter

        df = Counter()
        for toks in corpus.values():
            df.update(set(toks))
        for cap in (1, 300, 10**6):
            want = sorted((c, t) for t, c in df.items() if c <= cap)[:10]
            terms, dfs = searcher.agg_rare_terms(max_doc_count=cap, size=10)
            assert list(zip(dfs.tolist(), terms)) == want, cap

    def test_validation(self, searcher):
        with pytest.raises(ValueError):
            searcher.agg_rare_terms(max_doc_count=0)


class TestDistributedCompound2:
    """Synonym / rare_terms / composite / filters actor-pool parity."""

    @pytest.fixture(scope="class")
    def dv3_searcher(self, searcher, sf_dir, ray_session):
        from neural_search_ray.index.docvalues import build_doc_values

        build_doc_values(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "n_chars"],
            ),
            searcher.index_dir,
            num_shards=searcher.manifest.num_doc_shards,
        )
        return searcher

    @pytest.fixture(scope="class")
    def dsearch3(self, dv3_searcher, ray_session):
        from neural_search_ray.query.distributed import DistributedSearcher

        d = DistributedSearcher(dv3_searcher.index_dir, num_actors=2)
        yield d
        d.shutdown()

    def test_synonym_identical(self, dv3_searcher, dsearch3):
        for groups in (
            [["data", "stream"], ["query"]],
            [["fast", "quick"], ["scan", "table"]],
        ):
            sd, ss = dv3_searcher.search_synonym(groups, k=12)
            dd, ds_ = dsearch3.search_synonym(groups, k=12)
            assert dd.tolist() == sd.tolist(), groups
            np.testing.assert_allclose(ds_, ss, rtol=1e-14)

    def test_rare_terms_identical(self, dv3_searcher, dsearch3):
        for cap in (1, 300, 390, 10**6):
            st, sdf = dv3_searcher.agg_rare_terms(max_doc_count=cap, size=10)
            dt, ddf = dsearch3.agg_rare_terms(max_doc_count=cap, size=10)
            assert dt == st, cap
            np.testing.assert_array_equal(ddf, sdf)

    def test_composite_identical(self, dv3_searcher, dsearch3):
        srcs = [("terms", "lang"), ("histogram", "n_chars", 100)]
        terms = tokenize("data query")
        sk, sc = dv3_searcher.agg_composite(terms, srcs, size=6)
        dk, dc = dsearch3.agg_composite(terms, srcs, size=6)
        assert dk == sk
        np.testing.assert_array_equal(dc, sc)
        # paging agrees too
        sk2, sc2 = dv3_searcher.agg_composite(terms, srcs, size=6, after=sk[-1])
        dk2, dc2 = dsearch3.agg_composite(terms, srcs, size=6, after=sk[-1])
        assert dk2 == sk2
        np.testing.assert_array_equal(dc2, sc2)

    def test_filters_identical(self, dv3_searcher, dsearch3):
        filters = {
            "short": ("n_chars", "<", 150),
            "en": ("lang", "==", "en"),
        }
        terms = tokenize("data query")
        assert dsearch3.agg_filters(terms, filters) == dv3_searcher.agg_filters(
            terms, filters
        )


class TestContextCompletion:
    """index/contexts.py — the ES completion-contexts mapping analogue:
    per-(context, term) df sidecar + binary-search suggest."""

    @pytest.fixture(scope="class")
    def ctx_dir(self, tmp_path_factory, sf_dir, ray_session):
        from neural_search_ray.index.contexts import (
            build_completion_contexts,
        )

        d = str(tmp_path_factory.mktemp("ctx"))
        build_completion_contexts(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text", "lang"],
            ),
            d,
        )
        return d

    def test_matches_bruteforce(self, ctx_dir, sf_dir):
        import pyarrow.parquet as pq_

        from neural_search_ray.analysis.analyzer import tokenize
        from neural_search_ray.index.contexts import ContextSuggester

        t = pq_.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
        rows = list(
            zip(t["lang"].to_pylist(), t["text"].to_pylist())
        )
        sug = ContextSuggester(ctx_dir)
        for pfx, ctx in [("da", "en"), ("qu", "de"), ("w00", "es"), ("zz", "en")]:
            df = {}
            for lang, text in rows:
                if lang != ctx:
                    continue
                for term in set(tokenize(text)):
                    if term.startswith(pfx):
                        df[term] = df.get(term, 0) + 1
            want = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            terms, weights = sug.suggest(pfx, ctx, size=5)
            assert list(zip(terms, weights.tolist())) == want, (pfx, ctx)

    def test_idempotent_build(self, ctx_dir, sf_dir, ray_session):
        import os

        from neural_search_ray.index.contexts import (
            SIDECAR, build_completion_contexts,
        )

        p = os.path.join(ctx_dir, SIDECAR)
        mtime = os.path.getmtime(p)
        build_completion_contexts(
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text", "lang"],
            ),
            ctx_dir,
        )
        assert os.path.getmtime(p) == mtime  # existing sidecar kept

    def test_unknown_context_empty(self, ctx_dir):
        from neural_search_ray.index.contexts import ContextSuggester

        terms, weights = ContextSuggester(ctx_dir).suggest("da", "xx")
        assert terms == [] and weights.size == 0


class TestBucketCorrelation:
    def test_matches_numpy_reference(self, sf_dir, ray_session):
        """Pearson per type vs the all-types totals, gap-filled grid."""
        import pyarrow.parquet as pq_

        from neural_search_ray.pipelines.suite import (
            q_events_bucket_correlation,
        )

        got = q_events_bucket_correlation(sf_dir)
        t = pq_.read_table(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
        ts = t["ts"].cast(pa.int64()).to_numpy()
        hour = (ts // 3_600_000_000) * 3_600_000_000
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        buckets = np.unique(hour)
        types = np.unique(et)
        ref = {}
        tot = np.array(
            [(hour == b).sum() for b in buckets], dtype=np.float64
        )
        for ty in types:
            x = np.array(
                [((hour == b) & (et == ty)).sum() for b in buckets],
                dtype=np.float64,
            )
            r = np.corrcoef(x, tot)[0, 1]
            ref[str(ty)] = round(float(r), 6)
        got_map = dict(
            zip(got["event_type"].to_pylist(), got["r"].to_pylist())
        )
        assert set(got_map) == set(ref)
        for k in ref:
            assert abs(got_map[k] - ref[k]) <= 1e-6, k
        assert got["n_buckets"].to_pylist() == [len(buckets)] * len(types)


class TestInfixNgram:
    """engine search_infix_ngram — gram-intersection + substring-verify
    infix wildcard; must be rank-identical to the '*needle*' scan."""

    @pytest.mark.parametrize("needle", ["uer", "usto", "rge", "000", "zzz"])
    def test_identical_to_wildcard_scan(self, searcher, needle):
        s = searcher
        d1, v1 = s.search_infix_ngram(needle, k=10**6)
        d2, v2 = s.search_wildcard(f"*{needle}*", k=10**6)
        assert d1.tolist() == d2.tolist()
        np.testing.assert_array_equal(v1, v2)

    def test_short_needle_falls_back(self, searcher):
        s = searcher
        d1, _ = s.search_infix_ngram("ue", k=50)
        d2, _ = s.search_wildcard("*ue*", k=50)
        assert d1.tolist() == d2.tolist()

    def test_gram_map_verification_needed(self, searcher):
        """The gram map is built once and reused; verification-only
        sanity on its shape."""
        s = searcher
        m = s._ngram_term_map(3)
        # construct: pick two real grams from different terms
        grams = [g for g in m if len(m[g])]
        assert grams, "gram map empty"
        # cached map is reused (same object)
        assert s._ngram_term_map(3) is m


class TestSearchTemplates:
    """query/templates.py — the _search/template mustache-subset render
    + dispatch path."""

    def test_variable_and_dotted(self):
        from neural_search_ray.query.templates import render_template

        assert render_template("q={{q}}", {"q": "data"}) == "q=data"
        assert render_template("{{a.b.c}}", {"a": {"b": {"c": 7}}}) == "7"
        assert render_template("[{{missing}}]", {}) == "[]"

    def test_sections_and_defaults(self):
        from neural_search_ray.query.templates import render_template

        t = "{{size}}{{^size}}10{{/size}}"
        assert render_template(t, {"size": 5}) == "5"
        assert render_template(t, {}) == "10"
        assert render_template(t, {"size": 0}) == "0"  # 0 is truthy here
        lst = "{{#xs}}[{{.}}]{{/xs}}"
        assert render_template(lst, {"xs": [1, 2, 3]}) == "[1][2][3]"
        assert render_template(lst, {"xs": []}) == ""
        # section context pushes the dict
        assert (
            render_template("{{#u}}{{name}}{{/u}}", {"u": {"name": "jo"}})
            == "jo"
        )

    def test_unbalanced_raises(self):
        import pytest as _pytest

        from neural_search_ray.query.templates import render_template

        with _pytest.raises(ValueError, match="unclosed"):
            render_template("{{#a}}x", {"a": 1})
        with _pytest.raises(ValueError, match="mismatch"):
            render_template("{{#a}}x{{/b}}", {"a": 1})

    def test_render_search_template_json(self):
        import pytest as _pytest

        from neural_search_ray.query.templates import render_search_template

        body = render_search_template(
            '{"query": {"match": {"text": "{{q}}"}}, "size": {{s}}{{^s}}10{{/s}}}',
            {"q": "data query"},
        )
        assert body == {"query": {"match": {"text": "data query"}}, "size": 10}
        with _pytest.raises(ValueError, match="invalid JSON"):
            render_search_template('{"query": {{q}}}', {})

    def test_dispatch_matches_direct(self, searcher):
        from neural_search_ray.query.templates import search_template

        d, v = search_template(
            searcher,
            '{"query": {"match": {"text": "{{q}}"}}, "size": 7}',
            {"q": "data query"},
        )
        d2, v2 = searcher.search_bm25(tokenize("data query"), k=7)
        assert d.tolist() == d2.tolist()
        np.testing.assert_array_equal(v, v2)
        dp, vp = search_template(
            searcher,
            '{"query": {"match_phrase": {"text": "data query"}}}',
        )
        dp2, vp2 = searcher.search_phrase(tokenize("data query"), k=10)
        assert dp.tolist() == dp2.tolist()
        dt, _ = search_template(
            searcher, '{"query": {"term": {"text": "data"}}, "size": 3}'
        )
        dt2, _ = searcher.search_bm25(["data"], k=3)
        assert dt.tolist() == dt2.tolist()

    def test_dispatch_validation(self, searcher):
        import pytest as _pytest

        from neural_search_ray.query.templates import search_template

        with _pytest.raises(ValueError, match="query"):
            search_template(searcher, '{"size": 5}')
        with _pytest.raises(ValueError, match="unsupported"):
            search_template(searcher, '{"query": {"knn": {}}}')
        with _pytest.raises(ValueError, match="one query clause"):
            search_template(
                searcher, '{"query": {"match": {"text": "a"}, "term": {"text": "b"}}}'
            )


class TestFuzzyCompletion:
    """suggest_completion_fuzzy: min-over-prefixes edit distance with an
    exact first-char anchor, (dist, weight desc, term) ordering."""

    def test_matches_reference_dp(self, searcher):
        # brute-force oracle: for every dictionary term sharing the
        # anchor char, min levenshtein(q, term[:j]) over j=1..len(q)+1
        q = "stram"
        terms, weights, dists = searcher.suggest_completion_fuzzy(
            q, size=None, fuzziness=1, prefix_length=1
        )
        vocab = [str(t) for t in searcher._gterms if str(t)[:1] == q[:1]]
        exp = {}
        for t in vocab:
            best = min(
                (_lev(q, t[:j]) for j in range(1, min(len(t), len(q) + 1) + 1)),
                default=99,
            )
            if best <= 1:
                exp[t] = best
        assert dict(zip(terms, dists)) == exp

    def test_exact_prefix_is_distance_zero(self, searcher):
        terms, _w, dists = searcher.suggest_completion_fuzzy(
            "quer", fuzziness=1
        )
        by = dict(zip(terms, dists))
        assert by.get("query") == 0

    def test_order_distance_then_weight(self, searcher):
        _terms, weights, dists = searcher.suggest_completion_fuzzy(
            "quer", size=None, fuzziness=1
        )
        key = list(zip(dists.tolist(), (-weights).tolist()))
        assert key == sorted(key)

    def test_short_prefix_falls_back_to_exact(self, searcher):
        ft, fw, fd = searcher.suggest_completion_fuzzy("da", fuzziness=1)
        et, ew = searcher.suggest_completion("da")
        assert ft == et and fw.tolist() == ew.tolist()
        assert fd.tolist() == [0] * len(ft)

    def test_no_candidates(self, searcher):
        terms, weights, dists = searcher.suggest_completion_fuzzy(
            "zzzz", fuzziness=1
        )
        assert terms == [] and len(weights) == 0 and len(dists) == 0

    def test_bad_params(self, searcher):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            searcher.suggest_completion_fuzzy("abc", fuzziness=-1)


class TestIdsQuery:
    def test_dedupe_skip_missing_order(self, searcher):
        docs, scores = searcher.search_ids([9, 2, 2, 10**12, 4], k=10)
        assert docs.tolist() == [2, 4, 9]
        assert scores.tolist() == [1.0, 1.0, 1.0]

    def test_k_cap(self, searcher):
        docs, _ = searcher.search_ids(list(range(50)), k=5)
        assert docs.tolist() == [0, 1, 2, 3, 4]

    def test_empty(self, searcher):
        docs, scores = searcher.search_ids([], k=5)
        assert docs.size == 0 and scores.size == 0
        docs, _ = searcher.search_ids([10**15], k=5)
        assert docs.size == 0

    def test_empty_index(self, searcher):
        """search_ids on an index with zero docs returns empty instead
        of IndexError (the size-1 clamp used to index [] with -1)."""
        saved = searcher._dl_doc_ids
        try:
            searcher._dl_doc_ids = np.empty(0, np.int64)
            docs, scores = searcher.search_ids([1, 2], k=5)
            assert docs.size == 0 and scores.size == 0
        finally:
            searcher._dl_doc_ids = saved
