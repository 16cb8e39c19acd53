"""ES|QL-subset engine (query/esql.py): parser, expression kernels,
stage compilation, and error paths."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from neural_search_ray.query.esql import EsqlError, parse_esql, run_esql
from tests.conftest import SF_DIR


def _rows(result):
    if isinstance(result, ray.data.Dataset):
        return pa.Table.from_pylist(result.take_all())
    return result


class TestParser:
    def test_stage_sequence(self):
        st = parse_esql(
            'FROM documents | WHERE a == 1 | EVAL b = a + 2, c = b * 3'
            ' | KEEP a, b | SORT a DESC, b | LIMIT 7'
        )
        assert [s.kind for s in st] == [
            "from", "where", "eval", "keep", "sort", "limit"
        ]
        assert st[0].payload == "documents"
        assert st[4].payload == [("a", False), ("b", True)]
        assert st[5].payload == 7

    def test_precedence(self):
        # a + b * 2 == 7 AND NOT c parses as ((a + (b*2)) == 7) AND (NOT c)
        (st,) = parse_esql("FROM t | WHERE a + b * 2 == 7 AND NOT c")[1:]
        expr = st.payload
        assert expr.op == "and"
        assert expr.left.op == "=="
        assert expr.left.left.op == "+"
        assert expr.left.left.right.op == "*"

    def test_stats_by(self):
        st = parse_esql(
            "FROM t | STATS n = COUNT(*), m = AVG(x) BY k1, k2"
        )[1]
        aggs, by = st.payload
        assert [a[:2] for a in aggs] == [("n", "COUNT"), ("m", "AVG")]
        assert by == ["k1", "k2"]

    @pytest.mark.parametrize("bad", [
        "WHERE x == 1",                      # no FROM
        "FROM t | LIMIT 2.5",                # non-integer limit
        "FROM t | STATS n = MEDIAN(x)",      # unknown aggregate
        "FROM t | STATS n = SUM(*)",         # * only valid for COUNT
        "FROM t | FOO 1",                    # unknown stage
        'FROM t | WHERE x LIKE 5',           # LIKE needs string
        "FROM t | WHERE (x == 1",            # unbalanced paren
        "FROM t | WHERE x ~ 1",              # bad token
    ])
    def test_errors(self, bad):
        with pytest.raises(EsqlError):
            parse_esql(bad)


class TestRowPipeline:
    def test_where_eval_keep(self, sf_dir):
        out = _rows(run_esql(
            sf_dir,
            'FROM documents | WHERE lang == "en" AND n_chars > 300'
            ' | EVAL flag = n_chars >= 400, half = n_chars / 2'
            ' | KEEP doc_id, flag, half',
        ))
        assert set(out.column_names) == {"doc_id", "flag", "half"}
        assert out.num_rows > 0
        half = out["half"].to_numpy()
        assert half.dtype == np.float64

    def test_string_functions(self, sf_dir):
        out = _rows(run_esql(
            sf_dir,
            'FROM documents | EVAL u = TO_UPPER(SUBSTRING(lang, 1, 1)),'
            ' s = CONCAT(lang, "-", source), n = LENGTH(lang)'
            ' | KEEP lang, source, u, s, n | LIMIT 50',
        ))
        for row in out.to_pylist():
            assert row["u"] == row["lang"][:1].upper()
            assert row["s"] == f'{row["lang"]}-{row["source"]}'
            assert row["n"] == len(row["lang"])

    def test_string_function_roundout(self, ray_session):
        """STARTS_WITH / ENDS_WITH / TRIM / REPLACE / LEFT / RIGHT
        (r5): each is one Arrow kernel; RIGHT(s, 0) is '' (not the
        -0 whole-string trap)."""
        out = _rows(run_esql(
            "/tmp",
            'ROW s = "  hello world  "'
            ' | EVAL t = TRIM(s), sw = STARTS_WITH(TRIM(s), "hel"),'
            '   ew = ENDS_WITH(TRIM(s), "rld"),'
            '   r = REPLACE(TRIM(s), "o", "0"),'
            '   l3 = LEFT(TRIM(s), 3), r3 = RIGHT(TRIM(s), 3),'
            '   r0 = RIGHT(s, 0), lt = LTRIM(s), rt = RTRIM(s)'
            ' | KEEP t, sw, ew, r, l3, r3, r0, lt, rt',
        ))
        row = out.to_pylist()[0]
        assert row == {
            "t": "hello world", "sw": True, "ew": True,
            "r": "hell0 w0rld", "l3": "hel", "r3": "rld", "r0": "",
            "lt": "hello world  ", "rt": "  hello world",
        }

    def test_string_function_validation(self):
        for bad in [
            'FROM t | EVAL x = STARTS_WITH(a, 5)',
            'FROM t | EVAL x = LEFT(a, "b")',
            'FROM t | EVAL x = REPLACE(a, "p")',
        ]:
            with pytest.raises(EsqlError, match="literal"):
                from neural_search_ray.query.esql import (
                    _make_rowlocal_fn,
                )
                st = parse_esql(bad)
                _make_rowlocal_fn(st[1:])(pa.table({"a": ["x"]}))

    def test_like_and_in(self, sf_dir):
        out = _rows(run_esql(
            sf_dir,
            'FROM events | WHERE event_type LIKE "p%"'
            ' AND user_id IN (1, 2, 3) | KEEP event_type, user_id',
        ))
        assert out.num_rows > 0
        for row in out.to_pylist():
            assert row["event_type"].startswith("p")
            assert row["user_id"] in (1, 2, 3)

    def test_sort_limit_headk_matches_full_sort(self, sf_dir):
        got = _rows(run_esql(
            sf_dir,
            "FROM events | SORT value DESC, event_id ASC | LIMIT 9"
            " | KEEP event_id, value",
        ))
        full = (
            ray.data.read_parquet(
                f"{sf_dir}/events.parquet", columns=["event_id", "value"]
            )
            .sort(["value", "event_id"], descending=[True, False])
            .limit(9)
        )
        exp = pa.Table.from_pylist(full.take_all())
        assert got["event_id"].to_pylist() == exp["event_id"].to_pylist()

    def test_unknown_column_raises(self, sf_dir):
        with pytest.raises(Exception):
            _rows(run_esql(sf_dir, "FROM events | WHERE nope == 1"))

    def test_eval_redefines_source_column(self, sf_dir):
        """EVAL value = value * 2 must keep 'value' in the parquet read
        set — _referenced_columns used to subtract every EVAL-defined
        name and prune the source column, failing at runtime on an
        intended-valid query."""
        out = _rows(run_esql(
            sf_dir,
            "FROM events | WHERE value > 1 | EVAL value = value * 2"
            " | KEEP event_id, value | LIMIT 2000",
        ))
        assert out.num_rows > 0
        src = _rows(run_esql(
            sf_dir,
            "FROM events | WHERE value > 1 | KEEP event_id, value"
            " | LIMIT 2000",
        ))
        lut = dict(zip(src["event_id"].to_pylist(), src["value"].to_pylist()))
        for eid, v in zip(out["event_id"].to_pylist(),
                          out["value"].to_pylist()):
            assert v == pytest.approx(lut[eid] * 2)

    def test_eval_after_definition_not_read(self, sf_dir):
        """A name referenced only after its own EVAL definition is NOT
        part of the source read set (pruning still works)."""
        from neural_search_ray.query.esql import _referenced_columns

        st = parse_esql(
            "FROM events | EVAL x = value + 1 | WHERE x > 2 | KEEP event_id, x"
        )
        assert _referenced_columns(st[1:]) == ["event_id", "value"]
        st2 = parse_esql(
            "FROM t | WHERE price > 1 | EVAL price = price * 2 | KEEP price, name"
        )
        assert _referenced_columns(st2[1:]) == ["name", "price"]

    def test_float_modulo(self, sf_dir):
        """% with a float operand must be a real modulo, not the
        true-division identity that silently returned 0 everywhere."""
        out = _rows(run_esql(
            sf_dir,
            "FROM events | EVAL m = value % 2.0, mi = event_id % 3"
            " | KEEP event_id, value, m, mi | LIMIT 500",
        ))
        vals = np.asarray(out["value"].to_pylist(), dtype=np.float64)
        m = np.asarray(out["m"].to_pylist(), dtype=np.float64)
        np.testing.assert_allclose(m, np.fmod(vals, 2.0),
                                   rtol=1e-12, atol=1e-12)
        assert np.any(m != 0.0)
        eid = np.asarray(out["event_id"].to_pylist())
        assert out["mi"].to_pylist() == (eid % 3).tolist()

    def test_float_modulo_negative_dividend(self, ray_session, tmp_path):
        """Sign-of-dividend (truncated) semantics, matching ES|QL /
        Java % and DuckDB fmod, and CONSISTENT with the integer path:
        -7.0 % 3.0 == -1.0, never floor-mod's 2.0."""
        import pyarrow.parquet as pq

        t = pa.table({"x": pa.array([-7.0, 7.0, -7.5, 7.5]),
                      "xi": pa.array([-7, 7, -8, 8], pa.int64())})
        pq.write_table(t, str(tmp_path / "m.parquet"))
        out = _rows(run_esql(
            str(tmp_path), "FROM m | EVAL mf = x % 3.0, mi = xi % 3"
            " | KEEP x, mf, mi",
        ))
        assert out["mf"].to_pylist() == [-1.0, 1.0, -1.5, 1.5]
        assert out["mi"].to_pylist() == [-1, 1, -2, 2]


class TestStats:
    def test_stats_matches_pandas(self, sf_dir):
        t = run_esql(
            sf_dir,
            "FROM events | STATS n = COUNT(*), s = SUM(value),"
            " lo = MIN(value), hi = MAX(value), m = AVG(value),"
            " u = COUNT_DISTINCT(user_id) BY event_type"
            " | SORT event_type",
        )
        import pyarrow.parquet as pq

        df = pq.read_table(
            f"{sf_dir}/events.parquet",
            columns=["event_type", "value", "user_id"],
        ).to_pandas()
        g = df.groupby("event_type")
        exp = g.agg(
            n=("value", "size"), s=("value", "sum"), lo=("value", "min"),
            hi=("value", "max"), m=("value", "mean"),
            u=("user_id", "nunique"),
        ).reset_index().sort_values("event_type")
        got = t.to_pandas()
        assert got["event_type"].tolist() == exp["event_type"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()
        np.testing.assert_allclose(got["s"], exp["s"])
        np.testing.assert_allclose(got["m"], exp["m"])
        assert got["u"].tolist() == exp["u"].tolist()

    def test_global_stats_no_by(self, sf_dir):
        t = run_esql(sf_dir, "FROM events | STATS n = COUNT(*), s = SUM(value)")
        assert t.num_rows == 1
        assert t["n"][0].as_py() > 0

    def test_where_after_stats_is_rowlocal_on_table(self, sf_dir):
        t = run_esql(
            sf_dir,
            "FROM events | STATS n = COUNT(*) BY event_type"
            " | WHERE n > 0 | SORT event_type | LIMIT 3",
        )
        assert t.num_rows == 3


class TestTemporalAndCase:
    def test_date_trunc_epoch(self, sf_dir):
        import pyarrow.parquet as pq

        t = run_esql(
            sf_dir,
            'FROM events | EVAL h = EPOCH_US(DATE_TRUNC("hour", ts))'
            ' | STATS cnt = COUNT(*) BY h | SORT h',
        )
        df = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts"]).to_pandas()
        exp = (
            df["ts"].dt.floor("h").astype("datetime64[us]").astype("int64")
        ).value_counts().sort_index()
        assert t["h"].to_pylist() == exp.index.tolist()
        assert t["cnt"].to_pylist() == exp.values.tolist()

    def test_case_and_coalesce(self, sf_dir):
        out = _rows(run_esql(
            sf_dir,
            'FROM events | EVAL band = CASE(value >= 150.0, "hi",'
            ' value >= 50.0, "mid", "lo"), v = COALESCE(value, 0.0)'
            ' | KEEP value, band, v | LIMIT 200',
        ))
        for r in out.to_pylist():
            exp = "hi" if r["value"] >= 150 else ("mid" if r["value"] >= 50 else "lo")
            assert r["band"] == exp
            assert r["v"] == r["value"]

    def test_case_without_default_gives_null(self, sf_dir):
        out = _rows(run_esql(
            sf_dir,
            'FROM events | EVAL x = CASE(value > 1000000.0, 1)'
            ' | KEEP x | LIMIT 5',
        ))
        assert all(r["x"] is None for r in out.to_pylist())

    def test_bad_date_trunc_unit(self, sf_dir):
        from neural_search_ray.query.esql import EsqlError

        with pytest.raises(Exception):
            _rows(run_esql(
                sf_dir, 'FROM events | EVAL h = DATE_TRUNC("fortnight", ts) | KEEP h'
            ))


class TestEnrich:
    def test_enrich_matches_manual_join(self, sf_dir):
        import pyarrow.parquet as pq

        out = _rows(run_esql(
            sf_dir,
            'FROM events | ENRICH customer_segment ON user_id'
            ' WITH c_mktsegment, c_nationkey | KEEP user_id, c_mktsegment,'
            ' c_nationkey',
        ))
        cust = pq.read_table(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment", "c_nationkey"],
        ).to_pandas().set_index("c_custkey")
        for r in out.to_pylist():
            if r["user_id"] in cust.index:
                assert r["c_mktsegment"] == cust.loc[r["user_id"], "c_mktsegment"]
                assert r["c_nationkey"] == cust.loc[r["user_id"], "c_nationkey"]
            else:
                assert r["c_mktsegment"] is None and r["c_nationkey"] is None

    def test_enrich_validation(self, sf_dir):
        with pytest.raises(Exception, match="unknown enrich policy"):
            _rows(run_esql(
                sf_dir, "FROM events | ENRICH nope ON user_id WITH x | KEEP x"
            ))
        with pytest.raises(Exception, match="not in policy"):
            _rows(run_esql(
                sf_dir,
                "FROM events | ENRICH customer_segment ON user_id WITH c_name"
                " | KEEP c_name",
            ))


class TestDissect:
    def test_dissect_extracts(self, sf_dir):
        out = _rows(run_esql(
            sf_dir,
            'FROM events | DISSECT props "{\\"k\\": %{kv}}"'
            ' | EVAL ki = TO_LONG(kv) | KEEP props, kv, ki | LIMIT 50',
        ))
        import json

        for r in out.to_pylist():
            assert r["ki"] == json.loads(r["props"])["k"]
            assert r["kv"] == str(json.loads(r["props"])["k"])

    def test_dissect_no_match_gives_null(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        t = pa.table({"s": pa.array(["a=1 b=2", "garbage"], pa.string())})
        pq.write_table(t, str(tmp_path / "logs.parquet"))
        out = _rows(run_esql(
            str(tmp_path),
            'FROM logs | DISSECT s "a=%{a} b=%{b}" | KEEP s, a, b',
        ))
        rows = out.to_pylist()
        assert rows[0]["a"] == "1" and rows[0]["b"] == "2"
        assert rows[1]["a"] is None and rows[1]["b"] is None

    def test_dissect_bad_pattern(self, sf_dir):
        with pytest.raises(Exception, match="no %"):
            _rows(run_esql(
                sf_dir, 'FROM events | DISSECT props "no keys here" | KEEP props'
            ))


class TestGrok:
    def test_grok_typed_extracts(self, sf_dir):
        """%{INT:kv:int} extracts the embedded integer as int64 — no
        TO_LONG needed, unlike DISSECT's untyped keys."""
        import json

        out = _rows(run_esql(
            sf_dir,
            'FROM events | GROK props "\\{\\"k\\": %{INT:kv:int}\\}"'
            ' | KEEP props, kv | LIMIT 50',
        ))
        assert out.schema.field("kv").type == pa.int64()
        for r in out.to_pylist():
            assert r["kv"] == json.loads(r["props"])["k"]

    def test_grok_log_line(self, ray_session, tmp_path):
        """Multi-key pattern over synthetic log lines: library
        expansion, unnamed (non-capturing) keys, unanchored match,
        null on no-match."""
        import pyarrow.parquet as pq

        t = pa.table({"line": pa.array([
            "2024-01-02T03:04:05Z INFO search[12]: took 3.5 ms",
            "2024-01-02T03:04:06Z ERROR merge[7]: took 120 ms",
            "not a log line",
        ])})
        pq.write_table(t, str(tmp_path / "logs.parquet"))
        out = _rows(run_esql(
            str(tmp_path),
            'FROM logs | GROK line "%{TIMESTAMP_ISO8601} %{LOGLEVEL:lvl}'
            ' %{WORD:svc}\\[%{INT:pid:int}\\]: took %{NUMBER:ms:float} ms"'
            ' | KEEP lvl, svc, pid, ms',
        ))
        rows = out.to_pylist()
        assert rows[0] == {"lvl": "INFO", "svc": "search", "pid": 12, "ms": 3.5}
        assert rows[1] == {"lvl": "ERROR", "svc": "merge", "pid": 7, "ms": 120.0}
        assert all(v is None for v in rows[2].values())
        assert out.schema.field("pid").type == pa.int64()
        assert out.schema.field("ms").type == pa.float64()

    def test_grok_errors(self, sf_dir):
        with pytest.raises(EsqlError, match="unknown GROK pattern"):
            parse_esql('FROM events | GROK props "%{NOPE:x}"')
        with pytest.raises(EsqlError, match="captures no fields"):
            parse_esql('FROM events | GROK props "%{INT} only"')
        with pytest.raises(EsqlError, match="duplicate"):
            parse_esql('FROM events | GROK props "%{INT:a} %{INT:a}"')
        with pytest.raises(EsqlError, match="string pattern"):
            parse_esql("FROM events | GROK props 42")
        # parse-time (not mid-Ray-task) rejection of regex problems
        with pytest.raises(EsqlError, match="invalid regex"):
            parse_esql('FROM events | GROK props "(%{INT:kv}"')
        with pytest.raises(EsqlError, match="unnamed capture"):
            parse_esql('FROM events | GROK line "(a|b)%{INT:kv}"')

    def test_grok_re2_only_syntax_fails_at_parse(self):
        """Validation runs RE2 (the engine that executes the pattern):
        a lookbehind Python ``re`` accepts is a parse-time EsqlError."""
        with pytest.raises(EsqlError, match="invalid regex"):
            parse_esql('FROM logs | GROK line "(?<=v=)%{INT:v:int}"')

    def test_grok_typed_capture_overflow_is_null(self, ray_session, tmp_path):
        """An %{INT:x:int} capture past int64 yields null, not an
        ArrowInvalid inside the Ray task; the other rows still parse."""
        import pyarrow.parquet as pq

        t = pa.table({"line": pa.array(
            ["x=5", "x=99999999999999999999", "x=-7", "no number"])})
        pq.write_table(t, str(tmp_path / "logs.parquet"))
        out = _rows(run_esql(str(tmp_path), 'FROM logs | GROK line "x=%{INT:x:int}"'
                             ' | KEEP line, x'))
        got = dict(zip(out["line"].to_pylist(), out["x"].to_pylist()))
        assert got == {"x=5": 5, "x=99999999999999999999": None, "x=-7": -7,
                       "no number": None}
        assert out.schema.field("x").type == pa.int64()

    def test_grok_overwrites_existing_column(self, ray_session, tmp_path):
        """A capture named like an existing column (even the source)
        OVERWRITES it, ES-style — append would create a duplicate field
        and break every later batch[name] lookup."""
        import pyarrow.parquet as pq

        t = pa.table({"line": pa.array(["v=3 u=ok", "v=9 u=no"]),
                      "v": pa.array([100, 200], pa.int64())})
        pq.write_table(t, str(tmp_path / "logs.parquet"))
        out = _rows(run_esql(
            str(tmp_path),
            'FROM logs | GROK line "v=%{INT:v:int} u=%{WORD:line}"'
            ' | WHERE v > 1 | KEEP line, v',
        ))
        assert out["v"].to_pylist() == [3, 9]
        assert out["line"].to_pylist() == ["ok", "no"]

    def test_mv_expand_rename_isnull(self, ray_session, tmp_path):
        """SPLIT → MV_EXPAND (flat_map shape) → RENAME → IS NOT NULL:
        row multiplication, schema rewrite, and null-validity filtering
        in one fused block; null/empty lists drop their row."""
        import pyarrow.parquet as pq

        t = pa.table({"id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array(["a b", "c", None])})
        pq.write_table(t, str(tmp_path / "docs.parquet"))
        out = _rows(run_esql(
            str(tmp_path),
            'FROM docs | EVAL tok = SPLIT(text, " ") | MV_EXPAND tok'
            ' | RENAME tok AS term | WHERE term IS NOT NULL'
            ' | KEEP id, term',
        ))
        rows = sorted(out.to_pylist(), key=lambda r: (r["id"], r["term"]))
        assert rows == [{"id": 1, "term": "a"}, {"id": 1, "term": "b"},
                        {"id": 2, "term": "c"}]

    def test_is_null_predicate(self, sf_dir):
        """IS NULL on a CASE-without-default column selects exactly the
        complement of IS NOT NULL."""
        base = 'FROM events | EVAL t = CASE(value >= 100.0, 1)'
        n_null = _rows(run_esql(
            sf_dir, base + ' | WHERE t IS NULL | STATS n = COUNT(*)'
        ))["n"].to_pylist()[0]
        n_notnull = _rows(run_esql(
            sf_dir, base + ' | WHERE t IS NOT NULL | STATS n = COUNT(*)'
        ))["n"].to_pylist()[0]
        total = _rows(run_esql(
            sf_dir, 'FROM events | STATS n = COUNT(*)'
        ))["n"].to_pylist()[0]
        assert n_null + n_notnull == total and n_null > 0 and n_notnull > 0

    def test_mv_expand_errors_and_identity(self, sf_dir):
        # unknown column fails at the pruned read (before any task runs)
        with pytest.raises(Exception, match="nope"):
            _rows(run_esql(
                sf_dir, "FROM events | MV_EXPAND nope | KEEP event_id"
            ))
        # expanding a single-valued (non-list) column is the identity
        out = _rows(run_esql(
            sf_dir,
            "FROM events | MV_EXPAND event_id | KEEP event_id | LIMIT 5",
        ))
        assert out.num_rows == 5

    def test_grok_read_pruning(self, sf_dir):
        """GROK's source column joins the read set; its captures do not."""
        from neural_search_ray.query.esql import _referenced_columns

        st = parse_esql(
            'FROM events | GROK props "%{INT:kv:int}"'
            ' | WHERE kv > 3 | KEEP event_id, kv'
        )
        assert _referenced_columns(st[1:]) == ["event_id", "props"]


class TestTopAggregate:
    def test_top_matches_manual(self, sf_dir):
        """TOP(value, 3, 'desc') BY event_type == the 3 largest values
        per type, duplicates kept, k-bounded partials."""
        import pyarrow.parquet as pq

        t = pq.read_table(f"{sf_dir}/events.parquet",
                          columns=["event_type", "value"])
        df = t.to_pandas()
        exp = {
            et: sorted(g["value"].tolist(), reverse=True)[:3]
            for et, g in df.groupby("event_type")
        }
        out = _rows(run_esql(
            sf_dir,
            'FROM events | STATS t = TOP(value, 3, "desc") BY event_type',
        ))
        got = dict(zip(out["event_type"].to_pylist(), out["t"].to_pylist()))
        assert got == exp

    def test_top_asc_global_and_with_count(self, sf_dir):
        out = _rows(run_esql(
            sf_dir, 'FROM events | STATS t = TOP(value, 4, "asc")'
        ))
        import pyarrow.parquet as pq

        vals = sorted(pq.read_table(
            f"{sf_dir}/events.parquet", columns=["value"]
        )["value"].to_pylist())[:4]
        assert out["t"].to_pylist() == [vals]
        # merges with plain aggregates in the same STATS
        both = _rows(run_esql(
            sf_dir,
            'FROM events | STATS n = COUNT(*), t = TOP(value, 2, "desc")'
            " BY event_type",
        ))
        assert set(both.column_names) == {"event_type", "n", "t"}
        assert all(len(v) == 2 for v in both["t"].to_pylist())

    def test_top_validation(self):
        with pytest.raises(EsqlError, match="positive integer"):
            parse_esql('FROM t | STATS x = TOP(v, 0, "desc")')
        with pytest.raises(EsqlError, match="asc.*desc|order"):
            parse_esql('FROM t | STATS x = TOP(v, 3, "down")')


class TestRowAndAggFilters:
    def test_row_source(self, ray_session):
        out = _rows(run_esql(
            "/tmp", 'ROW a = 1 + 2, b = "x" | EVAL c = a * 10 | KEEP a, b, c'
        ))
        assert out.to_pylist() == [{"a": 3, "b": "x", "c": 30}]

    def test_per_agg_where(self, sf_dir):
        import pyarrow.parquet as pq

        t = run_esql(
            sf_dir,
            'FROM events | STATS n = COUNT(*),'
            ' nb = COUNT(*) WHERE value >= 100.0,'
            ' ub = COUNT_DISTINCT(user_id) WHERE value >= 100.0'
            ' BY event_type | SORT event_type',
        )
        df = pq.read_table(
            f"{sf_dir}/events.parquet",
            columns=["event_type", "value", "user_id"],
        ).to_pandas()
        for r in t.to_pylist():
            sub = df[df["event_type"] == r["event_type"]]
            big = sub[sub["value"] >= 100.0]
            assert r["n"] == len(sub)
            assert r["nb"] == len(big)
            assert r["ub"] == big["user_id"].nunique()

    def test_filtered_sum_null_when_empty(self, sf_dir):
        t = run_esql(
            sf_dir,
            "FROM events | STATS s = SUM(value) WHERE value > 1000000.0"
            " BY event_type",
        )
        assert all(r["s"] is None for r in t.to_pylist())
