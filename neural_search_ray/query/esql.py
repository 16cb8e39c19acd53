"""ES|QL-subset pipe-query language compiled onto Ray Data.

Public-surface analogue: Elasticsearch's ``_query`` endpoint (ES|QL) —
a piped language ``FROM src | WHERE .. | EVAL .. | STATS .. BY .. |
SORT .. | LIMIT n | KEEP/DROP ..`` that ships with the core
distribution the reference plugin runs inside (the plugin's own query
types are registered alongside it via `SearchPlugin.getQueries`,
`plugin/NeuralSearch.java:254-262`).  A user switching to this repo
keeps a deterministic subset of that request-composition surface.

Design (Ray-Data-first, not a row interpreter):

* the query text parses once on the driver into a stage list with
  expression ASTs (recursive-descent + precedence-climbing parser);
* consecutive **row-local** stages (WHERE / EVAL / KEEP / DROP) fuse
  into ONE ``map_batches`` closure that evaluates the ASTs with
  pyarrow.compute kernels over zero-copy Arrow batches — no per-row
  Python in the data path, however many pipes the request has;
* ``STATS .. BY ..`` compiles to the partial+final aggregate shape the
  posting build uses: an Arrow ``TableGroupBy`` combiner inside
  ``map_batches`` (one partial row per group per batch), then ONE
  ``groupby().aggregate()`` exchange over the group keys, then a
  driver-side finish on the bucket-bounded result (AVG = sum/count
  etc.).  ``COUNT_DISTINCT`` decomposes exactly like the cardinality
  aggregation's exact tier: per-batch dedupe of (keys, value), one
  exchange distinct, then a bucket-bounded recount;
* ``SORT .. | LIMIT n`` on raw rows compiles to a per-batch head-K
  partial (each batch contributes at most n candidate rows) feeding
  the distributed sort — the same head-K monoid as geo_line — so the
  exchange moves O(n x blocks) rows, never the corpus;
* the FROM reads only the columns the request references
  (prune-at-the-read), minus names EVAL defines.

Scale note: everything between FROM and the first STATS/SORT streams;
only group keys x aggregates (bucket-bounded) or k-sized sorted heads
ever concentrate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["parse_esql", "run_esql", "EsqlError"]


class EsqlError(ValueError):
    """Raised for syntax errors, unknown functions/stages, or references
    to columns the pipeline does not produce."""


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>\d+\.\d+|\d+)
      | (?P<str>"(?:[^"\\]|\\.)*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>==|!=|<=|>=|\|\||&&|[|(),=<>+\-*/%])
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "FROM", "WHERE", "EVAL", "STATS", "BY", "SORT", "LIMIT", "KEEP",
    "DROP", "ASC", "DESC", "AND", "OR", "NOT", "LIKE", "IN", "TRUE",
    "FALSE", "NULL", "ENRICH", "ON", "WITH", "DISSECT", "ROW", "GROK",
    "RENAME", "AS", "MV_EXPAND", "IS",
}

# ENRICH policies (ES enrich-policy registry analogue): name ->
# {"table": parquet basename, "match_field": right-side key column,
#  "fields": allowed enrichment columns}.  The policy table is the
# SMALL side: it broadcasts once via ray.put and every batch probes it
# with searchsorted — never a shuffle join.
ENRICH_POLICIES: dict[str, dict] = {
    "customer_segment": {
        "table": "customer",
        "match_field": "c_custkey",
        "fields": ["c_mktsegment", "c_nationkey"],
    },
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise EsqlError(f"bad token at {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", m.group("num")))
        elif m.lastgroup == "str":
            body = m.group("str")[1:-1]
            out.append(("str", body.replace('\\"', '"').replace("\\\\", "\\")))
        elif m.lastgroup == "ident":
            word = m.group("ident")
            if word.upper() in _KEYWORDS:
                out.append(("kw", word.upper()))
            else:
                out.append(("ident", word))
        else:
            out.append(("op", m.group("op")))
    out.append(("eof", ""))
    return out


# ---------------------------------------------------------------------------
# expression AST

@dataclass
class Lit:
    value: object


@dataclass
class Col:
    name: str


@dataclass
class Un:
    op: str  # 'neg' | 'not'
    arg: object


@dataclass
class Bin:
    op: str
    left: object
    right: object


@dataclass
class Call:
    fn: str
    args: list


@dataclass
class InList:
    expr: object
    items: list


# ---------------------------------------------------------------------------
# stage AST

@dataclass
class Stage:
    kind: str  # from|where|eval|keep|drop|stats|sort|limit
    # from: name; where: expr; eval: [(name, expr)]; keep/drop: [names]
    # stats: (aggs=[(name, fn, expr|None)], by=[names])
    # sort: [(name, asc)]; limit: int
    payload: object = field(default=None)


_AGG_FNS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "COUNT_DISTINCT", "TOP"}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, val: str | None = None) -> str:
        t = self.next()
        if t[0] != kind or (val is not None and t[1] != val):
            raise EsqlError(f"expected {val or kind}, got {t[1]!r}")
        return t[1]

    def accept(self, kind: str, val: str | None = None) -> bool:
        t = self.peek()
        if t[0] == kind and (val is None or t[1] == val):
            self.i += 1
            return True
        return False

    # --- expressions (precedence climbing) ---

    def expr(self):
        return self._or()

    def _or(self):
        node = self._and()
        while self.accept("kw", "OR") or self.accept("op", "||"):
            node = Bin("or", node, self._and())
        return node

    def _and(self):
        node = self._not()
        while self.accept("kw", "AND") or self.accept("op", "&&"):
            node = Bin("and", node, self._not())
        return node

    def _not(self):
        if self.accept("kw", "NOT"):
            return Un("not", self._not())
        return self._cmp()

    def _cmp(self):
        node = self._add()
        t = self.peek()
        if t[0] == "op" and t[1] in ("==", "!=", "<", "<=", ">", ">="):
            self.next()
            return Bin(t[1], node, self._add())
        if t == ("kw", "LIKE"):
            self.next()
            pat = self.next()
            if pat[0] != "str":
                raise EsqlError("LIKE needs a string pattern")
            return Bin("like", node, Lit(pat[1]))
        if t == ("kw", "IS"):
            # IS NULL / IS NOT NULL postfix predicates
            self.next()
            negate = bool(self.accept("kw", "NOT"))
            self.expect("kw", "NULL")
            return Un("notnull" if negate else "isnull", node)
        if t == ("kw", "IN"):
            self.next()
            self.expect("op", "(")
            items = [self._primary_lit()]
            while self.accept("op", ","):
                items.append(self._primary_lit())
            self.expect("op", ")")
            return InList(node, items)
        return node

    def _primary_lit(self) -> Lit:
        t = self.next()
        if t[0] == "num":
            return Lit(float(t[1]) if "." in t[1] else int(t[1]))
        if t[0] == "str":
            return Lit(t[1])
        raise EsqlError(f"expected literal, got {t[1]!r}")

    def _add(self):
        node = self._mul()
        while True:
            t = self.peek()
            if t[0] == "op" and t[1] in ("+", "-"):
                self.next()
                node = Bin(t[1], node, self._mul())
            else:
                return node

    def _mul(self):
        node = self._unary()
        while True:
            t = self.peek()
            if t[0] == "op" and t[1] in ("*", "/", "%"):
                self.next()
                node = Bin(t[1], node, self._unary())
            else:
                return node

    def _unary(self):
        if self.accept("op", "-"):
            return Un("neg", self._unary())
        return self._primary()

    def _primary(self):
        t = self.next()
        if t[0] == "num":
            return Lit(float(t[1]) if "." in t[1] else int(t[1]))
        if t[0] == "str":
            return Lit(t[1])
        if t == ("kw", "TRUE"):
            return Lit(True)
        if t == ("kw", "FALSE"):
            return Lit(False)
        if t == ("kw", "NULL"):
            return Lit(None)
        if t[0] == "ident":
            if self.accept("op", "("):
                args = []
                if not self.accept("op", ")"):
                    args.append(self.expr())
                    while self.accept("op", ","):
                        args.append(self.expr())
                    self.expect("op", ")")
                return Call(t[1].upper(), args)
            return Col(t[1])
        if t == ("op", "("):
            node = self.expr()
            self.expect("op", ")")
            return node
        raise EsqlError(f"unexpected token {t[1]!r}")

    # --- stages ---

    def parse(self) -> list[Stage]:
        if self.accept("kw", "ROW"):
            # ROW a = <expr>, b = <expr> — a one-row literal source
            pairs = []
            while True:
                name = self.expect("ident")
                self.expect("op", "=")
                pairs.append((name, self.expr()))
                if not self.accept("op", ","):
                    break
            stages = [Stage("row", pairs)]
        else:
            self.expect("kw", "FROM")
            src = self.expect("ident")
            stages = [Stage("from", src)]
        while self.accept("op", "|"):
            t = self.next()
            if t[0] != "kw":
                raise EsqlError(f"expected stage keyword, got {t[1]!r}")
            kw = t[1]
            if kw == "WHERE":
                stages.append(Stage("where", self.expr()))
            elif kw == "EVAL":
                pairs = []
                while True:
                    name = self.expect("ident")
                    self.expect("op", "=")
                    pairs.append((name, self.expr()))
                    if not self.accept("op", ","):
                        break
                stages.append(Stage("eval", pairs))
            elif kw in ("KEEP", "DROP"):
                names = [self.expect("ident")]
                while self.accept("op", ","):
                    names.append(self.expect("ident"))
                stages.append(Stage(kw.lower(), names))
            elif kw == "RENAME":
                pairs = []
                while True:
                    old = self.expect("ident")
                    self.expect("kw", "AS")
                    pairs.append((old, self.expect("ident")))
                    if not self.accept("op", ","):
                        break
                stages.append(Stage("rename", pairs))
            elif kw == "MV_EXPAND":
                stages.append(Stage("mvexpand", self.expect("ident")))
            elif kw == "STATS":
                aggs = []
                while True:
                    name = self.expect("ident")
                    self.expect("op", "=")
                    fn_tok = self.next()
                    if fn_tok[0] != "ident" or fn_tok[1].upper() not in _AGG_FNS:
                        raise EsqlError(f"unknown aggregate {fn_tok[1]!r}")
                    fn = fn_tok[1].upper()
                    self.expect("op", "(")
                    if self.accept("op", "*"):
                        if fn != "COUNT":
                            raise EsqlError(f"{fn}(*) is not valid")
                        arg = None
                    else:
                        arg = self.expr()
                    if fn == "TOP":
                        # TOP(field, limit, "asc"|"desc") — encode the
                        # k-bound and direction into the fn tag so the
                        # (name, fn, expr, cond) agg shape is unchanged
                        self.expect("op", ",")
                        k_tok = self.next()
                        if k_tok[0] != "num" or "." in k_tok[1] \
                                or int(k_tok[1]) < 1:
                            raise EsqlError("TOP limit must be a positive "
                                            "integer")
                        self.expect("op", ",")
                        o_tok = self.next()
                        if o_tok[0] != "str" or o_tok[1] not in ("asc", "desc"):
                            raise EsqlError(
                                'TOP order must be "asc" or "desc"'
                            )
                        fn = f"TOP:{int(k_tok[1])}:{o_tok[1]}"
                    self.expect("op", ")")
                    # ES|QL 8.16 per-aggregate filter: agg(...) WHERE cond
                    cond = self.expr() if self.accept("kw", "WHERE") else None
                    aggs.append((name, fn, arg, cond))
                    if not self.accept("op", ","):
                        break
                by: list[str] = []
                if self.accept("kw", "BY"):
                    by.append(self.expect("ident"))
                    while self.accept("op", ","):
                        by.append(self.expect("ident"))
                stages.append(Stage("stats", (aggs, by)))
            elif kw == "SORT":
                keys = []
                while True:
                    name = self.expect("ident")
                    asc = True
                    if self.accept("kw", "DESC"):
                        asc = False
                    else:
                        self.accept("kw", "ASC")
                    keys.append((name, asc))
                    if not self.accept("op", ","):
                        break
                stages.append(Stage("sort", keys))
            elif kw == "DISSECT":
                col = self.expect("ident")
                pat = self.next()
                if pat[0] != "str":
                    raise EsqlError("DISSECT needs a string pattern")
                stages.append(Stage("dissect", (col, pat[1])))
            elif kw == "GROK":
                col = self.expect("ident")
                pat = self.next()
                if pat[0] != "str":
                    raise EsqlError("GROK needs a string pattern")
                _grok_regex(pat[1])  # validate eagerly (parse-time error)
                stages.append(Stage("grok", (col, pat[1])))
            elif kw == "ENRICH":
                policy = self.expect("ident")
                self.expect("kw", "ON")
                key = self.expect("ident")
                self.expect("kw", "WITH")
                fields = [self.expect("ident")]
                while self.accept("op", ","):
                    fields.append(self.expect("ident"))
                stages.append(Stage("enrich", (policy, key, fields)))
            elif kw == "LIMIT":
                n = self.next()
                if n[0] != "num" or "." in n[1]:
                    raise EsqlError("LIMIT needs an integer")
                stages.append(Stage("limit", int(n[1])))
            else:
                raise EsqlError(f"unknown stage {kw}")
        if self.peek()[0] != "eof":
            raise EsqlError(f"trailing input at {self.peek()[1]!r}")
        return stages


def parse_esql(text: str) -> list[Stage]:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# expression evaluation over an Arrow batch (vectorized, no Python rows)

def _as_array(v, n: int):
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        return v
    return pa.array([v] * n) if v is not None else pa.nulls(n)


def _eval_expr(node, batch: pa.Table):
    n = len(batch)
    if isinstance(node, Lit):
        return pa.scalar(node.value)
    if isinstance(node, Col):
        if node.name not in batch.column_names:
            raise EsqlError(f"unknown column {node.name!r}")
        col = batch[node.name]
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(node, Un):
        arg = _eval_expr(node.arg, batch)
        if node.op == "neg":
            return pc.negate(arg)
        if node.op == "isnull":
            return pc.is_null(_as_array(arg, n))
        if node.op == "notnull":
            return pc.is_valid(_as_array(arg, n))
        return pc.invert(arg)
    if isinstance(node, InList):
        arg = _eval_expr(node.expr, batch)
        return pc.is_in(arg, value_set=pa.array([it.value for it in node.items]))
    if isinstance(node, Call):
        return _eval_call(node, batch)
    if isinstance(node, Bin):
        left = _eval_expr(node.left, batch)
        right = _eval_expr(node.right, batch)
        op = node.op
        if op == "and":
            return pc.and_kleene(_as_array(left, n), _as_array(right, n))
        if op == "or":
            return pc.or_kleene(_as_array(left, n), _as_array(right, n))
        if op == "like":
            return pc.match_like(left, node.right.value)
        cmp = {
            "==": pc.equal, "!=": pc.not_equal, "<": pc.less,
            "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal,
        }.get(op)
        if cmp is not None:
            return cmp(left, right)
        if op == "+":
            return pc.add(left, right)
        if op == "-":
            return pc.subtract(left, right)
        if op == "*":
            return pc.multiply(left, right)
        if op == "/":
            # ES|QL '/' on mixed input: pin float64 division (the
            # integer-division form is expressible as a - a % b)
            return pc.divide(
                pc.cast(left, pa.float64()), pc.cast(right, pa.float64())
            )
        if op == "%":
            # Arrow has no modulo kernel in this version. Integer
            # operands: a - (a/b)*b via integer (truncating) divide.
            # Any float operand: pc.divide is TRUE division there, so
            # TRUNCATE the quotient first — a - trunc(a/b)*b — or every
            # float modulo would silently evaluate to 0. Truncation
            # (not floor) keeps the sign-of-dividend semantics of
            # ES|QL / Java % and DuckDB fmod, consistent with the
            # integer path: -7.0 % 3.0 == -1.0, not floor-mod's 2.0.
            lt, rt = getattr(left, "type", None), getattr(right, "type", None)
            if (
                lt is not None and pa.types.is_integer(lt)
                and rt is not None and pa.types.is_integer(rt)
            ):
                q = pc.divide(left, right)
                return pc.subtract(left, pc.multiply(q, right))
            lf = pc.cast(left, pa.float64())
            rf = pc.cast(right, pa.float64())
            q = pc.trunc(pc.divide(lf, rf))
            return pc.subtract(lf, pc.multiply(q, rf))
        raise EsqlError(f"unknown operator {op}")
    raise EsqlError(f"bad expression node {node!r}")


def _lit_str(node: Call, i: int, fn: str) -> str:
    if len(node.args) <= i or not isinstance(node.args[i], Lit) \
            or not isinstance(node.args[i].value, str):
        raise EsqlError(f"{fn}: argument {i + 1} must be a string literal")
    return node.args[i].value


def _lit_int(node: Call, i: int, fn: str) -> int:
    if len(node.args) <= i or not isinstance(node.args[i], Lit) \
            or not isinstance(node.args[i].value, int):
        raise EsqlError(f"{fn}: argument {i + 1} must be an integer literal")
    return node.args[i].value


def _eval_call(node: Call, batch: pa.Table):
    args = [_eval_expr(a, batch) for a in node.args]
    fn = node.fn
    if fn == "LENGTH":
        return pc.utf8_length(args[0])
    if fn == "SPLIT":
        if len(node.args) != 2 or not isinstance(node.args[1], Lit) \
                or not isinstance(node.args[1].value, str):
            raise EsqlError("SPLIT needs (column, string-delimiter)")
        return pc.split_pattern(args[0], node.args[1].value)
    if fn == "STARTS_WITH":
        return pc.starts_with(args[0], pattern=_lit_str(node, 1, fn))
    if fn == "ENDS_WITH":
        return pc.ends_with(args[0], pattern=_lit_str(node, 1, fn))
    if fn == "TRIM":
        return pc.utf8_trim_whitespace(args[0])
    if fn == "LTRIM":
        return pc.utf8_ltrim_whitespace(args[0])
    if fn == "RTRIM":
        return pc.utf8_rtrim_whitespace(args[0])
    if fn == "REPLACE":
        # ES|QL REPLACE(string, regex, newString) — regex semantics
        return pc.replace_substring_regex(
            args[0], pattern=_lit_str(node, 1, fn),
            replacement=_lit_str(node, 2, fn),
        )
    if fn == "LEFT":
        return pc.utf8_slice_codeunits(args[0], 0, _lit_int(node, 1, fn))
    if fn == "RIGHT":
        # negative start slices from the end (shorter strings intact);
        # n <= 0 is the empty string, not the -0 == "whole string" trap
        nr = _lit_int(node, 1, fn)
        if nr <= 0:
            return pc.utf8_slice_codeunits(args[0], 0, 0)
        return pc.utf8_slice_codeunits(args[0], -nr)
    if fn == "TO_UPPER":
        return pc.utf8_upper(args[0])
    if fn == "TO_LOWER":
        return pc.utf8_lower(args[0])
    if fn == "ABS":
        return pc.abs(args[0])
    if fn == "ROUND":
        nd = node.args[1].value if len(node.args) > 1 else 0
        # half-away-from-zero, matching DuckDB/SQL ROUND
        return pc.round(args[0], ndigits=nd, round_mode="half_towards_infinity")
    if fn == "SUBSTRING":
        # 1-based start like ES|QL / SQL
        start = node.args[1].value - 1
        if len(node.args) > 2:
            return pc.utf8_slice_codeunits(args[0], start, start + node.args[2].value)
        return pc.utf8_slice_codeunits(args[0], start)
    if fn == "CONCAT":
        n = max((len(a) for a in args if isinstance(a, (pa.Array, pa.ChunkedArray))),
                default=len(batch))
        arrs = [
            a if isinstance(a, (pa.Array, pa.ChunkedArray))
            else pa.array([a.as_py()] * n, type=pa.string())
            for a in args
        ]
        return pc.binary_join_element_wise(*arrs, "")
    if fn == "STARTS_WITH":
        return pc.starts_with(args[0], node.args[1].value)
    if fn == "TO_LONG":
        return pc.cast(args[0], pa.int64())
    if fn == "TO_DOUBLE":
        return pc.cast(args[0], pa.float64())
    if fn == "TO_STRING":
        return pc.cast(args[0], pa.string())
    if fn == "DATE_TRUNC":
        # ES|QL argument order: DATE_TRUNC(unit, date)
        unit = node.args[0].value if isinstance(node.args[0], Lit) else None
        if unit not in ("year", "month", "week", "day", "hour", "minute",
                        "second"):
            raise EsqlError(f"DATE_TRUNC unit {unit!r} not supported")
        return pc.floor_temporal(args[1], unit=unit)
    if fn == "EPOCH_US":
        # microseconds since epoch as int64 (the engine's bucket_us
        # convention — keyed exchanges group on integers, not timestamps)
        return pc.cast(pc.cast(args[0], pa.timestamp("us")), pa.int64())
    if fn == "COALESCE":
        out = args[0]
        for a in args[1:]:
            n = len(batch)
            out = pc.coalesce(_as_array(out, n), _as_array(a, n))
        return out
    if fn == "CASE":
        # CASE(cond1, val1[, cond2, val2, ...][, default]) — ES|QL form
        if len(args) < 2:
            raise EsqlError("CASE needs at least a condition and a value")
        n = len(batch)
        pairs, default = args, None
        if len(args) % 2 == 1:
            pairs, default = args[:-1], args[-1]
        out = (
            _as_array(default, n) if default is not None
            else pa.nulls(n, _as_array(pairs[1], n).type)
        )
        # fold right-to-left so earlier conditions win
        for i in range(len(pairs) - 2, -1, -2):
            out = pc.if_else(
                pc.fill_null(_as_array(pairs[i], n), False),
                _as_array(pairs[i + 1], n),
                out,
            )
        return out
    raise EsqlError(f"unknown function {fn}")


# ---------------------------------------------------------------------------
# compiler

def _collect_cols(node, out: set[str]) -> None:
    if isinstance(node, Col):
        out.add(node.name)
    elif isinstance(node, Un):
        _collect_cols(node.arg, out)
    elif isinstance(node, Bin):
        _collect_cols(node.left, out)
        _collect_cols(node.right, out)
    elif isinstance(node, InList):
        _collect_cols(node.expr, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_cols(a, out)


def _referenced_columns(stages: list[Stage]) -> list[str]:
    """Columns the FROM must read: references up to and including the
    first STATS (later stages see the bucket-bounded aggregate schema,
    not the source), minus names EVAL/ENRICH/DISSECT define.

    Definitions are tracked IN STAGE ORDER: a name only stops being a
    source read once a stage has defined it, so
    ``EVAL price = price * 2`` (redefinition of a source column, which
    _make_rowlocal_fn supports via set_column) still reads ``price``
    from the parquet — subtracting every EVAL-defined name
    unconditionally pruned such columns and broke valid queries."""
    refs: set[str] = set()
    defined: set[str] = set()

    def add_expr(node) -> None:
        tmp: set[str] = set()
        _collect_cols(node, tmp)
        refs.update(tmp - defined)

    for st in stages:
        if st.kind == "where":
            add_expr(st.payload)
        elif st.kind == "eval":
            for name, ex in st.payload:
                add_expr(ex)
                defined.add(name)
        elif st.kind in ("keep", "drop"):
            refs.update(set(st.payload) - defined)
        elif st.kind == "enrich":
            _policy, key, fields = st.payload
            if key not in defined:
                refs.add(key)
            defined.update(fields)
        elif st.kind == "dissect":
            col, pattern = st.payload
            if col not in defined:
                refs.add(col)
            defined.update(_dissect_regex(pattern)[1])
        elif st.kind == "grok":
            col, pattern = st.payload
            if col not in defined:
                refs.add(col)
            defined.update(n for n, _ in _grok_regex(pattern)[1])
        elif st.kind == "rename":
            for old, new in st.payload:
                if old not in defined:
                    refs.add(old)
                defined.add(new)
        elif st.kind == "mvexpand":
            if st.payload not in defined:
                refs.add(st.payload)
        elif st.kind == "stats":
            aggs, by = st.payload
            refs.update(set(by) - defined)
            for _, _, ex, cond in aggs:
                if ex is not None:
                    add_expr(ex)
                if cond is not None:
                    add_expr(cond)
            break
        elif st.kind == "sort":
            refs.update(k for k, _ in st.payload if k not in defined)
    return sorted(refs)


def _dissect_regex(pattern: str) -> tuple[str, list[str]]:
    """Compile a DISSECT pattern (``%{name}`` keys between literal
    separators) to ONE anchored regex with named groups: keys are
    non-greedy up to the next literal, the trailing key (if the pattern
    ends with one) consumes the rest."""
    parts = re.split(r"(%\{[A-Za-z_][A-Za-z0-9_]*\})", pattern)
    out, names = ["^"], []
    for i, p in enumerate(parts):
        if p.startswith("%{") and p.endswith("}"):
            name = p[2:-1]
            names.append(name)
            last = all(q == "" for q in parts[i + 1:])
            out.append(f"(?P<{name}>.*)" if last else f"(?P<{name}>.*?)")
        elif p:
            out.append(re.escape(p))
    if not names:
        raise EsqlError(f"DISSECT pattern {pattern!r} has no %{{name}} keys")
    out.append("$")
    return "".join(out), names


# GROK pattern library — a re-derived subset of the public Logstash /
# Elastic grok base patterns (ES|QL GROK docs list the same names).
# Pre-expanded: every entry is a self-contained, group-free regex.
_GROK_LIB: dict[str, str] = {
    "WORD": r"\b\w+\b",
    "NOTSPACE": r"\S+",
    "SPACE": r"\s*",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "INT": r"[+-]?\d+",
    "POSINT": r"\b\d+\b",
    "BASE10NUM": r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)",
    "NUMBER": r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)",
    "IP": r"(?:\d{1,3}\.){3}\d{1,3}",
    "IPV4": r"(?:\d{1,3}\.){3}\d{1,3}",
    "USERNAME": r"[a-zA-Z0-9._-]+",
    "LOGLEVEL": r"(?:TRACE|DEBUG|INFO|NOTICE|WARN(?:ING)?|ERROR|CRIT(?:ICAL)?|FATAL)",
    "TIMESTAMP_ISO8601":
        r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(?::\d{2}(?:\.\d+)?)?"
        r"(?:Z|[+-]\d{2}:?\d{2})?",
    "HTTPMETHOD": r"(?:GET|POST|PUT|DELETE|HEAD|OPTIONS|PATCH)",
    "URIPATH": r"(?:/[A-Za-z0-9$.+!*'(){},~:;=@#%_\-]*)+",
    "QUOTEDSTRING": r'"(?:[^"\\]|\\.)*"',
}

_GROK_KEY_RE = re.compile(
    r"%\{(?P<pat>[A-Z0-9_]+)"
    r"(?::(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?::(?P<type>int|long|float|double|keyword|string|boolean))?)?\}"
)

# ES|QL GROK type suffixes -> Arrow target types (default: keyword/string)
_GROK_TYPES = {
    "int": pa.int64(), "long": pa.int64(),
    "float": pa.float64(), "double": pa.float64(),
    "boolean": pa.bool_(),
}


def _grok_regex(pattern: str) -> tuple[str, list[tuple[str, object]]]:
    """Compile a GROK pattern to ONE anchored regex with named groups.

    ``%{PATTERN:name}`` captures, ``%{PATTERN:name:type}`` captures with
    a typed conversion, ``%{PATTERN}`` matches without capturing; text
    between keys is ordinary regex (the ES GROK semantics — unlike
    DISSECT, the pattern IS a regex and, like Elastic, matches anywhere
    in the input unless the user writes ^/$).  Returns
    (regex, [(name, arrow type or None)]); None type = keyword."""
    out, names = [], []
    pos = 0
    for m in _GROK_KEY_RE.finditer(pattern):
        out.append(pattern[pos:m.start()])
        body = _GROK_LIB.get(m.group("pat"))
        if body is None:
            raise EsqlError(
                f"unknown GROK pattern %{{{m.group('pat')}}}; known: "
                f"{sorted(_GROK_LIB)}"
            )
        name = m.group("name")
        if name is None:
            out.append(f"(?:{body})")
        else:
            if any(name == n for n, _ in names):
                raise EsqlError(f"duplicate GROK capture name {name!r}")
            names.append((name, _GROK_TYPES.get(m.group("type"))))
            out.append(f"(?P<{name}>{body})")
        pos = m.end()
    out.append(pattern[pos:])
    if not names:
        raise EsqlError(f"GROK pattern {pattern!r} captures no fields")
    rx = "".join(out)
    # eager validation so a bad pattern is a parse-time EsqlError, not
    # an ArrowInvalid deep inside a Ray map_batches task. It runs the
    # engine that executes the pattern (Arrow's RE2, which e.g. has no
    # lookbehind), not Python ``re``: the regex must compile, and every
    # capture group must be one of our named keys
    try:
        pc.extract_regex(pa.array([], pa.string()), rx)
    except pa.ArrowInvalid as ex:
        if "unnamed groups" in str(ex):
            raise EsqlError(
                f"GROK pattern {pattern!r} contains unnamed capture groups; "
                f"use non-capturing (?:...) for plain grouping"
            ) from None
        raise EsqlError(f"GROK pattern {pattern!r} compiles to an "
                        f"invalid regex: {ex}") from None
    return rx, names


def _cast_or_null(vals: pa.Array, typ: pa.DataType) -> pa.Array:
    """A typed GROK capture: Arrow's cast parses the captured text, and
    a value it cannot parse (int64 overflow, non-numeric text) becomes
    null, as in ES, instead of failing the whole batch."""
    try:
        return pc.cast(vals, typ)
    except pa.ArrowInvalid:
        out = []
        for v in vals:
            try:
                out.append(v.cast(typ))
            except pa.ArrowInvalid:
                out.append(None)
        return pa.array(out, typ)


def _put_column(batch: pa.Table, name: str, vals) -> pa.Table:
    """Set-or-append: ES GROK/DISSECT keys OVERWRITE an existing column
    of the same name (append_column would create a duplicate field and
    every later batch[name] lookup would raise)."""
    if name in batch.column_names:
        return batch.set_column(batch.column_names.index(name), name, vals)
    return batch.append_column(name, vals)


def _make_rowlocal_fn(block: list[Stage]):
    """Fuse a run of WHERE/EVAL/KEEP/DROP/DISSECT stages into one Arrow
    batch fn."""

    def fn(batch: pa.Table) -> pa.Table:
        for st in block:
            if st.kind == "dissect":
                col, pattern = st.payload
                rx, names = _dissect_regex(pattern)
                src = batch[col]
                if isinstance(src, pa.ChunkedArray):
                    src = src.combine_chunks()
                groups = pc.extract_regex(src, rx)
                for name in names:
                    batch = _put_column(
                        batch, name, pc.struct_field(groups, name)
                    )
            elif st.kind == "grok":
                col, pattern = st.payload
                rx, tnames = _grok_regex(pattern)
                src = batch[col]
                if isinstance(src, pa.ChunkedArray):
                    src = src.combine_chunks()
                groups = pc.extract_regex(src, rx)
                for name, typ in tnames:
                    vals = pc.struct_field(groups, name)
                    if typ is not None:
                        # typed conversion (:int/:float/:boolean);
                        # nulls (no match) stay null
                        vals = _cast_or_null(vals, typ)
                    batch = _put_column(batch, name, vals)
            elif st.kind == "where":
                mask = _eval_expr(st.payload, batch)
                if isinstance(mask, pa.Scalar):
                    mask = pa.array([bool(mask.as_py())] * len(batch))
                batch = batch.filter(pc.fill_null(mask, False))
            elif st.kind == "eval":
                for name, ex in st.payload:
                    val = _eval_expr(ex, batch)
                    if isinstance(val, pa.Scalar):
                        val = pa.array([val.as_py()] * len(batch))
                    if name in batch.column_names:
                        batch = batch.set_column(
                            batch.column_names.index(name), name, val
                        )
                    else:
                        batch = batch.append_column(name, val)
            elif st.kind == "keep":
                batch = batch.select(st.payload)
            elif st.kind == "drop":
                batch = batch.drop_columns(st.payload)
            elif st.kind == "rename":
                names = list(batch.column_names)
                for old, new in st.payload:
                    if old not in names:
                        raise EsqlError(f"RENAME: unknown column {old!r}")
                    names[names.index(old)] = new
                batch = batch.rename_columns(names)
            elif st.kind == "mvexpand":
                batch = _mv_expand(batch, st.payload)
        return batch

    return fn


def _mv_expand(batch: pa.Table, name: str) -> pa.Table:
    """MV_EXPAND: one output row per element of the list column (the
    flat_map shape), other columns repeated — all Arrow kernels + one
    numpy repeat, no Python rows. A null/empty list drops the row (the
    ES|QL 8.x semantics for empty multivalues)."""
    if name not in batch.column_names:
        raise EsqlError(f"MV_EXPAND: unknown column {name!r}")
    col = batch[name]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_list(col.type) and not pa.types.is_large_list(col.type):
        return batch  # single-valued column: expansion is the identity
    lens = pc.fill_null(pc.list_value_length(col), 0)
    idx = np.repeat(
        np.arange(len(batch), dtype=np.int64),
        lens.to_numpy(zero_copy_only=False),
    )
    flat = pc.list_flatten(col)
    out = batch.drop_columns([name]).take(pa.array(idx))
    return out.append_column(name, flat)


def _compile_stats(ds, aggs, by):
    """Partial+final STATS: Arrow group-by combiner per batch, one keyed
    exchange, bucket-bounded driver finish.  Returns a pa.Table."""
    import ray
    from ray.data.aggregate import Max, Min, Sum

    plain = [a for a in aggs
             if a[1] != "COUNT_DISTINCT" and not a[1].startswith("TOP:")]
    distincts = [a for a in aggs if a[1] == "COUNT_DISTINCT"]
    tops = [a for a in aggs if a[1].startswith("TOP:")]

    def _masked(v, cond, batch):
        """Null out rows failing the per-aggregate WHERE (Arrow
        aggregates skip nulls, so masking IS the filter)."""
        if cond is None:
            return v
        n = len(batch)
        mask = pc.fill_null(_as_array(_eval_expr(cond, batch), n), False)
        return pc.if_else(mask, _as_array(v, n), pa.nulls(
            n, _as_array(v, n).type
        ))

    result = None
    if plain or not (distincts or tops):

        def partial(batch: pa.Table) -> pa.Table:
            cols: dict[str, object] = {k: batch[k] for k in by}
            arrow_aggs = []
            for name, fn, ex, cond in plain:
                if fn == "COUNT":
                    if ex is None:
                        v = pa.array(np.ones(len(batch), dtype=np.int64))
                        cols[f"__{name}"] = _masked(v, cond, batch)
                        arrow_aggs.append((f"__{name}", "sum"))
                    else:
                        v = _as_array(_eval_expr(ex, batch), len(batch))
                        cols[f"__{name}"] = _masked(v, cond, batch)
                        arrow_aggs.append((f"__{name}", "count"))
                elif fn == "AVG":
                    v = _masked(
                        _as_array(_eval_expr(ex, batch), len(batch)),
                        cond, batch,
                    )
                    cols[f"__{name}_s"] = v
                    cols[f"__{name}_c"] = pc.cast(
                        pc.is_valid(v), pa.int64()
                    )
                    arrow_aggs.append((f"__{name}_s", "sum"))
                    arrow_aggs.append((f"__{name}_c", "sum"))
                else:
                    v = _masked(
                        _as_array(_eval_expr(ex, batch), len(batch)),
                        cond, batch,
                    )
                    cols[f"__{name}"] = v
                    arrow_aggs.append((f"__{name}", fn.lower()))
            t = pa.table(cols)
            g = pa.TableGroupBy(t, by).aggregate(arrow_aggs)
            # TableGroupBy emits key columns first, then the aggregate
            # columns in the order given; rename to the partial names
            out_names = []
            for a in plain:
                n, f = a[0], a[1]
                if f == "AVG":
                    out_names += [f"__{n}_s_p", f"__{n}_c_p"]
                else:
                    out_names.append(f"__{n}_p")
            return g.rename_columns(by + out_names)

        partial_cols = []
        for n, f, _e, _c in plain:
            if f == "AVG":
                partial_cols += [(f"__{n}_s_p", "sum"), (f"__{n}_c_p", "sum")]
            elif f in ("COUNT",):
                partial_cols.append((f"__{n}_p", "sum"))
            elif f == "SUM":
                partial_cols.append((f"__{n}_p", "sum"))
            elif f == "MIN":
                partial_cols.append((f"__{n}_p", "min"))
            else:
                partial_cols.append((f"__{n}_p", "max"))

        ray_aggs = [
            {"sum": Sum, "min": Min, "max": Max}[kind](col, alias_name=col)
            for col, kind in partial_cols
        ]
        pds = ds.map_batches(partial, batch_format="pyarrow")
        if by:
            result = pa.Table.from_pylist(
                pds.groupby(by).aggregate(*ray_aggs).take_all()
            )
        else:
            result = pa.Table.from_pylist([pds.aggregate(*ray_aggs)])

    # COUNT_DISTINCT: exact two-exchange decomposition (per-batch dedupe
    # -> distinct over (by, value) -> bucket-bounded recount), the exact
    # cardinality-agg tier's shape
    for name, _fn, ex, dcond in distincts:
        def dedup_partial(batch: pa.Table, _ex=ex, _c=dcond) -> pa.Table:
            v = _masked(
                _as_array(_eval_expr(_ex, batch), len(batch)), _c, batch
            )
            t = pa.table({**{k: batch[k] for k in by}, "__v": v})
            t = t.filter(pc.is_valid(t["__v"]))
            return pa.TableGroupBy(t, by + ["__v"]).aggregate([]).select(
                by + ["__v"]
            )

        from ray.data.aggregate import Count as _Count
        from ray.data.aggregate import Sum as _Sum

        def recount(batch: pa.Table) -> pa.Table:
            if not by:
                return pa.table({"__one_p": pa.array([len(batch)], pa.int64())})
            t = pa.table({
                **{k: batch[k] for k in by},
                "__one": pa.array(np.ones(len(batch), dtype=np.int64)),
            })
            g = pa.TableGroupBy(t, by).aggregate([("__one", "sum")])
            return g.rename_columns(by + ["__one_p"])

        dd = ds.map_batches(dedup_partial, batch_format="pyarrow")
        # distinct (by, value) pairs: a keyed count whose count column is
        # discarded — the exchange itself is the dedupe
        dd = dd.groupby(by + ["__v"]).aggregate(_Count(alias_name="__c"))
        dd = dd.map_batches(recount, batch_format="pyarrow")
        if by:
            cnt = dd.groupby(by).aggregate(_Sum("__one_p", alias_name=name))
            cnt_t = pa.Table.from_pylist(cnt.take_all())
        else:
            cnt_t = pa.Table.from_pylist([dd.aggregate(_Sum("__one_p", alias_name=name))])
        if result is None:
            result = cnt_t
        else:
            # bucket-bounded driver-side key join of the two small maps
            left = result.to_pandas()
            right = cnt_t.to_pandas()
            merged = (
                left.merge(right, on=by, how="outer") if by
                else left.assign(**{name: right[name].iloc[0]})
            )
            result = pa.Table.from_pandas(merged, preserve_index=False)

    # TOP(field, k, order): k-bounded mergeable top values per group —
    # per-batch per-group k-heads (<= k rows per group per batch leave
    # the map side), ONE keyed exchange, per-group finalize into a
    # multivalue (list) column. Never ships a group's full value set.
    for name, fn, ex, tcond in tops:
        _, k_s, order = fn.split(":")
        kk, desc = int(k_s), order == "desc"
        vdir = "descending" if desc else "ascending"

        def top_partial(batch: pa.Table, _ex=ex, _c=tcond, _k=kk,
                        _vdir=vdir) -> pa.Table:
            v = _masked(
                _as_array(_eval_expr(_ex, batch), len(batch)), _c, batch
            )
            t = pa.table({**{g: batch[g] for g in by}, "__v": v})
            t = t.filter(pc.is_valid(t["__v"]))
            t = t.sort_by(
                [(g, "ascending") for g in by] + [("__v", _vdir)]
            )
            if not by:
                return t.slice(0, _k)
            if t.num_rows == 0:
                return t
            keys = [t[g].to_numpy(zero_copy_only=False) for g in by]
            change = np.zeros(t.num_rows, dtype=bool)
            change[0] = True
            for kc in keys:
                change[1:] |= kc[1:] != kc[:-1]
            gid = np.cumsum(change) - 1
            firsts = np.flatnonzero(change)
            rank = np.arange(t.num_rows) - firsts[gid]
            return t.filter(pa.array(rank < _k))

        tds = ds.map_batches(top_partial, batch_format="pyarrow")
        if by:
            def top_final(g: pa.Table, _k=kk, _vdir=vdir,
                          _name=name) -> pa.Table:
                g = g.sort_by([("__v", _vdir)])
                row = {c: [g[c][0].as_py()] for c in by}
                row[_name] = [g["__v"].slice(0, _k).to_pylist()]
                return pa.table(row)

            top_t = pa.Table.from_pylist(
                tds.groupby(by).map_groups(
                    top_final, batch_format="pyarrow"
                ).take_all()
            )
        else:
            cand = pa.Table.from_pylist(tds.take_all())  # <= k x blocks
            if cand.num_rows:
                cand = cand.sort_by([("__v", vdir)])
                vals = cand["__v"].slice(0, kk).to_pylist()
            else:
                vals = []
            top_t = pa.table({name: [vals]})
        if result is None:
            result = top_t
        else:
            left = result.to_pandas()
            right = top_t.to_pandas()
            merged = (
                left.merge(right, on=by, how="outer") if by
                else left.assign(**{name: right[name]})
            )
            result = pa.Table.from_pandas(merged, preserve_index=False)

    # finish: rename partials to user names, AVG = sum/count
    cols: dict[str, object] = {k: result[k] for k in by}
    for name, fn, _e, _c in aggs:
        if fn == "COUNT_DISTINCT":
            cols[name] = pc.cast(
                pc.fill_null(result[name], 0), pa.int64()
            )
        elif fn.startswith("TOP:"):
            cols[name] = result[name]
        elif fn == "AVG":
            cols[name] = pc.divide(
                pc.cast(result[f"__{name}_s_p"], pa.float64()),
                pc.cast(result[f"__{name}_c_p"], pa.float64()),
            )
        elif fn == "COUNT":
            # empty-after-filter groups count 0 (SQL COUNT FILTER rule)
            cols[name] = pc.cast(
                pc.fill_null(result[f"__{name}_p"], 0), pa.int64()
            )
        else:
            cols[name] = result[f"__{name}_p"]
    return pa.table(cols)


def _make_enrich_fn(sf_dir: str, policy_name: str, key: str, fields: list[str]):
    """ENRICH stage (ES|QL enrich / LOOKUP JOIN shape): the policy table
    is the small side — read once with column pruning, sorted by match
    key, broadcast via ray.put; each batch probes with ONE searchsorted
    and gathers enrichment columns (unmatched rows get nulls, LEFT-join
    semantics)."""
    import pyarrow.parquet as pq

    import ray

    if policy_name not in ENRICH_POLICIES:
        raise EsqlError(
            f"unknown enrich policy {policy_name!r}; registered: "
            f"{sorted(ENRICH_POLICIES)}"
        )
    pol = ENRICH_POLICIES[policy_name]
    bad = [f for f in fields if f not in pol["fields"]]
    if bad:
        raise EsqlError(f"fields {bad} not in policy {policy_name!r}")
    t = pq.read_table(
        f"{sf_dir}/{pol['table']}.parquet",
        columns=[pol["match_field"]] + fields,
    )
    keys = t[pol["match_field"]].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    ref = ray.put((
        keys[order],
        {f: t[f].combine_chunks().take(pa.array(order)) for f in fields},
    ))

    def fn(batch: pa.Table, _ref=ref) -> pa.Table:
        import ray as _ray

        skeys, cols = _ray.get(_ref)
        probe = batch[key].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, probe)
        pos_c = np.minimum(pos, max(len(skeys) - 1, 0))
        found = (skeys[pos_c] == probe) if len(skeys) else np.zeros(
            len(batch), bool
        )
        idx = pa.array(
            np.where(found, pos_c, 0), type=pa.int64(),
            mask=~found,  # null index -> null output (LEFT join)
        )
        for f in fields:
            batch = batch.append_column(f, cols[f].take(idx))
        return batch

    return fn


def run_esql(sf_dir: str, text: str):
    """Parse + execute an ES|QL-subset request over the parquet tables in
    ``sf_dir``.  Returns a ray.data.Dataset for row-level pipelines or a
    pyarrow.Table once a STATS stage has bucket-bounded the result."""
    import ray.data

    stages = parse_esql(text)
    if stages[0].kind == "row":
        one = pa.table({"__": pa.array([0])})
        cols_row = {}
        for name, ex in stages[0].payload:
            v = _eval_expr(ex, one)
            cols_row[name] = (
                v if isinstance(v, (pa.Array, pa.ChunkedArray))
                else pa.array([v.as_py()])
            )
        ds = ray.data.from_arrow(pa.table(cols_row))
    else:
        src = stages[0].payload
        cols = _referenced_columns(stages[1:])
        ds = ray.data.read_parquet(
            f"{sf_dir}/{src}.parquet", columns=cols or None
        )

    i = 1
    table: pa.Table | None = None  # set once bucket-bounded
    while i < len(stages):
        st = stages[i]
        if st.kind in ("where", "eval", "keep", "drop", "dissect", "grok", "rename", "mvexpand"):
            block = []
            while i < len(stages) and stages[i].kind in (
                "where", "eval", "keep", "drop", "dissect", "grok", "rename", "mvexpand"
            ):
                block.append(stages[i])
                i += 1
            fn = _make_rowlocal_fn(block)
            if table is not None:
                table = fn(table)
            else:
                ds = ds.map_batches(fn, batch_format="pyarrow")
            continue
        if st.kind == "enrich":
            policy_name, key, fields = st.payload
            fn = _make_enrich_fn(sf_dir, policy_name, key, fields)
            if table is not None:
                table = fn(table)
            else:
                ds = ds.map_batches(fn, batch_format="pyarrow")
            i += 1
            continue
        if st.kind == "stats":
            if table is not None:
                raise EsqlError("STATS after STATS is not supported")
            aggs, by = st.payload
            table = _compile_stats(ds, aggs, by)
            i += 1
            continue
        if st.kind == "sort":
            keys = [k for k, _ in st.payload]
            desc = [not asc for _, asc in st.payload]
            if table is not None:
                order = [(k, "descending" if d else "ascending")
                         for k, d in zip(keys, desc)]
                table = table.sort_by(order)
                i += 1
                continue
            # raw-row sort: LIMIT n directly after -> head-K monoid
            # (each batch contributes at most n rows to the exchange)
            if i + 1 < len(stages) and stages[i + 1].kind == "limit":
                n = stages[i + 1].payload

                def headk(batch: pa.Table, _keys=keys, _desc=desc, _n=n) -> pa.Table:
                    order = [(k, "descending" if d else "ascending")
                             for k, d in zip(_keys, _desc)]
                    return batch.sort_by(order).slice(0, _n)

                ds = (
                    ds.map_batches(headk, batch_format="pyarrow")
                    .sort(keys, descending=desc)
                    .limit(n)
                )
                i += 2
                continue
            ds = ds.sort(keys, descending=desc)
            i += 1
            continue
        if st.kind == "limit":
            if table is not None:
                table = table.slice(0, st.payload)
            else:
                ds = ds.limit(st.payload)
            i += 1
            continue
        raise EsqlError(f"unexpected stage {st.kind}")
    return table if table is not None else ds
