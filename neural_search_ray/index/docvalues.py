"""Per-shard doc-values sidecar: columnar doc attributes co-located with
the shard state, for engine-side field lookup and filter evaluation.

Reference analogue: Lucene doc-values / OpenSearch fielddata — collapse
and by_field rerank read per-hit field values (ByFieldRerankProcessor
.java:72-160), and filtered queries evaluate the predicate against the
segment, never shipping an accepted-id list from the coordinator.

Ray restatement: attributes are written once per doc shard (same
doc_id % num_shards partitioning as the postings), so a shard's query
actor evaluates predicates and fetches fields LOCALLY. The pipeline
passes a predicate (column, op, value), not an O(N) id array — the
round-1 anti-pattern this replaces.

Build: one groupby(shard) shuffle over the (doc_id, attrs...) input;
files land next to the postings, resumable (skip if present).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

DOCVALUES_DIR = "docvalues"

_OPS = {
    "==": pc.equal,
    "!=": pc.not_equal,
    "<": pc.less,
    "<=": pc.less_equal,
    ">": pc.greater,
    ">=": pc.greater_equal,
    # ES exists / missing queries: field has (no) value — the predicate
    # ignores its value operand
    "exists": lambda col, _v: pc.is_valid(col),
    "missing": lambda col, _v: pc.is_null(col),
}


def build_doc_values(
    ds: "ray.data.Dataset",
    index_dir: str,
    num_shards: int,
    id_column: str = "doc_id",
) -> list[dict]:
    """Write per-shard doc-values files from a (doc_id, attr...) dataset.
    All non-id columns become doc-values columns."""
    out_dir = os.path.join(index_dir, DOCVALUES_DIR)
    os.makedirs(out_dir, exist_ok=True)

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "__shard", pa.array((ids % num_shards).astype(np.int32))
        )

    def write_shard(group: pa.Table) -> pa.Table:
        s = int(group["__shard"][0].as_py())
        group = group.drop_columns(["__shard"])
        ids = group[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        pq.write_table(
            group.take(pa.array(order)),
            os.path.join(out_dir, f"values_s{s:04d}.parquet"),
        )
        return pa.table({"shard": pa.array([s], pa.int32()),
                         "n": pa.array([len(group)], pa.int64())})

    return (
        ds.map_batches(add_shard, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(write_shard, batch_format="pyarrow")
        .take_all()
    )  # one row per shard — small


class DocValues:
    """Doc-values reader for a searcher's shard subset. Tables are
    doc_id-sorted, so per-hit lookup is a binary search and predicate
    evaluation is a vectorized Arrow kernel — both shard-local."""

    def __init__(self, index_dir: str, shards: list[int]):
        d = os.path.join(index_dir, DOCVALUES_DIR)
        tables = []
        for s in shards:
            path = os.path.join(d, f"values_s{s:04d}.parquet")
            if os.path.exists(path):
                tables.append(pq.read_table(path))
        if not tables:
            raise FileNotFoundError(f"no doc-values under {d}")
        t = pa.concat_tables(tables)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        self.doc_ids = ids[order]
        self.table = t.take(pa.array(order)).combine_chunks()
        self._accepted_cache: dict[tuple, np.ndarray] = {}

    def lookup(self, doc_ids: np.ndarray, column: str) -> pa.Array:
        """Field values for the given doc_ids (must exist in the shards)."""
        pos = np.searchsorted(self.doc_ids, np.asarray(doc_ids, dtype=np.int64))
        return self.table[column].chunk(0).take(pa.array(pos))

    def accepted(self, column: str, op: str, value) -> np.ndarray:
        """Sorted doc_ids matching the predicate (engine-side filter
        evaluation; cached per predicate)."""
        key = (column, op, value)
        if key not in self._accepted_cache:
            mask = _OPS[op](self.table[column], value)
            mask = pc.fill_null(mask, False).to_numpy(zero_copy_only=False)
            self._accepted_cache[key] = self.doc_ids[mask]
        return self._accepted_cache[key]


# --- index sorting (Lucene IndexSorting / early termination) ----------------

SORTED_DIR = "docvalues_sorted"


def build_sorted_values(
    ds: "ray.data.Dataset",
    index_dir: str,
    num_shards: int,
    sort_field: str,
    *,
    descending: bool = True,
    id_column: str = "doc_id",
) -> list[dict]:
    """Index sorting (Lucene ``index.sort.field`` analogue): write each
    doc shard's values PRE-SORTED by (sort_field, doc_id) so a query
    sorted the same way terminates after k rows per shard instead of
    scanning — the sort order is fixed at build time, exactly Lucene's
    contract. One groupby(shard) exchange; resumable (skip if the
    sorted sidecar for this field exists)."""
    tag = f"{sort_field}_{'desc' if descending else 'asc'}"
    out_dir = os.path.join(index_dir, SORTED_DIR, tag)
    if os.path.exists(os.path.join(out_dir, "_complete")):
        return []
    os.makedirs(out_dir, exist_ok=True)

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "__shard", pa.array((ids % num_shards).astype(np.int32))
        )

    def write_shard(group: pa.Table) -> pa.Table:
        s = int(group["__shard"][0].as_py())
        group = group.drop_columns(["__shard"])
        ids = group[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        v = group[sort_field].to_numpy(zero_copy_only=False)
        if descending:
            if v.dtype.kind in "mM":
                v = v.view(np.int64)
            v = -v
        order = np.lexsort((ids, v))
        pq.write_table(
            group.take(pa.array(order)),
            os.path.join(out_dir, f"sorted_s{s:04d}.parquet"),
            row_group_size=1024,  # head-k reads touch one small group
        )
        return pa.table({"shard": pa.array([s], pa.int32()),
                         "n": pa.array([len(group)], pa.int64())})

    res = (
        ds.map_batches(add_shard, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(write_shard, batch_format="pyarrow")
        .take_all()
    )  # one row per shard — small
    with open(os.path.join(out_dir, "_complete"), "w") as f:
        f.write(tag)
    return res


def sorted_topk(
    index_dir: str,
    sort_field: str,
    k: int,
    *,
    descending: bool = True,
    columns: list[str] | None = None,
    id_column: str = "doc_id",
) -> pa.Table:
    """Early-terminating sorted query over the index-sorted sidecar
    (track_total_hits=false semantics): every shard contributes its
    FIRST k rows — one head-k parquet read per shard, parallel Ray
    tasks, never a shard scan — then a k-sized merge on the driver.
    Requires build_sorted_values with the same field + direction."""
    tag = f"{sort_field}_{'desc' if descending else 'asc'}"
    d = os.path.join(index_dir, SORTED_DIR, tag)
    if not os.path.exists(os.path.join(d, "_complete")):
        raise FileNotFoundError(
            f"index not sorted by {tag}: run build_sorted_values first"
        )
    import ray

    @ray.remote(num_cpus=1)
    def head(path: str, n: int, cols) -> pa.Table:
        f = pq.ParquetFile(path)
        got, out = 0, []
        for b in f.iter_batches(batch_size=n, columns=cols):
            out.append(pa.Table.from_batches([b]))
            got += b.num_rows
            if got >= n:
                break
        t = pa.concat_tables(out) if out else f.schema_arrow.empty_table()
        return t.slice(0, n)

    cols = None
    if columns is not None:
        cols = list(dict.fromkeys([id_column, sort_field, *columns]))
    paths = sorted(
        os.path.join(d, p) for p in os.listdir(d)
        if p.startswith("sorted_s") and p.endswith(".parquet")
    )
    parts = ray.get([head.remote(p, k, cols) for p in paths])
    t = pa.concat_tables([p for p in parts if len(p)])
    ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
    v = t[sort_field].to_numpy(zero_copy_only=False)
    if descending:
        if v.dtype.kind in "mM":
            v = v.view(np.int64)
        v = -v
    order = np.lexsort((ids, v))[:k]
    return t.take(pa.array(order))
