"""The _reindex API restated over the Ray index layout.

OpenSearch/ES ``_reindex`` copies documents from a source index into a
destination index, optionally restricted to a ``query`` and transformed
by a ``script``, reading each document's ``_source`` (the reference
inherits this server API; its scroll-then-bulk loop streams matching
docs into the destination's ingest pipeline). This architecture's
_source store is the corpus dataset (the parquet source of record, the
same seam update_by_query uses — index/deletes.py:185); the source
INDEX contributes the live-doc view (tombstones excluded) and the query
match set. The destination is a FRESH build, so its statistics chain
(df / N / avgdl) is exact over the copied corpus — the semantic
difference from delete_by_query, whose liveDocs stats stay stale until
a purge.

Scale shape: the only driver-materialized state is the tombstone set
and (when a query is given) the match-id set — both bounded (tombstones
by the purge discipline, matches by the query's selectivity) and
ray.put-broadcast ONCE; the corpus streams through one membership-
filter ``map_batches`` into the standard build pipeline. No shuffle
beyond the build's own salted posting exchange.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..config import IndexConfig
from .build import build_index, index_config_from_manifest
from .deletes import load_tombstones
from .manifest import IndexManifest


def reindex(
    src_index_dir: str,
    dst_index_dir: str,
    source_ds: "ray.data.Dataset",
    *,
    query_terms: list[str] | None = None,
    script: Callable[[pa.Table], pa.Table] | None = None,
    config: IndexConfig | None = None,
    id_column: str = "doc_id",
    text_column: str = "text",
    segment_id: str = "seg-000",
) -> IndexManifest:
    """Copy the source index's LIVE docs into a fresh destination index.

    - ``query_terms``: boolean-OR term match resolved against the
      source index (the same selection surface as delete_by_query /
      update_by_query) — only matching docs are copied. None = copy all
      live docs.
    - ``script``: optional batch transform ``pa.Table -> pa.Table``
      applied to the selected source rows before indexing (the Painless
      script seam; must preserve ``id_column``/``text_column``).
    - ``config``: destination build config; defaults to the source
      manifest's layout via build.index_config_from_manifest.

    Resumable like build_index: the destination manifest records the
    segment, so a re-run with the same ``segment_id`` is a no-op.
    """
    src_manifest = IndexManifest.load(src_index_dir)
    if src_manifest is None:
        raise ValueError(f"no index manifest at {src_index_dir}")
    if config is None:
        config = index_config_from_manifest(src_manifest)

    tombs = load_tombstones(src_index_dir)
    matches: np.ndarray | None = None
    if query_terms is not None:
        from ..query.engine import IndexSearcher

        matches = np.sort(
            np.asarray(
                IndexSearcher(src_index_dir).match_docs(list(query_terms)),
                dtype=np.int64,
            )
        )
    sel_ref = ray.put((tombs, matches))

    def select_live(batch: pa.Table) -> pa.Table:
        tb, mt = ray.get(sel_ref)  # zero-copy object-store read
        ids = batch[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.ones(ids.size, dtype=bool)
        if tb.size:
            pos = np.searchsorted(tb, ids)
            keep &= ~(
                (pos < tb.size) & (tb[np.minimum(pos, tb.size - 1)] == ids)
            )
        if mt is not None:
            pos = np.searchsorted(mt, ids)
            keep &= (pos < mt.size) & (
                mt[np.minimum(pos, mt.size - 1)] == ids
            )
        return batch.filter(pa.array(keep))

    ds = source_ds.map_batches(select_live, batch_format="pyarrow")
    if script is not None:
        ds = ds.map_batches(script, batch_format="pyarrow")
    return build_index(
        ds,
        dst_index_dir,
        config,
        segment_id=segment_id,
        id_column=id_column,
        text_column=text_column,
    )
