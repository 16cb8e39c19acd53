"""Index manifest: per-partition lineage + metrics, the checkpoint/resume unit.

Mirrors the reference's segment model (immutable segment files + commit
points, SURVEY.md §2.11/§4): each *segment* (an independently-built slice
of the input) records its input fragments, per-(doc_shard, term_bucket)
output files with row counts, doc/token counts, and global-stats partials.
Resume = skip segments whose manifest entry is complete; global stats are
re-derived from segment partials (cheap, scalar-sized).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any

import pyarrow as pa

MANIFEST_NAME = "manifest.json"
DOCLEN_BUCKET = -1  # sentinel bucket id for doc-length "posting" files

# On-disk format versioning, the reference's codec-version discipline
# (reference sparse/codec/SparsePostingsConsumer.java:48-49 pins
# VERSION_START/VERSION_CURRENT and refuses out-of-range headers;
# qa/restart-upgrade exercises old-index reads). A resumable 100-TB build
# must be able to tell "this partial index was written by an older/newer
# layout" apart from "corrupt".
#
# Version history:
#   1 — round-1/2 layout (no format_version field in manifest.json).
#       Identical physical layout to v2; readable without migration.
#   2 — format_version field added (round 3). Current.
FORMAT_VERSION_START = 1   # oldest version this reader accepts
FORMAT_VERSION_CURRENT = 2


class IndexFormatError(Exception):
    """Raised when an on-disk index was written by an incompatible layout."""


@dataclass
class GroupFile:
    doc_shard: int
    term_bucket: int
    path: str           # relative to index_dir
    n_terms: int
    n_postings: int


@dataclass
class SegmentManifest:
    segment_id: str
    input_files: list[str]
    n_docs: int
    sum_dl: int
    files: list[dict] = field(default_factory=list)   # GroupFile dicts
    complete: bool = False


# One row per written group file, as the group writers (build, merge,
# purge) return it; segment_entry folds a segment's rows into its entry.
GROUP_ROW_SCHEMA = pa.schema(
    [
        ("doc_shard", pa.int64()),
        ("term_bucket", pa.int64()),
        ("path", pa.string()),
        ("n_terms", pa.int64()),
        ("n_postings", pa.int64()),
        ("n_docs", pa.int64()),
        ("sum_dl", pa.int64()),
    ]
)


def group_row(
    shard, bucket, path: str, *, n_terms=0, n_postings=0, n_docs=0, sum_dl=0
) -> dict:
    """Manifest row of one group file: a posting file (n_terms,
    n_postings) or a doc-length file (n_docs, sum_dl)."""
    return {
        "doc_shard": int(shard),
        "term_bucket": int(bucket),
        "path": path,
        "n_terms": int(n_terms),
        "n_postings": int(n_postings),
        "n_docs": int(n_docs),
        "sum_dl": int(sum_dl),
    }


def group_rows_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=GROUP_ROW_SCHEMA)


def segment_entry(segment_id: str, input_files: list[str], rows) -> dict:
    """The complete segment's manifest entry, from its group rows, files
    in (doc_shard, term_bucket, path) order whatever order the writer's
    tasks returned the rows in."""
    keys = GroupFile.__dataclass_fields__
    rows = sorted(
        rows, key=lambda r: (r["doc_shard"], r["term_bucket"], r["path"])
    )
    return asdict(
        SegmentManifest(
            segment_id=segment_id,
            input_files=input_files,
            n_docs=sum(r["n_docs"] for r in rows),
            sum_dl=sum(r["sum_dl"] for r in rows),
            files=[{k: r[k] for k in keys} for r in rows],
            complete=True,
        )
    )


@dataclass
class IndexManifest:
    num_doc_shards: int
    num_term_buckets: int
    analyzer: dict
    bm25: dict
    weight_quantization: str = "none"  # "none" | "u8" (quantized sparse tier)
    posting_codec: str = "varint"      # "varint" | "for" (index/codec.py)
    # True when posting files carry the optional "pos" positions column
    # (codec.py positional payloads). Additive + optional: a reader that
    # ignores the field still scores BM25 identically (tf is unchanged),
    # so this is NOT a format_version bump.
    index_positions: bool = False
    format_version: int = FORMAT_VERSION_CURRENT
    segments: dict[str, Any] = field(default_factory=dict)  # id → SegmentManifest dict

    # -- global stats over complete segments --
    @property
    def n_docs(self) -> int:
        return sum(s["n_docs"] for s in self.segments.values() if s["complete"])

    @property
    def total_tokens(self) -> int:
        """Σ doc length over complete segments (the LM similarities'
        collection-model denominator)."""
        return sum(s["sum_dl"] for s in self.segments.values() if s["complete"])

    @property
    def avgdl(self) -> float:
        n = self.n_docs
        if n == 0:
            return 0.0
        return self.total_tokens / n

    def complete_segments(self) -> list[dict]:
        return [s for s in self.segments.values() if s["complete"]]

    def save(self, index_dir: str) -> None:
        # Always stamp the current version on write: a resumed v1 index is
        # upgraded to v2 on its next commit (the physical layout is the same).
        self.format_version = FORMAT_VERSION_CURRENT
        tmp = os.path.join(index_dir, MANIFEST_NAME + ".tmp")
        with open(tmp, "w") as f:
            json.dump(asdict(self), f, indent=1)
        os.replace(tmp, os.path.join(index_dir, MANIFEST_NAME))

    @classmethod
    def load(cls, index_dir: str) -> "IndexManifest | None":
        path = os.path.join(index_dir, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            d = json.load(f)
        return cls.from_dict(d, source=repr(index_dir))

    @classmethod
    def from_dict(cls, d: dict, source: str = "<dict>") -> "IndexManifest":
        """Parse a serialized manifest (disk file, snapshot record) with
        the same BWC gate as load(). Keys this reader no longer uses
        (``block_size`` of older manifests) are ignored."""
        # BWC gate: a manifest without the field is version 1 (round-1/2
        # layout, physically identical — read as-is). Anything outside
        # [START, CURRENT] is refused with a clear error rather than being
        # misread as corrupt data or silently mis-decoded.
        version = d.get("format_version", 1)
        if not (FORMAT_VERSION_START <= version <= FORMAT_VERSION_CURRENT):
            raise IndexFormatError(
                f"index at {source} has format_version={version}; this "
                f"reader supports [{FORMAT_VERSION_START}, "
                f"{FORMAT_VERSION_CURRENT}]. Rebuild the index or upgrade "
                f"the library."
            )
        return cls(
            num_doc_shards=d["num_doc_shards"],
            num_term_buckets=d["num_term_buckets"],
            analyzer=d["analyzer"],
            bm25=d["bm25"],
            weight_quantization=d.get("weight_quantization", "none"),
            posting_codec=d.get("posting_codec", "varint"),
            index_positions=d.get("index_positions", False),
            format_version=version,
            segments=d["segments"],
        )
