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


@dataclass
class IndexManifest:
    num_doc_shards: int
    num_term_buckets: int
    block_size: int
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
        the same BWC gate as load()."""
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
            block_size=d["block_size"],
            analyzer=d["analyzer"],
            bm25=d["bm25"],
            weight_quantization=d.get("weight_quantization", "none"),
            posting_codec=d.get("posting_codec", "varint"),
            index_positions=d.get("index_positions", False),
            format_version=version,
            segments=d["segments"],
        )
