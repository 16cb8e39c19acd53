"""Configuration dataclasses.

Reference parity: field-mapper / algorithm parameters that the reference
stores as Lucene field attributes (sparse/mapper/SparseVectorFieldMapper.java:198-226)
and index settings (sparse/common/SparseConstants.java) become explicit
dataclasses carried in actor-pool constructor args.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class AnalyzerConfig:
    """Standard-analyzer parameters (Lucene StandardAnalyzer semantics).

    Reference: analyzers consumed at processor/chunker/FixedTokenLengthChunker.java:158-168
    and query/NeuralSparseQueryBuilder.java:519-543.
    """

    lowercase: bool = True
    remove_stopwords: bool = False
    max_token_length: int = 255  # Lucene StandardAnalyzer default
    # tokenizer variants from the chunker whitelist
    # (FixedTokenLengthChunker.java:56-64): standard | whitespace | letter |
    # lowercase | uax_url_email | classic | thai
    tokenizer: str = "standard"
    # post-stop token filters (Lucene analysis-chain order: stopwords are
    # judged on the UNstemmed token, then filters apply):
    # EnglishPossessiveFilter ("john's" -> "john")
    strip_possessive: bool = False
    # ASCIIFoldingFilter (Latin-1 Supplement + Latin Extended-A subset;
    # analysis/stem.py fold table — applied before possessive/stem)
    fold_ascii: bool = False
    # "none" | "minimal_english" (Lucene EnglishMinimalStemmer — Harman
    # S-stemmer; see analysis/stem.py for the exact rule table)
    stemmer: str = "none"
    # CJKBigramFilter (analysis/cjk.py): Han-run tokens expand to their
    # overlapping character bigrams (applied last in the chain)
    cjk_bigram: bool = False

    def __post_init__(self) -> None:
        from .analysis.stem import STEMMERS

        if self.stemmer not in STEMMERS:
            raise ValueError(
                f"unknown stemmer {self.stemmer!r}; options: {STEMMERS}"
            )


@dataclass(frozen=True)
class BM25Config:
    """Lucene-default BM25 parameters, pinned by BASELINE.json north star.

    Pinned oracle decision (SURVEY.md §7.2 item 5): document length ``dl``
    is the EXACT post-analysis token count (no SmallFloat byte quantization);
    engine and oracle both use this.
    """

    k1: float = 1.2
    b: float = 0.75
    # "none" = exact dl; "norm4" = SmallFloat-style 4-bit-mantissa dl
    # quantization (query/bm25.py dl_quantize_norm4), applied identically
    # by the engine and the oracle
    norm_quantization: str = "none"


@dataclass(frozen=True)
class IndexConfig:
    """Inverted-index build parameters.

    n_postings mirrors the reference's static pruning default
    max(0.0005*maxDoc, 160) (sparse/codec/ClusteredPostingTermsWriter.java:136-142)
    — disabled (keep all postings) unless set >= 0.
    """

    num_shards: int = 8            # doc_id % num_shards → doc shard
    num_salts: int = 4             # crc32(term) % num_salts → term bucket per shard
    n_postings: int = -1           # -1 = no static pruning; -2 = reference default formula
    # "none" = raw integer tfs; "u8" = the reference's quantized sparse
    # tier: weights are u8-quantized at ingest (ByteQuantizer.java:24-34,
    # ceiling 3.0) and postings store the FeatureField-encoded (>>>15)
    # frequency of the dequantized weight (ValueEncoder.java:21-42); the
    # forward index stores the u8 codes (the memory-footprint behavior)
    weight_quantization: str = "none"
    # posting-list byte codec: "varint" (LEB128, default) or "for"
    # (bit-packed frame-of-reference, PForDelta family; index/codec.py).
    # Raw-buffer microbench: FOR is ~2x smaller and 3x faster to encode
    # on Zipf-head delta streams — but measured END-TO-END at sf0.1 the
    # on-disk gap shrinks to ~4% (Parquet page compression already
    # squeezes varint redundancy) and warm decode is slightly slower on
    # the short Zipf-tail lists, so varint stays the default; FOR is the
    # right choice for long-posting corpora stored uncompressed. Query
    # results are codec-invariant (rank-identity tested); the manifest
    # records the choice for readers.
    posting_codec: str = "varint"
    # index within-doc token positions per posting (the Lucene .prx
    # positions stream text fields carry by default, which backs
    # PhraseQuery / match_phrase). Off by default: positions roughly
    # double posting bytes and the sparse tier never uses them.
    # Incompatible with weight_quantization="u8" (a quantized "tf" is a
    # FeatureField-encoded weight, not a position count).
    index_positions: bool = False
    bm25: BM25Config = field(default_factory=BM25Config)
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)

    def resolve_n_postings(self, max_doc: int) -> int:
        if self.n_postings == -2:
            # reference default: max(0.0005*maxDoc, 160)
            return max(int(0.0005 * max_doc), 160)
        return self.n_postings


@dataclass(frozen=True)
class QueryConfig:
    """Query-side defaults (sparse/query/SparseAnnQueryBuilder.java:85-87)."""

    k: int = 10
    top_n_tokens: int = 10         # query-cut: keep top_n highest-weight query tokens
    heap_factor: float = 1.0
