"""Posting-file codec: the one module that knows the posting-row format.

Reference format being re-expressed (NOT copied): per-term postings written
as (docId vint, weight byte)* by sparse/codec/ClusteredPostingTermsWriter.java:155-181
into Lucene .sip files, through one consumer for flush and merge
(SparsePostingsConsumer.java:52-53,87-111). Here a posting file is one
Parquet table per (segment, doc_shard, term_bucket) — ``num_doc_shards x
num_term_buckets`` posting files per segment, where ``num_term_buckets``
is the term buckets per shard (``IndexConfig.num_salts`` for a new
index), beside one doc-length file per shard — one row per term:

  term  string   the term (the Parquet dictionary + stats play the role of
                 the .sit term dict, SparseTermsLuceneWriter.java:34-98)
  df    int64    postings in the row
  docs  binary   docID deltas (first docID absolute), codec-encoded
  tfs   binary   per-posting term frequencies, codec-encoded
  pos   binary   only when the index has positions: per posting, its
                 within-doc positions as deltas (first absolute), in
                 posting order; the posting's tf is its position count

The codec is the manifest's ``posting_codec``: ``varint`` (LEB128; a row's
buffer is its values back to back) or ``for`` (bit-packed frame of
reference; each row's buffer carries its own count header). Indexes
written before the format settled also carry a ``block_max_tf`` column;
no reader selects it, so those files read unchanged.

``encode_rows`` is the only writer of these rows (build, reshard, merge,
purge) and ``PostingRows`` / ``decode_rows`` the only reader. Encode and
decode are numpy-vectorized over whole columns (no per-posting Python
loop): varint bytes are laid out by computing per-value byte widths,
exclusive offsets, then scattering the 7-bit groups with boolean masks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MAX_VARINT_BYTES = 5  # uint32 range


def varint_encode_with_widths(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128 varint-encode; also returns per-value byte widths (used by
    the grouped encoder to slice per-group buffers without re-scanning)."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.empty(0, dtype=np.int64)
    # significant-bit count per value (shift loop: exact for full uint64 range)
    nbits = np.zeros(v.shape, dtype=np.int64)
    tmp = v.copy()
    while True:
        mask = tmp > 0
        if not mask.any():
            break
        nbits[mask] += 1
        tmp = tmp >> np.uint64(1)
    widths = np.maximum((nbits + 6) // 7, 1)
    ends = np.cumsum(widths)
    total = int(ends[-1])
    out = np.zeros(total, dtype=np.uint8)
    starts = ends - widths
    # scatter 7-bit groups, group g of value i lands at starts[i]+g
    max_w = int(widths.max())
    for g in range(max_w):
        sel = widths > g
        idx = starts[sel] + g
        chunk = (v[sel] >> np.uint64(7 * g)) & np.uint64(0x7F)
        cont = (widths[sel] > g + 1).astype(np.uint8) << 7  # continuation bit
        out[idx] = chunk.astype(np.uint8) | cont
    return out.tobytes(), widths


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128 varint-encode a uint32/int64 array (values must be >= 0)."""
    return varint_encode_with_widths(values)[0]


def varint_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode LEB128 varints → int64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.int64)
    is_end = (b & 0x80) == 0
    ends = np.flatnonzero(is_end)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts + 1
    vals = np.zeros(ends.size, dtype=np.uint64)
    max_w = int(widths.max())
    for g in range(max_w):
        sel = widths > g
        idx = starts[sel] + g
        vals[sel] |= (b[idx].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * g)
    out = vals.astype(np.int64)
    if count is not None and out.size != count:
        raise ValueError(f"expected {count} varints, decoded {out.size}")
    return out


# ---- bit-packed frame-of-reference codec (PForDelta family) ---------------
# Per posting list: [LEB128 varint count][one width byte per 128-value
# block][blocks back-to-back, each ceil(n_block*width/8) bytes, little-
# endian bit order]. Width = bit length of the block max, so a hot term
# whose docID deltas fit 3 bits costs 3 bits/posting vs varint's 8 — and
# decode is a byte-gather + shift per width class instead of a
# continuation-bit scan. The varint count keeps the Zipf tail cheap (a
# df=1 row pays 2 header bytes, not 5). (Plain FOR without exceptions:
# the 128-value block granularity already isolates outliers; Zukowski et
# al. "Super-Scalar RAM-CPU Cache Compression", ICDE'06.)

_FOR_BLOCK = 128


def _leb(n: int) -> bytes:
    """Scalar LEB128 (same wire format as varint_encode for one value)."""
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        out.append(b | (0x80 if n else 0))
        if not n:
            return bytes(out)


def _unleb(buf, pos: int = 0) -> tuple[int, int]:
    """Parse one LEB128 value; returns (value, next position)."""
    val = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        if not (b & 0x80):
            return val, pos
        shift += 7


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Exact per-element bit length of a uint64 array (no float log)."""
    bl = np.zeros(v.shape, dtype=np.int64)
    rem = v.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = rem >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        rem[m] >>= np.uint64(s)
    return bl + (rem > 0)


def grouped_for_encode(
    flat: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> list[bytes]:
    """FOR-encode many groups in one vectorized pass (the per-term rows of
    a write-group table); blocks never cross group boundaries."""
    v = np.asarray(flat, dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    nrows = starts.size
    lens = ends - starts
    nblocks_row = (lens + _FOR_BLOCK - 1) // _FOR_BLOCK
    NB = int(nblocks_row.sum())
    first_block = np.cumsum(nblocks_row) - nblocks_row
    if NB == 0:
        return [_leb(0)] * nrows
    # segmented arange: global block b belongs to row brow[b] and starts at
    # starts[brow] + 128*(index within row)
    brow = np.repeat(np.arange(nrows, dtype=np.int64), nblocks_row)
    within = np.arange(NB, dtype=np.int64) - first_block[brow]
    bstart = starts[brow] + _FOR_BLOCK * within
    bn = np.minimum(bstart + _FOR_BLOCK, ends[brow]) - bstart
    # pad-gather blocks into a (NB, 128) matrix
    lane = np.arange(_FOR_BLOCK, dtype=np.int64)
    idx = bstart[:, None] + lane
    valid = lane[None, :] < bn[:, None]
    mat = np.zeros((NB, _FOR_BLOCK), dtype=np.uint64)
    mat[valid] = v[idx[valid]]
    widths = _bit_length(mat.max(axis=1))
    sizes = (bn * widths + 7) // 8
    d_off = np.concatenate(([0], np.cumsum(sizes)))
    data = np.zeros(int(d_off[-1]), dtype=np.uint8)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == w)
        ms = mat[sel]
        # bit-plane loop with uint8 planes (a (k,128,w) uint64 broadcast
        # temp is 8x the memory traffic and stalls on big inputs)
        bits = np.empty((sel.size, _FOR_BLOCK, w), dtype=np.uint8)
        for g in range(w):
            bits[:, :, g] = ((ms >> np.uint64(g)) & np.uint64(1)).astype(np.uint8)
        packed = np.packbits(
            bits.reshape(sel.size, _FOR_BLOCK * w), axis=1, bitorder="little"
        )
        span = np.arange(packed.shape[1], dtype=np.int64)
        didx = d_off[sel][:, None] + span
        keep = span[None, :] < sizes[sel][:, None]
        data[didx[keep]] = packed[keep]
    datab = data.tobytes()
    wbytes = widths.astype(np.uint8).tobytes()
    out = []
    for r in range(nrows):
        fb = int(first_block[r])
        nbk = int(nblocks_row[r])
        out.append(
            _leb(int(lens[r]))
            + wbytes[fb : fb + nbk]
            + datab[int(d_off[fb]) : int(d_off[fb + nbk])]
        )
    return out


def for_encode(values: np.ndarray) -> bytes:
    """FOR-encode one non-negative int array (single-group convenience)."""
    v = np.asarray(values, dtype=np.uint64)
    return grouped_for_encode(
        v, np.asarray([0], dtype=np.int64), np.asarray([v.size], dtype=np.int64)
    )[0]


def for_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode one FOR buffer → int64 array (vectorized per width class)."""
    n, hdr = _unleb(buf)
    if count is not None and n != count:
        raise ValueError(f"expected {count} values, header says {n}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    nb = (n + _FOR_BLOCK - 1) // _FOR_BLOCK
    raw = np.frombuffer(buf, dtype=np.uint8)
    widths = raw[hdr : hdr + nb].astype(np.int64)
    nvals = np.full(nb, _FOR_BLOCK, dtype=np.int64)
    nvals[-1] = n - (nb - 1) * _FOR_BLOCK
    sizes = (nvals * widths + 7) // 8
    d_off = np.concatenate(([0], np.cumsum(sizes)))
    data = raw[hdr + nb :]
    out = np.zeros(nb * _FOR_BLOCK, dtype=np.uint64)
    lane = np.arange(_FOR_BLOCK, dtype=np.int64)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == w)
        maxb = _FOR_BLOCK * w // 8
        span = np.arange(maxb, dtype=np.int64)
        gidx = d_off[sel][:, None] + span
        keep = span[None, :] < sizes[sel][:, None]
        gb = np.zeros((sel.size, maxb + 8), dtype=np.uint8)  # +8: gather pad
        gb[:, :maxb][keep] = data[gidx[keep]]
        if w <= 57:
            # byte-gather: lane l's bits live at [l*w, l*w + w) — read the
            # <= 8-byte window covering them into a uint64, shift, mask
            # (touches (w+6)//8+1 bytes/value vs unpackbits' w bytes/value)
            byte0 = (lane * w) >> 3
            shift = ((lane * w) & 7).astype(np.uint64)
            nwin = (w + 6) // 8 + 1
            acc = np.zeros((sel.size, _FOR_BLOCK), dtype=np.uint64)
            for g in range(nwin):
                acc |= gb[:, byte0 + g].astype(np.uint64) << np.uint64(8 * g)
            vals = (acc >> shift) & np.uint64((1 << w) - 1)
        else:
            bits = np.unpackbits(
                gb[:, :maxb], axis=1, bitorder="little"
            ).reshape(sel.size, _FOR_BLOCK, w)
            vals = (bits.astype(np.uint64) << np.arange(w, dtype=np.uint64)).sum(
                axis=2, dtype=np.uint64
            )
        out[(sel[:, None] * _FOR_BLOCK + lane).ravel()] = vals.ravel()
    return out[:n].astype(np.int64)


# ---- segmented delta helpers -----------------------------------------------
# A posting-contiguous flat array (positions: posting i owns
# flat[starts[i] : starts[i] + tf[i]]) is permuted or filtered posting by
# posting with posting_gather. positions_delta / positions_undelta
# delta-code each segment of a flat array: a posting's positions, and
# also a term row's docIDs (segments = rows).


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated index ranges [starts[i], starts[i] + lens[i])."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(
        total, dtype=np.int64
    )


def posting_gather(
    posting_starts: np.ndarray, tf: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Token-level gather index that reorders a posting-contiguous flat
    array (positions) when postings are permuted/selected by ``order``.

    ``posting_starts[i]``/``tf[i]`` describe posting i's slice of the flat
    array; ``order`` is any int index array (permutation or subset)."""
    return _ranges(posting_starts[order], tf[order])


def positions_delta(flat_pos: np.ndarray, posting_starts: np.ndarray) -> np.ndarray:
    """Per-posting delta encode: first position absolute, then gaps."""
    deltas = np.empty_like(flat_pos)
    if flat_pos.size:
        deltas[0] = flat_pos[0]
        np.subtract(flat_pos[1:], flat_pos[:-1], out=deltas[1:])
        deltas[posting_starts] = flat_pos[posting_starts]
    return deltas


def positions_undelta(
    deltas: np.ndarray, posting_starts: np.ndarray, tf: np.ndarray
) -> np.ndarray:
    """Inverse of positions_delta (segmented cumsum, vectorized)."""
    if deltas.size == 0:
        return deltas.astype(np.int64, copy=False)
    c = np.cumsum(deltas)
    base = c[posting_starts] - deltas[posting_starts]
    return c - np.repeat(base, tf)


# ---- posting rows ------------------------------------------------------------

_CODECS = ("varint", "for")


def _check_codec(codec: str) -> None:
    if codec not in _CODECS:
        raise ValueError(f"unknown posting codec {codec!r}")


def row_columns(positions: bool) -> list[str]:
    """The posting-file columns a reader selects."""
    return ["term", "df", "docs", "tfs"] + (["pos"] if positions else [])


def _grouped_varint_encode(
    flat: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> list[bytes]:
    """varint-encode many groups in ONE vectorized pass, slice per group."""
    buf, widths = varint_encode_with_widths(flat)
    if not len(buf):
        return [b""] * len(starts)
    bends = np.cumsum(widths)
    bstarts = np.concatenate(([0], bends[:-1]))
    return [
        buf[int(bstarts[s]) : int(bends[e - 1])] if e > s else b""
        for s, e in zip(starts, ends)
    ]


def encode_rows(
    codes: np.ndarray,
    terms,
    docs: np.ndarray,
    tfs: np.ndarray,
    codec: str,
    pos: np.ndarray | None = None,
) -> pa.Table:
    """Posting-file table of a flat posting stream sorted by (code, doc).

    ``codes[i]`` is posting i's term code, ``terms[code]`` its term (any
    sequence indexable by an int array); one row per distinct code, in
    code order. ``pos`` (positional indexes only) is posting-contiguous:
    posting i's within-doc positions are the next ``tfs[i]`` values."""
    _check_codec(codec)
    encode = grouped_for_encode if codec == "for" else _grouped_varint_encode
    bnd = np.flatnonzero(np.diff(codes) != 0) + 1
    starts = np.concatenate(([0], bnd)) if codes.size else bnd
    ends = np.concatenate((bnd, [codes.size])) if codes.size else bnd
    cols = {
        "term": pa.array(list(terms[codes[starts]]), type=pa.string()),
        "df": pa.array((ends - starts).astype(np.int64), type=pa.int64()),
        "docs": pa.array(
            encode(positions_delta(docs, starts), starts, ends), type=pa.binary()
        ),
        "tfs": pa.array(encode(tfs, starts, ends), type=pa.binary()),
    }
    if pos is not None:
        tok = np.concatenate((np.cumsum(tfs) - tfs, [int(tfs.sum())])).astype(
            np.int64
        )
        cols["pos"] = pa.array(
            encode(positions_delta(pos, tok[:-1]), tok[starts], tok[ends]),
            type=pa.binary(),
        )
    return pa.table(cols)


def _binary_views(chunked) -> tuple[np.ndarray, memoryview]:
    """(offsets int64, data memoryview) for a binary column — row i's
    payload is data[offsets[i]:offsets[i+1]], zero-copy (large_binary, so
    a combined column > 2 GiB can't overflow its offsets)."""
    col = chunked.cast(pa.large_binary()).combine_chunks()
    if len(col) == 0:
        return np.zeros(1, np.int64), memoryview(b"")
    off = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + len(col) + 1
    ]
    return off, memoryview(col.buffers()[2])


class PostingRows:
    """Zero-copy views of a posting table's columns, decoded on demand:
    a whole table at once (merge, purge, reshard, forward and SEISMIC
    builds) or the few rows of one term (the searcher's lazy decode)."""

    def __init__(self, table: pa.Table, codec: str):
        _check_codec(codec)
        self.codec = codec
        self.df = table["df"].to_numpy().astype(np.int64, copy=False)
        self._docs = _binary_views(table.column("docs"))
        self._tfs = _binary_views(table.column("tfs"))
        self._pos = (
            _binary_views(table.column("pos"))
            if "pos" in table.column_names
            else None
        )

    def _column(self, views, rows: np.ndarray | None, count: int) -> np.ndarray:
        """Decode the payloads of ``rows`` (None = all), concatenated."""
        off, data = views
        if self.codec == "for":  # one count header per row buffer
            rows = range(off.size - 1) if rows is None else rows
            parts = [for_decode(data[off[r] : off[r + 1]]) for r in rows]
            out = np.concatenate(parts) if parts else np.empty(0, np.int64)
            if out.size != count:
                raise ValueError(f"expected {count} values, decoded {out.size}")
            return out
        if rows is None:
            buf = data[off[0] : off[-1]]
        elif rows.size == 1:
            buf = data[off[rows[0]] : off[rows[0] + 1]]
        else:
            raw = np.frombuffer(data, dtype=np.uint8)
            buf = raw[_ranges(off[rows], off[rows + 1] - off[rows])]
        return varint_decode(buf, count)

    def decode(
        self, rows: np.ndarray | None = None, positions: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """(docs, tfs, dfs, pos) of ``rows`` (None = every row) in row
        order: flat int64 docIDs and tfs (docID-sorted within each row),
        the per-row df, and with ``positions`` the posting-contiguous
        within-doc positions (else None)."""
        dfs = self.df if rows is None else self.df[rows]
        n = int(dfs.sum())
        docs = positions_undelta(
            self._column(self._docs, rows, n), np.cumsum(dfs) - dfs, dfs
        )
        tfs = self._column(self._tfs, rows, n)
        pos = None
        if positions:
            tok_start = np.cumsum(tfs) - tfs
            pos = positions_undelta(
                self._column(self._pos, rows, int(tfs.sum())), tok_start, tfs
            )
        return docs, tfs, dfs, pos


def decode_rows(
    table: pa.Table, codec: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(docs, tfs, dfs, pos) of every row of a posting table; ``pos`` is
    decoded when the table has the positions column, else None."""
    return PostingRows(table, codec).decode(positions="pos" in table.column_names)


def doclen_table(docs: np.ndarray, dls: np.ndarray) -> pa.Table:
    """Doc-length file table: (doc_id int64, dl int32), docID-sorted."""
    order = np.argsort(docs, kind="stable")
    return pa.table(
        {"doc_id": docs[order].astype(np.int64), "dl": dls[order].astype(np.int32)}
    )
