import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neural_search_ray.index.codec import (
    PostingRows,
    decode_rows,
    encode_rows,
    positions_undelta,
    posting_gather,
    row_columns,
    varint_decode,
    varint_encode,
)


def test_varint_roundtrip_simple():
    vals = np.array([0, 1, 127, 128, 300, 2**31, 2**40], dtype=np.int64)
    assert (varint_decode(varint_encode(vals)) == vals).all()


def test_varint_empty():
    assert varint_encode(np.empty(0, np.int64)) == b""
    assert varint_decode(b"").size == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**50), max_size=200))
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.int64)
    assert (varint_decode(varint_encode(arr)) == arr).all()


@st.composite
def _posting_streams(draw):
    """A (term, doc)-sorted flat posting stream: up to 4 terms, each with a
    unique docID set (df=1 rows and >128-posting FOR blocks included), tf
    >= 1, and tf strictly increasing positions per posting."""
    per_term = draw(
        st.lists(
            st.lists(st.integers(0, 2**31), min_size=1, max_size=300, unique=True),
            max_size=4,
        )
    )
    codes = np.concatenate(
        [np.full(len(d), c, np.int64) for c, d in enumerate(per_term)]
        + [np.empty(0, np.int64)]
    )
    docs = np.concatenate(
        [np.sort(np.asarray(d, np.int64)) for d in per_term]
        + [np.empty(0, np.int64)]
    )
    tfs = np.asarray(
        draw(st.lists(st.integers(1, 4), min_size=docs.size, max_size=docs.size)),
        dtype=np.int64,
    )
    gaps = np.asarray(
        draw(
            st.lists(
                st.integers(1, 1000), min_size=int(tfs.sum()), max_size=int(tfs.sum())
            )
        ),
        dtype=np.int64,
    )
    tok_start = np.cumsum(tfs) - tfs
    pos = positions_undelta(gaps, tok_start, tfs)  # per posting: increasing
    terms = np.array([f"t{c}" for c in range(len(per_term))], dtype=object)
    return codes, terms, docs, tfs, pos


@settings(max_examples=60, deadline=None)
@given(
    _posting_streams(),
    st.sampled_from(["varint", "for"]),
    st.booleans(),
    st.data(),
)
def test_rows_roundtrip_property(stream, codec, positions, data):
    codes, terms, docs, tfs, pos = stream
    table = encode_rows(codes, terms, docs, tfs, codec, pos if positions else None)
    assert table.column_names == row_columns(positions)
    n_rows = len(np.unique(codes))
    assert table.num_rows == n_rows
    assert table["term"].to_pylist() == list(terms[np.unique(codes)])
    d2, t2, dfs, p2 = decode_rows(table, codec)
    assert np.array_equal(d2, docs) and np.array_equal(t2, tfs)
    assert np.array_equal(dfs, np.bincount(codes, minlength=n_rows)[:n_rows])
    assert table["df"].to_pylist() == dfs.tolist()
    if positions:
        assert np.array_equal(p2, pos)
    else:
        assert p2 is None
    # any subset of rows (the searcher's per-term decode) = those rows'
    # slices of the full decode, in the given row order
    rows = np.asarray(
        data.draw(st.lists(st.integers(0, max(n_rows - 1, 0)), max_size=6))
        if n_rows
        else [],
        dtype=np.int64,
    )
    sd, st_, sdf, sp = PostingRows(table, codec).decode(rows, positions)
    starts = np.cumsum(dfs) - dfs
    want = [np.arange(starts[r], starts[r] + dfs[r]) for r in rows]
    idx = np.concatenate(want + [np.empty(0, np.int64)]).astype(np.int64)
    assert np.array_equal(sd, docs[idx]) and np.array_equal(st_, tfs[idx])
    assert np.array_equal(sdf, dfs[rows])
    if positions:
        assert np.array_equal(sp, pos[posting_gather(np.cumsum(tfs) - tfs, tfs, idx)])


@pytest.mark.parametrize("codec", ["varint", "for"])
def test_rows_empty_table(codec):
    e = np.empty(0, np.int64)
    table = encode_rows(e, np.empty(0, dtype=object), e, e, codec, e)
    assert table.num_rows == 0 and table.column_names == row_columns(True)
    assert all(a.size == 0 for a in decode_rows(table, codec))


def test_rows_unknown_codec():
    one = np.zeros(1, np.int64)
    with pytest.raises(ValueError, match="unknown posting codec"):
        encode_rows(one, np.array(["a"], dtype=object), one, one + 1, "zstd")


# ---- bit-packed FOR codec (PForDelta family) -------------------------------

def test_for_roundtrip_simple():
    from neural_search_ray.index.codec import for_decode, for_encode

    vals = np.array([0, 1, 127, 128, 300, 2**31, 2**40, 2**60], dtype=np.uint64)
    assert (for_decode(for_encode(vals)).astype(np.uint64) == vals).all()


def test_for_empty_and_count_check():
    from neural_search_ray.index.codec import for_decode, for_encode

    assert for_decode(for_encode(np.empty(0, np.uint64))).size == 0
    buf = for_encode(np.array([5, 6], dtype=np.uint64))
    with pytest.raises(ValueError):
        for_decode(buf, count=3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**62), max_size=400),
)
def test_for_roundtrip_property(vals):
    from neural_search_ray.index.codec import for_decode, for_encode

    arr = np.array(vals, dtype=np.uint64)
    assert (for_decode(for_encode(arr), arr.size).astype(np.uint64) == arr).all()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=600),
    st.lists(st.integers(min_value=1, max_value=599), max_size=6),
)
def test_grouped_for_matches_single(vals, cutpoints):
    from neural_search_ray.index.codec import for_encode, grouped_for_encode

    flat = np.array(vals, dtype=np.uint64)
    cuts = np.unique([c for c in cutpoints if c < flat.size])
    starts = np.concatenate(([0], cuts)).astype(np.int64)
    ends = np.concatenate((cuts, [flat.size])).astype(np.int64)
    grouped = grouped_for_encode(flat, starts, ends)
    for s, e, buf in zip(starts, ends, grouped):
        assert buf == for_encode(flat[s:e])


def test_for_smaller_than_varint_on_small_deltas():
    from neural_search_ray.index.codec import for_encode, varint_encode

    rng = np.random.RandomState(3)
    deltas = rng.randint(1, 16, size=10_000).astype(np.uint64)
    assert len(for_encode(deltas)) < 0.6 * len(varint_encode(deltas))
