from .codec import (  # noqa: F401
    PostingRows,
    decode_rows,
    encode_rows,
    for_decode,
    for_encode,
    varint_decode,
    varint_encode,
)
