"""neural_search_ray — a Ray-Data-native full-text / sparse retrieval engine.

A brand-new engine (NOT a port) with the query and data-processing
capabilities of the OpenSearch neural-search plugin (reference at
/root/reference): inverted-index build (posting-list construction, merge,
compression), BM25 / sparse-dot-product top-k query
execution, text chunking / analysis ingest stages, hybrid score
normalization + combination, rerank, plus large-scale training-data
pipeline operators (dedup, ANN, text quality, fingerprinting).

Everything is expressed Ray-Data-first: ``ray.data.Dataset`` →
``map_batches`` over zero-copy Arrow batches, actor pools for stateful
stages, salted ``groupby`` for the posting shuffle.
"""

__version__ = "0.1.0"
