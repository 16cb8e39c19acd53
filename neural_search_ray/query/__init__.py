from .bm25 import bm25_idf  # noqa: F401
from .engine import IndexSearcher, SearchStage  # noqa: F401
