"""Build the committed BWC fixture index at tests/fixtures/bwc_v1_index/.

Builds a tiny deterministic index with the current writer, then strips the
``format_version`` field from manifest.json so the on-disk artifact is exactly
what a round-1/2 (format v1) build produced. The fixture is committed to git;
tests/test_bwc.py opens it with the CURRENT reader — the analogue of the
reference's qa/restart-upgrade old-index read suites.

Run from the repo root: python tools/make_bwc_fixture.py
"""

import json
import os
import shutil
import sys

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from neural_search_ray.config import IndexConfig
from neural_search_ray.index.build import build_index
from tests.test_bwc import FIXTURE_DIR, fixture_corpus


def main() -> None:
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    if os.path.exists(FIXTURE_DIR):
        shutil.rmtree(FIXTURE_DIR)
    os.makedirs(FIXTURE_DIR)
    ds = ray.data.from_arrow(fixture_corpus())
    # num_salts=2: the committed fixture records num_term_buckets 2
    build_index(ds, FIXTURE_DIR, IndexConfig(num_shards=2, num_salts=2))
    # Rewrite the manifest as a v1 file: no format_version field.
    mpath = os.path.join(FIXTURE_DIR, "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    m.pop("format_version", None)
    with open(mpath, "w") as f:
        json.dump(m, f, indent=1)
    print(f"wrote v1 fixture at {FIXTURE_DIR}")
    ray.shutdown()


if __name__ == "__main__":
    main()
