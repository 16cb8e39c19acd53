import hashlib
import json
import os
import sys

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


def index_fingerprint(index_dir: str) -> str:
    """sha256 of an index's manifest plus the bytes of every file it
    lists, in manifest order: equal fingerprints mean byte-identical
    indexes."""
    with open(os.path.join(index_dir, "manifest.json"), "rb") as f:
        raw = f.read()
    h = hashlib.sha256(raw)
    for seg in json.loads(raw)["segments"].values():
        for entry in seg["files"]:
            with open(os.path.join(index_dir, entry["path"]), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return SF_DIR
