"""Shared shard hosts: a searcher reopened while the previous one is still
open reuses its host processes, answers bit-identically to a pool on
freshly spawned hosts, survives a host restart, refuses to answer from an
index generation it was not opened on, and leaves no host process behind."""

import gc
import os
import time

import numpy as np
import pytest
import ray

from neural_search_ray.config import IndexConfig
from neural_search_ray.corpus.generator import generate_pages
from neural_search_ray.index.build import build_index
from neural_search_ray.index.deletes import delete_docs
from neural_search_ray.pipelines.suite import _title_batch
from neural_search_ray.query import distributed
from neural_search_ray.query.distributed import (
    DistributedSearcher,
    MultiFieldDistributedSearcher,
    StaleIndexView,
)

QUERIES = ["the data query", "merge w0500", "of and the", "w0100 w0200 sort"]


@pytest.fixture
def index(tmp_path, ray_session):
    """(body dir, multi-field dirs, grow): 150-doc body and title
    indexes; ``grow()`` moves both to a new generation (one more segment
    each, and a few tombstones in the body)."""
    body, title = str(tmp_path / "body"), str(tmp_path / "title")
    cfg = IndexConfig(num_shards=4, num_salts=1)

    def add(segment_id, lo, hi):
        pages = generate_pages(hi, seed=11).filter(lambda r: r["doc_id"] >= lo)
        build_index(pages, body, cfg, segment_id=segment_id)
        build_index(pages.map_batches(_title_batch, batch_format="pyarrow"),
                    title, cfg, segment_id=segment_id, text_column="title")

    def grow():
        add("s1", 150, 200)
        delete_docs(body, [3, 40, 160])

    add("s0", 0, 150)

    return body, [("title", title, 2.0), ("text", body, 1.0)], grow


def _results(ds, mf) -> list:
    out = []
    for q in QUERIES:
        terms = q.split()
        out.append(ds.search_bm25(terms, k=10))
        out.append(ds.search_lm(terms, k=10))
        out.append(mf.search_multi_match(
            terms, k=10, match_type="best_fields", tie_breaker=0.3))
    out.extend(ds.msearch_bm25([q.split() for q in QUERIES], k=10))
    return out


def _assert_identical(got: list, want: list) -> None:
    assert len(got) == len(want)
    for i, ((gd, gs), (wd, ws)) in enumerate(zip(got, want)):
        assert gd.tolist() == wd.tolist(), i
        assert np.array_equal(gs, ws), i


def _live_hosts() -> int:
    """ShardHost actors the GCS does not report DEAD (the state API
    reads the same table but needs the dashboard)."""
    return sum(
        a["ActorClassName"] == "ShardHost" and a["State"] != "DEAD"
        for a in ray._private.state.actors().values()
    )


def _settles_at_most(bound: int, timeout_s: float = 30.0) -> int:
    """Live host count once kills issued so far have landed (a kill is
    asynchronous); fails if it stays above ``bound``."""
    t_end = time.monotonic() + timeout_s
    while (n := _live_hosts()) > bound and time.monotonic() < t_end:
        time.sleep(0.1)
    assert n <= bound, f"{n} live ShardHosts, at most {bound} expected"
    return n


def test_reopened_pool_equals_fresh_pool(index):
    body, fields, grow = index
    old, old_mf = DistributedSearcher(body, 2), MultiFieldDistributedSearcher(fields, 2)
    _results(old, old_mf)  # warm the old generation's views and caches
    grow()
    new, new_mf = DistributedSearcher(body, 2), MultiFieldDistributedSearcher(fields, 2)
    hosts = [a.host for a in new.actors]
    assert hosts == [a.host for a in old.actors] == [a.host for a in new_mf.actors]
    old.shutdown()
    old_mf.shutdown()
    assert new.n_docs == 200
    reopened = _results(new, new_mf)
    new.shutdown()
    new_mf.shutdown()

    _settles_at_most(0)
    fresh, fresh_mf = DistributedSearcher(body, 2), MultiFieldDistributedSearcher(fields, 2)
    try:
        assert not set(a.host for a in fresh.actors) & set(hosts)
        _assert_identical(reopened, _results(fresh, fresh_mf))
    finally:
        fresh.shutdown()
        fresh_mf.shutdown()


def test_host_restart_after_reopen_keeps_results(index):
    """A host killed after a reopen restarts empty; it reopens the NEW
    searcher's views from their specs and answers identically."""
    body, fields, grow = index
    old = DistributedSearcher(body, 2)
    old.search_bm25(["the"], k=10)
    grow()
    new, new_mf = DistributedSearcher(body, 2), MultiFieldDistributedSearcher(fields, 2)
    old.shutdown()
    try:
        expected = _results(new, new_mf)
        ray.kill(new.actors[0].host, no_restart=False)
        _assert_identical(_results(new, new_mf), expected)
    finally:
        new.shutdown()
        new_mf.shutdown()


def _gone(pid: int, timeout_s: float = 30.0) -> None:
    """Wait until process ``pid`` has exited (or is a zombie): a kill is
    asynchronous, and until it lands the old process still answers."""
    t_end = time.monotonic() + timeout_s
    while time.monotonic() < t_end:
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except FileNotFoundError:
            return
        time.sleep(0.05)
    raise AssertionError(f"process {pid} alive {timeout_s}s after its kill")


def test_stale_view_refuses_newer_generation(index):
    """A searcher whose host restarts after the index changed must not
    answer from the newer index with its old global stats."""
    body, _, grow = index
    ds = DistributedSearcher(body, 2)
    try:
        ds.search_bm25(["the", "data"], k=10)
        grow()
        host, key = ds.actors[0].host, ds.actors[0].key
        pid = ray.get(host.run.remote(key, lambda s: os.getpid()))
        ray.kill(host, no_restart=False)
        _gone(pid)  # the next call must meet the restarted host
        with pytest.raises(StaleIndexView, match="changed since"):
            ds.search_bm25(["the", "data"], k=10)
        # a searcher opened now sees the new generation on the same hosts
        cur = DistributedSearcher(body, 2)
        try:
            assert cur.search_bm25(["the", "data"], k=10)[0].size
        finally:
            cur.shutdown()
    finally:
        ds.shutdown()


def test_host_lifetime_no_leaks(index):
    """Five overlapping reopen cycles (open the new searcher, then shut
    down the old) with a 4-actor searcher open across two of them: the
    live host count never exceeds the largest pool open, and the last
    shutdown leaves no host alive."""
    body, _, _ = index
    gc.collect()
    _settles_at_most(0)
    cur, big = DistributedSearcher(body, 2), None
    expected = cur.search_bm25(["the", "data"], k=10)
    for c in range(5):
        if c == 1:
            big = DistributedSearcher(body, 4)
        new = DistributedSearcher(body, 2)
        _settles_at_most(4 if big else 2)
        cur.shutdown()
        cur = new
        if c == 3:
            big.shutdown()
            big = None
        assert _settles_at_most(4 if big else 2) == (4 if big else 2)
        _assert_identical([cur.search_bm25(["the", "data"], k=10)], [expected])
    cur.shutdown()
    _settles_at_most(0)
    assert not any(distributed._HOSTS.values())


def test_dead_host_is_dropped_from_registry(index):
    body, _, _ = index
    ds = DistributedSearcher(body, 2)
    dead = ds.actors[1].host
    try:
        ray.kill(dead)  # no restart: the host is gone for good
        with pytest.raises(ray.exceptions.ActorDiedError):
            ds.search_bm25(["the"], k=10)
        again = DistributedSearcher(body, 2)
        try:
            assert dead not in [a.host for a in again.actors]
            assert again.search_bm25(["the"], k=10)[0].size
        finally:
            again.shutdown()
    finally:
        ds.shutdown()
    _settles_at_most(0)
