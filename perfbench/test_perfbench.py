"""Tests of the benchmark itself, on its smoke sizes.

    python -m pytest perfbench -q

Each test starts the runner in a fresh process, as the benchmark is run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import scenario  # noqa: E402
from perfbench.tracing import Span, Tracer  # noqa: E402

# layer counts that must repeat exactly for one seed
EXACT = (
    "index.build.partial_rows", "index.build.files_per_segment",
    "index.build.bytes_per_doc", "index.build.group_skew",
    "index.deletes.files_rewritten", "index.deletes.bytes_rewritten_per_doc",
    *(f"query.engine.stats.{c}" for c in scenario.COUNTERS),
)


def _run(*args, cwd=ROOT, timeout=170):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return p.returncode, p.stdout, p.stderr


def _result(stdout: str) -> dict:
    r = json.loads(stdout.strip().splitlines()[-1])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    return r


def _smoke(workload: str, trace: int, seed: int = 3) -> dict:
    rc, out, err = _run("--workload", workload, "--smoke", "--seconds", "1",
                        "--seed", str(seed), "--trace", str(trace))
    assert rc == 0, err[-3000:]
    r = _result(out)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    return r["metrics"]


def test_all_workloads_report_every_end_to_end_metric():
    metrics = _smoke("all", 0)
    for w in scenario.WORKLOADS:
        for name, unit in scenario.END_TO_END:
            m = metrics[f"{w}.{name}"]
            assert m["unit"] == unit and m["value"] > 0, (w, name, m)


def test_layer_counts_repeat_for_one_seed():
    first, second = _smoke("all", 1), _smoke("all", 1)
    for w in scenario.WORKLOADS:
        for name, _ in scenario.PER_LAYER:
            assert f"{w}.{name}" in first, (w, name)
        for name in EXACT:
            key = f"{w}.{name}"
            assert first[key]["value"] == second[key]["value"], key
    assert first["serve_bm25.query.engine.stats.bm25_queries"]["value"] == (
        scenario.SMOKE.n_queries)


def test_fails_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, out, _ = _run("--workload", "serve_bm25", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert rc != 0 and out == ""


def test_self_time_subtracts_children(tmp_path):
    tracer = Tracer(str(tmp_path))
    pid = os.getpid()
    tracer.spans = [
        Span("build", 0.0, 10.0, pid),
        Span("write", 2.0, 5.0, pid),
        Span("write", 4.0, 6.0, pid),   # overlaps the first write
        Span("merge", 20.0, 21.0, pid),
    ]
    (tmp_path / "spans-1.jsonl").write_text(json.dumps(
        {"name": "partials", "t0": 7.0, "t1": 9.0, "pid": 1, "attrs": {}, "oh": 0.0}) + "\n")
    roots = tracer.collect()
    assert [r.name for r in roots] == ["build", "merge"]
    build = roots[0]
    assert sorted(c.name for c in build.descendants()) == ["partials", "write", "write"]
    assert build.self_time == pytest.approx(10.0 - 4.0 - 2.0)


def test_f2_mix_is_seeded():
    a, b = scenario.f2_queries(5, 400), scenario.f2_queries(5, 400)
    assert a == b and a != scenario.f2_queries(6, 400)
    share = {c: sum(q.cls == c for q in a) / len(a) for c in scenario.QUERY_CLASSES}
    assert 0.3 < share["common"] < 0.5 and 0.02 < share["stop"] < 0.2
    assert all(q.k == (100 if i % 40 == 0 else 10) for i, q in enumerate(a))
