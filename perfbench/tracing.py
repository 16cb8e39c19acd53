"""Spans around the benchmark's calls into the engine's layers.

Driver-side spans are kept in memory. Calls that run inside Ray worker
processes (the map_batches / map_groups functions the build hands to Ray
Data) are wrapped so each call appends one JSON line to a per-process
file under the run's span directory; ``Tracer.collect`` reads them back
when the run ends.

Parents are found by time containment: a worker span's parent is the
innermost span of the same process that contains it, else the innermost
driver span that contains it (every worker call runs inside the driver
call that started it, e.g. ``build_index``). A span's self time is its
duration minus the part of its interval covered by its children.

``instrument`` patches the engine module attributes that are called from
inside other engine functions (so the benchmark cannot put a span around
the call itself), and restores them on exit. It is only used with
tracing on; the tracing-off run calls the unpatched engine.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    pid: int
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.dur - _covered(self.t0, self.t1, self.children)

    def descendants(self):
        for c in self.children:
            yield c
            yield from c.descendants()


def _covered(t0: float, t1: float, spans: list[Span]) -> float:
    """Length of [t0, t1] covered by the union of the spans' intervals."""
    total, end = 0.0, t0
    for s in sorted(spans, key=lambda s: s.t0):
        a, b = max(s.t0, end), min(s.t1, t1)
        if b > a:
            total += b - a
            end = b
    return total


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield attrs

    def remote(self, name: str, fn, count_rows: bool = False):
        return fn


class Tracer:
    enabled = True

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        os.makedirs(span_dir, exist_ok=True)
        self.spans: list[Span] = []
        self.overhead_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the body; the caller may add attributes to the yielded
        dict (counts measured inside the span)."""
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            self.spans.append(Span(name, t0, t1, os.getpid(), attrs))
            self.overhead_s += time.perf_counter() - t1

    def wrap(self, name: str, fn, **attrs):
        """Driver-side wrapper: one span per call."""

        def traced(*args, **kwargs):
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def remote(self, name: str, fn, count_rows: bool = False):
        """Wrapper for a function Ray runs in worker processes."""
        return _RemoteSpan(self.span_dir, name, fn, count_rows)

    def collect(self) -> list[Span]:
        """Every span of the run (driver and workers) as a forest: roots
        are returned; ``children`` is filled by time containment."""
        spans = list(self.spans)
        for fname in sorted(os.listdir(self.span_dir)):
            with open(os.path.join(self.span_dir, fname)) as f:
                for line in f:
                    r = json.loads(line)
                    self.overhead_s += r.pop("oh")
                    spans.append(Span(r["name"], r["t0"], r["t1"], r["pid"], r["attrs"]))
        driver = os.getpid()
        roots: list[Span] = []
        open_by_pid: dict[int, list[Span]] = {}  # per process: open spans
        # sweep in start order, longest first, so containers come first
        for s in sorted(spans, key=lambda s: (s.t0, -s.t1)):
            parent = None
            for pid in (s.pid, driver):
                stack = open_by_pid.setdefault(pid, [])
                while stack and stack[-1].t1 < s.t0:
                    stack.pop()
                if parent is None:
                    parent = next((p for p in reversed(stack) if s.t1 <= p.t1), None)
            (parent.children if parent else roots).append(s)
            open_by_pid[s.pid].append(s)
        return roots


class _RemoteSpan:
    """Picklable callable: times ``fn`` in whichever process runs it and
    appends the span to ``<span_dir>/spans-<pid>.jsonl``. ``oh`` is the
    time the previous append took in that process (its bookkeeping)."""

    _last_oh = 0.0  # per-process: set on the class in the worker

    def __init__(self, span_dir: str, name: str, fn, count_rows: bool):
        self.span_dir, self.name, self.fn, self.count_rows = (
            span_dir, name, fn, count_rows,
        )
        self.__name__ = getattr(fn, "__name__", name)  # Ray Data reads it

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.fn(*args, **kwargs)
        t1 = time.perf_counter()
        attrs = {"rows": out.num_rows} if self.count_rows else {}
        pid = os.getpid()
        line = json.dumps(
            {"name": self.name, "t0": t0, "t1": t1, "pid": pid,
             "attrs": attrs, "oh": _RemoteSpan._last_oh}
        )
        with open(os.path.join(self.span_dir, f"spans-{pid}.jsonl"), "a") as f:
            f.write(line + "\n")
        _RemoteSpan._last_oh = time.perf_counter() - t1
        return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the engine's inner call sites with spans; restore on exit.

    - ``corpus.generate_extract``: page synthesis (the batch function
      ``generate_pages`` maps); extraction is wrapped by the caller.
    - ``index.build.partials`` / ``analysis.analyze`` / ``index.build.write``:
      the functions ``build_index`` hands to Ray Data.
    - ``index.build`` inside ``upsert_docs``, and the upsert's
      ``index.deletes.delete`` / ``index.deletes.purge`` steps.
    - ``query.engine.merge``: ``topk_desc`` over the per-actor parts.
    """
    from neural_search_ray.corpus import generator
    from neural_search_ray.index import build, deletes
    from neural_search_ray.query import distributed

    make_partials = build.make_tokenize_partial_postings
    make_write = build.make_write_group
    patches = [
        (generator, "_gen_batch",
         tracer.remote("corpus.generate_extract", generator._gen_batch)),
        (build, "analyze_column",
         tracer.remote("analysis.analyze", build.analyze_column)),
        (build, "make_tokenize_partial_postings",
         lambda *a, **k: tracer.remote(
             "index.build.partials", make_partials(*a, **k), count_rows=True)),
        (build, "make_write_group",
         lambda *a, **k: tracer.remote("index.build.write", make_write(*a, **k))),
        (build, "build_index", tracer.wrap("index.build", build.build_index, kind="upsert")),
        (deletes, "delete_docs", tracer.wrap("index.deletes.delete", deletes.delete_docs)),
        (deletes, "purge_deletes", tracer.wrap("index.deletes.purge", deletes.purge_deletes)),
        (distributed, "topk_desc", tracer.wrap("query.engine.merge", distributed.topk_desc)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)

