"""Record paired-leg scaling results into BASELINE.md.

Usage:
  PYTHONPATH=. python tools/update_baseline.py '<scaling-json-line>'
or pipe: python bench.py --scaling-paired | PYTHONPATH=. python tools/update_baseline.py
"""

from __future__ import annotations

import datetime
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARK_BEGIN = "<!-- MEASURED-RESULTS:BEGIN -->"
MARK_END = "<!-- MEASURED-RESULTS:END -->"


def render(d: dict) -> str:
    """The BASELINE.md block for one ``bench.run_scaling_paired`` result:
    every pair (clean or not, errors included), with the median
    clean-pair efficiency as the headline."""
    today = datetime.date.today().isoformat()
    eff, target = d["value"], d.get("target", 0.8)
    if eff is None:
        headline = "no load-matched pair → **INCONCLUSIVE**"
    else:
        verdict = "PASS" if eff >= target else "FAIL"
        headline = f"**{eff}** (target ≥ {target}) → **{verdict}**"
    rows = []
    for p in d["pairs"]:
        if "error" in p:
            rows.append(f"| {p['pair']} | error: {p['error']} | | | | |")
            continue
        loads = ", ".join(str(x) for x in p["loads_hi_then_lo"])
        rows.append(
            f"| {p['pair']} | {p['build_docs_per_sec_low']:,.0f} "
            f"| {p['build_docs_per_sec_high']:,.0f} | {p['efficiency']} "
            f"| {loads} | {'yes' if p['clean'] else 'no'} |"
        )
    table = "\n".join(rows)
    return f"""{MARK_BEGIN}
## Measured results ({today}, single node, fresh process per leg, paired legs)

corpus: synthetic Common-Crawl-style pages, seed=42, {d['n_pages']:,} docs;
legs alternate {d['cpus_high']} then {d['cpus_low']} cpus; a pair is clean
when both legs start below the load threshold ({d['clean_load_threshold']}
external, plus {d['cpus_high']}/4 for the low leg)

| pair | build docs/sec @{d['cpus_low']} | build docs/sec @{d['cpus_high']} | efficiency | loadavg hi start/end, lo start/end | clean |
|---|---|---|---|---|---|
{table}

scaling efficiency ({d['cpus_low']}→{d['cpus_high']} cpus), median of
{d['n_clean_pairs']}/{d['n_pairs']} clean pairs: {headline}
(best clean pair {d['max_clean_efficiency']}, disclosed, never headlined)

rank-identity vs oracle: enforced by pytest
(tests/test_index_query.py::test_bm25_rank_identity,
tests/test_engine_advanced.py::test_multi_segment_rank_identity) and by
the DuckDB oracle gate (tools/check_correctness.py — bm25_topk et al.).
{MARK_END}"""


def main() -> None:
    raw = sys.argv[1] if len(sys.argv) > 1 else sys.stdin.read()
    line = [l for l in raw.strip().splitlines() if l.startswith("{")][-1]
    d = json.loads(line)
    path = os.path.join(REPO, "BASELINE.md")
    text = open(path).read()
    block = render(d)
    if MARK_BEGIN in text:
        text = re.sub(
            re.escape(MARK_BEGIN) + r".*?" + re.escape(MARK_END),
            lambda _: block,
            text,
            flags=re.S,
        )
    else:
        text = text.rstrip() + "\n\n" + block + "\n"
    open(path, "w").write(text)
    print(f"BASELINE.md updated: median clean efficiency={d['value']}")


if __name__ == "__main__":
    main()
