"""Opportunistic paired-leg scaling hunter.

The shared box gets co-tenant waves that clip any 32-cpu leg; idle gaps
between waves last a few minutes. This tool polls 1-/5-min loadavg and
fires ONE paired leg set (high leg first — see bench.run_scaling_paired)
the moment the box is genuinely idle, appending each pair to a JSONL
log. Runs a fixed number of attempts (never stopping early on a good
pair, which would bias the record upward), or stops at the deadline,
then prints the median clean-pair efficiency.

Usage, from the repository root:
  PYTHONPATH=. python tools/scaling_hunter.py \
      [--minutes 90] [--attempts 5] [--out /tmp/paired_hunt.jsonl]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--minutes", type=float, default=90.0)
    ap.add_argument("--attempts", type=int, default=5)
    ap.add_argument("--idle1", type=float, default=1.0)
    ap.add_argument("--idle5", type=float, default=2.5)
    ap.add_argument("--poll", type=float, default=45.0)
    ap.add_argument("--pages", type=int, default=2_000_000)
    ap.add_argument("--out", default="/tmp/paired_hunt.jsonl")
    args = ap.parse_args()

    deadline = time.time() + args.minutes * 60
    attempt = 0
    clean: list[float] = []
    while attempt < args.attempts and time.time() < deadline:
        l1, l5, _ = os.getloadavg()
        if l1 < args.idle1 and l5 < args.idle5:
            attempt += 1
            print(f"[hunter] idle (l1={l1:.2f} l5={l5:.2f}) — "
                  f"firing pair attempt {attempt}", flush=True)
            env = dict(os.environ)
            env["PYTHONPATH"] = REPO
            r = subprocess.run(
                [sys.executable, os.path.join(REPO, "bench.py"),
                 "--scaling-paired", "--pairs", "1",
                 "--pages", str(args.pages)],
                capture_output=True, text=True, env=env,
            )
            lines = [l for l in r.stdout.strip().splitlines()
                     if l.startswith("{")]
            if not lines:
                print(f"[hunter] pair failed rc={r.returncode}: "
                      f"{r.stderr[-300:]}", flush=True)
                time.sleep(args.poll)
                continue
            d = json.loads(lines[-1])
            d["attempt"] = attempt
            d["ts"] = time.strftime("%Y-%m-%dT%H:%M:%S")
            with open(args.out, "a") as f:
                f.write(json.dumps(d) + "\n")
            p = d["pairs"][0]
            print(f"[hunter] pair eff={p.get('efficiency')} "
                  f"clean={p.get('clean')} "
                  f"loads={p.get('loads_hi_then_lo')} "
                  f"err={p.get('error')}", flush=True)
            if p.get("clean"):
                clean.append(p["efficiency"])
        time.sleep(args.poll)
    print(f"[hunter] {attempt} attempts, {len(clean)} clean; median clean "
          f"efficiency {statistics.median(clean) if clean else None}", flush=True)


if __name__ == "__main__":
    main()
