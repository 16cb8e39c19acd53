"""tools/update_baseline.render: the BASELINE.md block for a paired-leg
scaling result (bench.run_scaling_paired), rendered from a synthetic
result — nothing is written to BASELINE.md."""

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _render():
    spec = importlib.util.spec_from_file_location(
        "update_baseline", os.path.join(REPO, "tools", "update_baseline.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.render, mod.MARK_BEGIN, mod.MARK_END


def _pair(i, lo, hi, eff, clean):
    return {
        "pair": i, "build_docs_per_sec_low": lo, "build_docs_per_sec_high": hi,
        "efficiency": eff, "loads_hi_then_lo": [1.5, 30.2, 9.0, 8.1],
        "clean": clean,
    }


def _result(pairs, clean_effs):
    return {
        "metric": "nsr_scaling_paired",
        "value": sorted(clean_effs)[len(clean_effs) // 2] if clean_effs else None,
        "unit": "efficiency", "sf": "/data/sf0.1", "cpus_low": 8,
        "cpus_high": 32, "n_pages": 2_000_000, "clean_load_threshold": 4.0,
        "n_pairs": len(pairs), "n_clean_pairs": len(clean_effs),
        "max_clean_efficiency": max(clean_effs) if clean_effs else None,
        "target": 0.8, "pairs": pairs,
    }


def test_render_headlines_clean_pair_median():
    render, begin, end = _render()
    pairs = [
        _pair(0, 50_000, 170_000, 0.85, True),
        _pair(1, 50_000, 120_000, 0.6, False),
        _pair(2, 52_000, 160_000, 0.769, True),
        {"pair": 3, "error": "bench leg (cpus=32) produced no JSON line"},
        _pair(4, 51_000, 168_000, 0.824, True),
    ]
    out = render(_result(pairs, [0.85, 0.769, 0.824]))
    assert out.startswith(begin) and out.endswith(end)
    assert "median of\n3/5 clean pairs: **0.824** (target ≥ 0.8) → **PASS**" in out
    assert "(best clean pair 0.85, disclosed, never headlined)" in out
    assert "| 1 | 50,000 | 120,000 | 0.6 | 1.5, 30.2, 9.0, 8.1 | no |" in out
    assert "| 3 | error: bench leg (cpus=32) produced no JSON line |" in out
    assert "2,000,000 docs" in out


def test_render_without_clean_pairs_is_inconclusive():
    render, _, _ = _render()
    out = render(_result([_pair(0, 50_000, 90_000, 0.45, False)], []))
    assert "0/1 clean pairs: no load-matched pair → **INCONCLUSIVE**" in out
    assert "PASS" not in out and "FAIL" not in out
