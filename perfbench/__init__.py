"""Benchmark of the engine: see run.py and README.md."""
