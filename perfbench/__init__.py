"""Benchmark harness for ciphermind; see README.md."""
