"""Benchmark harness for bindex; see README.md in this directory."""
