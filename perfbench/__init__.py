"""Benchmark harness for renormcert; see run.py."""
