"""Benchmark tests import the engine from this checkout's ``src``."""

from workloads import load_engine

load_engine()
