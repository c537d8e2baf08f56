"""Benchmark for frobstat: seeded workloads, output checks and layer tracing.

Run `python3 perfbench/run.py --help` from the root of a checkout.
"""
