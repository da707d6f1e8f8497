"""Headless per-test software energy profiler.

Discovers test cases through a language-neutral harness protocol, runs
them one at a time under a RAPL (or simulated) energy sampler, attributes
per-domain energy to each test, stores results keyed by revision, and
renders terminal, HTML, CSV and machine-readable reports.

The package re-exports nothing, so every import names its module.
"""
