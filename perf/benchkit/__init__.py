"""The repo benchmark's harness (see ``perf/README.md``).

Everything here drives the product through its public functions only and
is self-contained under ``perf/``; ``repro.bench`` is deliberately not
used.
"""
